#!/usr/bin/env python3
"""Build the Sesame benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload browse|analytics|mixed --seed N \
        --seconds S --trace 0|1

Builds perfbench/sesame_bench.exe with dune, then runs its client, which
starts the server process itself. The last line of standard output is
the result as one JSON object. Scratch files (the durable store, span
files) go to perfbench/.work. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "sesame_bench.exe")
# Wall limit on one run of the client (set-up, window, checks).
RUN_TIMEOUT_S = 170


def commit_id():
    """The git commit, or a digest of the sources when not in a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # only this repository's own git, not one the checkout happens to sit in
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["browse", "analytics", "mixed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/sesame_bench.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", WORK, "--commit", commit_id(), "--cores", str(os.cpu_count())]
    # The client and the server it starts share one CPU. Left to the
    # scheduler, the pair sometimes shares a CPU and sometimes not, and a
    # request's round trip differs by about a third between the two.
    cpu = min(os.sched_getaffinity(0))
    print(f"perfbench: client and server pinned to CPU {cpu}", flush=True)
    # Its own process group, so a timeout also stops the server process.
    client = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        return client.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        stop_group(client)


def stop_group(client):
    """Kill whatever is left of the client's process group and wait for it."""
    try:
        os.killpg(client.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    client.wait()
    for _ in range(100):
        try:
            os.killpg(client.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
