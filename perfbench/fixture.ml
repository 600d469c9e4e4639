(* The system under test: all four apps behind one path-prefix mux, with
   WebSubmit at the Fig. 8 size on the durable store. The server process
   builds it; the workload generator reads its sizes. *)

module Http = Sesame_http
module Apps = Sesame_apps
module Sbx = Sesame_sandbox
module Wal = Sesame_wal

let students = 100
let questions = 100

(* The sandbox's per-run memory budget and arena size, a deployment
   setting sized to the seeded payload. Retrain copies every consenting
   student's (question, grade) pairs into the arena, ~61 bytes a pair as
   measured at 100 x 100 (208 KB for the 3.4k pairs of the seeded third
   that consents). harden's defaults (a 128 KiB budget, 256 KiB arenas)
   are too small for that: Retrain traps and answers a bare 500, and the
   arena is quarantined. Sizing covers every student consenting (consent
   toggles in the mixed workload move the share) at 64 bytes a pair,
   doubled for headroom. Every other hardening default stays: preflight,
   the 5 s deadline, 1M fuel, no quota limits, the Deny policy. *)
let train_mem_budget = 2 * 64 * students * questions

let budget =
  Sbx.Runtime.budget ~deadline_s:5.0 ~fuel:1_000_000 ~mem_bytes:train_mem_budget ()

type t = {
  websubmit : Apps.Websubmit.t;
  store : Wal.Durable.t;
  youchat : Apps.Youchat.t;
  voltron : Apps.Voltron.t;
  portfolio : Apps.Portfolio.t;
  hardening : Apps.Websubmit.hardening;
}

let ok what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

let harden ~domains =
  ok "harden" (Apps.Websubmit.harden ~pool_capacity:domains ~max_pool_capacity:domains
       ~arena_size:train_mem_budget ~budget ())

let create ~hardening ~data_dir =
  let websubmit, store =
    ok "websubmit"
      (Apps.Websubmit.create_durable ~durable_config:Wal.Durable.default_config ~hardening
         ~data_dir ())
  in
  {
    websubmit;
    store;
    youchat = ok "youchat" (Apps.Youchat.create ());
    voltron = ok "voltron" (Apps.Voltron.create ());
    portfolio = ok "portfolio" (Apps.Portfolio.create ());
    hardening;
  }

(* WebSubmit at the Fig. 8 size; the other three as the [serve]
   experiment seeds them. *)
let seed t =
  ok "seed websubmit" (Apps.Websubmit.seed t.websubmit ~students ~questions);
  ok "seed youchat" (Apps.Youchat.seed t.youchat ~users:20 ~messages:200);
  ok "seed voltron" (Apps.Voltron.seed t.voltron ~classes:2 ~students_per_class:4);
  ok "seed portfolio" (Apps.Portfolio.seed t.portfolio ~candidates:10)

let databases t =
  [
    Apps.Websubmit.database t.websubmit;
    Apps.Youchat.database t.youchat;
    Apps.Voltron.database t.voltron;
    Apps.Portfolio.database t.portfolio;
  ]

let split_prefix path =
  if String.length path < 2 || path.[0] <> '/' then None
  else
    match String.index_from_opt path 1 '/' with
    | Some i -> Some (String.sub path 1 (i - 1), String.sub path i (String.length path - i))
    | None -> Some (String.sub path 1 (String.length path - 1), "/")

let no_app = Http.Response.error Http.Status.Not_found "no such app"

(* The mux: /<app>/<rest> goes to that app's [handle] with the prefix
   stripped. *)
let handle t (request : Http.Request.t) =
  match split_prefix request.Http.Request.path with
  | None -> no_app
  | Some (app, rest) -> (
      let sub = { request with Http.Request.path = rest } in
      match app with
      | "websubmit" -> Apps.Websubmit.handle t.websubmit sub
      | "youchat" -> Apps.Youchat.handle t.youchat sub
      | "voltron" -> Apps.Voltron.handle t.voltron sub
      | "portfolio" -> Apps.Portfolio.handle t.portfolio sub
      | _ -> no_app)
