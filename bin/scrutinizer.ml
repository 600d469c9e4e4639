(* The standalone Scrutinizer CLI: run the leakage-freedom analysis over
   the bundled region corpus, per app or in full, at either scale.

     dune exec bin/scrutinizer.exe -- --app portfolio --scale full
     dune exec bin/scrutinizer.exe -- --stdlib
     dune exec bin/scrutinizer.exe -- --region 'pf::rank_region' --explain
     dune exec bin/scrutinizer.exe -- --json
     dune exec bin/scrutinizer.exe -- --elide --app websubmit --explain

   Exit codes under --json are meaningful so CI can gate on them: 0 when
   every analyzed region is accepted, 1 when the output contains any
   rejection (for the bundled corpus, which includes known-leaking
   regions, a full-run exit of 1 is the expected healthy outcome). *)

module Scrut = Sesame_scrutinizer
module Corpus = Sesame_corpus
module Sign = Sesame_signing

(* ------------------------------------------------------------------ *)
(* Hand-rolled JSON rendering (no JSON dependency in the tree). *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = "\"" ^ json_escape s ^ "\""

let json_of_step (s : Scrut.Analysis.step) =
  Printf.sprintf {|{"kind":%s,"fn":%s,"detail":%s}|}
    (json_str
       (match s.Scrut.Analysis.step_kind with
       | Scrut.Analysis.Source -> "source"
       | Flow -> "flow"
       | Branch -> "branch"
       | Call -> "call"
       | Return -> "return"
       | Writeback -> "writeback"
       | Sink -> "sink"))
    (json_str s.Scrut.Analysis.step_fn)
    (json_str s.Scrut.Analysis.step_detail)

let json_of_rejection (r : Scrut.Analysis.rejection) =
  Printf.sprintf {|{"reason":%s,"trace":[%s]}|}
    (json_str (Scrut.Analysis.reason_to_string r.Scrut.Analysis.reason))
    (String.concat "," (List.map json_of_step r.Scrut.Analysis.trace))

let json_of_verdict ~label ~name (v : Scrut.Analysis.verdict) =
  Printf.sprintf
    {|{"app":%s,"region":%s,"accepted":%b,"functions":%d,"rejections":[%s]}|}
    (json_str label) (json_str name) v.Scrut.Analysis.accepted
    v.Scrut.Analysis.stats.functions_analyzed
    (String.concat "," (List.map json_of_rejection v.Scrut.Analysis.rejections))

let print_json ~corpus ~scale results =
  let verified =
    List.length (List.filter (fun (_, _, v) -> v.Scrut.Analysis.accepted) results)
  in
  Format.printf {|{"corpus":%s,"scale":%s,"verified":%d,"total":%d,"regions":[%s]}@.|}
    (json_str corpus) (json_str scale) verified (List.length results)
    (String.concat ","
       (List.map (fun (label, name, v) -> json_of_verdict ~label ~name v) results))

let print_explanations (v : Scrut.Analysis.verdict) =
  List.iter
    (fun (r : Scrut.Analysis.rejection) ->
      Format.printf "    - %s@." (Scrut.Analysis.rejection_to_string r);
      List.iter
        (fun s -> Format.printf "        %s@." (Scrut.Analysis.step_to_string s))
        r.Scrut.Analysis.trace)
    v.Scrut.Analysis.rejections

(* Any rejection in machine-readable output turns into a non-zero exit
   so CI can gate on "the verdicts are what we ship", not on greps. *)
let json_exit results =
  if List.exists (fun (_, _, v) -> v.Scrut.Analysis.rejections <> []) results then 1 else 0

(* ------------------------------------------------------------------ *)

let run_app_corpus scale app_filter region_filter verbose explain json =
  let program = Corpus.App_corpus.program scale in
  let cases =
    Corpus.App_corpus.cases ()
    |> List.filter (fun (c : Corpus.App_corpus.case) ->
           (match app_filter with Some app -> c.app = app | None -> true)
           && match region_filter with Some r -> c.name = r | None -> true)
  in
  if cases = [] then (
    Format.eprintf "no regions match the given filters@.";
    1)
  else begin
    let results =
      List.map
        (fun (c : Corpus.App_corpus.case) ->
          (c.app, c.name, c.spec, Scrut.Analysis.check program c.spec))
        cases
    in
    if json then begin
      let flat = List.map (fun (app, name, _, v) -> (app, name, v)) results in
      print_json ~corpus:"app"
        ~scale:(match scale with Corpus.App_corpus.Small -> "small" | Full -> "full")
        flat;
      json_exit flat
    end
    else begin
      let accepted = ref 0 in
      List.iter
        (fun (app, name, spec, v) ->
          if v.Scrut.Analysis.accepted then incr accepted;
          Format.printf "%-10s %-38s %s (%d functions, %.3fs)@." app name
            (if v.Scrut.Analysis.accepted then "VERIFIED" else "REJECTED")
            v.Scrut.Analysis.stats.functions_analyzed v.Scrut.Analysis.stats.duration_s;
          if explain && not v.Scrut.Analysis.accepted then begin
            Format.printf "    %s@." (Scrut.Spec.signature spec);
            print_explanations v
          end
          else if verbose && not v.Scrut.Analysis.accepted then
            List.iter
              (fun r -> Format.printf "    - %s@." (Scrut.Analysis.rejection_to_string r))
              v.Scrut.Analysis.rejections;
          if verbose && region_filter <> None then
            Format.printf "@[<v 2>source:@,%s@]@." (Scrut.Spec.source spec))
        results;
      Format.printf "@.%d/%d regions verified.@." !accepted (List.length results);
      0
    end
  end

let run_audit scale =
  let program = Corpus.App_corpus.program scale in
  let findings = Scrut.Encapsulation.audit program in
  List.iter (fun f -> Format.printf "%a@." Scrut.Encapsulation.pp_finding f) findings;
  (match Scrut.Encapsulation.breaking_packages program with
  | [] -> Format.printf "@.no encapsulation-breaking packages.@."
  | pkgs ->
      Format.printf "@.packages needing review or the obfuscated layout: %s@."
        (String.concat ", " pkgs));
  0

let run_stdlib verbose explain json =
  let program = Corpus.Stdlib_corpus.program () in
  let cases = Corpus.Stdlib_corpus.cases () in
  let results =
    List.map
      (fun (c : Corpus.Stdlib_corpus.case) ->
        (c, Scrut.Analysis.check program c.spec))
      cases
  in
  if json then begin
    let flat =
      List.map (fun ((c : Corpus.Stdlib_corpus.case), v) -> ("stdlib", c.name, v)) results
    in
    print_json ~corpus:"stdlib" ~scale:"-" flat;
    json_exit flat
  end
  else begin
    let accepted = ref 0 in
    List.iter
      (fun ((c : Corpus.Stdlib_corpus.case), v) ->
        if v.Scrut.Analysis.accepted then incr accepted;
        Format.printf "%-28s %s%s@." c.name
          (if v.Scrut.Analysis.accepted then "VERIFIED" else "REJECTED")
          (if (not v.Scrut.Analysis.accepted) && c.leak_free then "  (false positive)" else "");
        if explain && not v.Scrut.Analysis.accepted then print_explanations v
        else if verbose && not v.Scrut.Analysis.accepted then
          List.iter
            (fun r -> Format.printf "    - %s@." (Scrut.Analysis.rejection_to_string r))
            v.Scrut.Analysis.rejections)
      results;
    Format.printf "@.%d/%d methods verified.@." !accepted (List.length results);
    0
  end

(* ------------------------------------------------------------------ *)
(* Check elision: classify each (endpoint, sink, policy-family) triple
   of the per-app models and print (or emit) the verdicts with their
   replayable proof witnesses. *)

let json_of_certificate ~app (c : Scrut.Elision.certificate) =
  let proof =
    match c.Scrut.Elision.cert_verdict with
    | Scrut.Elision.Redundant (Scrut.Elision.Field_disjoint { param; path }) ->
        Printf.sprintf {|{"rule":"field-disjoint","param":%s,"path":[%s]}|} (json_str param)
          (String.concat "," (List.map json_str path))
    | Scrut.Elision.Redundant (Scrut.Elision.Context_satisfies { clause }) ->
        Printf.sprintf {|{"rule":"context-satisfies","clause":[%s]}|}
          (String.concat "," (List.map (fun a -> json_str (Scrut.Elision.atom_to_string a)) clause))
    | Scrut.Elision.Pushable -> {|{"rule":"pushable"}|}
    | Scrut.Elision.Residual why -> Printf.sprintf {|{"rule":"residual","why":%s}|} (json_str why)
  in
  Printf.sprintf
    {|{"app":%s,"endpoint":%s,"sink":%s,"family":%s,"verdict":%s,"proof":%s,"witness":[%s]}|}
    (json_str app)
    (json_str c.Scrut.Elision.cert_endpoint)
    (json_str c.Scrut.Elision.cert_sink)
    (json_str c.Scrut.Elision.cert_family)
    (json_str (Scrut.Elision.verdict_name c.Scrut.Elision.cert_verdict))
    proof
    (String.concat "," (List.map json_of_step c.Scrut.Elision.cert_witness))

let run_elide scale app_filter explain json =
  let models =
    Corpus.Elision_corpus.models ()
    |> List.filter (fun (m : Corpus.Elision_corpus.model) ->
           match app_filter with Some app -> m.app = app | None -> true)
  in
  if models = [] then (
    Format.eprintf "no elision model matches the given filters@.";
    2)
  else begin
    let classified =
      List.map
        (fun (m : Corpus.Elision_corpus.model) -> (m, Corpus.Elision_corpus.classify ~scale m))
        models
    in
    if json then begin
      let certs =
        List.concat_map
          (fun ((m : Corpus.Elision_corpus.model), certs) ->
            List.map (json_of_certificate ~app:m.app) certs)
          classified
      in
      let redundant, pushable, residual =
        List.fold_left
          (fun (r, p, s) (_, certs) ->
            List.fold_left
              (fun (r, p, s) (c : Scrut.Elision.certificate) ->
                match c.cert_verdict with
                | Scrut.Elision.Redundant _ -> (r + 1, p, s)
                | Scrut.Elision.Pushable -> (r, p + 1, s)
                | Scrut.Elision.Residual _ -> (r, p, s + 1))
              (r, p, s) certs)
          (0, 0, 0) classified
      in
      Format.printf
        {|{"corpus":"elision","redundant":%d,"pushable":%d,"residual":%d,"certificates":[%s]}@.|}
        redundant pushable residual
        (String.concat "," certs);
      0
    end
    else begin
      List.iter
        (fun ((m : Corpus.Elision_corpus.model), certs) ->
          List.iter
            (fun (c : Scrut.Elision.certificate) ->
              Format.printf "%-10s %-12s %-16s %-28s %s@." m.app c.cert_endpoint c.cert_sink
                c.cert_family
                (Scrut.Elision.verdict_name c.cert_verdict);
              if explain then begin
                Format.printf "    @[%a@]@." Scrut.Elision.pp_certificate c;
                let ok =
                  Scrut.Elision.replay ~program:(Corpus.App_corpus.program scale)
                    ~families:m.families ~sites:m.sites c
                in
                Format.printf "    replay: %s@." (if ok then "confirmed" else "DIVERGED")
              end)
            certs)
        classified;
      let total = List.fold_left (fun n (_, certs) -> n + List.length certs) 0 classified in
      let count p =
        List.fold_left
          (fun n (_, certs) ->
            n + List.length (List.filter (fun (c : Scrut.Elision.certificate) -> p c.cert_verdict) certs))
          0 classified
      in
      Format.printf "@.%d triples: %d redundant, %d pushable, %d residual.@." total
        (count (function Scrut.Elision.Redundant _ -> true | _ -> false))
        (count (function Scrut.Elision.Pushable -> true | _ -> false))
        (count (function Scrut.Elision.Residual _ -> true | _ -> false));
      0
    end
  end

(* ------------------------------------------------------------------ *)
(* Attestation-log verification: replay the signed run log and fail on
   any run whose body hash lacks an approving verdict — the runtime
   counterpart of the static verdicts above. *)

let run_attest_verify secret path =
  match Sign.Attest.verify ?secret path with
  | Ok s ->
      Format.printf "attestation log OK: %d approvals, %d runs over %d distinct bodies%s@."
        s.Sign.Attest.approvals s.runs s.distinct_bodies
        (if s.torn_tail then " (torn trailing frame ignored)" else "");
      0
  | Error msg ->
      Format.eprintf "attestation verification FAILED: %s@." msg;
      1

open Cmdliner

let app_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun a -> (a, a)) Corpus.App_corpus.apps))) None
    & info [ "app" ] ~docv:"APP" ~doc:"Analyze only this application's regions.")

let region_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "region" ] ~docv:"NAME" ~doc:"Analyze only the named region.")

let scale_arg =
  Arg.(
    value
    & opt
        (enum [ ("small", Corpus.App_corpus.Small); ("full", Corpus.App_corpus.Full) ])
        Corpus.App_corpus.Small
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Dependency-tree scale: $(b,small) for quick runs, $(b,full) for Fig. 10-sized call graphs.")

let stdlib_arg =
  Arg.(value & flag & info [ "stdlib" ] ~doc:"Analyze the std-collection method corpus instead.")

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit-unsafe" ]
        ~doc:"Whole-program unsafe-encapsulation audit (the section-12 analysis) instead of region checking.")

let elide_arg =
  Arg.(
    value & flag
    & info [ "elide" ]
        ~doc:
          "Run the check-elision pass instead: classify each (endpoint, sink, policy-family) triple of the per-app models as redundant, pushable, or residual, with replayable proof witnesses.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print rejection reasons (and sources with --region).")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the witness trace of every rejection: the path sensitive data takes from its source binding to the rejected sink.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit machine-readable JSON (verdicts, rejections, and witness traces) instead of text.")

let attest_verify_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "attest-verify" ] ~docv:"LOG"
        ~doc:
          "Verify the signed run-attestation log at $(docv) instead: check the header, every \
           frame's CRC and signature, and that every recorded run's region body carries an \
           earlier approving verdict. Exit 0 on a clean log, 1 on any violation.")

let attest_secret_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "attest-secret" ] ~docv:"SECRET"
        ~doc:"With --attest-verify: the attestor secret the log was signed under (defaults to \
              the built-in test-fixture secret).")

let cmd =
  let run stdlib audit elide scale app region verbose explain json attest_verify attest_secret =
    match attest_verify with
    | Some path -> run_attest_verify attest_secret path
    | None ->
        if audit then run_audit scale
        else if elide then run_elide scale app explain json
        else if stdlib then run_stdlib verbose explain json
        else run_app_corpus scale app region verbose explain json
  in
  Cmd.v
    (Cmd.info "scrutinizer" ~version:"1.0"
       ~doc:"Check privacy regions for leakage-freedom (the paper's Scrutinizer)")
    Term.(
      const run $ stdlib_arg $ audit_arg $ elide_arg $ scale_arg $ app_arg $ region_arg
      $ verbose_arg $ explain_arg $ json_arg $ attest_verify_arg $ attest_secret_arg)

let () = exit (Cmd.eval' cmd)
