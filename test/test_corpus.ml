(* Every corpus region is an individual test case: the Fig. 10 ground truth
   (98 app regions) and the §10.3 std-collection study (65 methods), each
   checked against Scrutinizer's expected verdict at Small scale. *)

module Scrut = Sesame_scrutinizer
module Corpus = Sesame_corpus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let app_program = lazy (Corpus.App_corpus.program Corpus.App_corpus.Small)
let std_program = lazy (Corpus.Stdlib_corpus.program ())

let app_case (c : Corpus.App_corpus.case) =
  let label =
    Printf.sprintf "%s %s (%s)" c.app c.name
      (match (c.expectation, c.expect_accept) with
      | Corpus.App_corpus.Leaking, _ -> "leaking: reject"
      | Corpus.App_corpus.Leak_free, true -> "leak-free: accept"
      | Corpus.App_corpus.Leak_free, false -> "leak-free: conservative reject")
  in
  Alcotest.test_case label `Quick (fun () ->
      let v = Scrut.Analysis.check (Lazy.force app_program) c.spec in
      check_bool "verdict" c.expect_accept v.Scrut.Analysis.accepted)

let std_case (c : Corpus.Stdlib_corpus.case) =
  let label =
    Printf.sprintf "%s (%s)" c.name
      (if not c.leak_free then "leaking: reject"
       else if c.expect_accept then "leak-free: accept"
       else "false positive")
  in
  Alcotest.test_case label `Quick (fun () ->
      let v = Scrut.Analysis.check (Lazy.force std_program) c.spec in
      check_bool "verdict" c.expect_accept v.Scrut.Analysis.accepted)

let shape_tests =
  [
    Alcotest.test_case "corpus shape matches Fig. 10" `Quick (fun () ->
        let cases = Corpus.App_corpus.cases () in
        check_int "98 regions" 98 (List.length cases);
        List.iter
          (fun (app, (leak_free, accepted, leaking)) ->
            let mine =
              List.filter (fun (c : Corpus.App_corpus.case) -> c.app = app) cases
            in
            let lf =
              List.filter
                (fun (c : Corpus.App_corpus.case) ->
                  c.expectation = Corpus.App_corpus.Leak_free)
                mine
            in
            check_int (app ^ " leak-free") leak_free (List.length lf);
            check_int (app ^ " accepted") accepted
              (List.length (List.filter (fun (c : Corpus.App_corpus.case) -> c.expect_accept) lf));
            check_int (app ^ " leaking") leaking (List.length mine - List.length lf))
          Corpus.App_corpus.expected_counts);
    Alcotest.test_case "stdlib study shape matches the paper" `Quick (fun () ->
        let leak_free, accepted, leaking = Corpus.Stdlib_corpus.counts () in
        check_int "57 leak-free" 57 leak_free;
        check_int "55 accepted (2 false positives)" 55 accepted;
        check_int "8 leaking" 8 leaking);
    Alcotest.test_case "region names are unique" `Quick (fun () ->
        let names =
          List.map (fun (c : Corpus.App_corpus.case) -> c.name) (Corpus.App_corpus.cases ())
        in
        check_int "unique" (List.length names) (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "Full scale analyzes far more functions than Small" `Quick (fun () ->
        (* One representative library-calling region at both scales. *)
        let pick scale =
          let program = Corpus.App_corpus.program scale in
          let c =
            List.find
              (fun (c : Corpus.App_corpus.case) -> c.name = "pf::rank_region")
              (Corpus.App_corpus.cases ())
          in
          (Scrut.Analysis.check program c.spec).Scrut.Analysis.stats.functions_analyzed
        in
        check_bool "scales" true (pick Corpus.App_corpus.Full > 10 * pick Corpus.App_corpus.Small));
  ]

(* The precision corpus: field-disjoint regions. Every flip (a region the
   var-granular seed engine rejected) must be accepted; every control
   must stay rejected; every rejection must carry a non-empty witness
   trace. *)
let precision_tests =
  let program = lazy (Corpus.Precision_corpus.program ()) in
  let precision_case (c : Corpus.Precision_corpus.case) =
    let label =
      Printf.sprintf "%s (%s)" c.name
        (if c.flips then "flip: legacy false positive, accepted" else "control: stays rejected")
    in
    Alcotest.test_case label `Quick (fun () ->
        let program = Lazy.force program in
        let v = Scrut.Analysis.check program c.spec in
        check_bool "place-sensitive verdict" c.flips v.Scrut.Analysis.accepted;
        if not c.flips then
          List.iter
            (fun (r : Scrut.Analysis.rejection) ->
              check_bool "non-empty witness trace" true (r.Scrut.Analysis.trace <> []))
            v.Scrut.Analysis.rejections)
  in
  List.map precision_case (Corpus.Precision_corpus.cases ())
  @ [
      Alcotest.test_case "at least 5 field-disjoint flips" `Quick (fun () ->
          let flips, _ = Corpus.Precision_corpus.counts () in
          check_bool "flips >= 5" true (flips >= 5));
    ]

(* Witness-trace well-formedness over the full app corpus: every rejection
   explains itself, starting from a source or sink step. *)
let trace_tests =
  [
    Alcotest.test_case "every app-corpus rejection carries a witness trace" `Quick (fun () ->
        let program = Lazy.force app_program in
        List.iter
          (fun (c : Corpus.App_corpus.case) ->
            let v = Scrut.Analysis.check program c.spec in
            List.iter
              (fun (r : Scrut.Analysis.rejection) ->
                check_bool
                  (Printf.sprintf "%s trace non-empty" c.name)
                  true (r.Scrut.Analysis.trace <> []);
                match List.rev r.Scrut.Analysis.trace with
                | last :: _ ->
                    check_bool
                      (Printf.sprintf "%s trace ends at the sink" c.name)
                      true
                      (last.Scrut.Analysis.step_kind = Scrut.Analysis.Sink)
                | [] -> ())
              v.Scrut.Analysis.rejections)
          (Corpus.App_corpus.cases ()));
    Alcotest.test_case "every stdlib rejection carries a witness trace" `Quick (fun () ->
        let program = Lazy.force std_program in
        List.iter
          (fun (c : Corpus.Stdlib_corpus.case) ->
            let v = Scrut.Analysis.check program c.spec in
            List.iter
              (fun (r : Scrut.Analysis.rejection) ->
                check_bool
                  (Printf.sprintf "%s trace non-empty" c.name)
                  true (r.Scrut.Analysis.trace <> []))
              v.Scrut.Analysis.rejections)
          (Corpus.Stdlib_corpus.cases ()));
  ]

let () =
  let cases = Corpus.App_corpus.cases () in
  let per_app app =
    List.filter_map
      (fun (c : Corpus.App_corpus.case) -> if c.app = app then Some (app_case c) else None)
      cases
  in
  Alcotest.run "corpus"
    ([ ("shape", shape_tests) ]
    @ List.map (fun app -> ("fig10-" ^ app, per_app app)) Corpus.App_corpus.apps
    @ [ ("stdlib-study", List.map std_case (Corpus.Stdlib_corpus.cases ())) ]
    @ [ ("precision", precision_tests) ]
    @ [ ("witness-traces", trace_tests) ])
