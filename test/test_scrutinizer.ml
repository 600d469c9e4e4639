open Sesame_scrutinizer
open Ir

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A program with one of everything the analysis cares about. *)
let fixture () =
  let program = Program.create () in
  Program.define_all program
    [
      func ~name:"pure_concat" ~params:[ "a"; "b" ]
        [ Return (Some (Binop (Concat, Var "a", Var "b"))) ];
      func ~name:"pure_via_helper" ~params:[ "x" ]
        [ Return (Some (Call (Static "pure_concat", [ Var "x"; Str_lit "!" ]))) ];
      func ~name:"writes_global" ~params:[ "x" ]
        [ Assign (Lglobal "SINK", Var "x"); Return (Some (Var "x")) ];
      func ~name:"writes_global_const" ~params:[ "x" ]
        [ Assign (Lglobal "COUNTER", Int_lit 1); Return (Some (Var "x")) ];
      native ~package:"libc" ~name:"fs_write" ~params:[ "data" ] ();
      func ~name:"calls_native" ~params:[ "x" ]
        [ Expr_stmt (Call (Static "fs_write", [ Var "x" ])) ];
      func ~name:"launders" ~params:[ "x" ]
        (* Returns data derived from x through two hops. *)
        [ Return (Some (Call (Static "pure_via_helper", [ Var "x" ]))) ];
      func ~name:"leak_after_laundering" ~params:[ "x" ]
        [
          Let ("y", Call (Static "launders", [ Var "x" ]));
          Expr_stmt (Call (Static "fs_write", [ Var "y" ]));
        ];
      func ~name:"recursive" ~params:[ "x" ]
        [
          If
            ( Binop (Eq, Var "x", Int_lit 0),
              [ Return (Some (Int_lit 0)) ],
              [ Return (Some (Call (Static "recursive", [ Binop (Sub, Var "x", Int_lit 1) ]))) ]
            );
        ];
      func ~name:"write_through" ~params:[ "dst"; "v" ]
        [ Assign (Lderef "dst", Var "v") ];
      func ~name:"store_rec" ~params:[ "dst"; "v"; "n" ]
        (* Recursive by-ref write-back: *dst = v at the bottom of the
           recursion. *)
        [
          If
            ( Binop (Gt, Var "n", Int_lit 0),
              [
                Expr_stmt
                  (Call
                     (Static "store_rec", [ Var "dst"; Var "v"; Binop (Sub, Var "n", Int_lit 1) ]));
              ],
              [ Assign (Lderef "dst", Var "v") ] );
        ];
      func ~name:"Pretty::show" ~params:[ "x" ]
        [ Return (Some (Binop (Concat, Str_lit "", Var "x"))) ];
      func ~name:"Logging::show" ~params:[ "x" ]
        [
          Expr_stmt (Call (Static "fs_write", [ Var "x" ]));
          Return (Some (Var "x"));
        ];
    ];
  Program.register_impl program ~method_name:"Show::show" ~impl:"Pretty::show";
  Program.register_impl program ~method_name:"Show::show" ~impl:"Logging::show";
  program

let spec ?captures name params body = Spec.make ~name ~params ?captures body

let verdict ?allowlist program s = Analysis.check ?allowlist program s
let accepted ?allowlist program s = (verdict ?allowlist program s).Analysis.accepted

let has_rejection program s pred =
  List.exists
    (fun (r : Analysis.rejection) -> pred r.Analysis.reason)
    (verdict program s).Analysis.rejections

let acceptance_tests =
  [
    test "pure arithmetic accepted" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ] [ Return (Some (Binop (Add, Var "x", Int_lit 1))) ])));
    test "derived data may be returned" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ] [ Return (Some (Call (Static "launders", [ Var "x" ]))) ])));
    test "branching on sensitive data without effects accepted" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                [
                  If
                    ( Binop (Gt, Var "x", Int_lit 10),
                      [ Return (Some (Str_lit "big")) ],
                      [ Return (Some (Str_lit "small")) ] );
                ])));
    test "loops over sensitive collections accepted" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "xs" ]
                [
                  Let ("acc", Int_lit 0);
                  For ("x", Var "xs", [ Assign (Lvar "acc", Binop (Add, Var "acc", Var "x")) ]);
                  Return (Some (Var "acc"));
                ])));
    test "allow-listed collection ops on locals accepted" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                [
                  Let ("v", Vec []);
                  Expr_stmt (Call (Static "Vec::push", [ Ref_mut "v"; Var "x" ]));
                  Return (Some (Var "v"));
                ])));
    test "by-value captures are harmless" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                ~captures:[ { cap_var = "prefix"; mode = By_value } ]
                [ Return (Some (Binop (Concat, Var "prefix", Var "x"))) ])));
    test "reading by-ref captures is fine" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                ~captures:[ { cap_var = "config"; mode = By_ref } ]
                [ Return (Some (Binop (Concat, Field (Var "config", "prefix"), Var "x"))) ])));
    test "native call with only insensitive args is skipped" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                [
                  Expr_stmt (Call (Static "fs_write", [ Str_lit "static banner" ]));
                  Return (Some (Var "x"));
                ])));
    test "global write of insensitive constant under insensitive control accepted" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                [ Assign (Lglobal "HITS", Int_lit 1); Return (Some (Var "x")) ])));
    test "recursion converges" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ] [ Return (Some (Call (Static "recursive", [ Var "x" ]))) ])));
    test "known-target unsafe write to a local accepted (stdlib pattern)" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                [
                  Let ("buf", Vec []);
                  Unsafe_write (Lindex ("buf", Int_lit 0), Var "x");
                  Return (Some (Var "buf"));
                ])));
  ]

let rejection_tests =
  [
    test "mutable capture rejected up front" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                ~captures:[ { cap_var = "log"; mode = By_mut_ref } ]
                [ Return (Some (Var "x")) ])
             (function Analysis.Mutable_capture { var } -> var = "log" | _ -> false)));
    test "write through by-ref capture rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                ~captures:[ { cap_var = "shared"; mode = By_ref } ]
                [
                  Let ("alias", Ref "shared");
                  Assign (Lderef "alias", Var "x");
                ])
             (function Analysis.Capture_mutation { var; _ } -> var = "shared" | _ -> false)));
    test "mutable borrow of capture escaping into a call rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                ~captures:[ { cap_var = "sink"; mode = By_ref } ]
                [ Expr_stmt (Call (Static "pure_concat", [ Ref_mut "sink"; Var "x" ])) ])
             (function Analysis.Capture_mutation { var; _ } -> var = "sink" | _ -> false)));
    test "tainted global write rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ] [ Assign (Lglobal "SINK", Var "x") ])
             (function
               | Analysis.Tainted_global_write { global; _ } -> global = "SINK"
               | _ -> false)));
    test "global write in callee rejected interprocedurally" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ] [ Expr_stmt (Call (Static "writes_global", [ Var "x" ])) ])
             (function Analysis.Tainted_global_write _ -> true | _ -> false)));
    test "tainted native call rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ] [ Expr_stmt (Call (Static "fs_write", [ Var "x" ])) ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
    test "native leak through two laundering hops rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [ Expr_stmt (Call (Static "leak_after_laundering", [ Var "x" ])) ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
    test "implicit flow: native effect under sensitive branch rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [
                  If
                    ( Binop (Eq, Var "x", Int_lit 42),
                      [ Expr_stmt (Call (Static "fs_write", [ Str_lit "hit" ])) ],
                      [] );
                ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
    test "implicit flow: global write under sensitive loop rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "xs" ]
                [ For ("x", Var "xs", [ Assign (Lglobal "N", Int_lit 1) ]) ])
             (function Analysis.Tainted_global_write _ -> true | _ -> false)));
    test "implicit flow through an assigned flag rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [
                  Let ("flag", Bool_lit false);
                  If (Binop (Gt, Var "x", Int_lit 0), [ Assign (Lvar "flag", Bool_lit true) ], []);
                  If (Var "flag", [ Expr_stmt (Call (Static "fs_write", [ Str_lit "+" ])) ], []);
                ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
    test "unknown function with tainted args rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ] [ Expr_stmt (Call (Static "who_knows", [ Var "x" ])) ])
             (function Analysis.Unknown_body_call { callee; _ } -> callee = "who_knows" | _ -> false)));
    test "function pointer call rejected unconditionally" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [ Expr_stmt (Call (Fn_ptr (Some "cb"), [ Str_lit "untainted" ])) ])
             (function Analysis.Fn_pointer_call _ -> true | _ -> false)));
    test "unresolvable dispatch rejected unconditionally" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [
                  Expr_stmt
                    (Call
                       ( Dynamic { method_name = "Future::poll"; receiver_hint = None },
                         [ Str_lit "untainted" ] ));
                ])
             (function Analysis.Unresolvable_dispatch _ -> true | _ -> false)));
    test "dispatch superset includes leaking impl" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [
                  Return
                    (Some
                       (Call (Dynamic { method_name = "Show::show"; receiver_hint = None }, [ Var "x" ])));
                ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
    test "dispatch narrowed by receiver hint to a pure impl accepted" (fun () ->
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                [
                  Return
                    (Some
                       (Call
                          ( Dynamic { method_name = "show"; receiver_hint = Some "Pretty" },
                            [ Var "x" ] )));
                ])));
    test "opaque unsafe mutation rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ] [ Opaque_unsafe [ Var "x" ] ])
             (function Analysis.Unsafe_mutation _ -> true | _ -> false)));
    test "unsafe write to capture-derived data rejected" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                ~captures:[ { cap_var = "cache"; mode = By_ref } ]
                [ Unsafe_write (Lderef "cache", Var "x") ])
             (function Analysis.Unsafe_mutation _ -> true | _ -> false)));
    test "loop fixpoint: taint introduced on a later iteration is seen" (fun () ->
        (* First iteration calls fs_write(a) with a untainted; a becomes
           tainted at the end of the body, so only a second dataflow pass
           over the loop sees the leak. *)
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [
                  Let ("a", Int_lit 0);
                  Let ("go", Bool_lit true);
                  While
                    ( Var "go",
                      [
                        Expr_stmt (Call (Static "fs_write", [ Var "a" ]));
                        Assign (Lvar "a", Var "x");
                        Assign (Lvar "go", Bool_lit false);
                      ] );
                ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
    test "taint flows through references and Deref" (fun () ->
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [
                  Let ("r", Ref "x");
                  Let ("y", Deref (Var "r"));
                  Expr_stmt (Call (Static "fs_write", [ Var "y" ]));
                ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
    test "by-ref arg is tainted when the callee's summary says it writes" (fun () ->
        (* write_through stores its tainted second argument through its
           first; the summary's write-back effect must taint out. *)
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [
                  Let ("out", Str_lit "");
                  Expr_stmt (Call (Static "write_through", [ Ref_mut "out"; Var "x" ]));
                  Expr_stmt (Call (Static "fs_write", [ Var "out" ]));
                ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
    test "by-ref arg of a call into an unseen body is conservatively tainted" (fun () ->
        (* For bodies the analyzer cannot see there is no summary, so the
           blanket write-back assumption must remain. *)
        let allow = Allowlist.add Allowlist.default "mystery_fill" in
        check_bool "rej" true
          (List.exists
             (fun (r : Analysis.rejection) ->
               match r.Analysis.reason with
               | Analysis.Tainted_native_call _ -> true
               | _ -> false)
             (Analysis.check ~allowlist:allow (fixture ())
                (spec "r" [ "x" ]
                   [
                     Let ("out", Str_lit "");
                     Expr_stmt (Call (Static "mystery_fill", [ Ref_mut "out"; Var "x" ]));
                     Expr_stmt (Call (Static "fs_write", [ Var "out" ]));
                   ]))
               .Analysis.rejections));
    test "multiple rejection reasons all reported" (fun () ->
        let v =
          verdict (fixture ())
            (spec "r" [ "x" ]
               ~captures:[ { cap_var = "log"; mode = By_mut_ref } ]
               [
                 Assign (Lglobal "SINK", Var "x");
                 Expr_stmt (Call (Static "fs_write", [ Var "x" ]));
               ])
        in
        check_bool "several" true (List.length v.Analysis.rejections >= 3));
  ]

let allowlist_tests =
  [
    test "allow-listed functions are trusted leaves" (fun () ->
        (* fs_write allow-listed: the call no longer rejects. *)
        let allow = Allowlist.add Allowlist.default "fs_write" in
        check_bool "ok" true
          (accepted ~allowlist:allow (fixture ())
             (spec "r" [ "x" ] [ Expr_stmt (Call (Static "fs_write", [ Var "x" ])) ])));
    test "default allowlist contains Vec::push" (fun () ->
        check_bool "mem" true (Allowlist.mem Allowlist.default "Vec::push"));
    test "remove takes effect" (fun () ->
        let a = Allowlist.remove Allowlist.default "Vec::push" in
        check_bool "gone" false (Allowlist.mem a "Vec::push"));
    test "allow-listed call results are tainted by their args" (fun () ->
        (* format(x) result flows to native -> still rejected. *)
        check_bool "rej" true
          (has_rejection (fixture ())
             (spec "r" [ "x" ]
                [
                  Let ("s", Call (Static "core::fmt::format", [ Var "x" ]));
                  Expr_stmt (Call (Static "fs_write", [ Var "s" ]));
                ])
             (function Analysis.Tainted_native_call _ -> true | _ -> false)));
  ]

let callgraph_tests =
  [
    test "collection finds transitive callees once" (fun () ->
        let program = fixture () in
        let s =
          spec "r" [ "x" ]
            [
              Let ("a", Call (Static "pure_via_helper", [ Var "x" ]));
              Let ("b", Call (Static "pure_via_helper", [ Var "a" ]));
              Return (Some (Var "b"));
            ]
        in
        let g = Callgraph.collect program ~allowlist:Allowlist.default s in
        check_int "entry + 2" 3 (Callgraph.functions_analyzed g);
        check_bool "reaches helper" true (Callgraph.reaches g "pure_concat"));
    test "collection records dispatch candidates" (fun () ->
        let program = fixture () in
        let s =
          spec "r" [ "x" ]
            [
              Expr_stmt
                (Call (Dynamic { method_name = "Show::show"; receiver_hint = None }, [ Var "x" ]));
            ]
        in
        let g = Callgraph.collect program ~allowlist:Allowlist.default s in
        check_bool "pretty" true (Callgraph.reaches g "Pretty::show");
        check_bool "logging" true (Callgraph.reaches g "Logging::show"));
    test "collection failures recorded, not raised" (fun () ->
        let program = fixture () in
        let s = spec "r" [ "x" ] [ Expr_stmt (Call (Fn_ptr None, [ Var "x" ])) ] in
        let g = Callgraph.collect program ~allowlist:Allowlist.default s in
        check_int "one failure" 1 (List.length (Callgraph.failures g)));
    test "in_crate_sources lists entry first, externals excluded" (fun () ->
        let program = fixture () in
        Program.define program
          (external_fn ~package:"extlib" ~name:"ext::helper" ~params:[ "x" ]
             [ Return (Some (Var "x")) ]);
        let s =
          spec "r" [ "x" ]
            [
              Let ("a", Call (Static "pure_concat", [ Var "x"; Var "x" ]));
              Return (Some (Call (Static "ext::helper", [ Var "a" ])));
            ]
        in
        let g = Callgraph.collect program ~allowlist:Allowlist.default s in
        let sources = Callgraph.in_crate_sources g s in
        check_bool "entry first" true (fst (List.hd sources) = "r");
        check_bool "in-crate included" true (List.mem_assoc "pure_concat" sources);
        check_bool "external excluded" false (List.mem_assoc "ext::helper" sources);
        Alcotest.(check (list string)) "packages" [ "extlib" ] (Callgraph.external_packages g));
    test "synthetic tree size matches the formula" (fun () ->
        let program = Program.create () in
        let root =
          Sesame_corpus.Synthetic.define_tree program ~package:"p" ~prefix:"lib" ~depth:4
        in
        check_int "size" (Sesame_corpus.Synthetic.tree_size ~depth:4) (Program.size program);
        let s = spec "r" [ "x" ] [ Return (Some (Call (Static root, [ Var "x" ]))) ] in
        let g = Callgraph.collect program ~allowlist:Allowlist.default s in
        check_int "all + entry" (Sesame_corpus.Synthetic.tree_size ~depth:4 + 1)
          (Callgraph.functions_analyzed g));
  ]

let ir_tests =
  [
    test "program rejects duplicate definitions" (fun () ->
        let p = Program.create () in
        Program.define p (func ~name:"f" ~params:[] []);
        check_bool "dup" true
          (try
             Program.define p (func ~name:"f" ~params:[] []);
             false
           with Invalid_argument _ -> true));
    test "resolve_dynamic with hint requires the qualified impl" (fun () ->
        let p = fixture () in
        check_bool "hit" true
          (Program.resolve_dynamic p ~method_name:"show" ~receiver_hint:(Some "Pretty")
          = Some [ "Pretty::show" ]);
        check_bool "miss" true
          (Program.resolve_dynamic p ~method_name:"show" ~receiver_hint:(Some "Ghost") = None));
    test "func_source renders deterministically" (fun () ->
        let f = func ~name:"f" ~params:[ "x" ] [ Return (Some (Var "x")) ] in
        Alcotest.(check string) "stable" (func_source f) (func_source f);
        check_bool "has name" true (String.length (func_source f) > 0));
    test "func_loc counts non-empty lines" (fun () ->
        let f =
          func ~name:"f" ~params:[ "x" ]
            [ Let ("y", Var "x"); Return (Some (Var "y")) ]
        in
        check_bool "positive" true (func_loc f >= 3));
    test "spec source and loc" (fun () ->
        let s = spec "r" [ "x" ] [ Return (Some (Var "x")) ] in
        check_int "one stmt" 1 (Spec.loc s);
        check_bool "closure syntax" true (String.length (Spec.source s) > 5));
    test "verdict timing and counts populated" (fun () ->
        let v =
          verdict (fixture ()) (spec "r" [ "x" ] [ Return (Some (Var "x")) ])
        in
        check_bool "fns" true (v.Analysis.stats.functions_analyzed >= 1);
        check_bool "time" true (v.Analysis.stats.duration_s >= 0.0));
  ]

let encapsulation_tests =
  [
    test "contained unsafe classified as such" (fun () ->
        let p = Program.create () in
        Program.define p
          (external_fn ~package:"vec" ~name:"Vec::push_impl" ~params:[ "self"; "v" ]
             [ Unsafe_write (Lfield ("self", "buf"), Var "v") ]);
        match Encapsulation.audit p with
        | [ f ] ->
            check_bool "contained" true (f.Encapsulation.severity = Encapsulation.Contained);
            check_bool "clean package" true
              (Encapsulation.audit_package p ~package:"vec" = Encapsulation.Clean)
        | other -> Alcotest.failf "expected one finding, got %d" (List.length other));
    test "opaque unsafe breaks encapsulation" (fun () ->
        let p = Program.create () in
        Program.define p
          (external_fn ~package:"fastcrypto" ~name:"crypt" ~params:[ "data" ]
             [ Opaque_unsafe [ Var "data" ] ]);
        Alcotest.(check (list string)) "breaking" [ "fastcrypto" ]
          (Encapsulation.breaking_packages p);
        check_bool "needs review" true
          (match Encapsulation.audit_package p ~package:"fastcrypto" with
          | Encapsulation.Needs_review (_ :: _) -> true
          | _ -> false));
    test "function-pointer calls are breaking; safe code is clean" (fun () ->
        let p = Program.create () in
        Program.define p
          (external_fn ~package:"hooks" ~name:"run_hook" ~params:[ "cb"; "x" ]
             [ Expr_stmt (Call (Fn_ptr (Some "cb"), [ Var "x" ])) ]);
        Program.define p
          (external_fn ~package:"pure" ~name:"add" ~params:[ "a"; "b" ]
             [ Return (Some (Binop (Add, Var "a", Var "b"))) ]);
        Alcotest.(check (list string)) "only hooks" [ "hooks" ]
          (Encapsulation.breaking_packages p);
        check_bool "pure clean" true
          (Encapsulation.audit_package p ~package:"pure" = Encapsulation.Clean));
    test "audit over the corpus flags exactly the eight raw-pointer crates" (fun () ->
        let p = Sesame_corpus.App_corpus.program Sesame_corpus.App_corpus.Small in
        Alcotest.(check (list string)) "packages"
          [ "csv"; "lopdf"; "regex"; "ring"; "serde"; "sha2"; "zstd" ]
          (Encapsulation.breaking_packages p));
    test "native bodies are out of the audit's scope" (fun () ->
        let p = Program.create () in
        Program.define p (native ~package:"libc" ~name:"memcpy" ~params:[ "d"; "s" ] ());
        check_int "no findings" 0 (List.length (Encapsulation.audit p)));
  ]

(* Regression cases for the two seed-engine fixpoint bugs and the missing
   write-back summaries. Each is checked against both engines: the frozen
   seed engine ([Legacy_analysis]) must wrongly accept, the reworked engine
   must reject — proving these are real soundness fixes, not behavior
   drift. *)
let fixpoint_regression_tests =
  let legacy_accepts program s =
    (Legacy_analysis.check program s).Legacy_analysis.accepted
  in
  [
    test "loop rejection appearing only on the second iteration is seen" (fun () ->
        (* p aliases a local on iteration 1 and the capture from iteration
           2 on; only the second dataflow pass sees the capture mutation.
           The written value is untainted, so no per-variable taint bit
           changes either: the seed engine reads the rejection count after
           running the body and summarizes root sets by size, so it
           converges after one pass. *)
        let s =
          spec "r" [ "x" ]
            ~captures:[ { cap_var = "cap"; mode = By_ref } ]
            [
              Let ("a", Int_lit 0);
              Let ("p", Ref "a");
              Let ("go", Bool_lit true);
              While
                ( Var "go",
                  [
                    Assign (Lderef "p", Int_lit 0);
                    Assign (Lvar "p", Ref "cap");
                    Assign (Lvar "go", Bool_lit false);
                  ] );
            ]
        in
        check_bool "legacy wrongly accepts" true (legacy_accepts (fixture ()) s);
        check_bool "fixed engine rejects" true
          (has_rejection (fixture ()) s (function
            | Analysis.Capture_mutation { var; _ } -> var = "cap"
            | _ -> false)));
    test "root set changing membership but not cardinality converges late" (fun () ->
        (* The unsafe write's target set swaps {a} for {cap}: same size,
           same taint, different membership — invisible to the seed
           engine's cardinality snapshot. *)
        let s =
          spec "r" [ "x" ]
            ~captures:[ { cap_var = "cap"; mode = By_ref } ]
            [
              Let ("a", Int_lit 0);
              Let ("p", Ref "a");
              Let ("go", Bool_lit true);
              While
                ( Var "go",
                  [
                    Unsafe_write (Lderef "p", Int_lit 0);
                    Assign (Lvar "p", Ref "cap");
                    Assign (Lvar "go", Bool_lit false);
                  ] );
            ]
        in
        check_bool "legacy wrongly accepts" true (legacy_accepts (fixture ()) s);
        check_bool "fixed engine rejects" true
          (has_rejection (fixture ()) s (function
            | Analysis.Unsafe_mutation _ -> true
            | _ -> false)));
    test "recursive callee's by-ref write-back reaches a projected argument" (fun () ->
        (* store_rec writes its tainted second argument through its first;
           the argument here is s.slot — not a bare variable, so the seed
           engine's Var/Ref-only blanket never taints s. *)
        let s =
          spec "r" [ "x" ]
            [
              Let ("s", Vec []);
              Expr_stmt
                (Call (Static "store_rec", [ Field (Var "s", "slot"); Var "x"; Int_lit 3 ]));
              Expr_stmt (Call (Static "fs_write", [ Var "s" ]));
            ]
        in
        check_bool "legacy wrongly accepts" true (legacy_accepts (fixture ()) s);
        check_bool "fixed engine rejects" true
          (has_rejection (fixture ()) s (function
            | Analysis.Tainted_native_call _ -> true
            | _ -> false)));
    test "pure callee's by-ref arguments stay untainted (precision)" (fun () ->
        (* The flip side of per-parameter write-backs: pure_concat never
           writes through its arguments, so out stays clean and the seed
           engine's blanket false positive disappears. *)
        check_bool "ok" true
          (accepted (fixture ())
             (spec "r" [ "x" ]
                [
                  Let ("out", Str_lit "");
                  Expr_stmt (Call (Static "pure_concat", [ Ref_mut "out"; Var "x" ]));
                  Expr_stmt (Call (Static "fs_write", [ Var "out" ]));
                ])));
    test "loop fixpoint terminates on the iteration backstop" (fun () ->
        (* Monotone joins cannot cycle, but the backstop must still leave
           the analysis sound and terminating on a self-extending alias
           loop. *)
        let v =
          verdict (fixture ())
            (spec "r" [ "x" ]
               [
                 Let ("p", Ref "x");
                 While (Bool_lit true, [ Let ("q", Deref (Var "p")); Let ("p", Ref "q") ]);
                 Return (Some (Int_lit 0));
               ])
        in
        check_bool "terminates" true (v.Analysis.stats.duration_s < 60.0));
  ]

let cache_tests =
  let heavy_spec =
    spec "r" [ "x" ]
      [
        Let ("y", Call (Static "launders", [ Var "x" ]));
        Expr_stmt (Call (Static "leak_after_laundering", [ Var "y" ]));
        Return (Some (Call (Static "recursive", [ Var "x" ])));
      ]
  in
  let same_verdict (a : Analysis.verdict) (b : Analysis.verdict) =
    a.Analysis.accepted = b.Analysis.accepted
    && a.Analysis.rejections = b.Analysis.rejections
  in
  [
    test "second check of the same spec hits instead of re-analyzing" (fun () ->
        let program = fixture () in
        let cache = Analysis.Summary_cache.create () in
        let v1 = Analysis.check ~cache program heavy_spec in
        check_bool "first pass misses" true (v1.Analysis.stats.summary_cache_misses > 0);
        check_int "first pass has no hits" 0 v1.Analysis.stats.summary_cache_hits;
        let v2 = Analysis.check ~cache program heavy_spec in
        check_bool "second pass hits" true (v2.Analysis.stats.summary_cache_hits > 0);
        check_int "second pass misses nothing" 0 v2.Analysis.stats.summary_cache_misses;
        check_bool "entries published" true (Analysis.Summary_cache.entries cache > 0));
    test "cached and uncached verdicts agree, including replayed rejections" (fun () ->
        let program = fixture () in
        let cache = Analysis.Summary_cache.create () in
        let uncached = Analysis.check program heavy_spec in
        let _warmup = Analysis.check ~cache program heavy_spec in
        let cached = Analysis.check ~cache program heavy_spec in
        check_bool "not accepted" false uncached.Analysis.accepted;
        check_bool "verdicts agree" true (same_verdict uncached cached));
    test "summaries are shared across different specs of one program" (fun () ->
        let program = fixture () in
        let cache = Analysis.Summary_cache.create () in
        let s1 =
          spec "r1" [ "x" ] [ Return (Some (Call (Static "launders", [ Var "x" ]))) ]
        in
        let s2 =
          spec "r2" [ "secret" ]
            [ Let ("d", Call (Static "launders", [ Var "secret" ])); Return (Some (Var "d")) ]
        in
        ignore (Analysis.check ~cache program s1);
        let v2 = Analysis.check ~cache program s2 in
        check_bool "cross-spec hit" true (v2.Analysis.stats.summary_cache_hits > 0));
    test "defining a new function invalidates the program fingerprint" (fun () ->
        let program = fixture () in
        let fp1 = Program.fingerprint program in
        let cache = Analysis.Summary_cache.create () in
        ignore (Analysis.check ~cache program heavy_spec);
        Program.define program (func ~name:"late_addition" ~params:[ "x" ] []);
        let fp2 = Program.fingerprint program in
        check_bool "fingerprint changed" false
          (Sesame_signing.Sha256.to_hex fp1 = Sesame_signing.Sha256.to_hex fp2);
        (* Old entries are keyed under fp1 and must not be reused — the
           check must miss, not hit, and still produce the right verdict. *)
        let v = Analysis.check ~cache program heavy_spec in
        check_int "no stale hits" 0 v.Analysis.stats.summary_cache_hits;
        check_bool "still rejected" false v.Analysis.accepted);
    test "hit rate accounting is consistent" (fun () ->
        let cache = Analysis.Summary_cache.create () in
        Alcotest.(check (float 0.0)) "unused cache rate" 0.0
          (Analysis.Summary_cache.hit_rate cache);
        let program = fixture () in
        ignore (Analysis.check ~cache program heavy_spec);
        ignore (Analysis.check ~cache program heavy_spec);
        let total =
          Analysis.Summary_cache.hits cache + Analysis.Summary_cache.misses cache
        in
        check_bool "counters populated" true (total > 0);
        let rate = Analysis.Summary_cache.hit_rate cache in
        check_bool "rate in range" true (rate > 0.0 && rate <= 1.0));
    test "a verdict depends neither on cache state nor on a callee's parameter names"
      (fun () ->
        (* [helper] writes a field of its own parameter; rB hands it the
           sensitive argument, never its by-ref capture [cap], so no
           capture is mutated whatever [helper] names its parameter. *)
        let program param =
          let p = Program.create () in
          Program.define_all p
            [
              func ~name:"helper" ~params:[ param ]
                [ Assign (Lfield (param, "x"), Int_lit 0); Return (Some (Var param)) ];
            ];
          p
        in
        let body = [ Expr_stmt (Call (Static "helper", [ Var "x" ])) ] in
        let r_a = spec "rA" [ "x" ] body in
        let r_b = spec ~captures:[ { cap_var = "cap"; mode = By_ref } ] "rB" [ "x" ] body in
        List.iter
          (fun param ->
            check_bool (param ^ ": fresh") true (accepted (program param) r_b);
            let program = program param in
            let cache = Analysis.Summary_cache.create () in
            ignore (Analysis.check ~cache program r_a);
            let warm = Analysis.check ~cache program r_b in
            check_bool (param ^ ": warm check hits") true
              (warm.Analysis.stats.summary_cache_hits > 0);
            check_bool (param ^ ": warmed by rA") true warm.Analysis.accepted)
          [ "cap"; "y" ]);
  ]

(* Place sensitivity, witness provenance, and the seed-engine bug fixes:
   dynamic-dispatch candidate sets and recursive cycles checked
   differentially against [Legacy_analysis] and with the cache on/off,
   surplus-argument taint joining, and Lindex index-expression
   evaluation. *)
let place_provenance_tests =
  let legacy_accepted program s = (Legacy_analysis.check program s).Legacy_analysis.accepted in
  let cache_agrees program s =
    let cache = Analysis.Summary_cache.create () in
    let plain = Analysis.check program s in
    let cold = Analysis.check ~cache program s in
    let warm = Analysis.check ~cache program s in
    check_bool "cold cache verdict" plain.Analysis.accepted cold.Analysis.accepted;
    check_bool "warm cache verdict" plain.Analysis.accepted warm.Analysis.accepted;
    check_bool "cold rejections + traces identical" true
      (plain.Analysis.rejections = cold.Analysis.rejections);
    check_bool "warm rejections + traces identical" true
      (plain.Analysis.rejections = warm.Analysis.rejections);
    plain
  in
  [
    test "dispatch: hintless call tries every candidate, leaky impl rejects" (fun () ->
        let program = fixture () in
        let s =
          spec "r" [ "x" ]
            [
              Expr_stmt
                (Call (Dynamic { method_name = "Show::show"; receiver_hint = None }, [ Var "x" ]));
            ]
        in
        let v = cache_agrees program s in
        check_bool "rejected (Logging::show leaks)" false v.Analysis.accepted;
        check_bool "legacy agrees" false (legacy_accepted program s);
        List.iter
          (fun (r : Analysis.rejection) ->
            check_bool "witness trace" true (r.Analysis.trace <> []))
          v.Analysis.rejections);
    test "dispatch: candidate set of clean impls accepted, hint narrows to one" (fun () ->
        let program = Program.create () in
        Program.define_all program
          [
            native ~package:"libc" ~name:"fs_write" ~params:[ "data" ] ();
            func ~name:"Upper::render" ~params:[ "x" ] [ Return (Some (Var "x")) ];
            func ~name:"Lower::render" ~params:[ "x" ]
              [ Return (Some (Binop (Concat, Var "x", Str_lit "."))) ];
            func ~name:"Loud::render" ~params:[ "x" ]
              [ Expr_stmt (Call (Static "fs_write", [ Var "x" ])) ];
          ];
        Program.register_impl program ~method_name:"Render::render" ~impl:"Upper::render";
        Program.register_impl program ~method_name:"Render::render" ~impl:"Lower::render";
        let clean =
          spec "r" [ "x" ]
            [
              Let
                ( "y",
                  Call (Dynamic { method_name = "Render::render"; receiver_hint = None }, [ Var "x" ])
                );
            ]
        in
        check_bool "all candidates clean: accepted" true (cache_agrees program clean).Analysis.accepted;
        (* Register the leaky impl: the hintless candidate set now rejects,
           but a receiver hint that excludes it still verifies. *)
        Program.register_impl program ~method_name:"Render::render" ~impl:"Loud::render";
        let hinted =
          spec "r" [ "x" ]
            [
              Let
                ( "y",
                  Call
                    ( Dynamic { method_name = "render"; receiver_hint = Some "Upper" },
                      [ Var "x" ] ) );
            ]
        in
        check_bool "widened candidate set: rejected" false (cache_agrees program clean).Analysis.accepted;
        check_bool "legacy agrees on the widened set" false (legacy_accepted program clean);
        check_bool "hint excludes the leaky impl: accepted" true
          (cache_agrees program hinted).Analysis.accepted);
    test "recursion: pure cycle accepted where the seed engine gives up" (fun () ->
        let program = fixture () in
        let s = spec "r" [ "x" ] [ Let ("y", Call (Static "recursive", [ Var "x" ])) ] in
        check_bool "place-sensitive accepts" true (cache_agrees program s).Analysis.accepted);
    test "recursion: leak at the bottom of the cycle rejected with a trace" (fun () ->
        let program = fixture () in
        Program.define program
          (func ~name:"leak_rec" ~params:[ "x"; "n" ]
             [
               If
                 ( Binop (Gt, Var "n", Int_lit 0),
                   [
                     Expr_stmt
                       (Call
                          (Static "leak_rec", [ Var "x"; Binop (Sub, Var "n", Int_lit 1) ]));
                   ],
                   [ Expr_stmt (Call (Static "fs_write", [ Var "x" ])) ] );
             ]);
        let s =
          spec "r" [ "x" ] [ Expr_stmt (Call (Static "leak_rec", [ Var "x"; Int_lit 3 ])) ]
        in
        let v = cache_agrees program s in
        check_bool "rejected" false v.Analysis.accepted;
        check_bool "legacy agrees" false (legacy_accepted program s);
        check_bool "trace spans the recursive call" true
          (List.exists
             (fun (r : Analysis.rejection) ->
               List.exists (fun st -> st.Analysis.step_kind = Analysis.Call) r.Analysis.trace)
             v.Analysis.rejections));
    test "recursion: by-ref write-back cycle still propagates to the caller" (fun () ->
        let program = fixture () in
        let s =
          spec "r" [ "x" ]
            [
              Let ("slot", Str_lit "");
              Expr_stmt (Call (Static "store_rec", [ Ref_mut "slot"; Var "x"; Int_lit 2 ]));
              Expr_stmt (Call (Static "fs_write", [ Var "slot" ]));
            ]
        in
        let v = cache_agrees program s in
        check_bool "rejected" false v.Analysis.accepted;
        check_bool "legacy agrees" false (legacy_accepted program s));
    test "surplus arguments: extra tainted arg joins into the summary key" (fun () ->
        (* The callee declares one parameter but the site passes two; the
           seed engine dropped the surplus taint on the floor and accepted
           this leak. *)
        let program = Program.create () in
        Program.define_all program
          [
            native ~package:"libc" ~name:"fs_write" ~params:[ "data" ] ();
            func ~name:"one_param" ~params:[ "a" ]
              [ Expr_stmt (Call (Static "fs_write", [ Var "a" ])) ];
          ];
        let s =
          spec "r" [ "x" ]
            [ Expr_stmt (Call (Static "one_param", [ Str_lit "ok"; Var "x" ])) ]
        in
        check_bool "surplus taint rejects" false (cache_agrees program s).Analysis.accepted);
    test "Lindex: the index expression is evaluated, not ignored" (fun () ->
        (* a[leaky(x)] = 0 — the store is clean but computing the index
           leaks; the seed engine never evaluated index expressions. *)
        let program = Program.create () in
        Program.define_all program
          [
            native ~package:"libc" ~name:"fs_write" ~params:[ "data" ] ();
            func ~name:"leaky_len" ~params:[ "v" ]
              [
                Expr_stmt (Call (Static "fs_write", [ Var "v" ]));
                Return (Some (Int_lit 0));
              ];
          ];
        let s =
          spec "r" [ "x" ]
            [
              Let ("a", Vec []);
              Assign (Lindex ("a", Call (Static "leaky_len", [ Var "x" ])), Int_lit 0);
            ]
        in
        let v = cache_agrees program s in
        check_bool "index leak rejected" false v.Analysis.accepted;
        check_bool "seed engine missed it" true (legacy_accepted program s));
    test "witness traces span call boundaries source-to-sink" (fun () ->
        let program = fixture () in
        let s =
          spec "r" [ "x" ]
            [ Expr_stmt (Call (Static "leak_after_laundering", [ Var "x" ])) ]
        in
        let v = cache_agrees program s in
        check_bool "rejected" false v.Analysis.accepted;
        List.iter
          (fun (r : Analysis.rejection) ->
            let kinds = List.map (fun st -> st.Analysis.step_kind) r.Analysis.trace in
            check_bool "starts at the source" true (List.hd kinds = Analysis.Source);
            check_bool "crosses the call" true (List.mem Analysis.Call kinds);
            check_bool "ends at the sink" true
              (List.nth kinds (List.length kinds - 1) = Analysis.Sink))
          v.Analysis.rejections);
  ]

let () =
  Alcotest.run "scrutinizer"
    [
      ("acceptance", acceptance_tests);
      ("rejection", rejection_tests);
      ("fixpoint-regression", fixpoint_regression_tests);
      ("summary-cache", cache_tests);
      ("allowlist", allowlist_tests);
      ("callgraph", callgraph_tests);
      ("ir", ir_tests);
      ("encapsulation", encapsulation_tests);
      ("place-provenance", place_provenance_tests);
    ]
