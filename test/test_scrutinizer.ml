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
    test "a verdict does not depend on a callee's parameter names" (fun () ->
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
            let program = program param in
            check_bool (param ^ ": rA") true (accepted program r_a);
            check_bool (param ^ ": rB") true (accepted program r_b))
          [ "cap"; "y" ]);
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
   write-back summaries. The seed engine wrongly accepted each of these
   regions; the engine must reject them. *)
let fixpoint_regression_tests =
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

(* Place sensitivity, witness provenance, and the seed-engine bug fixes:
   dynamic-dispatch candidate sets, recursive cycles, surplus-argument
   taint joining, and Lindex index-expression evaluation. *)
let place_provenance_tests =
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
        let v = verdict program s in
        check_bool "rejected (Logging::show leaks)" false v.Analysis.accepted;
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
        check_bool "all candidates clean: accepted" true (verdict program clean).Analysis.accepted;
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
        check_bool "widened candidate set: rejected" false (verdict program clean).Analysis.accepted;
        check_bool "hint excludes the leaky impl: accepted" true
          (verdict program hinted).Analysis.accepted);
    test "recursion: pure cycle accepted where the seed engine gives up" (fun () ->
        let program = fixture () in
        let s = spec "r" [ "x" ] [ Let ("y", Call (Static "recursive", [ Var "x" ])) ] in
        check_bool "place-sensitive accepts" true (verdict program s).Analysis.accepted);
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
        let v = verdict program s in
        check_bool "rejected" false v.Analysis.accepted;
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
        check_bool "rejected" false (verdict program s).Analysis.accepted);
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
        check_bool "surplus taint rejects" false (verdict program s).Analysis.accepted);
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
        check_bool "index leak rejected" false (verdict program s).Analysis.accepted);
    test "witness traces span call boundaries source-to-sink" (fun () ->
        let program = fixture () in
        let s =
          spec "r" [ "x" ]
            [ Expr_stmt (Call (Static "leak_after_laundering", [ Var "x" ])) ]
        in
        let v = verdict program s in
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

(* ------------------------------------------------------------------ *)
(* Property 1, by execution: for every region the engine accepts, two runs
   of the reference interpreter ([Ir_interp]) whose sensitive arguments
   differ produce the same observable events and leave the by-reference
   captures with the same contents. Pairs where either run runs out of
   fuel (or writes through a shared reference, which Rust rejects) are
   discarded: timing and termination channels are out of scope. *)

module Interp = Ir_interp

(* Callees: the std-collection methods (renamed out of the allow-list so
   their bodies run), two Synthetic call trees, helpers that write back
   through parameters, publish, or return early, and two dispatch
   candidate sets. *)
let oracle_program =
  lazy
    (let p = Sesame_corpus.Stdlib_corpus.program () in
     List.iter
       (fun (c : Sesame_corpus.Stdlib_corpus.case) ->
         Program.define p
           (func ~name:("std::" ^ c.name) ~params:c.spec.Spec.params c.spec.Spec.body))
       (Sesame_corpus.Stdlib_corpus.cases ());
     let trees =
       [
         Sesame_corpus.Synthetic.define_tree p ~package:"synth" ~prefix:"syn_a" ~depth:1;
         Sesame_corpus.Synthetic.define_tree p ~package:"synth" ~prefix:"syn_b" ~depth:3;
       ]
     in
     Program.define_all p
       [
         native ~package:"net" ~name:"net::send" ~params:[ "data" ] ();
         func ~name:"h::id" ~params:[ "x" ] [ Return (Some (Var "x")) ];
         func ~name:"h::inner" ~params:[ "r" ]
           [ Return (Some (Field (Field (Var "r", "f"), "g"))) ];
         func ~name:"h::set_f" ~params:[ "dst"; "v" ] [ Assign (Lfield ("dst", "f"), Var "v") ];
         func ~name:"h::store" ~params:[ "dst"; "v" ] [ Assign (Lderef "dst", Var "v") ];
         func ~name:"h::publish" ~params:[ "x" ]
           [ Expr_stmt (Call (Static "net::send", [ Var "x" ])) ];
         func ~name:"h::note" ~params:[ "x" ] [ Assign (Lglobal "NOTE", Var "x") ];
         func ~name:"h::count" ~params:[ "n" ]
           [
             If
               ( Binop (Gt, Var "n", Int_lit 0),
                 [
                   Return
                     (Some
                        (Binop
                           ( Add,
                             Int_lit 1,
                             Call (Static "h::count", [ Binop (Sub, Var "n", Int_lit 1) ]) )));
                 ],
                 [ Return (Some (Int_lit 0)) ] );
           ];
         func ~name:"h::early" ~params:[ "x"; "y" ]
           [
             If (Binop (Gt, Var "x", Int_lit 1), [ Return (Some (Int_lit 1)) ], []);
             Expr_stmt (Call (Static "net::send", [ Var "y" ]));
             Return (Some (Int_lit 0));
           ];
         func ~name:"A::show" ~params:[ "x" ]
           [ Return (Some (Binop (Concat, Str_lit "a", Var "x"))) ];
         func ~name:"B::show" ~params:[ "x" ]
           [ Expr_stmt (Call (Static "net::send", [ Var "x" ])) ];
         func ~name:"C::show" ~params:[ "x" ] [ Return (Some (Field (Var "x", "k"))) ];
         func ~name:"A::len" ~params:[ "x" ] [ Return (Some (Int_lit 1)) ];
         func ~name:"C::len" ~params:[ "x" ] [ Return (Some (Field (Var "x", "k"))) ];
       ];
     List.iter
       (fun (m, i) -> Program.register_impl p ~method_name:m ~impl:i)
       [
         ("Show::show", "A::show"); ("Show::show", "B::show"); ("Show::show", "C::show");
         ("Len::len", "A::len"); ("Len::len", "C::len");
       ];
     let callees =
       List.filter_map
         (fun (f : Ir.func) ->
           if String.starts_with ~prefix:"syn_" f.Ir.fname then None
           else Some (f.Ir.fname, List.length f.Ir.params))
         (Program.functions p)
       @ List.map (fun t -> (t, 1)) trees
       @ [ ("Vec::push", 2); ("Vec::len", 1); ("missing::fn", 1) ]
     in
     (p, Array.of_list callees))

type case = {
  spec : Spec.t;
  dispatch : int;
  args_a : Interp.value list;
  args_b : Interp.value list;
}

let params = [ "x"; "y" ]
let locals = [ "a"; "b"; "c" ]
let fields = [ "f"; "g"; "k" ]

(* Two values of one shape whose leaves may differ: what two runs that
   change only the sensitive arguments receive. Vector lengths may
   differ too. *)
let rec value_pair depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map2 (fun a b -> (Interp.Int a, Interp.Int b)) (int_range 0 4) (int_range 0 4));
        ( 1,
          map2 (fun a b -> (Interp.Str a, Interp.Str b)) (oneofl [ "p"; "q" ])
            (oneofl [ "p"; "q" ]) );
        (1, map2 (fun a b -> (Interp.Bool a, Interp.Bool b)) bool bool);
      ]
  in
  if depth = 0 then leaf
  else
    frequency
      [
        (2, leaf);
        ( 3,
          map3
            (fun (fa, fb) (ga, gb) (ka, kb) ->
              ( Interp.Record [ ("f", fa); ("g", ga); ("k", ka) ],
                Interp.Record [ ("f", fb); ("g", gb); ("k", kb) ] ))
            (value_pair (depth - 1)) (value_pair (depth - 1)) (value_pair (depth - 1)) );
        ( 1,
          map2
            (fun items extra ->
              let a = List.map fst items and b = List.map snd items in
              (Interp.Vec (a @ extra), Interp.Vec b))
            (list_size (int_range 0 3) (value_pair 0))
            (list_size (int_range 0 1) (map fst (value_pair 0))) );
      ]

let capture_value =
  Interp.Record
    [ ("f", Interp.Record [ ("g", Interp.Int 1); ("k", Interp.Int 2) ]); ("k", Interp.Int 3) ]

let gen_case : case QCheck.Gen.t =
  let open QCheck.Gen in
  let _, callees = Lazy.force oracle_program in
  let* captures =
    let* by_value = bool and* by_ref = frequency [ (3, return true); (1, return false) ] in
    let* by_mut = frequency [ (1, return true); (12, return false) ] in
    return
      (List.concat
         [
           (if by_value then [ { cap_var = "cv"; mode = By_value } ] else []);
           (if by_ref then [ { cap_var = "cr"; mode = By_ref } ] else []);
           (if by_mut then [ { cap_var = "cm"; mode = By_mut_ref } ] else []);
         ])
  in
  let cap_vars = List.map (fun c -> c.cap_var) captures in
  (* Sensitive parameters are read less often than the rest, so that a
     fair share of the regions is accepted. *)
  let readable = frequency [ (1, oneofl params); (3, oneofl (locals @ cap_vars)) ] in
  let writable =
    frequency
      ([ (4, oneofl locals); (2, oneofl params) ]
      @ if cap_vars = [] then [] else [ (1, oneofl cap_vars) ])
  in
  (* Borrow discipline: references appear only as call arguments, at
     most one per call, so no two live references alias. *)
  let rec expr n =
    let place =
      oneof
        [
          map (fun v -> Var v) readable;
          map2 (fun v f -> Field (Var v, f)) readable (oneofl fields);
          map3 (fun v f g -> Field (Field (Var v, f), g)) readable (oneofl fields)
            (oneofl fields);
        ]
    in
    let leaf =
      frequency
        [
          (2, map (fun n -> Int_lit n) (int_range 0 3));
          (1, map (fun s -> Str_lit s) (oneofl [ "s"; "t" ]));
          (1, map (fun b -> Bool_lit b) bool);
          (5, place);
          (1, return (Global "NOTE"));
        ]
    in
    if n <= 0 then leaf
    else
      frequency
        [
          (4, leaf);
          ( 2,
            map3
              (fun op a b -> Binop (op, a, b))
              (oneofl [ Add; Sub; Gt; Eq; Lt; Concat ])
              (sub_expr (n - 1)) (sub_expr (n - 1)) );
          (1, map2 (fun v i -> Index (Var v, i)) readable (sub_expr (n - 1)));
          (1, map (fun es -> Tuple es) (list_size (int_range 1 2) (sub_expr (n - 1))));
          (3, call (n - 1));
          ( 1,
            map2
              (fun (m, hint) a -> Call (Dynamic { method_name = m; receiver_hint = hint }, [ a ]))
              (frequency
                 [
                   (4, return ("Show::show", None));
                   (2, return ("Len::len", None));
                   (1, return ("show", Some "A"));
                   (1, return ("len", Some "C"));
                   (1, return ("Missing::go", None));
                 ])
              (sub_expr (n - 1)) );
        ]
  (* Built on demand: [frequency] takes its alternatives eagerly, so
     building them all up front would cost time exponential in depth. *)
  and sub_expr n = delay (fun () -> expr n)
  and call n =
    let* name, arity = oneofa callees in
    let* args = list_repeat arity (expr n) in
    let* borrow =
      frequency
        [
          (3, return None);
          (1, map (fun v -> Some (Ref v)) readable);
          (1, map (fun v -> Some (Ref_mut v)) writable);
        ]
    in
    let args =
      match (borrow, args) with Some r, _ :: rest -> r :: rest | _ -> args
    in
    return (Call (Static name, args))
  in
  let sensitive =
    oneof
      [
        map (fun v -> Var v) (oneofl params);
        map2 (fun v f -> Field (Var v, f)) (oneofl params) (oneofl fields);
      ]
  in
  (* Stored values read a sensitive place directly a third of the time,
     so that stores of sensitive data are common. *)
  let value = frequency [ (2, expr 2); (1, sensitive) ] in
  (* An argument that reads no parameter: a literal or a local. *)
  let insensitive =
    oneof
      [
        map (fun n -> Int_lit n) (int_range 0 3);
        map (fun s -> Str_lit s) (oneofl [ "s"; "t" ]);
        map (fun v -> Var v) (oneofl locals);
      ]
  in
  (* A loop condition over the counter [i]. A third of the bounds are a
     small integer computed from a sensitive place (the allow-listed
     [Vec::len] of it), so the trip count often depends on sensitive
     data. Some shapes add a term evaluated at every test, to which a
     call contributes its effects but not its value ([0 * call]), so
     each re-test of the condition is observable. *)
  let loop_cond =
    let bound =
      frequency [ (2, expr 2); (1, map (fun s -> Call (Static "Vec::len", [ s ])) sensitive) ]
    in
    let effect =
      frequency
        [ (1, call 0); (1, map (fun a -> Call (Static "net::send", [ a ])) insensitive) ]
    in
    let i = Var "i" in
    frequency
      [
        (2, map (fun b -> Binop (Lt, i, b)) bound);
        (1, map (fun b -> Binop (Gt, b, i)) bound);
        (1, map2 (fun b e -> Binop (And, Binop (Lt, i, b), e)) bound (expr 1));
        ( 2,
          map2 (fun b c -> Binop (Lt, i, Binop (Add, b, Binop (Mul, Int_lit 0, c)))) bound effect );
      ]
  in
  let rec stmts n : stmt list QCheck.Gen.t =
    let simple =
      frequency
        [
          (3, map2 (fun v e -> [ Let (v, e) ]) (oneofl locals) value);
          ( 2,
            map2
              (fun v e -> [ Assign (Lvar v, e) ])
              (oneofl (locals @ params @ List.filter (( = ) "cv") cap_vars))
              value );
          ( 2,
            map3 (fun v f e -> [ Assign (Lfield (v, f), e) ]) writable (oneofl fields) value
          );
          ( 1,
            map3 (fun v i e -> [ Assign (Lindex (v, i), e) ]) writable (expr 1) value );
          ( 1,
            map3 (fun v f e -> [ Unsafe_write (Lfield (v, f), e) ]) writable
              (oneofl fields) value );
          (1, map (fun e -> [ Assign (Lglobal "NOTE", e) ]) value);
          (3, map (fun c -> [ Expr_stmt c ]) (call 1));
          (* [h::early] returns before its send when its first argument
             is large: sensitive data decides whether the insensitive
             second argument is published. *)
          ( 1,
            map2
              (fun x y -> [ Expr_stmt (Call (Static "h::early", [ x; y ])) ])
              sensitive insensitive );
          (1, map (fun e -> [ Return (Some e) ]) (expr 1));
        ]
    in
    if n <= 0 then simple
    else
      frequency
        [
          (4, simple);
          ( 2,
            map3 (fun c t e -> [ If (c, t, e) ]) (expr 1) (sub_block (n - 1)) (sub_block (n - 1)) );
          ( 1,
            map2
              (fun cond body ->
                [
                  Let ("i", Int_lit 0);
                  While (cond, body @ [ Assign (Lvar "i", Binop (Add, Var "i", Int_lit 1)) ]);
                ])
              loop_cond (sub_block (n - 1)) );
          ( 1,
            map2 (fun coll body -> [ For ("e", coll, body) ]) (expr 1) (sub_block (n - 1)) );
        ]
  and block n = map List.concat (list_size (int_range 1 3) (stmts n))
  and sub_block n = delay (fun () -> block n) in
  let* body = map List.concat (list_size (int_range 2 6) (stmts 2)) in
  let* ret = frequency [ (1, return []); (1, map (fun e -> [ Return (Some e) ]) (expr 1)) ] in
  let* dispatch = int_bound 1000 in
  let* pairs = list_repeat (List.length params) (value_pair 2) in
  return
    {
      spec = Spec.make ~name:"gen" ~params ~captures (body @ ret);
      dispatch;
      args_a = List.map fst pairs;
      args_b = List.map snd pairs;
    }

let print_case c =
  Format.asprintf "@[<v>%s@,dispatch %d@,run A args: %a@,run B args: %a@]" (Spec.source c.spec)
    c.dispatch Interp.pp_values c.args_a Interp.pp_values c.args_b

let run_case program c args =
  match
    Interp.run program c.spec ~dispatch:c.dispatch ~args
      ~captures:
        (List.map (fun (cap : capture) -> (cap.cap_var, capture_value)) c.spec.Spec.captures)
  with
  | o -> Some o
  | exception (Interp.Out_of_fuel | Interp.Ill_formed _) -> None

(* Regions the engine once accepted although execution shows them
   leaking: the leak is demonstrated by two runs, and the engine must
   reject. *)
let execution_regression name body =
  test name (fun () ->
      let program, _ = Lazy.force oracle_program in
      let c =
        {
          spec = spec "r" [ "x" ] body;
          dispatch = 0;
          args_a = [ Interp.Int 1 ];
          args_b = [ Interp.Int 3 ];
        }
      in
      match (run_case program c c.args_a, run_case program c c.args_b) with
      | Some a, Some b ->
          check_bool "the runs differ" true (a.Interp.events <> b.Interp.events);
          check_bool "rejected" false (accepted program c.spec)
      | _ -> Alcotest.fail "a run did not finish")

let send e = Expr_stmt (Call (Static "net::send", [ e ]))

let noninterference_tests =
  [
    execution_regression "a strong update in one branch keeps the other branch's taint"
      [
        Let ("y", Var "x");
        If (Bool_lit false, [ Assign (Lvar "y", Int_lit 0) ], []);
        send (Var "y");
      ];
    execution_regression "code after a sensitive early return is control-dependent"
      [
        If (Binop (Gt, Var "x", Int_lit 2), [ Return (Some (Int_lit 0)) ], []);
        send (Str_lit "t");
      ];
    execution_regression "a loop condition's re-test runs under the condition's taint"
      [
        Let ("i", Int_lit 0);
        While
          ( Binop
              ( Lt,
                Var "i",
                Binop
                  ( Add,
                    Var "x",
                    Binop (Mul, Int_lit 0, Call (Static "net::send", [ Str_lit "tick" ])) ) ),
            [ Assign (Lvar "i", Binop (Add, Var "i", Int_lit 1)) ] );
      ];
    test "accepted regions are noninterferent under execution" (fun () ->
        let program, _ = Lazy.force oracle_program in
        let generated = ref 0 and accepted = ref 0 and exercised = ref 0 in
        let prop c =
          incr generated;
          if not (Analysis.check program c.spec).Analysis.accepted then true
          else begin
            incr accepted;
            match (run_case program c c.args_a, run_case program c c.args_b) with
            | Some a, Some b ->
                incr exercised;
                a.Interp.events = b.Interp.events && a.Interp.captures = b.Interp.captures
                || QCheck.Test.fail_reportf "@[<v>run A:@,%a@,run B:@,%a@]" Interp.pp_outcome a
                     Interp.pp_outcome b
            | _ -> true
          end
        in
        QCheck.Test.check_exn
          ~rand:(Random.State.make [| 20261019 |])
          (QCheck.Test.make ~count:5000 ~name:"noninterference"
             (QCheck.make ~print:print_case gen_case)
             prop);
        Printf.printf "generated %d regions, %d accepted (%.1f%%), %d accepted pairs executed\n"
          !generated !accepted
          (100.0 *. float_of_int !accepted /. float_of_int !generated)
          !exercised;
        check_bool "at least 200 accepted regions executed" true (!exercised >= 200));
  ]

let () =
  Alcotest.run "scrutinizer"
    [
      ("acceptance", acceptance_tests);
      ("rejection", rejection_tests);
      ("fixpoint-regression", fixpoint_regression_tests);
      ("allowlist", allowlist_tests);
      ("callgraph", callgraph_tests);
      ("ir", ir_tests);
      ("encapsulation", encapsulation_tests);
      ("place-provenance", place_provenance_tests);
      ("noninterference", noninterference_tests);
    ]
