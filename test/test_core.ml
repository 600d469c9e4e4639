open Sesame_core
module Scrut = Sesame_scrutinizer
module Sign = Sesame_signing
module Sbx = Sesame_sandbox
module Http = Sesame_http
module Db = Sesame_db

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A simple test policy family: allow a fixed principal. *)
module Only_family = struct
  type s = { who : string }

  let name = "test::only"
  let check s ctx = Context.user ctx = Some s.who
  let join = None
  let no_folding = false
  let describe s = "Only(" ^ s.who ^ ")"
end

module Only = Policy.Make (Only_family)

(* A joinable family: allow any principal in a set. *)
module Anyof_family = struct
  type s = string list

  let name = "test::anyof"

  let check s ctx = match Context.user ctx with Some u -> List.mem u s | None -> false
  let join = Some (fun a b -> Some (List.sort_uniq compare (a @ b)))
  let no_folding = false
  let describe s = "AnyOf(" ^ String.concat "," s ^ ")"
end

module Anyof = Policy.Make (Anyof_family)

module Nofold_family = struct
  type s = unit

  let name = "test::nofold"
  let check () _ = true
  let join = None
  let no_folding = true
  let describe () = "NoFold"
end

module Nofold = Policy.Make (Nofold_family)

let ada = Mock.context ~user:"ada" ()
let eve = Mock.context ~user:"eve" ()

(* ------------------------------------------------------------------ *)

let policy_tests =
  [
    test "family check consults the context" (fun () ->
        let p = Only.make { who = "ada" } in
        check_bool "ada" true (Policy.check p ada);
        check_bool "eve" false (Policy.check p eve));
    test "no_policy allows everything" (fun () ->
        check_bool "allow" true (Policy.check Policy.no_policy eve);
        check_bool "marker" true (Policy.is_no_policy Policy.no_policy));
    test "deny_all denies and blocks folding" (fun () ->
        let p = Policy.deny_all ~reason:"quarantine" in
        check_bool "deny" false (Policy.check p ada);
        check_bool "nofold" true (Policy.no_folding p));
    test "conjunction checks all members" (fun () ->
        let p = Policy.conjoin (Only.make { who = "ada" }) (Anyof.make [ "ada"; "eve" ]) in
        check_bool "ada" true (Policy.check p ada);
        check_bool "eve" false (Policy.check p eve));
    test "no_policy is the conjunction identity" (fun () ->
        let p = Only.make { who = "ada" } in
        check_bool "left" true (Policy.id (Policy.conjoin Policy.no_policy p) = Policy.id p);
        check_bool "right" true (Policy.id (Policy.conjoin p Policy.no_policy) = Policy.id p));
    test "same-family join collapses" (fun () ->
        let p = Policy.conjoin (Anyof.make [ "a" ]) (Anyof.make [ "b" ]) in
        check_int "one leaf" 1 (List.length (Policy.conjuncts p));
        check_bool "joined semantics" true (Policy.check p (Mock.context ~user:"b" ())));
    test "join is semantically equivalent to stacking" (fun () ->
        (* AnyOf is permissive-union, so joining [a]∧[a;b] keeps exactly
           the principals allowed by both. *)
        let stacked ctx =
          Policy.check (Anyof.make [ "a" ]) ctx && Policy.check (Anyof.make [ "a"; "b" ]) ctx
        in
        let joined = Policy.conjoin_all [ Anyof.make [ "a" ]; Anyof.make [ "a"; "b" ] ] in
        (* Note: AnyOf's join is union, which is only equivalent for this
           intersection test on principal "a". *)
        check_bool "a allowed" true
          (stacked (Mock.context ~user:"a" ()) && Policy.check joined (Mock.context ~user:"a" ())));
    test "different families stack" (fun () ->
        let p = Policy.conjoin (Only.make { who = "ada" }) (Nofold.make ()) in
        check_int "two leaves" 2 (List.length (Policy.conjuncts p)));
    test "duplicate instances are deduplicated" (fun () ->
        let p = Only.make { who = "ada" } in
        let conj = Policy.conjoin_all [ p; p; p ] in
        check_int "one" 1 (List.length (Policy.conjuncts conj));
        check_bool "same id" true (Policy.id conj = Policy.id p));
    test "conjoin_all over many distinct policies is linear-ish and correct" (fun () ->
        let ps = List.init 1000 (fun i -> Only.make { who = "u" ^ string_of_int i }) in
        let conj = Policy.conjoin_all ps in
        check_int "all kept" 1000 (List.length (Policy.conjuncts conj));
        check_bool "denies" false (Policy.check conj ada));
    test "no_folding propagates through conjunctions" (fun () ->
        let p = Policy.conjoin (Only.make { who = "ada" }) (Nofold.make ()) in
        check_bool "nofold" true (Policy.no_folding p));
    test "check_verbose names the denier" (fun () ->
        let p = Policy.conjoin (Anyof.make [ "ada" ]) (Only.make { who = "eve" }) in
        match Policy.check_verbose p ada with
        | Error msg -> check_bool "names family" true (String.length msg > 0)
        | Ok () -> Alcotest.fail "should deny");
    test "check counter counts leaf checks" (fun () ->
        Policy.reset_check_count ();
        let p = Policy.conjoin_all [ Only.make { who = "a" }; Anyof.make [ "b" ]; Nofold.make () ] in
        ignore (Policy.check p ada);
        (* for_all short-circuits on the first denial. *)
        check_bool "counted" true (Policy.check_count () >= 1);
        Policy.reset_check_count ();
        check_int "reset" 0 (Policy.check_count ()));
    test "state recovers family data" (fun () ->
        let p = Only.make { who = "ada" } in
        check_bool "own family" true (Only.state p = Some { who = "ada" });
        check_bool "other family" true (Anyof.state p = None));
  ]

(* ------------------------------------------------------------------ *)

let context_tests =
  [
    test "developer contexts are untrusted" (fun () ->
        check_bool "untrusted" false (Context.is_trusted (Context.untrusted ()));
        check_bool "trusted internal" true (Context.is_trusted (Mock.context ())));
    test "fields are retrievable" (fun () ->
        let c =
          Context.untrusted ~endpoint:"/e" ~user:"u" ~source:"s" ~sink:"k"
            ~custom:[ ("a", "1") ] ()
        in
        check_bool "endpoint" true (Context.endpoint c = Some "/e");
        check_bool "user" true (Context.user c = Some "u");
        check_bool "source" true (Context.source c = Some "s");
        check_bool "sink" true (Context.sink c = Some "k");
        check_bool "custom" true (Context.custom c "a" = Some "1");
        check_bool "missing custom" true (Context.custom c "zz" = None));
    test "with_sink preserves trust and replaces sink" (fun () ->
        let c = Context.with_sink (Mock.context ~sink:"old" ()) "new" in
        check_bool "trusted" true (Context.is_trusted c);
        check_bool "sink" true (Context.sink c = Some "new"));
    test "describe mentions trust" (fun () ->
        check_bool "trusted" true
          (String.length (Context.describe (Mock.context ())) >= String.length "trusted"));
  ]

(* ------------------------------------------------------------------ *)

let pcon_tests =
  [
    test "policy is public, data is not directly reachable" (fun () ->
        let p = Pcon.Internal.make (Only.make { who = "ada" }) 42 in
        check_str "policy visible" "test::only" (Policy.name (Pcon.policy p)));
    test "unwrap is internal-only and returns the value" (fun () ->
        check_int "raw" 42 (Pcon.Internal.unwrap (Mock.pcon 42)));
    test "built-in conversions preserve policy" (fun () ->
        let p = Pcon.Internal.make (Only.make { who = "ada" }) 7 in
        let s = Pcon.string_of_int_pcon p in
        check_str "converted" "7" (Pcon.Internal.unwrap s);
        check_bool "same policy" true (Policy.id (Pcon.policy s) = Policy.id (Pcon.policy p)));
    test "pair conjoins policies" (fun () ->
        let a = Pcon.Internal.make (Only.make { who = "ada" }) 1 in
        let b = Pcon.Internal.make (Nofold.make ()) 2 in
        let pair = Pcon.pair a b in
        check_int "two leaves" 2 (List.length (Policy.conjuncts (Pcon.policy pair)));
        check_bool "value" true (Pcon.Internal.unwrap pair = (1, 2)));
    test "equal_pcon compares under conjunction" (fun () ->
        let a = Mock.pcon 3 and b = Mock.pcon 3 in
        check_bool "eq" true (Pcon.Internal.unwrap (Pcon.equal_pcon a b)));
    test "with_policy strengthens, never replaces" (fun () ->
        let p = Pcon.Internal.make (Only.make { who = "ada" }) 1 in
        let p' = Pcon.with_policy p (Nofold.make ()) in
        check_int "conjunction" 2 (List.length (Policy.conjuncts (Pcon.policy p'))));
    test "storage modes round-trip values" (fun () ->
        List.iter
          (fun storage ->
            let p = Pcon.Internal.make ~storage Policy.no_policy "payload" in
            check_str "value" "payload" (Pcon.Internal.unwrap p);
            check_bool "mode" true (Pcon.storage_of p = storage))
          [ Pcon.Plain; Pcon.Obfuscated ]);
    test "default storage is settable" (fun () ->
        let before = Pcon.default_storage () in
        Pcon.set_default_storage Pcon.Plain;
        check_bool "plain" true (Pcon.storage_of (Pcon.wrap_no_policy 1) = Pcon.Plain);
        Pcon.set_default_storage before);
    test "map2 conjoins" (fun () ->
        let a = Pcon.Internal.make (Only.make { who = "ada" }) 2 in
        let b = Pcon.Internal.make (Only.make { who = "eve" }) 3 in
        let c = Pcon.Internal.map2 ( + ) a b in
        check_int "sum" 5 (Pcon.Internal.unwrap c);
        check_int "leaves" 2 (List.length (Policy.conjuncts (Pcon.policy c))));
  ]

(* ------------------------------------------------------------------ *)

let fold_tests =
  [
    test "out_list conjoins element policies" (fun () ->
        let xs =
          [
            Pcon.Internal.make (Only.make { who = "a" }) 1;
            Pcon.Internal.make (Only.make { who = "b" }) 2;
          ]
        in
        let folded = Fold.out_list xs in
        check_bool "values" true (Pcon.Internal.unwrap folded = [ 1; 2 ]);
        check_int "leaves" 2 (List.length (Policy.conjuncts (Pcon.policy folded))));
    test "out_option and out_pair" (fun () ->
        check_bool "none" true (Pcon.Internal.unwrap (Fold.out_option None) = None);
        check_bool "some" true
          (Pcon.Internal.unwrap (Fold.out_option (Some (Mock.pcon 5))) = Some 5);
        check_bool "pair" true
          (Pcon.Internal.unwrap (Fold.out_pair (Mock.pcon 1, Mock.pcon 2)) = (1, 2)));
    test "out_assoc keeps keys public" (fun () ->
        let folded = Fold.out_assoc [ ("k", Mock.pcon "v") ] in
        check_bool "assoc" true (Pcon.Internal.unwrap folded = [ ("k", "v") ]));
    test "in_list splits, each keeps the full policy" (fun () ->
        let policy = Only.make { who = "ada" } in
        let folded = Pcon.Internal.make policy [ 1; 2; 3 ] in
        match Fold.in_list folded with
        | Ok parts ->
            check_int "three" 3 (List.length parts);
            List.iter
              (fun part -> check_bool "policy kept" true (Policy.id (Pcon.policy part) = Policy.id policy))
              parts
        | Error _ -> Alcotest.fail "should fold");
    test "in_option leaks shape deliberately" (fun () ->
        match Fold.in_option (Mock.pcon (Some 9)) with
        | Ok (Some inner) -> check_int "inner" 9 (Pcon.Internal.unwrap inner)
        | _ -> Alcotest.fail "expected Some");
    test "NoFolding policies refuse folding in" (fun () ->
        let folded = Pcon.Internal.make (Nofold.make ()) [ 1 ] in
        check_bool "refused" true (Result.is_error (Fold.in_list folded));
        check_bool "refused via conjunction" true
          (Result.is_error
             (Fold.in_list
                (Pcon.Internal.make
                   (Policy.conjoin (Only.make { who = "a" }) (Nofold.make ()))
                   [ 1 ]))));
    test "folding out is always allowed, even NoFolding" (fun () ->
        let xs = [ Pcon.Internal.make (Nofold.make ()) 1 ] in
        check_bool "out ok" true (Pcon.Internal.unwrap (Fold.out_list xs) = [ 1 ]));
    test "in_result enables early return" (fun () ->
        let ok = Pcon.Internal.make Policy.no_policy (Ok 5) in
        let err = Pcon.Internal.make Policy.no_policy (Error "bad form") in
        (match Fold.in_result ok with
        | Ok (Ok inner) -> check_int "ok" 5 (Pcon.Internal.unwrap inner)
        | _ -> Alcotest.fail "ok case");
        match Fold.in_result err with
        | Ok (Error msg) -> check_str "error raw" "bad form" msg
        | _ -> Alcotest.fail "error case");
    test "force_lazy awaits outside the region safely" (fun () ->
        let computed = ref false in
        let wrapped =
          Pcon.Internal.make (Only.make { who = "ada" })
            (lazy
              (computed := true;
               21 * 2))
        in
        let forced = Fold.force_lazy wrapped in
        check_bool "ran" true !computed;
        check_int "result" 42 (Pcon.Internal.unwrap forced);
        check_bool "policy kept" true
          (Policy.id (Pcon.policy forced) = Policy.id (Pcon.policy wrapped)));
  ]

(* ------------------------------------------------------------------ *)
(* Regions *)

let region_program () =
  let program = Scrut.Program.create () in
  Scrut.Program.define_all program
    Scrut.Ir.
      [
        func ~name:"up" ~params:[ "s" ] [ Return (Some (Var "s")) ];
        native ~package:"lettre" ~name:"send_mail" ~params:[ "to"; "body" ] ();
        func ~name:"mailer" ~params:[ "body"; "to" ]
          [ Expr_stmt (Call (Static "send_mail", [ Var "to"; Var "body" ])) ];
      ];
  program

let lockfile =
  Sign.Lockfile.of_packages [ { name = "lettre"; version = "0.11.4"; deps = [] } ]

let keystore () =
  let ks = Sign.Keystore.create () in
  Sign.Keystore.register ks ~reviewer:"lead" ~secret:"s3cret";
  ks

let clean_spec =
  Scrut.Spec.make ~name:"regions::upcase" ~params:[ "s" ]
    Scrut.Ir.[ Return (Some (Call (Static "up", [ Var "s" ]))) ]

let leaky_spec =
  Scrut.Spec.make ~name:"regions::mailer" ~params:[ "body" ]
    Scrut.Ir.[ Expr_stmt (Call (Static "mailer", [ Var "body"; Str_lit "x@y" ])) ]

let verified_tests =
  [
    test "accepted region runs and re-wraps under the same policy" (fun () ->
        let region =
          Result.get_ok
            (Region.Verified.make ~app:"test" ~program:(region_program ()) ~spec:clean_spec
               ~f:String.uppercase_ascii ())
        in
        let input = Pcon.Internal.make (Only.make { who = "ada" }) "hello" in
        let output = Region.Verified.run region input in
        check_str "mapped" "HELLO" (Pcon.Internal.unwrap output);
        check_bool "policy kept" true
          (Policy.id (Pcon.policy output) = Policy.id (Pcon.policy input)));
    test "rejected region cannot be constructed" (fun () ->
        match
          Region.Verified.make ~app:"test" ~program:(region_program ()) ~spec:leaky_spec
            ~f:(fun (_ : string) -> ()) ()
        with
        | Error (Region.Not_leakage_free v) ->
            check_bool "has reasons" true (v.Scrut.Analysis.rejections <> [])
        | Ok _ -> Alcotest.fail "should reject"
        | Error e -> Alcotest.failf "unexpected: %s" (Region.error_to_string e));
    test "run2 conjoins, run_list folds" (fun () ->
        let region2 =
          Result.get_ok
            (Region.Verified.make ~app:"test" ~program:(region_program ())
               ~spec:
                 (Scrut.Spec.make ~name:"regions::cat" ~params:[ "a"; "b" ]
                    Scrut.Ir.[ Return (Some (Binop (Concat, Var "a", Var "b"))) ])
               ~f:(fun (a, b) -> a ^ b)
               ())
        in
        let a = Pcon.Internal.make (Only.make { who = "a" }) "x" in
        let b = Pcon.Internal.make (Only.make { who = "b" }) "y" in
        let out = Region.Verified.run2 region2 a b in
        check_str "cat" "xy" (Pcon.Internal.unwrap out);
        check_int "conjoined" 2 (List.length (Policy.conjuncts (Pcon.policy out)));
        let regionl =
          Result.get_ok
            (Region.Verified.make ~app:"test" ~program:(region_program ())
               ~spec:
                 (Scrut.Spec.make ~name:"regions::join" ~params:[ "xs" ]
                    Scrut.Ir.[ Return (Some (Var "xs")) ])
               ~f:(String.concat ",") ())
        in
        check_str "joined" "x,y" (Pcon.Internal.unwrap (Region.Verified.run_list regionl [ a; b ])));
    test "region construction registers in the registry" (fun () ->
        Registry.reset ();
        ignore
          (Result.get_ok
             (Region.Verified.make ~app:"regapp" ~program:(region_program ()) ~spec:clean_spec
                ~f:Fun.id ()));
        check_int "registered" 1 (Registry.count ~app:"regapp" Registry.Verified));
  ]

let sandboxed_tests =
  [
    test "sandboxed region wraps output with the input policy" (fun () ->
        let region =
          Region.Sandboxed.make ~app:"test" ~name:"sr::double" ~loc:2
            ~encode:(fun i -> Sbx.Value.Int i)
            ~decode:(function Sbx.Value.Int i -> Ok i | _ -> Error "shape")
            ~f:(function Sbx.Value.Int i -> Sbx.Value.Int (2 * i) | v -> v)
            ()
        in
        let input = Pcon.Internal.make (Only.make { who = "ada" }) 21 in
        (match Region.Sandboxed.run region input with
        | Ok out ->
            check_int "doubled" 42 (Pcon.Internal.unwrap out);
            check_bool "policy" true (Policy.id (Pcon.policy out) = Policy.id (Pcon.policy input))
        | Error e -> Alcotest.fail (Region.error_to_string e));
        check_bool "timings recorded" true (Option.is_some (Region.Sandboxed.last_timings region)));
    test "decode failures surface as errors" (fun () ->
        let region =
          Region.Sandboxed.make ~app:"test" ~name:"sr::bad" ~loc:1
            ~encode:(fun i -> Sbx.Value.Int i)
            ~decode:(fun _ -> Error "nope")
            ~f:Fun.id ()
        in
        check_bool "decode error" true
          (match Region.Sandboxed.run region (Mock.pcon 1) with
          | Error (Region.Decode_failed _) -> true
          | _ -> false));
    test "run_list folds inputs and conjoins policies" (fun () ->
        let region =
          Region.Sandboxed.make ~app:"test" ~name:"sr::sum" ~loc:3
            ~encode:(fun i -> Sbx.Value.Int i)
            ~decode:(function Sbx.Value.Int i -> Ok i | _ -> Error "shape")
            ~f:(function
              | Sbx.Value.Vec xs ->
                  Sbx.Value.Int
                    (List.fold_left
                       (fun acc -> function Sbx.Value.Int i -> acc + i | _ -> acc)
                       0 xs)
              | v -> v)
            ()
        in
        let xs =
          [ Pcon.Internal.make (Only.make { who = "a" }) 1;
            Pcon.Internal.make (Only.make { who = "b" }) 2 ]
        in
        match Region.Sandboxed.run_list region xs with
        | Ok out ->
            check_int "sum" 3 (Pcon.Internal.unwrap out);
            check_int "conjunction" 2 (List.length (Policy.conjuncts (Pcon.policy out)))
        | Error e -> Alcotest.fail (Region.error_to_string e));
    test "emailing from inside a sandbox is forbidden" (fun () ->
        let region =
          Region.Sandboxed.make ~app:"test" ~name:"sr::mail" ~loc:1
            ~encode:(fun s -> Sbx.Value.Str s)
            ~decode:(fun _ -> Ok ())
            ~f:(fun v ->
              Sesame_apps.Email.send ~recipient:"x@y" ~subject:"!" ~body:"leak";
              v)
            ()
        in
        check_bool "trapped" true
          (match Region.Sandboxed.run region (Mock.pcon "data") with
          | Error
              (Region.Sandbox_trapped { trap = Sbx.Runtime.Syscall_blocked _; _ }) ->
              true
          | _ -> false));
    test "guest exceptions trap instead of escaping" (fun () ->
        let region =
          Region.Sandboxed.make ~app:"test" ~name:"sr::crash" ~loc:1
            ~encode:(fun s -> Sbx.Value.Str s)
            ~decode:(fun _ -> Ok ())
            ~f:(fun _ -> failwith "guest bug")
            ()
        in
        check_bool "trapped" true
          (match Region.Sandboxed.run region (Mock.pcon "data") with
          | Error
              (Region.Sandbox_trapped { trap = Sbx.Runtime.Guest_exception _; _ }) ->
              true
          | _ -> false));
  ]

let critical_tests =
  let make_cr ?(ks = keystore ()) () =
    let sent = ref [] in
    let region =
      Result.get_ok
        (Region.Critical.make ~app:"test" ~program:(region_program ()) ~spec:leaky_spec
           ~lockfile ~keystore:ks
           ~f:(fun ~context body ->
             sent := (Context.custom context "recipient", body) :: !sent)
           ())
    in
    (region, sent, ks)
  in
  [
    test "unsigned CR refuses to run in release mode" (fun () ->
        let region, _, _ = make_cr () in
        check_bool "unsigned" true
          (match
             Region.Critical.run region ~context:(Context.untrusted ~user:"ada" ())
               (Mock.pcon "body")
           with
          | Error (Region.Unsigned _) -> true
          | _ -> false));
    test "unsigned CR runs in debug mode (§7.3 ergonomics)" (fun () ->
        let region, sent, _ = make_cr () in
        Build_mode.with_mode Build_mode.Debug (fun () ->
            match
              Region.Critical.run region ~context:(Context.untrusted ~user:"ada" ())
                (Mock.pcon "body")
            with
            | Ok () -> check_int "ran" 1 (List.length !sent)
            | Error e -> Alcotest.fail (Region.error_to_string e)));
    test "signed CR runs and checks the policy first" (fun () ->
        let region, sent, _ = make_cr () in
        (match Region.Critical.sign region ~reviewer:"lead" ~at:100 with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Region.error_to_string e));
        let input = Pcon.Internal.make (Only.make { who = "ada" }) "hello" in
        (* Denied context: policy check blocks before the CR body runs. *)
        (match Region.Critical.run region ~context:(Context.untrusted ~user:"eve" ()) input with
        | Error (Region.Policy_denied _) -> ()
        | _ -> Alcotest.fail "expected policy denial");
        check_int "not run" 0 (List.length !sent);
        (* Allowed context: runs, output unwrapped. *)
        match Region.Critical.run region ~context:(Context.untrusted ~user:"ada" ()) input with
        | Ok () -> check_int "ran" 1 (List.length !sent)
        | Error e -> Alcotest.fail (Region.error_to_string e));
    test "revoking the reviewer invalidates the CR" (fun () ->
        let region, _, ks = make_cr () in
        ignore (Region.Critical.sign region ~reviewer:"lead" ~at:100);
        Sign.Keystore.revoke ks ~reviewer:"lead" ~at:200;
        check_bool "revoked" true
          (match Region.Critical.validate_signature region with
          | Error (Region.Signature_invalid (Sign.Keystore.Revoked _)) -> true
          | _ -> false));
    test "code change invalidates the signature" (fun () ->
        let ks = keystore () in
        let region1, _, _ = make_cr ~ks () in
        ignore (Region.Critical.sign region1 ~reviewer:"lead" ~at:100);
        let signature = Option.get (Region.Critical.signature region1) in
        (* "Re-deploy" with changed code: same name, different body. *)
        let changed_spec =
          Scrut.Spec.make ~name:"regions::mailer" ~params:[ "body" ]
            Scrut.Ir.[
              Let ("copy", Var "body");
              Expr_stmt (Call (Static "mailer", [ Var "copy"; Str_lit "x@y" ]));
            ]
        in
        let region2 =
          Result.get_ok
            (Region.Critical.make ~app:"test" ~program:(region_program ()) ~spec:changed_spec
               ~lockfile ~keystore:ks
               ~f:(fun ~context:_ (_ : string) -> ())
               ())
        in
        Region.Critical.attach_signature region2 signature;
        check_bool "stale signature" true
          (match Region.Critical.validate_signature region2 with
          | Error (Region.Signature_invalid Sign.Keystore.Digest_mismatch) -> true
          | _ -> false));
    test "dependency bump invalidates, unrelated dep does not" (fun () ->
        let ks = keystore () in
        let region1, _, _ = make_cr ~ks () in
        let make_with lf =
          Result.get_ok
            (Region.Critical.make ~app:"test" ~program:(region_program ()) ~spec:leaky_spec
               ~lockfile:lf ~keystore:ks
               ~f:(fun ~context:_ (_ : string) -> ())
               ())
        in
        let bumped =
          make_with
            (Sign.Lockfile.of_packages [ { name = "lettre"; version = "0.12.0"; deps = [] } ])
        in
        let unrelated =
          make_with
            (Sign.Lockfile.add lockfile { name = "left-pad"; version = "1.0"; deps = [] })
        in
        check_bool "bump changes digest" false
          (Sign.Sha256.equal (Region.Critical.digest region1) (Region.Critical.digest bumped));
        check_bool "unrelated keeps digest" true
          (Sign.Sha256.equal (Region.Critical.digest region1) (Region.Critical.digest unrelated)));
    test "unpinned dependency fails construction" (fun () ->
        check_bool "hashing fails" true
          (match
             Region.Critical.make ~app:"test" ~program:(region_program ()) ~spec:leaky_spec
               ~lockfile:Sign.Lockfile.empty ~keystore:(keystore ())
               ~f:(fun ~context:_ (_ : string) -> ())
               ()
           with
          | Error (Region.Hashing_failed _) -> true
          | _ -> false));
    test "review burden reflects in-crate call graph" (fun () ->
        let region, _, _ = make_cr () in
        check_bool "positive" true (Region.Critical.review_burden_loc region > 0));
    test "quota gates admission before the body and keeps exact books" (fun () ->
        let quota =
          Sbx.Quota.create ~limits:(Sbx.Quota.limits ~max_runs:2 ()) ()
        in
        let sent = ref [] in
        let region =
          Result.get_ok
            (Region.Critical.make ~app:"test" ~program:(region_program ()) ~spec:leaky_spec
               ~lockfile ~keystore:(keystore ()) ~quota
               ~f:(fun ~context:_ body -> sent := body :: !sent)
               ())
        in
        Build_mode.with_mode Build_mode.Debug (fun () ->
            let run () =
              Region.Critical.run region
                ~context:(Context.untrusted ~user:"ada" ())
                (Mock.pcon "body")
            in
            (match run () with Ok () -> () | Error e -> Alcotest.fail (Region.error_to_string e));
            (match run () with Ok () -> () | Error e -> Alcotest.fail (Region.error_to_string e));
            (* Third run breaches the allowance: refused before the body,
               with a structured denial naming the limit, not region data. *)
            (match run () with
            | Error (Region.Quota_denied { region = name; state }) ->
                check_str "names the region" "regions::mailer" name;
                let contains hay needle =
                  let n = String.length hay and m = String.length needle in
                  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
                  go 0
                in
                check_bool "names the breached limit" true (contains state "runs")
            | Ok () -> Alcotest.fail "admitted past the allowance"
            | Error e -> Alcotest.fail (Region.error_to_string e));
            check_int "body ran only within the allowance" 2 (List.length !sent);
            match Region.Critical.quota_counters region with
            | None -> Alcotest.fail "no quota books for the region"
            | Some c ->
                check_int "runs" 2 c.Sbx.Quota.runs;
                check_int "denied" 1 c.Sbx.Quota.denied));
  ]

(* ------------------------------------------------------------------ *)
(* Connector and web sinks *)

let conn_fixture () =
  let db = Db.Database.create () in
  let schema =
    Db.Schema.make_exn ~name:"notes" ~primary_key:"id"
      [
        { name = "id"; ty = Db.Value.Tint; nullable = false };
        { name = "owner"; ty = Db.Value.Ttext; nullable = false };
        { name = "note"; ty = Db.Value.Ttext; nullable = false };
      ]
  in
  Result.get_ok (Db.Database.create_table db schema);
  let conn = Sesame_conn.create db in
  Sesame_conn.attach_policy conn ~table:"notes" ~column:"note" (fun schema row ->
      Only.make { who = Db.Value.to_text (Db.Row.get schema row "owner") });
  List.iter
    (fun (id, owner, note) ->
      ignore
        (Result.get_ok
           (Db.Database.exec db "INSERT INTO notes VALUES (?, ?, ?)"
              ~params:[ Db.Value.Int id; Db.Value.Text owner; Db.Value.Text note ])))
    [ (1, "ada", "ada's note"); (2, "eve", "eve's note") ];
  conn

let conn_tests =
  [
    test "query wraps bound columns with instantiated policies" (fun () ->
        let conn = conn_fixture () in
        match Sesame_conn.query conn ~context:ada "SELECT * FROM notes WHERE id = ?"
                ~params:[ Pcon.wrap_no_policy (Db.Value.Int 1) ]
        with
        | Ok [ row ] ->
            let note = Pcon_row.get row "note" in
            check_bool "ada may read" true (Policy.check (Pcon.policy note) ada);
            check_bool "eve may not" false (Policy.check (Pcon.policy note) eve);
            check_bool "unbound column NoPolicy" true
              (Policy.is_no_policy (Pcon.policy (Pcon_row.get row "owner")))
        | Ok _ -> Alcotest.fail "expected one row"
        | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e);
    test "built-in sinks reject untrusted contexts" (fun () ->
        let conn = conn_fixture () in
        check_bool "untrusted" true
          (Sesame_conn.query conn ~context:(Context.untrusted ~user:"ada" ())
             "SELECT * FROM notes" ~params:[]
          = Error Sesame_conn.Untrusted_context));
    test "pcon params are policy-checked before the query" (fun () ->
        let conn = conn_fixture () in
        let secret_param =
          Pcon.Internal.make (Only.make { who = "eve" }) (Db.Value.Int 1)
        in
        check_bool "denied" true
          (match
             Sesame_conn.query conn ~context:ada "SELECT * FROM notes WHERE id = ?"
               ~params:[ secret_param ]
           with
          | Error (Sesame_conn.Policy_denied _) -> true
          | _ -> false));
    test "insert checks cell policies at the sink" (fun () ->
        let conn = conn_fixture () in
        let cells owner =
          [
            ("id", Pcon.wrap_no_policy (Db.Value.Int 3));
            ("owner", Pcon.wrap_no_policy (Db.Value.Text "ada"));
            ("note", Pcon.Internal.make (Only.make { who = owner }) (Db.Value.Text "n"));
          ]
        in
        check_bool "denied" true
          (match Sesame_conn.insert conn ~context:ada ~table:"notes" (cells "eve") with
          | Error (Sesame_conn.Policy_denied _) -> true
          | _ -> false);
        check_bool "allowed" true
          (Sesame_conn.insert conn ~context:ada ~table:"notes" (cells "ada") = Ok ()));
    test "query_agg wraps aggregates under contributing rows' policies" (fun () ->
        let conn = conn_fixture () in
        match
          Sesame_conn.query_agg conn ~context:ada "SELECT COUNT(note) FROM notes" ~params:[]
        with
        | Ok [ row ] ->
            let cell = List.assoc "COUNT(note)" row in
            check_bool "count" true (Pcon.Internal.unwrap cell = Db.Value.Int 2);
            (* Both owners' policies apply: nobody but a principal passing
               both can see it; ada alone fails eve's policy. *)
            check_bool "conjunction" false (Policy.check (Pcon.policy cell) ada)
        | Ok _ -> Alcotest.fail "one row"
        | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e);
    test "rows wrap cells lazily: policy instantiation only on access" (fun () ->
        let db = Db.Database.create () in
        let schema =
          Db.Schema.make_exn ~name:"wide"
            [
              { name = "a"; ty = Db.Value.Tint; nullable = false };
              { name = "b"; ty = Db.Value.Tint; nullable = false };
            ]
        in
        Result.get_ok (Db.Database.create_table db schema);
        ignore (Result.get_ok (Db.Database.exec db "INSERT INTO wide VALUES (1, 2)" ~params:[]));
        let conn = Sesame_conn.create db in
        let instantiated = ref 0 in
        List.iter
          (fun column ->
            Sesame_conn.attach_policy conn ~table:"wide" ~column (fun _ _ ->
                incr instantiated;
                Policy.no_policy))
          [ "a"; "b" ];
        (match Sesame_conn.query conn ~context:ada "SELECT * FROM wide" ~params:[] with
        | Ok [ row ] ->
            check_int "nothing wrapped yet" 0 !instantiated;
            ignore (Pcon_row.get row "a");
            check_int "one column wrapped" 1 !instantiated
        | _ -> Alcotest.fail "query failed"));
    test "a source's schema half runs once per statement, its row half per row" (fun () ->
        let conn = conn_fixture () in
        let staged = ref 0 and rows_seen = ref 0 in
        Sesame_conn.attach_policy conn ~table:"notes" ~column:"note" (fun schema ->
            incr staged;
            let owner = Db.Schema.column_index_exn schema "owner" in
            fun row ->
              incr rows_seen;
              Only.make { who = Db.Value.to_text row.(owner) });
        match Sesame_conn.query conn ~context:ada "SELECT * FROM notes" ~params:[] with
        | Ok rows ->
            check_int "two rows" 2 (List.length rows);
            List.iter (fun row -> ignore (Pcon_row.get row "note")) rows;
            check_int "staged once" 1 !staged;
            check_int "one row half per row" 2 !rows_seen
        | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e);
    test "re-attaching a binding takes effect on the next statement" (fun () ->
        let conn = conn_fixture () in
        let note_of rows =
          match rows with
          | Ok [ row ] -> Pcon_row.get row "note"
          | Ok _ -> Alcotest.fail "expected one row"
          | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e
        in
        let ada_note () =
          Sesame_conn.query conn ~context:ada "SELECT * FROM notes WHERE id = ?"
            ~params:[ Pcon.wrap_no_policy (Db.Value.Int 1) ]
        in
        let before = ada_note () in
        check_bool "owner binding admits ada" true
          (Policy.check (Pcon.policy (note_of before)) ada);
        Sesame_conn.attach_policy conn ~table:"notes" ~column:"note" (fun _schema _row ->
            Only.make { who = "eve" });
        let after = note_of (ada_note ()) in
        check_bool "new binding denies ada" false (Policy.check (Pcon.policy after) ada);
        check_bool "new binding admits eve" true (Policy.check (Pcon.policy after) eve);
        (* Rows keep the binding their statement was wrapped under. *)
        check_bool "earlier rows unchanged" true
          (Policy.check (Pcon.policy (note_of before)) ada);
        (* The filtered read consults the new binding too. *)
        match
          Sesame_conn.query_filtered conn ~context:ada ~on:"note" "SELECT * FROM notes"
            ~params:[]
        with
        | Ok rows -> check_int "ada may use nothing now" 0 (List.length rows)
        | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e);
    test "pushdown off: a filtered statement checks each distinct policy once" (fun () ->
        let conn = conn_fixture () in
        let owners = [| "ada"; "eve"; "bob" |] in
        for id = 3 to 32 do
          ignore
            (Result.get_ok
               (Db.Database.exec (Sesame_conn.database conn) "INSERT INTO notes VALUES (?, ?, ?)"
                  ~params:Db.Value.[ Int id; Text owners.(id mod 3); Text "n" ]))
        done;
        (* Interned per owner, as an application binding stages them. *)
        Sesame_conn.attach_policy conn ~table:"notes" ~column:"note" (fun schema ->
            let owner = Db.Schema.column_index_exn schema "owner" in
            let interned = Hashtbl.create 4 in
            fun row ->
              let who = Db.Value.to_text row.(owner) in
              match Hashtbl.find_opt interned who with
              | Some policy -> policy
              | None ->
                  let policy = Only.make { who } in
                  Hashtbl.add interned who policy;
                  policy);
        let pushdown = Enforce.pushdown_enabled () in
        Enforce.set_pushdown false;
        Fun.protect ~finally:(fun () -> Enforce.set_pushdown pushdown) @@ fun () ->
        Enforce.reset_stats ();
        match
          Sesame_conn.query_filtered conn ~context:ada ~on:"note" "SELECT * FROM notes" ~params:[]
        with
        | Ok rows ->
            check_int "ada's 11 of 32 rows" 11 (List.length rows);
            check_int "one check per owner" 3 (Enforce.stats ()).Enforce.misses
        | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e);
    test "execute runs updates with checked params" (fun () ->
        let conn = conn_fixture () in
        match
          Sesame_conn.execute conn ~context:ada "DELETE FROM notes WHERE id = ?"
            ~params:[ Pcon.wrap_no_policy (Db.Value.Int 2) ]
        with
        | Ok n -> check_int "one" 1 n
        | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e);
  ]

(* ------------------------------------------------------------------ *)
(* The connector fold against the per-row path it replaces: the same
   statement read through [query]/[query_filtered], each row's cells
   wrapped by [Pcon_row], combined by [map2] and folded out by
   [Fold.out_list]. Policies are interned for the whole test (not per
   statement, as an application binding does), so both reads see the
   same instances and member ids can be compared. *)

module Tag_family = struct
  type s = string

  let name = "test::tag"
  let check _ _ = true
  let join = None
  let no_folding = false
  let describe s = "Tag(" ^ s ^ ")"
end

module Tag = Policy.Make (Tag_family)

let consenting = [ "ada"; "cy" ]

module Consent_family = struct
  type s = string

  let name = "test::consent"
  let check owner _ = List.mem owner consenting
  let join = None
  let no_folding = false
  let describe owner = "Consent(" ^ owner ^ ")"
end

module Consent = Policy.Make (Consent_family)

let interned : (string, Policy.t) Hashtbl.t = Hashtbl.create 16

let intern key make =
  match Hashtbl.find_opt interned key with
  | Some policy -> policy
  | None ->
      let policy = make () in
      Hashtbl.add interned key policy;
      policy

let marks_schema =
  Db.Schema.make_exn ~name:"marks" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "owner"; ty = Db.Value.Ttext; nullable = false };
      { name = "question"; ty = Db.Value.Tint; nullable = false };
      { name = "grade"; ty = Db.Value.Tfloat; nullable = true };
    ]

(* Owners cluster in runs of three slots and recur, some grades are
   NULL; the grade binding's translation admits exactly the consenting
   owners. *)
let seed_marks conn =
  let db = Sesame_conn.database conn in
  Result.get_ok (Db.Database.create_table db marks_schema);
  Result.get_ok (Db.Database.ensure_index db ~table:"marks" ~column:"owner");
  let owners = [| "ada"; "bob"; "cy"; "dee" |] in
  for id = 0 to 35 do
    ignore
      (Result.get_ok
         (Db.Database.exec db "INSERT INTO marks VALUES (?, ?, ?, ?)"
            ~params:
              Db.Value.
                [
                  Int id;
                  Text owners.(id / 3 mod 4);
                  Int (id mod 5);
                  (if id mod 7 = 3 then Null else Float (float_of_int (id * id mod 11) /. 4.0));
                ]))
  done;
  let owner_of schema =
    let owner = Db.Schema.column_index_exn schema "owner" in
    fun row -> Db.Value.to_text row.(owner)
  in
  Sesame_conn.attach_policy conn ~table:"marks" ~column:"grade"
    ~to_expr:(fun _ ->
      Some (Db.Expr.In (Db.Expr.Col "owner", List.map (fun o -> Db.Value.Text o) consenting)))
    (fun schema ->
      let owner_of = owner_of schema in
      fun row ->
        let owner = owner_of row in
        intern ("grade:" ^ owner) (fun () ->
            Policy.conjoin (Consent.make owner) (Tag.make owner)));
  Sesame_conn.attach_policy conn ~table:"marks" ~column:"question" (fun schema ->
      let question = Db.Schema.column_index_exn schema "question" in
      fun row ->
        let q = string_of_int (Db.Value.to_int row.(question)) in
        intern ("question:" ^ q) (fun () -> Tag.make ("q" ^ q)))

let admin = Mock.context ~user:"root" ()
let graded = "SELECT * FROM marks WHERE grade IS NOT NULL"
let point cells = (Db.Value.to_int cells.(0), Db.Value.to_float cells.(1))

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e

(* The per-row path for one statement: its rows read through
   [query]/[query_filtered], each row's cells wrapped by [Pcon_row],
   combined by [map2] and folded out by [Fold.out_list]. *)
let per_row conn ?on sql ~params =
  let rows =
    ok_or_fail
      (match on with
      | Some on -> Sesame_conn.query_filtered conn ~context:admin ~on sql ~params
      | None -> Sesame_conn.query conn ~context:admin sql ~params)
  in
  ( List.length rows,
    Fold.out_list
      (List.map
         (fun row ->
           Pcon.Internal.map2
             (fun q g -> (q, Db.Value.to_float g))
             (Pcon_row.int row "question") (Pcon_row.get row "grade"))
         rows) )

(* The per-row reference and the fold, for one read shape. *)
let fold_against_rows conn ?on () =
  let n, reference = per_row conn ?on graded ~params:[] in
  let folded =
    ok_or_fail
      (Sesame_conn.query_fold_floats conn ~context:admin ?on graded ~params:[]
         ~columns:[ "question"; "grade" ])
  in
  (n, reference, folded)

let points_of_floats xy =
  List.init (Array.length xy / 2) (fun i -> (int_of_float xy.(2 * i), xy.((2 * i) + 1)))

let same_payload ~points (n, reference, (folded : _ Sesame_conn.folded)) =
  check_int "row count" n folded.rows;
  check_bool "same values, in row order" true
    (Pcon.Internal.unwrap reference = points (Pcon.Internal.unwrap folded.payload));
  let ids p = List.map Policy.id (Policy.conjuncts (Pcon.policy p)) in
  Alcotest.(check (list int)) "same member ids, same order" (ids reference) (ids folded.payload);
  check_str "same description" (Policy.describe (Pcon.policy reference))
    (Policy.describe (Pcon.policy folded.payload))

let same_fold ((n, _, _) as fold) =
  check_bool "rows read" true (n > 0);
  same_payload ~points:points_of_floats fold

let with_pushdown on f =
  let before = Enforce.pushdown_enabled () in
  Enforce.set_pushdown on;
  Fun.protect ~finally:(fun () -> Enforce.set_pushdown before) f

let durable_counter = ref 0

let fold_tests_conn =
  [
    test "fold equals the per-row fold-out, pushdown on" (fun () ->
        let conn = Sesame_conn.create (Db.Database.create ()) in
        seed_marks conn;
        with_pushdown true @@ fun () ->
        Enforce.reset_stats ();
        let (n, _, folded) as filtered = fold_against_rows conn ~on:"grade" () in
        same_fold filtered;
        check_int "both reads pushed" 2 (Enforce.stats ()).Enforce.pushdowns;
        check_bool "only consenting rows" true (n < 31);
        check_bool "the payload admits the training principal" true
          (Policy.check (Pcon.policy folded.payload) admin);
        same_fold (fold_against_rows conn ()));
    test "fold equals the per-row fold-out, pushdown off" (fun () ->
        let conn = Sesame_conn.create (Db.Database.create ()) in
        seed_marks conn;
        with_pushdown false @@ fun () ->
        Enforce.reset_stats ();
        let pushed_on = fold_against_rows conn ~on:"grade" () in
        same_fold pushed_on;
        check_int "nothing pushed" 0 (Enforce.stats ()).Enforce.pushdowns;
        let (n, _, _) as all = fold_against_rows conn () in
        same_fold all;
        check_int "every graded row without a filter" 31 n);
    test "fold equals the per-row fold-out on a brownout snapshot" (fun () ->
        incr durable_counter;
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "sesame-core-fold-%d-%d" (Unix.getpid ()) !durable_counter)
        in
        List.iter Sesame_wal.Provenance.register
          [ Tag_family.name; Consent_family.name ];
        let conn, store =
          match Sesame_conn.create_durable ~dir () with
          | Ok pair -> pair
          | Error e -> Alcotest.fail (Sesame_wal.Durable.error_message e)
        in
        Fun.protect
          ~finally:(fun () ->
            ignore (Sesame_wal.Durable.close store : (unit, string) result);
            Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
            Sys.rmdir dir)
        @@ fun () ->
        seed_marks conn;
        let _, live, _ = fold_against_rows conn ~on:"grade" () in
        Db.Database.poison (Sesame_conn.database conn) "test";
        let results, degraded =
          Sesame_request.serve Sesame_request.none (fun () ->
              (fold_against_rows conn ~on:"grade" (), fold_against_rows conn ()))
        in
        Alcotest.(check (option string)) "served from the snapshot" (Some "snapshot") degraded;
        let ((_, _, folded) as filtered), all = results in
        same_fold filtered;
        same_fold all;
        check_bool "the snapshot holds the live rows" true
          (Pcon.Internal.unwrap live = points_of_floats (Pcon.Internal.unwrap folded.payload)));
    test "fold with no row read is empty under NoPolicy" (fun () ->
        let conn = Sesame_conn.create (Db.Database.create ()) in
        seed_marks conn;
        let folded =
          ok_or_fail
            (Sesame_conn.query_fold_floats conn ~context:admin "SELECT * FROM marks WHERE id = ?"
               ~params:[ Pcon.wrap_no_policy (Db.Value.Int 99) ] ~columns:[ "grade" ])
        in
        check_int "no rows" 0 folded.rows;
        check_bool "no policy" true (Policy.is_no_policy (Pcon.policy folded.payload)));
  ]

(* The grouped fold against the per-row path over each key's rows
   alone, the statement per key that the grouped fold replaces. *)
let by_owner = "SELECT * FROM marks WHERE grade IS NOT NULL AND owner = ?"

let owners_in n =
  "SELECT * FROM marks WHERE grade IS NOT NULL AND owner IN ("
  ^ String.concat ", " (List.init n (fun _ -> "?"))
  ^ ")"

let text_key owner = Pcon.wrap_no_policy (Db.Value.Text owner)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let fold_group_tests =
  [
    test "grouped fold: one payload per key, in key order, each under its own rows" (fun () ->
        let conn = Sesame_conn.create (Db.Database.create ()) in
        seed_marks conn;
        let owners = [ "cy"; "zed"; "ada"; "bob"; "ada" ] in
        let queries = Db.Database.query_count (Sesame_conn.database conn) in
        let groups =
          ok_or_fail
            (Sesame_conn.query_fold_groups conn ~context:admin
               (owners_in (List.length owners))
               ~columns:[ "question"; "grade" ] ~key:"owner" ~keys:(List.map text_key owners))
        in
        check_int "one statement" (queries + 1)
          (Db.Database.query_count (Sesame_conn.database conn));
        check_int "one payload per key" (List.length owners) (List.length groups);
        List.iter2
          (fun owner (group : _ Sesame_conn.folded) ->
            let n, reference = per_row conn by_owner ~params:[ text_key owner ] in
            same_payload ~points:(List.map point) (n, reference, group);
            let described = Policy.describe (Pcon.policy group.payload) in
            List.iter
              (fun other ->
                if other <> owner then
                  check_bool (owner ^ " carries none of " ^ other ^ "'s policies") false
                    (contains described ("(" ^ other ^ ")")))
              owners)
          owners groups;
        match groups with
        | [ cy; zed; ada; bob; ada' ] ->
            check_bool "rows read for cy, ada and bob" true
              (cy.rows > 0 && ada.rows > 0 && bob.rows > 0);
            check_int "a key with no rows" 0 zed.rows;
            check_bool "is an empty NoPolicy payload" true
              (Pcon.Internal.unwrap zed.payload = []
              && Policy.is_no_policy (Pcon.policy zed.payload));
            check_bool "a repeated key gets the same rows" true
              (Pcon.Internal.unwrap ada.payload = Pcon.Internal.unwrap ada'.payload)
        | _ -> Alcotest.fail "five payloads");
    test "grouped fold: every key is a parameter checked at db::query" (fun () ->
        let conn = Sesame_conn.create (Db.Database.create ()) in
        seed_marks conn;
        let denied = Pcon.Internal.make (Consent.make "bob") (Db.Value.Text "bob") in
        let queries = Db.Database.query_count (Sesame_conn.database conn) in
        (match
           Sesame_conn.query_fold_groups conn ~context:admin (owners_in 3) ~columns:[ "grade" ]
             ~key:"owner" ~keys:[ text_key "ada"; text_key "cy"; denied ]
         with
        | Error (Sesame_conn.Policy_denied { sink; param_index; _ }) ->
            check_str "sink" "db::query" sink;
            Alcotest.(check (option int)) "the denied key's index" (Some 2) param_index
        | Ok _ -> Alcotest.fail "a denied key ran the statement"
        | Error e -> Alcotest.failf "%a" Sesame_conn.pp_error e);
        check_int "nothing ran" queries (Db.Database.query_count (Sesame_conn.database conn)));
    test "revoking the reviewer between two export requests" (fun () ->
        (* The Employer shape: a grouped read, then one batch through a
           signed export region on the quota books. *)
        let conn = Sesame_conn.create (Db.Database.create ()) in
        seed_marks conn;
        let ks = keystore () in
        let quota = Sbx.Quota.create () in
        let region =
          Result.get_ok
            (Region.Critical.make ~app:"test" ~program:(region_program ()) ~spec:leaky_spec
               ~lockfile ~keystore:ks ~quota
               ~f:(fun ~context:_ (owner, cells) ->
                 Printf.sprintf "%s,%d" owner (List.length cells))
               ())
        in
        ignore (Region.Critical.sign region ~reviewer:"lead" ~at:100);
        let owners = [ "ada"; "bob"; "cy"; "dee" ] in
        let request () =
          let groups =
            ok_or_fail
              (Sesame_conn.query_fold_groups conn ~context:admin (owners_in 4)
                 ~columns:[ "grade" ] ~key:"owner" ~keys:(List.map text_key owners))
          in
          Region.Critical.run_each region ~context:(Context.untrusted ~user:"recruiter" ())
            (List.map2
               (fun owner (g : _ Sesame_conn.folded) ->
                 Pcon.pair (Pcon.wrap_no_policy owner) g.payload)
               owners groups)
        in
        let runs () =
          match Region.Critical.quota_counters region with
          | Some c -> c.Sbx.Quota.runs
          | None -> 0
        in
        let first = request () in
        let released = List.filter_map Result.to_option first in
        check_int "one result per student" 4 (List.length first);
        Alcotest.(check (list string)) "every consenting student, in order"
          [ "ada"; "cy" ]
          (List.map (fun line -> List.hd (String.split_on_char ',' line)) released);
        check_bool "the others are policy denials" true
          (List.for_all
             (function Error (Region.Policy_denied _) -> true | _ -> false)
             [ List.nth first 1; List.nth first 3 ]);
        check_int "one run charged per released row" 2 (runs ());
        Sign.Keystore.revoke ks ~reviewer:"lead" ~at:200;
        let second = request () in
        check_int "one result per student again" 4 (List.length second);
        check_bool "none released: every item fails the signature" true
          (List.for_all
             (function
               | Error (Region.Signature_invalid (Sign.Keystore.Revoked _)) -> true | _ -> false)
             second);
        check_int "and none charged" 2 (runs ()));
  ]

let web_tests =
  let request =
    Http.Request.make
      ~headers:
        (Http.Headers.of_list
           [ ("Cookie", "sid=abc"); ("Content-Type", "application/x-www-form-urlencoded") ])
      ~body:"msg=hi+there" Http.Meth.POST "/post?tag=x"
  in
  [
    test "sources wrap with the declared policy" (fun () ->
        let p =
          Option.get
            (Sesame_web.form_param request "msg" ~policy:(fun _ -> Only.make { who = "ada" }))
        in
        check_str "decoded" "hi there" (Pcon.Internal.unwrap p);
        check_str "policy" "test::only" (Policy.name (Pcon.policy p));
        check_bool "query param" true
          (Option.is_some (Sesame_web.query_param request "tag" ~policy:(fun _ -> Policy.no_policy)));
        check_bool "cookie" true
          (Option.is_some (Sesame_web.cookie request "sid" ~policy:(fun _ -> Policy.no_policy))));
    test "context_for is trusted with endpoint and user" (fun () ->
        let c = Sesame_web.context_for request ~user:"ada" () in
        check_bool "trusted" true (Context.is_trusted c);
        check_bool "endpoint" true (Context.endpoint c = Some "/post");
        check_bool "user" true (Context.user c = Some "ada"));
    test "render releases only policy-passing bindings" (fun () ->
        let template = Http.Template.compile_exn "<p>{{x}}</p>" in
        let secret = Pcon.Internal.make (Only.make { who = "ada" }) "data" in
        (match Sesame_web.render ~context:ada template [ ("x", Sesame_web.Sensitive secret) ] with
        | Ok resp -> check_str "rendered" "<p>data</p>" resp.Http.Response.body
        | Error e -> Alcotest.failf "%a" Sesame_web.pp_error e);
        check_bool "denied for eve" true
          (match Sesame_web.render ~context:eve template [ ("x", Sesame_web.Sensitive secret) ] with
          | Error (Sesame_web.Policy_denied _) -> true
          | _ -> false));
    test "render rejects untrusted contexts" (fun () ->
        let template = Http.Template.compile_exn "x" in
        check_bool "untrusted" true
          (Sesame_web.render ~context:(Context.untrusted ~user:"ada" ()) template []
          = Error Sesame_web.Untrusted_context));
    test "render escapes sensitive values" (fun () ->
        let template = Http.Template.compile_exn "{{x}}" in
        match
          Sesame_web.render ~context:ada template
            [ ("x", Sesame_web.Sensitive (Mock.pcon "<script>")) ]
        with
        | Ok resp -> check_str "escaped" "&lt;script&gt;" resp.Http.Response.body
        | Error e -> Alcotest.failf "%a" Sesame_web.pp_error e);
    test "sensitive lists check every cell" (fun () ->
        let template = Http.Template.compile_exn "{{#xs}}{{v}};{{/xs}}" in
        let rows =
          [
            [ ("v", Pcon.Internal.make (Only.make { who = "ada" }) "one") ];
            [ ("v", Pcon.Internal.make (Only.make { who = "eve" }) "two") ];
          ]
        in
        check_bool "mixed rows denied" true
          (match Sesame_web.render ~context:ada template [ ("xs", Sesame_web.Sensitive_list rows) ] with
          | Error (Sesame_web.Policy_denied _) -> true
          | _ -> false));
    test "respond_text and set_cookie are sinks" (fun () ->
        let secret = Pcon.Internal.make (Only.make { who = "ada" }) "payload" in
        (match Sesame_web.respond_text ~context:ada secret with
        | Ok resp -> check_str "body" "payload" resp.Http.Response.body
        | Error e -> Alcotest.failf "%a" Sesame_web.pp_error e);
        check_bool "eve denied" true
          (Result.is_error (Sesame_web.respond_text ~context:eve secret));
        match Sesame_web.set_cookie ~context:ada (Http.Response.text "ok") ~name:"k" ~value:secret with
        | Ok resp -> check_bool "cookie set" true (Option.is_some (Http.Response.header resp "set-cookie"))
        | Error e -> Alcotest.failf "%a" Sesame_web.pp_error e);
  ]

let registry_tests =
  [
    test "registration is idempotent per (app, region)" (fun () ->
        Registry.reset ();
        let entry =
          { Registry.app = "a"; region = "r"; kind = Registry.Verified; loc = 3; review_loc = 0 }
        in
        Registry.register entry;
        Registry.register { entry with loc = 5 };
        check_int "one entry" 1 (List.length (Registry.entries ~app:"a" ()));
        check_bool "replaced" true ((List.hd (Registry.entries ~app:"a" ())).Registry.loc = 5));
    test "counts, ranges, burden" (fun () ->
        Registry.reset ();
        List.iter Registry.register
          [
            { Registry.app = "a"; region = "v1"; kind = Registry.Verified; loc = 2; review_loc = 0 };
            { Registry.app = "a"; region = "v2"; kind = Registry.Verified; loc = 9; review_loc = 0 };
            { Registry.app = "a"; region = "c1"; kind = Registry.Critical; loc = 4; review_loc = 12 };
            { Registry.app = "b"; region = "s1"; kind = Registry.Sandboxed; loc = 7; review_loc = 0 };
          ];
        check_int "verified in a" 2 (Registry.count ~app:"a" Registry.Verified);
        check_int "all sandboxed" 1 (Registry.count Registry.Sandboxed);
        check_bool "range" true (Registry.loc_range ~app:"a" Registry.Verified = Some (2, 9));
        check_bool "no range" true (Registry.loc_range ~app:"b" Registry.Critical = None);
        check_int "burden" 12 (Registry.review_burden ~app:"a"));
  ]

let () =
  Alcotest.run "core"
    [
      ("policy", policy_tests);
      ("context", context_tests);
      ("pcon", pcon_tests);
      ("fold", fold_tests);
      ("verified-region", verified_tests);
      ("sandboxed-region", sandboxed_tests);
      ("critical-region", critical_tests);
      ("connector", conn_tests);
      ("connector-fold", fold_tests_conn @ fold_group_tests);
      ("web", web_tests);
      ("registry", registry_tests);
    ]
