(* Multi-domain safety and the memoized enforcement hot path.

   The load-bearing properties: shared counters stay exact under
   concurrent domains; and Enforce is observationally identical to the
   sequential Policy reference — same verdicts, byte-identical denial
   messages — including immediately after a DB mutation invalidates
   cached verdicts. *)

module C = Sesame_core
module Db = Sesame_db

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Shared counters under concurrent domains *)

module Count_family = struct
  type s = unit

  let name = "test::count"
  let check () _ = true
  let join = None
  let no_folding = false
  let describe () = "Count"
end

module Count = C.Policy.Make (Count_family)

let counter_tests =
  [
    test "check_count is exact under two hammering domains" (fun () ->
        let per_domain = 50_000 in
        let policy = Count.make () in
        let ctx = C.Mock.context ~user:"hammer" () in
        C.Policy.reset_check_count ();
        let run () =
          for _ = 1 to per_domain do
            ignore (Sys.opaque_identity (C.Policy.check policy ctx))
          done
        in
        let d = Domain.spawn run in
        run ();
        Domain.join d;
        check_int "exact" (2 * per_domain) (C.Policy.check_count ()));
    test "sandbox pool counters are exact under two domains" (fun () ->
        let module Sbx = Sesame_sandbox in
        let pool = Sbx.Pool.create ~capacity:2 () in
        let per_domain = 5_000 in
        let run () =
          for _ = 1 to per_domain do
            let arena = Sbx.Pool.acquire pool in
            Sbx.Pool.release pool arena
          done
        in
        let d = Domain.spawn run in
        run ();
        Domain.join d;
        let st = Sbx.Pool.stats pool in
        check_int "acquired" (2 * per_domain) st.Sbx.Pool.acquired;
        (* Every release either returned (wiped) or dropped the arena. *)
        check_int "conserved" (2 * per_domain) (st.Sbx.Pool.wiped + st.Sbx.Pool.dropped);
        check_bool "healthy" true (Sbx.Pool.healthy pool);
        check_bool "bounded free list" true (Sbx.Pool.available pool <= 2));
  ]

(* ------------------------------------------------------------------ *)
(* Enforce vs the sequential reference *)

module Parity = C.Policy.Make (struct
  type s = int

  let name = "par::parity"

  let check s ctx =
    match C.Context.user ctx with
    | Some u -> String.length u mod 2 = s
    | None -> false

  let join = None
  let no_folding = false
  let describe s = "parity=" ^ string_of_int s
end)

module Maxlen = C.Policy.Make (struct
  type s = int

  let name = "par::maxlen"

  let check s ctx =
    match C.Context.user ctx with Some u -> String.length u <= s | None -> false

  let join = None
  let no_folding = false
  let describe s = "maxlen=" ^ string_of_int s
end)

let verdict_eq a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

(* Memoized enforcement must agree with the uncached sequential walk on
   verdicts AND denial messages, on cold and warm caches alike. *)
let differential_prop (specs, users) =
  let policies =
    List.map
      (fun (parity, n) -> if parity then Parity.make (n mod 2) else Maxlen.make n)
      specs
  in
  let conj = C.Policy.conjoin_all policies in
  let contexts = List.map (fun u -> C.Mock.context ~user:("u" ^ u) ()) users in
  let agree ctx =
    let reference = C.Policy.check_verbose conj ctx in
    (* cold, then warm (cached) *)
    verdict_eq reference (C.Enforce.check_verbose conj ctx)
    && verdict_eq reference (C.Enforce.check_verbose conj ctx)
  in
  Fun.protect
    ~finally:(fun () -> C.Enforce.set_memoization true)
    (fun () ->
      C.Enforce.set_memoization true;
      C.Enforce.bump ();
      let memo_ok = List.for_all agree contexts in
      (* memoization off: recompute path *)
      C.Enforce.set_memoization false;
      let off_ok = List.for_all agree contexts in
      memo_ok && off_ok)

(* A policy whose verdict depends on table state: deny when the user's
   consent row says false. *)
module Consent_family = struct
  type s = { db : Db.Database.t; user : string }

  let name = "test::consent"

  let check s _ctx =
    match
      Db.Database.exec s.db "SELECT consent FROM consents WHERE who = ?"
        ~params:[ Db.Value.Text s.user ]
    with
    | Ok (Db.Database.Rows { rows = [ [| Db.Value.Bool b |] ]; _ }) -> b
    | _ -> false

  let join = None
  let no_folding = false
  let describe s = "Consent(" ^ s.user ^ ")"
end

module Consent = C.Policy.Make (Consent_family)

let consents_db () =
  let schema =
    Db.Schema.make_exn ~name:"consents" ~primary_key:"who"
      [
        { Db.Schema.name = "who"; ty = Db.Value.Ttext; nullable = false };
        { Db.Schema.name = "consent"; ty = Db.Value.Tbool; nullable = false };
      ]
  in
  let db = Db.Database.create () in
  (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
  (match
     Db.Database.exec db "INSERT INTO consents VALUES (?, ?)"
       ~params:[ Db.Value.Text "ada"; Db.Value.Bool true ]
   with
  | Ok _ -> ()
  | Error m -> failwith m);
  db

let enforce_tests =
  [
    test "verdicts are cached until a DB mutation, then recomputed" (fun () ->
        let db = consents_db () in
        let policy = Consent.make { db; user = "ada" } in
        let ctx = C.Mock.context ~user:"ada" () in
        C.Enforce.set_memoization true;
        check_bool "initially allowed" true (C.Enforce.check policy ctx);
        (* Warm hit: the underlying family must NOT run again. *)
        C.Policy.reset_check_count ();
        check_bool "cached allow" true (C.Enforce.check policy ctx);
        check_int "no leaf run" 0 (C.Policy.check_count ());
        (* Any accepted mutation must invalidate the cached verdict. *)
        (match
           Db.Database.exec db "UPDATE consents SET consent = false WHERE who = ?"
             ~params:[ Db.Value.Text "ada" ]
         with
        | Ok _ -> ()
        | Error m -> failwith m);
        check_bool "stale verdict dropped" false (C.Enforce.check policy ctx));
    test "bump invalidates even without a visible DB change" (fun () ->
        let db = consents_db () in
        let policy = Consent.make { db; user = "ada" } in
        let ctx = C.Mock.context ~user:"ada" () in
        ignore (C.Enforce.check policy ctx);
        C.Policy.reset_check_count ();
        ignore (C.Enforce.check policy ctx);
        check_int "hit" 0 (C.Policy.check_count ());
        C.Enforce.bump ();
        ignore (C.Enforce.check policy ctx);
        check_bool "recomputed" true (C.Policy.check_count () > 0));
  ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"Enforce (memoized / off) == sequential reference"
         QCheck.(
           pair
             (small_list (pair bool (int_bound 6)))
             (small_list (string_small_of Gen.printable)))
         differential_prop);
  ]

let () =
  Alcotest.run "parallel"
    [
      ("counters", counter_tests);
      ("enforce", enforce_tests);
      ("differential", qcheck_tests);
    ]
