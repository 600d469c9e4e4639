(* Property-based tests (qcheck) over the core data structures and
   invariants, registered as alcotest cases via QCheck_alcotest. *)

module Sign = Sesame_signing
module Db = Sesame_db
module Http = Sesame_http
module Sbx = Sesame_sandbox
module C = Sesame_core

let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Generators *)

let printable = QCheck.string_small_of QCheck.Gen.printable

let sandbox_value : Sbx.Value.t QCheck.arbitrary =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Sbx.Value.Unit;
        map (fun i -> Sbx.Value.Int i) int;
        map (fun f -> Sbx.Value.Float f) float;
        map (fun b -> Sbx.Value.Bool b) bool;
        map (fun s -> Sbx.Value.Str s) string_printable;
      ]
  in
  let value =
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then leaf
            else
              frequency
                [
                  (2, leaf);
                  (1, map (fun vs -> Sbx.Value.Vec vs) (list_size (int_bound 4) (self (n / 2))));
                  (1, map (fun vs -> Sbx.Value.Tuple vs) (list_size (int_bound 3) (self (n / 2))));
                ])
          (min n 12))
  in
  QCheck.make ~print:(Format.asprintf "%a" Sbx.Value.pp) value

(* A reference (slow, obviously-correct) LIKE matcher to compare against. *)
let reference_like pattern s =
  let np = String.length pattern and ns = String.length s in
  (* Memoized on (pi, si): without it a run of '%'s against a
     non-matching string takes exponential time. *)
  let memo = Hashtbl.create 64 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
        let r =
          if pi = np then si = ns
          else
            match pattern.[pi] with
            | '%' -> List.exists (fun k -> go (pi + 1) k) (List.init (ns - si + 1) (fun k -> si + k))
            | '_' -> si < ns && go (pi + 1) (si + 1)
            | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
        in
        Hashtbl.add memo (pi, si) r;
        r
  in
  go 0 0

let signing_props =
  [
    prop "sha256 hex round-trips" printable (fun s ->
        let d = Sign.Sha256.digest_string s in
        Sign.Sha256.of_hex (Sign.Sha256.to_hex d) = Some d);
    prop "sha256 is deterministic and length-64 hex" printable (fun s ->
        let h = Sign.Sha256.to_hex (Sign.Sha256.digest_string s) in
        String.length h = 64 && h = Sign.Sha256.to_hex (Sign.Sha256.digest_string s));
    prop "digest_list framing: splitting a string changes the digest"
      QCheck.(pair printable printable)
      (fun (a, b) ->
        QCheck.assume (a <> "" && b <> "");
        not
          (Sign.Sha256.equal
             (Sign.Sha256.digest_list [ a; b ])
             (Sign.Sha256.digest_list [ a ^ b ])));
    prop "normalize is idempotent" printable (fun s ->
        Sign.Normalize.source (Sign.Normalize.source s) = Sign.Normalize.source s);
    prop "normalized text never has two adjacent spaces outside strings"
      (QCheck.string_small_of QCheck.Gen.(oneofl [ 'a'; ' '; '\n'; '\t'; '/'; '*'; '('; ')' ]))
      (fun s ->
        let out = Sign.Normalize.source s in
        let rec ok i = i + 1 >= String.length out || not (out.[i] = ' ' && out.[i + 1] = ' ') || ok (i + 1) in
        let rec all i = i + 1 >= String.length out || ((not (out.[i] = ' ' && out.[i + 1] = ' ')) && all (i + 1)) in
        ignore ok;
        all 0);
    prop "lockfile parse/render round-trips"
      (QCheck.small_list
         (QCheck.map
            (fun (n, v) -> { Sign.Lockfile.name = "p" ^ n; version = "v" ^ v; deps = [] })
            QCheck.(pair (string_small_of Gen.numeral) (string_small_of Gen.numeral))))
      (fun packages ->
        let lf = Sign.Lockfile.of_packages packages in
        match Sign.Lockfile.parse (Sign.Lockfile.render lf) with
        | Ok lf' -> Sign.Lockfile.equal lf lf'
        | Error _ -> false);
  ]

let db_props =
  [
    prop "LIKE agrees with the reference matcher"
      QCheck.(
        pair
          (string_small_of Gen.(oneofl [ 'a'; 'b'; '%'; '_' ]))
          (string_small_of Gen.(oneofl [ 'a'; 'b'; 'c' ])))
      (fun (pattern, s) -> Db.Expr.like_matches ~pattern s = reference_like pattern s);
    prop "Value.compare is antisymmetric"
      QCheck.(pair small_int small_int)
      (fun (a, b) ->
        let va = Db.Value.Int a and vb = Db.Value.Float (float_of_int b) in
        Db.Value.compare va vb = -Db.Value.compare vb va);
    prop "Value equal implies compare zero"
      QCheck.(pair small_int small_int)
      (fun (a, b) ->
        let va = Db.Value.Int a and vb = Db.Value.Int b in
        (not (Db.Value.equal va vb)) || Db.Value.compare va vb = 0);
    prop "table insert then PK lookup finds exactly the row" QCheck.(small_list small_int)
      (fun ids ->
        let ids = List.sort_uniq compare ids in
        let schema =
          Db.Schema.make_exn ~name:"t" ~primary_key:"id"
            [ { name = "id"; ty = Db.Value.Tint; nullable = false } ]
        in
        let tbl = Db.Table.create schema in
        List.iter (fun i -> Db.Table.insert_exn tbl [| Db.Value.Int i |]) ids;
        List.for_all
          (fun i ->
            Db.Table.select tbl
              ~where:(Db.Expr.Cmp (Db.Expr.Eq, Db.Expr.Col "id", Db.Expr.Lit (Db.Value.Int i)))
            = [ [| Db.Value.Int i |] ])
          ids);
  ]

let http_props =
  [
    prop "percent encode/decode round-trips" printable (fun s ->
        Http.Request.percent_decode (Http.Request.percent_encode s) = s);
    prop "html_escape output contains no raw specials" printable (fun s ->
        let out = Http.Template.html_escape s in
        not (String.exists (fun c -> c = '<' || c = '>' || c = '"' || c = '\'') out));
    prop "template text without tags renders verbatim"
      (QCheck.string_small_of QCheck.Gen.(oneofl [ 'a'; 'b'; ' '; '<'; '}' ]))
      (fun s ->
        QCheck.assume (not (String.exists (( = ) '{') s));
        match Http.Template.render_string s [] with Ok out -> out = s | Error _ -> false);
  ]

let sandbox_props =
  [
    prop ~count:100 "codec round-trips arbitrary values" sandbox_value (fun v ->
        match Sbx.Codec.decode (Sbx.Codec.encode v) with
        | Ok v' -> Sbx.Value.equal v v'
        | Error _ -> false);
    prop ~count:100 "swizzle copy round-trips arbitrary values" sandbox_value (fun v ->
        let arena = Sbx.Arena.create () in
        let addr = Sbx.Copier.copy_in Sbx.Copier.Swizzle arena v in
        Sbx.Value.equal v (Sbx.Copier.copy_out Sbx.Copier.Swizzle arena addr));
    prop ~count:100 "wipe erases everything the copy wrote" sandbox_value (fun v ->
        let arena = Sbx.Arena.create () in
        let _addr = Sbx.Copier.copy_in Sbx.Copier.Swizzle arena v in
        let high = Sbx.Arena.high_water arena in
        Sbx.Arena.wipe arena;
        let rec all_zero i = i >= high || (Sbx.Arena.read_u8 arena i = 0 && all_zero (i + 1)) in
        all_zero 4096);
  ]

(* ------------------------------------------------------------------ *)
(* Bincodec: the WAL/checkpoint codec must be lossless — bit-exact for
   floats — and its decoders total (Error, never an exception). *)

let db_value : Db.Value.t QCheck.arbitrary =
  let open QCheck.Gen in
  let special =
    oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 4.9e-324; 1.5e308 ]
  in
  let gen =
    oneof
      [
        return Db.Value.Null;
        map (fun i -> Db.Value.Int i) int;
        map (fun b -> Db.Value.Bool b) bool;
        map (fun s -> Db.Value.Text s) string_printable;
        map (fun f -> Db.Value.Float f) (oneof [ float; special ]);
      ]
  in
  QCheck.make ~print:Db.Value.to_string gen

let value_eq a b =
  match (a, b) with
  | Db.Value.Float x, Db.Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let db_row : Db.Row.t QCheck.arbitrary =
  QCheck.make
    ~print:(fun r -> String.concat ";" (Array.to_list (Array.map Db.Value.to_string r)))
    QCheck.Gen.(array_size (int_bound 5) (QCheck.gen db_value))

let row_eq a b =
  Array.length a = Array.length b
  && List.for_all2 value_eq (Array.to_list a) (Array.to_list b)

let db_schema : Db.Schema.t QCheck.arbitrary =
  let open QCheck.Gen in
  let ty = oneofl [ Db.Value.Tint; Db.Value.Tfloat; Db.Value.Ttext; Db.Value.Tbool ] in
  let gen =
    int_range 1 5 >>= fun n ->
    list_repeat n (pair ty bool) >>= fun cols ->
    bool >>= fun with_pk ->
    string_small_of numeral >>= fun suffix ->
    let columns =
      List.mapi
        (fun i (ty, nullable) ->
          { Db.Schema.name = Printf.sprintf "c%d" i; ty; nullable = nullable && i > 0 })
        cols
    in
    return
      (Db.Schema.make_exn ~name:("t" ^ suffix)
         ?primary_key:(if with_pk then Some "c0" else None)
         columns)
  in
  QCheck.make ~print:(Format.asprintf "%a" Db.Schema.pp) gen

let schema_eq a b =
  Db.Schema.name a = Db.Schema.name b
  && Db.Schema.columns a = Db.Schema.columns b
  && Db.Schema.primary_key a = Db.Schema.primary_key b

(* Exprs stick to non-float literals so structural equality applies. *)
let db_expr_gen : Db.Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let operand =
    oneof
      [
        map (fun s -> Db.Expr.Col ("c" ^ s)) (string_small_of numeral);
        map (fun i -> Db.Expr.Lit (Db.Value.Int i)) small_int;
        map (fun s -> Db.Expr.Lit (Db.Value.Text s)) string_printable;
        return (Db.Expr.Lit Db.Value.Null);
      ]
  in
  let cmp = oneofl [ Db.Expr.Eq; Db.Expr.Ne; Db.Expr.Lt; Db.Expr.Le; Db.Expr.Gt; Db.Expr.Ge ] in
  let leaf =
    oneof
      [
        return Db.Expr.True;
        map3 (fun c a b -> Db.Expr.Cmp (c, a, b)) cmp operand operand;
        map (fun o -> Db.Expr.Is_null o) operand;
        map2 (fun o p -> Db.Expr.Like (o, p)) operand string_printable;
        map2
          (fun o vs -> Db.Expr.In (o, List.map (fun i -> Db.Value.Int i) vs))
          operand (small_list small_int);
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then leaf
          else
            frequency
              [
                (3, leaf);
                (1, map2 (fun a b -> Db.Expr.And (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map2 (fun a b -> Db.Expr.Or (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> Db.Expr.Not a) (self (n / 2)));
              ])
        (min n 8))

let db_stmt : Db.Sql.stmt QCheck.arbitrary =
  let open QCheck.Gen in
  let value = QCheck.gen db_value in
  let name = map (fun s -> "c" ^ s) (string_small_of numeral) in
  let gen =
    oneof
      [
        map3
          (fun table columns values -> Db.Sql.Insert { table; columns; values })
          (map (fun s -> "t" ^ s) (string_small_of numeral))
          (option (small_list name))
          (small_list value);
        map2
          (fun set where -> Db.Sql.Update { table = "t"; set; where })
          (small_list (pair name value))
          db_expr_gen;
        map (fun where -> Db.Sql.Delete { table = "t"; where }) db_expr_gen;
      ]
  in
  QCheck.make gen

let stmt_eq a b =
  match (a, b) with
  | Db.Sql.Insert i1, Db.Sql.Insert i2 ->
      i1.table = i2.table && i1.columns = i2.columns
      && List.length i1.values = List.length i2.values
      && List.for_all2 value_eq i1.values i2.values
  | Db.Sql.Update u1, Db.Sql.Update u2 ->
      u1.table = u2.table && u1.where = u2.where
      && List.length u1.set = List.length u2.set
      && List.for_all2 (fun (c1, v1) (c2, v2) -> c1 = c2 && value_eq v1 v2) u1.set u2.set
  | _ -> a = b

let flip_ty = function
  | Db.Value.Tint -> Db.Value.Ttext
  | Db.Value.Tfloat -> Db.Value.Tint
  | Db.Value.Ttext -> Db.Value.Tbool
  | Db.Value.Tbool -> Db.Value.Tfloat

let codec_props =
  [
    prop ~count:500 "values round-trip bit-exactly" db_value (fun v ->
        match Db.Bincodec.value_of_bytes (Db.Bincodec.value_to_bytes v) with
        | Ok v' -> value_eq v v'
        | Error _ -> false);
    prop "rows round-trip" db_row (fun r ->
        match Db.Bincodec.row_of_bytes (Db.Bincodec.row_to_bytes r) with
        | Ok r' -> row_eq r r'
        | Error _ -> false);
    prop "schemas round-trip with a stable hash" db_schema (fun s ->
        match Db.Bincodec.schema_of_bytes (Db.Bincodec.schema_to_bytes s) with
        | Ok s' ->
            schema_eq s s'
            && Int32.equal (Db.Bincodec.schema_hash s') (Db.Bincodec.schema_hash s)
        | Error _ -> false);
    prop "changing a column type changes the schema hash" db_schema (fun s ->
        let columns =
          match Db.Schema.columns s with
          | c :: rest -> { c with Db.Schema.ty = flip_ty c.Db.Schema.ty } :: rest
          | [] -> []
        in
        let drifted =
          Db.Schema.make_exn ~name:(Db.Schema.name s)
            ?primary_key:(Db.Schema.primary_key s) columns
        in
        not (Int32.equal (Db.Bincodec.schema_hash drifted) (Db.Bincodec.schema_hash s)));
    prop "statements round-trip" db_stmt (fun stmt ->
        match Db.Bincodec.stmt_of_bytes (Db.Bincodec.stmt_to_bytes stmt) with
        | Ok stmt' -> stmt_eq stmt stmt'
        | Error _ -> false);
    prop "strict prefixes fail cleanly, never raise"
      QCheck.(pair db_value small_nat)
      (fun (v, k) ->
        let bytes = Db.Bincodec.value_to_bytes v in
        let cut = k mod max 1 (String.length bytes) in
        match Db.Bincodec.value_of_bytes (String.sub bytes 0 cut) with
        | Ok _ -> false
        | Error _ -> true);
  ]

(* Policy semantics: conjunction behaves like logical AND of its members. *)
module Parity = C.Policy.Make (struct
  type s = int

  let name = "prop::parity"
  let check s ctx = match C.Context.user ctx with Some u -> String.length u mod 2 = s | None -> false
  let join = None
  let no_folding = false
  let describe s = "parity=" ^ string_of_int s
end)

module Maxlen = C.Policy.Make (struct
  type s = int

  let name = "prop::maxlen"
  let check s ctx = match C.Context.user ctx with Some u -> String.length u <= s | None -> false
  let join = Some (fun a b -> Some (min a b))
  let no_folding = false
  let describe s = "maxlen=" ^ string_of_int s
end)

let policy_props =
  [
    prop "conjunction = AND of member checks"
      QCheck.(pair (small_list (pair bool small_nat)) (string_small_of Gen.printable))
      (fun (specs, user) ->
        let user = "u" ^ user in
        let ctx = C.Mock.context ~user () in
        let policies =
          List.map
            (fun (parity, maxlen) ->
              if parity then Parity.make (maxlen mod 2) else Maxlen.make maxlen)
            specs
        in
        let conj = C.Policy.conjoin_all policies in
        C.Policy.check conj ctx = List.for_all (fun p -> C.Policy.check p ctx) policies);
    prop "joinable family collapses to one leaf with min semantics"
      QCheck.(pair (small_list small_nat) (string_small_of Gen.printable))
      (fun (lens, user) ->
        QCheck.assume (lens <> []);
        let ctx = C.Mock.context ~user () in
        let conj = C.Policy.conjoin_all (List.map Maxlen.make lens) in
        List.length (C.Policy.conjuncts conj) = 1
        && C.Policy.check conj ctx
           = (String.length user <= List.fold_left min max_int lens));
    prop "fold out then in preserves values and policies"
      QCheck.(small_list small_int)
      (fun xs ->
        QCheck.assume (xs <> []);
        let policy = Maxlen.make 100 in
        let pcons = List.map (C.Pcon.Internal.make policy) xs in
        let folded = C.Fold.out_list pcons in
        match C.Fold.in_list folded with
        | Ok parts ->
            List.map C.Pcon.Internal.unwrap parts = xs
            && List.for_all
                 (fun p -> C.Policy.id (C.Pcon.policy p) = C.Policy.id policy)
                 parts
        | Error _ -> false);
    prop "pcon storage modes agree on the value" QCheck.small_int (fun x ->
        let plain = C.Pcon.Internal.make ~storage:C.Pcon.Plain C.Policy.no_policy x in
        let obf = C.Pcon.Internal.make ~storage:C.Pcon.Obfuscated C.Policy.no_policy x in
        C.Pcon.Internal.unwrap plain = x && C.Pcon.Internal.unwrap obf = x);
  ]

let ml_props =
  [
    prop ~count:50 "linear data is recovered exactly-ish"
      QCheck.(pair (float_range (-5.) 5.) (float_range (-50.) 50.))
      (fun (w, b) ->
        let points = List.init 20 (fun i -> (float_of_int i, (w *. float_of_int i) +. b)) in
        match Sesame_ml.Linreg.train_simple points with
        | Ok m ->
            abs_float (m.Sesame_ml.Linreg.weights.(0) -. w) < 1e-6
            && abs_float (m.intercept -. b) < 1e-5
        | Error _ -> false);
    prop "mean is bounded by min and max" QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range (-100.) 100.))
      (fun xs ->
        let m = Sesame_ml.Stats.mean xs in
        let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
        m >= lo -. 1e-9 && m <= hi +. 1e-9);
    prop "k-anonymity filter keeps exactly the large groups"
      QCheck.(pair (int_range 1 5) (small_list (pair (int_range 0 3) (float_range 0. 100.))))
      (fun (k, samples) ->
        match Sesame_ml.Kanon.group_means ~k samples with
        | Ok groups ->
            List.for_all (fun g -> g.Sesame_ml.Kanon.members >= k) groups
            && List.length groups
               <= List.length (List.sort_uniq compare (List.map fst samples))
        | Error _ -> false);
    prop "apikey hash verifies and differs across keys"
      QCheck.(pair printable printable)
      (fun (a, b) ->
        let ha = Sesame_ml.Apikey.hash ~iterations:2 ~salt:"s" a in
        Sesame_ml.Apikey.verify ~iterations:2 ~salt:"s" ~key:a ha
        && (a = b || ha <> Sesame_ml.Apikey.hash ~iterations:2 ~salt:"s" b));
  ]

let () =
  Alcotest.run "properties"
    [
      ("signing", signing_props);
      ("db", db_props);
      ("bincodec", codec_props);
      ("http", http_props);
      ("sandbox", sandbox_props);
      ("policy", policy_props);
      ("ml", ml_props);
    ]
