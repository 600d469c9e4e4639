type state = ..

type t = {
  id : int;  (* unique per instance; physical-identity key for dedup *)
  name : string;
  state : state;
  family_check : state -> Context.t -> bool;
  family_join : (state -> state -> state option) option;
  family_no_folding : bool;
  family_describe : state -> string;
  (* Optional row-predicate translation for predicate pushdown: when
     [Some f], [f ctx] may return a DB expression admitting exactly the
     rows this policy's check admits under [ctx]. Semantics-preserving
     decoration only — never consulted by check/describe/join. *)
  translation : (Context.t -> Sesame_db.Expr.t option) option;
}

(* Instance ids must stay unique under parallel checks and registrations:
   a duplicated id would let dedup (and the per-render verdict memo) treat
   two different policies as one — an unsoundness, not just a miscount. *)
let next_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

let checks = Atomic.make 0
let check_count () = Atomic.get checks
let reset_check_count () = Atomic.set checks 0

(* ------------------------------------------------------------------ *)
(* Built-ins: NoPolicy, DenyAll, and the And stack. *)

type state += No_policy_state
type state += Deny_state of string
type state += And_state of t list

let rec leaf_check policy ctx =
  match policy.state with
  | And_state members -> List.for_all (fun p -> leaf_check p ctx) members
  | _ ->
      Atomic.incr checks;
      policy.family_check policy.state ctx

let no_policy =
  {
    id = 0;
    name = ".no-policy";
    state = No_policy_state;
    family_check = (fun _ _ -> true);
    family_join = Some (fun _ _ -> Some No_policy_state);
    family_no_folding = false;
    family_describe = (fun _ -> "NoPolicy");
    translation = None;
  }

let is_no_policy t = t.name = ".no-policy"

let deny_all ~reason =
  {
    id = next_id ();
    name = ".deny";
    state = Deny_state reason;
    family_check = (fun _ _ -> false);
    family_join =
      Some
        (fun a b ->
          match (a, b) with
          | Deny_state ra, Deny_state rb ->
              Some (Deny_state (if ra = rb then ra else ra ^ "; " ^ rb))
          | _ -> None);
    family_no_folding = true;
    family_describe =
      (function Deny_state reason -> "DenyAll(" ^ reason ^ ")" | _ -> "DenyAll");
    translation = None;
  }

let rec describe t =
  match t.state with
  | And_state members ->
      "(" ^ String.concat " AND " (List.map describe members) ^ ")"
  | st -> t.family_describe st

let rec no_folding t =
  match t.state with
  | And_state members -> List.exists no_folding members
  | _ -> t.family_no_folding

let name t = t.name
let check t ctx = leaf_check t ctx

let conjuncts t =
  match t.state with And_state members -> members | _ -> [ t ]

let check_verbose t ctx =
  let rec go t =
    match t.state with
    | And_state members ->
        List.fold_left
          (fun acc p -> match acc with Error _ -> acc | Ok () -> go p)
          (Ok ()) members
    | st ->
        Atomic.incr checks;
        if t.family_check st ctx then Ok ()
        else Error (Printf.sprintf "policy %s denied (%s)" t.name (t.family_describe st))
  in
  go t

let make_and members =
  {
    id = next_id ();
    name = ".and";
    state = And_state members;
    family_check = (fun _ _ -> assert false) (* leaf_check handles And *);
    family_join = None;
    family_no_folding = false (* computed structurally by no_folding *);
    family_describe = (fun _ -> "And");
    translation = None;
  }

let try_join a b =
  if a.name <> b.name then None
  else
    match a.family_join with
    | None -> None
    | Some join ->
        Option.map
          (* The joined state is new; any translation captured the old one. *)
          (fun st -> { a with id = next_id (); state = st; translation = None })
          (join a.state b.state)

(* Coalesce a conjunction's members (single pass, newest first): drop
   NoPolicy, drop duplicate instances (P AND P = P — common when memoized
   per-row policies repeat across a result set), and join adjacent
   same-family members. *)
let compact members =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc p ->
      if is_no_policy p || Hashtbl.mem seen p.id then acc
      else begin
        Hashtbl.add seen p.id ();
        match acc with
        | prev :: rest -> (
            match try_join prev p with
            | Some joined -> joined :: rest
            | None -> p :: acc)
        | [] -> [ p ]
      end)
    [] members
  |> List.rev

let of_members = function
  | [] -> no_policy
  | [ single ] -> single
  | members -> make_and members

let conjoin a b =
  if is_no_policy a then b
  else if is_no_policy b then a
  else if a.id = b.id then a
  else
    match try_join a b with
    | Some joined -> joined
    | None -> of_members (compact (conjuncts a @ conjuncts b))

(* Single pass over all leaves: O(total) as long as joins keep neighbours
   collapsed, unlike a fold of pairwise [conjoin] which re-walks the
   accumulated conjunction at every step. *)
let conjoin_all policies =
  of_members (compact (List.concat_map conjuncts policies))

(* Drop repeated instances before flattening: bulk folds over N rows
   typically see each (memoized, shared) policy object many times, and
   deduplicating by id first means [compact] walks the distinct policies'
   leaves instead of all N rows' worth. P AND P = P, so this changes
   nothing semantically. *)
let distinct policies =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p.id then false
      else begin
        Hashtbl.add seen p.id ();
        true
      end)
    policies

let conjoin_distinct policies = conjoin_all (distinct policies)

let members t = match t.state with And_state ms -> Some ms | _ -> None

(* ------------------------------------------------------------------ *)

module type FAMILY = sig
  type s

  val name : string
  val check : s -> Context.t -> bool
  val join : (s -> s -> s option) option
  val no_folding : bool
  val describe : s -> string
end

module Make (F : FAMILY) = struct
  type state += S of F.s

  let family_check st ctx =
    match st with S s -> F.check s ctx | _ -> false

  let family_join =
    Option.map
      (fun join a b ->
        match (a, b) with
        | S x, S y -> Option.map (fun s -> S s) (join x y)
        | _ -> None)
      F.join

  let family_describe = function S s -> F.describe s | _ -> F.name

  let make s =
    {
      id = next_id ();
      name = F.name;
      state = S s;
      family_check;
      family_join;
      family_no_folding = F.no_folding;
      family_describe;
      translation = None;
    }

  let state t = match t.state with S s when t.name = F.name -> Some s | _ -> None
end

let id t = t.id

(* ------------------------------------------------------------------ *)
(* Predicate pushdown decoration. A translation never changes what the
   policy admits — it only gives consumers a way to ask the same
   question of a scan predicate — so the decorated instance keeps its
   id: dedup and the per-render verdict memo may treat the two as one
   policy. *)

let translate t f = { t with translation = Some f }

let rec to_expr t ctx =
  match t.state with
  | No_policy_state -> Some Sesame_db.Expr.True
  | And_state members ->
      (* The conjunction translates iff every member does. *)
      List.fold_left
        (fun acc m ->
          match acc with
          | None -> None
          | Some a -> (
              match to_expr m ctx with
              | Some b -> Some (Sesame_db.Expr.And (a, b))
              | None -> None))
        (Some Sesame_db.Expr.True) members
  | _ -> ( match t.translation with None -> None | Some f -> f ctx)
