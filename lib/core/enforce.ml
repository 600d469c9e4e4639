module Elision = Sesame_scrutinizer.Elision

type stats = {
  hits : int;
  misses : int;
  elisions : int;
  pushdowns : int;
}

let checks = Atomic.make 0
let elisions = Atomic.make 0
let pushdowns = Atomic.make 0

let stats () =
  {
    hits = 0;
    misses = Atomic.get checks;
    elisions = Atomic.get elisions;
    pushdowns = Atomic.get pushdowns;
  }

let reset_stats () =
  Atomic.set checks 0;
  Atomic.set elisions 0;
  Atomic.set pushdowns 0

let note_pushdown () = Atomic.incr pushdowns
let note_elision () = Atomic.incr elisions

(* Elision and pushdown default on: with no plan installed and no
   binding translation registered they are exact no-ops, so the flags
   only matter once an app compiles its static verdicts in. *)
let elide = Atomic.make true
let set_elision on = Atomic.set elide on
let elision () = Atomic.get elide

let pushdown = Atomic.make true
let set_pushdown on = Atomic.set pushdown on
let pushdown_enabled () = Atomic.get pushdown

(* ------------------------------------------------------------------ *)
(* The enforcement plan: elision certificates compiled from the static
   pass, held as data. An entry says "every check of family F at sink S
   under endpoint E whose context satisfies one of these clauses is
   identically Ok". The clauses are the family model's own, re-checked
   on each live context, so an entry's truth rests only on the family's
   check function: no rebinding or row mutation can make it stale. *)

module Plan = struct
  type entry = {
    endpoint : string;
    sink : string;
    family : string;
    clauses : Elision.atom list list;  (* the guard, in DNF *)
  }

  (* [sinks]: each endpoint's release sinks, under one of which
     everything it releases is checked. They let data-wrapping sites
     (query_agg) consult certificates for checks that only run later,
     at release time. An immutable snapshot behind an Atomic: the hot
     path reads it lock-free; installs CAS-replace it. *)
  type t = { entries : entry list; sinks : (string * string list) list }

  let cell = Atomic.make { entries = []; sinks = [] }

  (* A field-disjointness certificate rides its family's own clauses:
     the reference semantics still checks the policies attached to
     region outputs, so the static proof stands on its own in the CLI
     and replay harness while the guard keeps verdicts byte-identical. *)
  let clauses_of families (cert : Elision.certificate) =
    match cert.cert_verdict with
    | Elision.Redundant (Elision.Context_satisfies { clause }) -> [ clause ]
    | Elision.Redundant (Elision.Field_disjoint _) -> (
        let same (f : Elision.family) = String.equal f.family cert.cert_family in
        match List.find_opt same families with Some f -> f.satisfied_when | None -> [])
    | Elision.Pushable | Elision.Residual _ -> []

  let rec install ~families ~(sites : Elision.site list) certs =
    let cur = Atomic.get cell in
    let add entries (cert : Elision.certificate) =
      match clauses_of families cert with
      | [] -> entries (* could never discharge a check *)
      | clauses ->
          let { Elision.cert_endpoint = endpoint; cert_sink = sink; cert_family = family; _ } =
            cert
          in
          let e = { endpoint; sink; family; clauses } in
          if List.mem e entries then entries else e :: entries
    in
    let declare sinks (s : Elision.site) =
      (s.endpoint, s.sinks) :: List.remove_assoc s.endpoint sinks
    in
    let entries = List.fold_left add cur.entries certs in
    let next = { entries; sinks = List.fold_left declare cur.sinks sites } in
    if not (Atomic.compare_and_set cell cur next) then install ~families ~sites certs

  let clear () = Atomic.set cell { entries = []; sinks = [] }
  let size () = List.length (Atomic.get cell).entries
  let active () = (Atomic.get cell).entries <> []

  let path_covers declared actual =
    String.equal declared actual || String.starts_with ~prefix:(declared ^ "/") actual

  let endpoint_sinks ctx =
    match Context.endpoint ctx with
    | None -> None
    | Some ep ->
        List.find_map
          (fun (e, sinks) -> if path_covers e ep then Some sinks else None)
          (Atomic.get cell).sinks

  (* [Principal_in] mirrors the apps' acting-principal convention: the
     "recipient" custom field when present, the user otherwise. *)
  let principal ctx =
    match Context.custom ctx "recipient" with Some r -> Some r | None -> Context.user ctx

  let atom_holds ctx (a : Elision.atom) =
    match a with
    | Elision.Sink_is s -> ( match Context.sink ctx with Some s' -> String.equal s s' | None -> false)
    | Elision.Sink_not s -> (
        match Context.sink ctx with Some s' -> not (String.equal s s') | None -> false)
    | Elision.Custom_eq (k, v) -> (
        match Context.custom ctx k with Some v' -> String.equal v v' | None -> false)
    | Elision.Custom_not (k, v) -> (
        match Context.custom ctx k with Some v' -> not (String.equal v v') | None -> true)
    | Elision.Principal_in ps -> (
        match principal ctx with Some p -> List.exists (String.equal p) ps | None -> false)

  let certified_leaf ~sink ~family ctx =
    match Context.endpoint ctx with
    | None -> false
    | Some ep ->
        List.exists
          (fun entry ->
            String.equal entry.sink sink
            && String.equal entry.family family
            && path_covers entry.endpoint ep
            && List.exists (List.for_all (atom_holds ctx)) entry.clauses)
          (Atomic.get cell).entries

  (* A whole policy is covered iff every leaf of its conjunction tree is
     certified at this context's sink. *)
  let covers policy ctx =
    match Context.sink ctx with
    | None -> false
    | Some sink ->
        let rec walk policy =
          match Policy.members policy with
          | None -> certified_leaf ~sink ~family:(Policy.name policy) ctx
          | Some ms -> List.for_all walk ms
        in
        walk policy
end

(* ------------------------------------------------------------------ *)

let rec check_verbose policy ctx =
  if Policy.is_no_policy policy then Ok ()
  else if Atomic.get elide && Plan.active () && Plan.covers policy ctx then begin
    (* Every leaf of the conjunction is certified identically-Ok for
       this context: the whole check is discharged statically. Elision
       only ever stands in for an Ok, so verdicts and denial messages
       are byte-identical to the reference. *)
    Atomic.incr elisions;
    Ok ()
  end
  else begin
    Atomic.incr checks;
    match Policy.members policy with
    | None -> Policy.check_verbose policy ctx
    | Some members ->
        (* Member order = check order: the reported denial is the
           leftmost one. An expired budget stops the walk before the next
           member, so a wide conjunction refuses instead of running its
           tail over budget. *)
        let rec walk = function
          | [] -> Ok ()
          | m :: rest -> (
              Sesame_request.check "policy conjunction";
              match check_verbose m ctx with Ok () -> walk rest | Error _ as e -> e)
        in
        walk members
  end

let check policy ctx = Result.is_ok (check_verbose policy ctx)
