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

(* Plan certificates revalidate against [base]: binding bumps plus
   schema-level events (create/drop/clear/restore). Row mutations are
   excluded on purpose — a certificate's claim is about binding and
   schema state, which rows cannot change. *)

let bumps = Atomic.make 0
let bump () = Atomic.incr bumps
let base () = Atomic.get bumps + Sesame_db.Epoch.structure ()

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
   pass. A certificate says "every check of family F at sink S (under
   endpoint E) whose context satisfies the guard is identically Ok".
   Certificates are keyed by [base] (binding bumps + structural schema
   events): while the base an entry was last validated under is
   current, the fast path is one guard evaluation; when it moves, the
   entry's [revalidate] closure (supplied by the installer, typically
   checking policy-binding versions and table schemas) must re-approve
   it or the entry is dropped and the residual runtime check runs.
   Row mutations never move [base] — a certificate's claim is about
   binding/schema state, which rows cannot change. *)

module Plan = struct
  type entry = {
    pe_endpoint : string option;  (* None = any endpoint *)
    pe_sink : string;
    pe_family : string;
    pe_guard : Context.t -> bool;
    pe_revalidate : unit -> bool;
    pe_witness : string;
    pe_checked_at : int Atomic.t;
  }

  let entry ?endpoint ~sink ~family ~guard ~revalidate ~witness () =
    {
      pe_endpoint = endpoint;
      pe_sink = sink;
      pe_family = family;
      pe_guard = guard;
      pe_revalidate = revalidate;
      pe_witness = witness;
      pe_checked_at = Atomic.make min_int;
    }

  (* An immutable snapshot list behind an Atomic: the hot path scans
     lock-free; installs and drops CAS-replace the list. The plan is
     tiny (one entry per certified (endpoint, sink, family) triple). *)
  let cell : entry list Atomic.t = Atomic.make []

  let rec install e =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (e :: cur)) then install e

  let size () = List.length (Atomic.get cell)
  let active () = Atomic.get cell <> []

  (* Endpoint release-sink declarations: "everything endpoint E releases
     is checked under one of these sinks (with the request context)".
     They let data-wrapping sites (query_agg) consult certificates for
     checks that will only run later, at release time. *)
  let decls : (string * string list) list Atomic.t = Atomic.make []

  let rec declare_endpoint_sinks ~endpoint sinks =
    let cur = Atomic.get decls in
    let next = (endpoint, sinks) :: List.remove_assoc endpoint cur in
    if not (Atomic.compare_and_set decls cur next) then declare_endpoint_sinks ~endpoint sinks

  let clear () =
    Atomic.set cell [];
    Atomic.set decls []

  let rec drop e =
    let cur = Atomic.get cell in
    let next = List.filter (fun x -> x != e) cur in
    if not (Atomic.compare_and_set cell cur next) then drop e

  let path_covers declared actual =
    String.equal declared actual || String.starts_with ~prefix:(declared ^ "/") actual

  let endpoint_matches entry ctx =
    match entry.pe_endpoint with
    | None -> true
    | Some e -> (
        match Context.endpoint ctx with Some ep -> path_covers e ep | None -> false)

  let endpoint_sinks ctx =
    match Context.endpoint ctx with
    | None -> None
    | Some ep ->
        List.find_map
          (fun (e, sinks) -> if path_covers e ep then Some sinks else None)
          (Atomic.get decls)

  (* Is this one entry usable right now? Entries current against [base]
     (binding bumps + structural events; row traffic does not move it)
     answer with a guard evaluation; stale ones must revalidate first. *)
  let entry_live entry =
    let e = base () in
    if Atomic.get entry.pe_checked_at = e then true
    else if entry.pe_revalidate () then begin
      Atomic.set entry.pe_checked_at e;
      true
    end
    else begin
      drop entry;
      false
    end

  let certified_leaf ~sink ~family ctx =
    List.exists
      (fun entry ->
        String.equal entry.pe_sink sink
        && String.equal entry.pe_family family
        && endpoint_matches entry ctx
        && entry_live entry && entry.pe_guard ctx)
      (Atomic.get cell)

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

  (* Compile the static pass's satisfying clause into a runtime guard.
     The guard re-checks each atom against the concrete context, so an
     over-claimed site model can only lose elisions, never verdicts.
     [Principal_in] mirrors the apps' acting-principal convention: the
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

  let guard_of_atoms atoms ctx = List.for_all (atom_holds ctx) atoms
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
              if Sesame_deadline.expired_now () then
                Error (Sesame_deadline.error_message "policy conjunction")
              else
                match check_verbose m ctx with Ok () -> walk rest | Error _ as e -> e)
        in
        walk members
  end

let check policy ctx = Result.is_ok (check_verbose policy ctx)
