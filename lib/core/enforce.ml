module Elision = Sesame_scrutinizer.Elision

type stats = {
  hits : int;
  misses : int;
  elisions : int;
  pushdowns : int;
}

let hits = Atomic.make 0
let misses = Atomic.make 0
let elisions = Atomic.make 0
let pushdowns = Atomic.make 0

let stats () =
  {
    hits = Atomic.get hits;
    misses = Atomic.get misses;
    elisions = Atomic.get elisions;
    pushdowns = Atomic.get pushdowns;
  }

let reset_stats () =
  Atomic.set hits 0;
  Atomic.set misses 0;
  Atomic.set elisions 0;
  Atomic.set pushdowns 0

let note_pushdown () = Atomic.incr pushdowns
let note_elision () = Atomic.incr elisions

(* ------------------------------------------------------------------ *)
(* Invalidation. A verdict may depend on database state its check read;
   rebinding a (table, column) policy changes what future rows mean.
   Every cached result therefore carries the read footprint its
   computation recorded (the (table, shard) generation slots it actually
   depended on — see {!Sesame_db.Footprint}) plus the [base] it was
   computed under, and is reusable while both are unchanged. Row
   mutations land in recorded slots, schema events in the structural
   epoch, re-binding in [bumps] — so a write to one shard of one table
   retires exactly the results that read it.

   The base: binding bumps plus schema-level events
   (create/drop/clear/restore). Row mutations are excluded on purpose —
   they are covered per slot by the footprints — which is also why plan
   certificates, whose meaning rows cannot change, key on it alone. *)

let bumps = Atomic.make 0
let bump () = Atomic.incr bumps
let base () = Atomic.get bumps + Sesame_db.Epoch.structure ()

let memoize = Atomic.make true
let set_memoization on = Atomic.set memoize on
let memoization () = Atomic.get memoize

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
   binding/schema state, which rows cannot change — and every cached
   verdict also revalidates against [base], so a certificate can never
   outlive the verdicts it stands in for. *)

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
(* Validity tokens: run a computation under a recording scope and come
   back with a token that answers "may I still reuse its result?". The
   verdict cache below and Sesame_conn's per-group aggregate cache both
   store one per entry and revalidate through [valid]. *)

module Validity = struct
  type t = { v_base : int; v_fp : Sesame_db.Footprint.snapshot }

  let capture f =
    (* Sample the base before running: if a binding rebinds or a table
       drops mid-computation, the token is born stale — conservative,
       never wrong. *)
    let b = base () in
    let v, fp = Sesame_db.Footprint.scope f in
    (v, { v_base = b; v_fp = fp })

  let valid { v_base; v_fp } = v_base = base () && Sesame_db.Footprint.valid v_fp
  let merge_ambient { v_fp; _ } = Sesame_db.Footprint.merge_ambient v_fp
end

(* ------------------------------------------------------------------ *)
(* Per-domain verdict cache. Domain-local on purpose: no lock on the hot
   path, and invalidation needs no cross-domain coordination — each
   entry revalidates its own token at lookup, so entries over untouched
   tables/shards survive writes elsewhere. The key pairs the policy
   instance id with the full context; equality is structural over the
   whole context, so the (Hashtbl.hash) fingerprint only routes to a
   bucket and can never alias two different contexts into one verdict. *)

let caches :
    (int * Context.t, (unit, string) result * Validity.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

(* Fresh policy instances (one-shot ids) leave dead entries behind; a cap
   bounds the table. Resetting forgets live entries too, but a reset is
   just a cold start, never a wrong answer. *)
let max_entries = 65536

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
  else if not (Atomic.get memoize) then compute policy ctx
  else begin
    let tbl = Domain.DLS.get caches in
    let key = (Policy.id policy, ctx) in
    let live =
      match Hashtbl.find_opt tbl key with
      | Some (_, v) as hit when Validity.valid v -> hit
      | Some _ ->
          (* Something this verdict read has changed (or a binding was
             rebound): retire just this entry. *)
          Hashtbl.remove tbl key;
          None
      | None -> None
    in
    match live with
    | Some (verdict, v) ->
        Atomic.incr hits;
        (* The reused verdict's reads become the caller's reads — an
           enclosing recording (an aggregate-cache capture, an outer
           conjunction) must inherit them to stay sound. *)
        Validity.merge_ambient v;
        verdict
    | None ->
        Atomic.incr misses;
        let ((verdict, v) as entry) = Validity.capture (fun () -> compute policy ctx) in
        (* A deadline expiry is never cached: it is a fact about this
           request's budget, not about the policy — the next request
           must recompute. A check that itself mutated the database
           bumped a shard its footprint recorded (or the structural
           epoch), so the token is already stale and the verdict — which
           belongs to the old world — is not stored. *)
        let budget_refusal =
          match verdict with
          | Error msg -> Sesame_deadline.is_deadline_error msg
          | Ok () -> false
        in
        if (not budget_refusal) && Validity.valid v then begin
          if Hashtbl.length tbl >= max_entries then Hashtbl.reset tbl;
          Hashtbl.replace tbl key entry
        end;
        verdict
  end

and compute policy ctx =
  match Policy.members policy with
  | None -> Policy.check_verbose policy ctx
  | Some members ->
      (* Member order = check order: the reported denial is the leftmost
         one. An expired budget stops the walk before the next member, so
         a wide conjunction refuses instead of running its tail over
         budget; the refusal is never cached (see [check_verbose]). *)
      let rec walk = function
        | [] -> Ok ()
        | m :: rest -> (
            if Sesame_deadline.expired_now () then
              Error (Sesame_deadline.error_message "policy conjunction")
            else
              match check_verbose m ctx with Ok () -> walk rest | Error _ as e -> e)
      in
      walk members

let check policy ctx = Result.is_ok (check_verbose policy ctx)
