(* Rows live in a growable array; deleted slots are marked dead (slots are
   never reused, so a slot identifies a row for the life of the table).
   The primary-key index maps key value -> slot; secondary indexes map a
   column value -> the slots holding it and are kept exact across
   insert/update/delete, so an equality or IN-list probe plus the
   ordinary WHERE filter is equivalent to a full scan.

   Concurrency: a writer-preferring RW lock per table. Mutations and
   index builds run under [wr]; reads copy, under [rd], the row
   pointers they may match (an index probe's candidates, or the whole
   slot array) and evaluate predicates off-lock, so a 10k-row scan holds
   the lock for a pointer memcpy, not for 10k predicate evaluations. Stored rows are immutable (insert copies,
   update installs a fresh row), so a copied snapshot is a consistent
   statement-level view even while writers proceed. *)

type t = {
  schema : Schema.t;
  lock : Rwlock.t;
  mutable rows : Row.t option array;
  mutable size : int;  (* slots used, including dead ones *)
  mutable live : int;
  pk_index : (Value.t, int) Hashtbl.t option;
  pk_col : int option;
  secondary : (int, (Value.t, int list ref) Hashtbl.t) Hashtbl.t;
      (* column position -> value -> slots (unordered) *)
}

(* Cooperative cancellation: long scans poll the ambient request deadline
   every [scan_checkpoint_rows] slots (power of two so the poll gate is a
   mask). An expired budget aborts the scan via [Sesame_deadline.Expired]
   before any mutation has been applied — callers observe a structured
   refusal, never a partial row set presented as complete. [fold]/[iter]
   stay checkpoint-free on purpose: they feed durable checkpointing,
   which must not be aborted by whichever request happened to trigger it. *)
let scan_checkpoint_rows = 256

let scan_checkpoint counter =
  incr counter;
  if !counter land (scan_checkpoint_rows - 1) = 0 then begin
    Sesame_faults.hit Sesame_faults.Db_scan_cancel;
    Sesame_deadline.check "db scan"
  end

let create schema =
  let pk_col = Option.map (Schema.column_index_exn schema) (Schema.primary_key schema) in
  {
    schema;
    lock = Rwlock.create ();
    rows = Array.make 16 None;
    size = 0;
    live = 0;
    pk_index = Option.map (fun _ -> Hashtbl.create 64) pk_col;
    pk_col;
    secondary = Hashtbl.create 4;
  }

let schema t = t.schema

let length t = Rwlock.rd t.lock (fun () -> t.live)

let grow t =
  if t.size = Array.length t.rows then begin
    let bigger = Array.make (2 * Array.length t.rows) None in
    Array.blit t.rows 0 bigger 0 t.size;
    t.rows <- bigger
  end

let pk_value t row = Option.map (fun i -> row.(i)) t.pk_col

(* --- secondary-index maintenance ---------------------------------- *)

let index_add index value slot =
  match Hashtbl.find_opt index value with
  | Some bucket -> bucket := slot :: !bucket
  | None -> Hashtbl.add index value (ref [ slot ])

let index_remove index value slot =
  match Hashtbl.find_opt index value with
  | Some bucket -> bucket := List.filter (fun s -> s <> slot) !bucket
  | None -> ()

let secondary_add t row slot =
  Hashtbl.iter (fun col index -> index_add index row.(col) slot) t.secondary

let secondary_remove t row slot =
  Hashtbl.iter (fun col index -> index_remove index row.(col) slot) t.secondary

let secondary_replace t ~old_row ~new_row slot =
  Hashtbl.iter
    (fun col index ->
      if not (Value.equal old_row.(col) new_row.(col)) then begin
        index_remove index old_row.(col) slot;
        index_add index new_row.(col) slot
      end)
    t.secondary

(* Builds under [wr], so [secondary] never changes under a concurrent
   probe. *)
let ensure_index t column =
  match Schema.column_index t.schema column with
  | None ->
      invalid_arg
        (Printf.sprintf "table %s has no column %s" (Schema.name t.schema) column)
  | Some col ->
      Rwlock.wr t.lock (fun () ->
          if not (Hashtbl.mem t.secondary col) then begin
            let index = Hashtbl.create (max 64 t.live) in
            for slot = 0 to t.size - 1 do
              match t.rows.(slot) with
              | Some row -> index_add index row.(col) slot
              | None -> ()
            done;
            Hashtbl.add t.secondary col index
          end)

let has_index t column =
  match Schema.column_index t.schema column with
  | Some col -> Rwlock.rd t.lock (fun () -> Hashtbl.mem t.secondary col)
  | None -> false

(* The keys [where] pins column [col] to — one for an equality, the
   list for an IN — when the index can serve them: every key must have
   the column's own type, because the index hashes stored values
   structurally while [where] compares with [Value.equal] ([Int 1]
   equals [Float 1.0]). A key of another type leaves the statement to
   a scan, which is always exact. *)
let probe_keys t pin ~where col =
  let column = Schema.column_name t.schema col in
  let keys =
    match pin with
    | `Equal -> Option.map (fun v -> [ v ]) (Expr.equality_on where column)
    | `In -> Expr.in_list_on where column
  in
  match keys with
  | Some keys
    when List.for_all (fun k -> Value.type_of k = Some (Schema.column_type t.schema col)) keys ->
      Some keys
  | Some _ | None -> None

(* Candidate slots from an index, if an equality or an IN list in
   [where] pins an indexed column: an equality on the primary key,
   then one on a secondary index, then an IN list on either. [None]
   means "no index applies: scan". Candidates are a superset filter —
   every candidate is still checked against the full WHERE clause —
   de-duplicated and sorted so results keep insertion (slot) order.
   Caller must hold [rd] or [wr]. *)
let index_candidates_unlocked t ~where =
  let pk pin =
    match (t.pk_col, t.pk_index) with
    | Some col, Some index ->
        Option.map
          (List.filter_map (Hashtbl.find_opt index))
          (probe_keys t pin ~where col)
    | _ -> None
  in
  let secondary pin =
    Hashtbl.fold
      (fun col index acc ->
        match acc with
        | Some _ -> acc
        | None ->
            Option.map
              (fun keys ->
                List.concat_map
                  (fun key ->
                    match Hashtbl.find_opt index key with Some bucket -> !bucket | None -> [])
                  keys)
              (probe_keys t pin ~where col))
      t.secondary None
  in
  List.find_map
    (fun (probe, pin) -> probe pin)
    [ (pk, `Equal); (secondary, `Equal); (pk, `In); (secondary, `In) ]
  |> Option.map (List.sort_uniq Int.compare)

(* Caller must hold [wr] (mutation read phase: checkpoint polls may
   abort the statement here, before any row has changed). *)
let matching_slots_unlocked t ~where =
  let holds = Expr.compile t.schema where in
  match index_candidates_unlocked t ~where with
  | Some candidates ->
      List.filter
        (fun slot -> match t.rows.(slot) with Some row -> holds row | None -> false)
        candidates
  | None ->
      let scanned = ref 0 in
      let acc = ref [] in
      for slot = t.size - 1 downto 0 do
        scan_checkpoint scanned;
        match t.rows.(slot) with
        | Some row -> if holds row then acc := slot :: !acc
        | None -> ()
      done;
      !acc

(* ------------------------------------------------------------------ *)

let insert t row =
  match Schema.validate_row t.schema row with
  | Error _ as e -> e
  | Ok () ->
      Rwlock.wr t.lock (fun () ->
          let dup =
            match (pk_value t row, t.pk_index) with
            | Some key, Some index -> Hashtbl.mem index key
            | _ -> false
          in
          if dup then
            Error
              (Printf.sprintf "table %s: duplicate primary key %s" (Schema.name t.schema)
                 (Value.to_string (Option.get (pk_value t row))))
          else begin
            grow t;
            let stored = Array.copy row in
            t.rows.(t.size) <- Some stored;
            (match (pk_value t row, t.pk_index) with
            | Some key, Some index -> Hashtbl.replace index key t.size
            | _ -> ());
            secondary_add t stored t.size;
            t.size <- t.size + 1;
            t.live <- t.live + 1;
            Ok ()
          end)

let insert_exn t row =
  match insert t row with Ok () -> () | Error msg -> invalid_arg msg

(* Reads copy, under [rd], the rows [where] can match — the index
   candidates' rows, or the whole slot array — and evaluate the copy
   off-lock. The copy is the snapshot: rows are immutable once stored,
   so concurrent writers cannot tear it — Retrain Model's 10k-row scan
   sees the table exactly as of its start. The predicate is compiled
   once per statement, and the walk stops as soon as [f] returns
   [false]; no list of matches is materialized here. *)
let iter_matching t ~where f =
  let holds = Expr.compile t.schema where in
  let snap =
    Rwlock.rd t.lock (fun () ->
        match index_candidates_unlocked t ~where with
        | Some candidates -> Array.of_list (List.map (fun slot -> t.rows.(slot)) candidates)
        | None -> Array.sub t.rows 0 t.size)
  in
  let scanned = ref 0 in
  let more = ref true in
  let slot = ref 0 in
  let n = Array.length snap in
  while !more && !slot < n do
    scan_checkpoint scanned;
    (match snap.(!slot) with Some row when holds row -> more := f row | Some _ | None -> ());
    incr slot
  done

let select ?limit t ~where =
  let cap = match limit with Some n -> max 0 n | None -> max_int in
  if cap = 0 then []
  else begin
    let acc = ref [] in
    let found = ref 0 in
    iter_matching t ~where (fun row ->
        acc := row :: !acc;
        incr found;
        !found < cap);
    List.rev !acc
  end

let fold_matching t ~where ~init ~f =
  let acc = ref init in
  iter_matching t ~where (fun row ->
      acc := f !acc row;
      true);
  !acc

let update t ~where ~set =
  Rwlock.wr t.lock (fun () ->
      let slots = matching_slots_unlocked t ~where in
      (* Dry-run all updates first so a failure mutates nothing. *)
      let updated =
        List.map
          (fun slot ->
            let row = Option.get t.rows.(slot) in
            let row' =
              List.fold_left (fun r (col, v) -> Row.set t.schema r col v) row set
            in
            (slot, row'))
          slots
      in
      let validation =
        List.fold_left
          (fun acc (_, row') ->
            match acc with Error _ -> acc | Ok () -> Schema.validate_row t.schema row')
          (Ok ()) updated
      in
      let pk_conflict =
        (* A PK update may collide with an existing row outside the update set. *)
        match (t.pk_col, t.pk_index) with
        | Some col, Some index ->
            List.find_opt
              (fun (slot, row') ->
                let key' = row'.(col) in
                match Hashtbl.find_opt index key' with
                | Some other -> other <> slot
                | None -> false)
              updated
        | _ -> None
      in
      match (validation, pk_conflict) with
      | (Error _ as e), _ -> e
      | Ok (), Some (_, row') ->
          Error
            (Printf.sprintf "table %s: update would duplicate primary key %s"
               (Schema.name t.schema)
               (Value.to_string row'.(Option.get t.pk_col)))
      | Ok (), None ->
          List.iter
            (fun (slot, row') ->
              let old_row = Option.get t.rows.(slot) in
              (match (t.pk_col, t.pk_index) with
              | Some col, Some index ->
                  if not (Value.equal old_row.(col) row'.(col)) then begin
                    Hashtbl.remove index old_row.(col);
                    Hashtbl.replace index row'.(col) slot
                  end
              | _ -> ());
              secondary_replace t ~old_row ~new_row:row' slot;
              t.rows.(slot) <- Some row')
            updated;
          Ok (List.length updated))

let delete t ~where =
  Rwlock.wr t.lock (fun () ->
      let slots = matching_slots_unlocked t ~where in
      List.iter
        (fun slot ->
          (match t.rows.(slot) with
          | Some row ->
              (match (t.pk_col, t.pk_index) with
              | Some col, Some index -> Hashtbl.remove index row.(col)
              | _ -> ());
              secondary_remove t row slot
          | None -> ());
          t.rows.(slot) <- None;
          t.live <- t.live - 1)
        slots;
      List.length slots)

let snapshot t = Rwlock.rd t.lock (fun () -> Array.sub t.rows 0 t.size)

let fold t ~init ~f =
  let snap = snapshot t in
  Array.fold_left
    (fun acc slot -> match slot with Some row -> f acc row | None -> acc)
    init snap

let iter t ~f = fold t ~init:() ~f:(fun () row -> f row)
let to_list t = List.rev (fold t ~init:[] ~f:(fun acc row -> row :: acc))

let of_rows schema rows =
  let t = create schema in
  let rec go = function
    | [] -> Ok t
    | row :: rest -> (
        match insert t row with
        | Ok () -> go rest
        | Error msg ->
            Error (Printf.sprintf "table %s: checkpoint row rejected: %s" (Schema.name schema) msg))
  in
  go rows

let clear t =
  Rwlock.wr t.lock (fun () ->
      t.rows <- Array.make 16 None;
      t.size <- 0;
      t.live <- 0;
      Option.iter Hashtbl.reset t.pk_index;
      Hashtbl.iter (fun _ index -> Hashtbl.reset index) t.secondary);
  Epoch.bump_structural ()
