(* Rows live in a growable array; deleted slots are marked dead (slots are
   never reused, so a slot identifies a row for the life of the table).
   The primary-key index maps key value -> slot; secondary indexes map a
   column value -> the slots holding it and are kept exact across
   insert/update/delete, so an equality or IN-list probe plus the
   ordinary WHERE filter is equivalent to a full scan — less the probed
   conjunct itself, which an exact probe has already decided.

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
  mutable high_key : int;  (* largest integer primary key the table has held *)
  pk_index : (Value.t, int) Hashtbl.t option;
  pk_col : int option;
  secondary : (int, (Value.t, int list ref) Hashtbl.t) Hashtbl.t;
      (* column position -> value -> slots, newest first unless an UPDATE
         moved a row in *)
}

(* Cooperative cancellation: long scans poll the ambient request deadline
   every [scan_checkpoint_rows] slots (power of two so the poll gate is a
   mask). An expired budget aborts the scan via [Sesame_request.Expired]
   before any mutation has been applied — callers observe a structured
   refusal, never a partial row set presented as complete. [fold]/[iter]
   stay checkpoint-free on purpose: they feed durable checkpointing,
   which must not be aborted by whichever request happened to trigger it. *)
let scan_checkpoint_rows = 256

let scan_checkpoint counter =
  incr counter;
  if !counter land (scan_checkpoint_rows - 1) = 0 then begin
    Sesame_faults.hit Sesame_faults.Db_scan_cancel;
    Sesame_request.check "db scan"
  end

let create schema =
  let pk_col = Option.map (Schema.column_index_exn schema) (Schema.primary_key schema) in
  {
    schema;
    lock = Rwlock.create ();
    rows = Array.make 16 None;
    size = 0;
    live = 0;
    high_key = 0;
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

let indexed_columns t =
  Rwlock.rd t.lock (fun () ->
      Hashtbl.fold (fun col _ acc -> Schema.column_name t.schema col :: acc) t.secondary [])

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

(* [f] of the buckets' slots, in ascending slot order and each slot
   once, as a list: a gather of thousands of slots stays on the minor
   heap, where an array that long would be allocated straight into the
   major one. [index_add] prepends ever-larger slots, so a bucket is
   strictly descending unless an UPDATE moved a row into it (such a
   bucket is sorted first). A max-heap of the buckets' heads merges
   them largest first, consing, so the list comes out ascending with
   no sort of the whole: the root bucket's run of slots above both
   children's heads is taken without touching the heap, so buckets
   whose slot ranges do not overlap (each key's rows inserted in one
   cluster, as seeding does) cost O(n + k log k), and interleaved ones
   (keys inserted in turn) O(n log k). A key listed twice, or a slot
   in two buckets, is taken once. *)
let gather buckets ~f =
  let rec strictly_descending = function
    | a :: (b :: _ as rest) -> a > b && strictly_descending rest
    | [ _ ] | [] -> true
  in
  let heap =
    Array.of_list
      (List.filter_map
         (function
           | [] -> None
           | bucket when strictly_descending bucket -> Some bucket
           | bucket -> Some (List.sort_uniq (fun a b -> Int.compare b a) bucket))
         buckets)
  in
  let size = ref (Array.length heap) in
  let head i = if i < !size then match heap.(i) with slot :: _ -> slot | [] -> min_int else min_int in
  let rec sift i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let top = if head l > head i then l else i in
    let top = if head r > head top then r else top in
    if top <> i then begin
      let bucket = heap.(i) in
      heap.(i) <- heap.(top);
      heap.(top) <- bucket;
      sift top
    end
  in
  for i = (!size / 2) - 1 downto 0 do
    sift i
  done;
  let out = ref [] and last = ref max_int in
  let take slot =
    if slot < !last then begin
      last := slot;
      out := f slot :: !out
    end
  in
  while !size > 0 do
    let bound = max (head 1) (head 2) in
    let rec run = function
      | slot :: rest when slot > bound ->
          take slot;
          run rest
      | rest -> rest
    in
    (match heap.(0) with
    | slot :: rest -> (
        take slot;
        match run rest with
        | [] ->
            decr size;
            heap.(0) <- heap.(!size)
        | rest -> heap.(0) <- rest)
    | [] -> assert false);
    sift 0
  done;
  !out

(* An exact probe decides its conjunct: the index hashes a Text, Int or
   Bool key structurally, which is [Value.equal] on keys of the column's
   own type, so every candidate holds it. A Float index does not: it
   finds NaN rows for a NaN key, which [Value.equal] never equates, so
   Float keys keep the conjunct. *)
let residual t ~where col pin =
  match Schema.column_type t.schema col with
  | Tint | Ttext | Tbool -> Expr.drop_pin where (Schema.column_name t.schema col) pin
  | Tfloat -> where

(* The index buckets holding the candidates, if an equality or an IN
   list in [where] pins an indexed column: an equality on the primary
   key, then one on a secondary index, then an IN list on either.
   [None] means "no index applies: scan". [gather] makes the buckets
   distinct, ascending candidates, so results keep insertion (slot)
   order. They come with the predicate every candidate must still pass:
   [where], less the conjunct the probe decided (see [residual]).
   Caller must hold [rd] or [wr]. *)
let index_candidates_unlocked t ~where =
  let probe index pin col bucket =
    Option.map
      (fun keys ->
        ( List.filter_map (fun key -> Option.map bucket (Hashtbl.find_opt index key)) keys,
          residual t ~where col pin ))
      (probe_keys t pin ~where col)
  in
  let pk pin =
    match (t.pk_col, t.pk_index) with
    | Some col, Some index -> probe index pin col (fun slot -> [ slot ])
    | _ -> None
  in
  let secondary pin =
    Hashtbl.fold
      (fun col index acc -> match acc with Some _ -> acc | None -> probe index pin col ( ! ))
      t.secondary None
  in
  List.find_map
    (fun (probe, pin) -> probe pin)
    [ (pk, `Equal); (secondary, `Equal); (pk, `In); (secondary, `In) ]

(* Caller must hold [wr] (mutation read phase: checkpoint polls may
   abort the statement here, before any row has changed). *)
let matching_slots_unlocked t ~where =
  let live holds slot = match t.rows.(slot) with Some row -> holds row | None -> false in
  match index_candidates_unlocked t ~where with
  | Some (buckets, residual) ->
      List.filter (live (Expr.compile t.schema residual)) (gather buckets ~f:Fun.id)
  | None ->
      let holds = Expr.compile t.schema where in
      let scanned = ref 0 in
      let acc = ref [] in
      for slot = t.size - 1 downto 0 do
        scan_checkpoint scanned;
        if live holds slot then acc := slot :: !acc
      done;
      !acc

(* ------------------------------------------------------------------ *)

(* Every stored key raises [high_key] and no delete lowers it, so a key
   assigned past it is never a live row's. Caller holds [wr]. *)
let hold_key t = function Value.Int k when k > t.high_key -> t.high_key <- k | _ -> ()

let insert t row =
  let assigned =
    match t.pk_col with
    | Some i when i < Array.length row && Value.is_null row.(i) ->
        if Schema.column_type t.schema i = Tint then Some i else None
    | _ -> None
  in
  let stored = Array.copy row in
  (* A placeholder key lets the other cells validate before the lock. *)
  Option.iter (fun i -> stored.(i) <- Value.Int 0) assigned;
  match Schema.validate_row t.schema stored with
  | Error _ as e -> e
  | Ok () ->
      Rwlock.wr t.lock (fun () ->
          Option.iter (fun i -> stored.(i) <- Value.Int (t.high_key + 1)) assigned;
          let dup =
            match (pk_value t stored, t.pk_index) with
            | Some key, Some index -> Hashtbl.mem index key
            | _ -> false
          in
          if dup then
            Error
              (Printf.sprintf "table %s: duplicate primary key %s" (Schema.name t.schema)
                 (Value.to_string (Option.get (pk_value t stored))))
          else begin
            grow t;
            t.rows.(t.size) <- Some stored;
            (match (pk_value t stored, t.pk_index) with
            | Some key, Some index ->
                Hashtbl.replace index key t.size;
                hold_key t key
            | _ -> ());
            secondary_add t stored t.size;
            t.size <- t.size + 1;
            t.live <- t.live + 1;
            Ok (Option.map (fun _ -> t.high_key) assigned)
          end)

let insert_exn t row =
  match insert t row with Ok _ -> () | Error msg -> invalid_arg msg

(* Reads copy, under [rd], the rows [where] can match — the index
   candidates' rows, as a list, or the whole slot array — and evaluate
   the copy off-lock. The copy is the snapshot: rows are immutable once
   stored, so concurrent writers cannot tear it — Retrain Model's
   10k-row scan sees the table exactly as of its start. The predicate
   (the probe's residual, for candidates) is compiled once per
   statement, and the walk stops as soon as [f] returns [false]; no
   list of matches is materialized here. *)
let iter_matching t ~where f =
  let scanned = ref 0 in
  let visit holds = function
    | Some row when holds row -> f row
    | Some _ | None -> true
  in
  match
    Rwlock.rd t.lock (fun () ->
        match index_candidates_unlocked t ~where with
        | Some (buckets, residual) ->
            Either.Left (gather buckets ~f:(fun slot -> t.rows.(slot)), residual)
        | None -> Either.Right (Array.sub t.rows 0 t.size))
  with
  | Either.Left (rows, residual) ->
      let holds = Expr.compile t.schema residual in
      let rec walk = function
        | [] -> ()
        | row :: rest ->
            scan_checkpoint scanned;
            if visit holds row then walk rest
      in
      walk rows
  | Either.Right snap ->
      let holds = Expr.compile t.schema where in
      let more = ref true in
      let slot = ref 0 in
      let n = Array.length snap in
      while !more && !slot < n do
        scan_checkpoint scanned;
        more := visit holds snap.(!slot);
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
                    Hashtbl.replace index row'.(col) slot;
                    hold_key t row'.(col)
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

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc row -> row :: acc))

let of_rows schema rows =
  let t = create schema in
  let rec go = function
    | [] -> Ok t
    | row :: rest -> (
        match insert t row with
        | Ok _ -> go rest
        | Error msg ->
            Error (Printf.sprintf "table %s: checkpoint row rejected: %s" (Schema.name schema) msg))
  in
  go rows

let clear t =
  Rwlock.wr t.lock (fun () ->
      t.rows <- Array.make 16 None;
      t.size <- 0;
      t.live <- 0;
      t.high_key <- 0;
      Option.iter Hashtbl.reset t.pk_index;
      Hashtbl.iter (fun _ index -> Hashtbl.reset index) t.secondary)
