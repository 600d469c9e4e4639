(* The read-footprint recorder.

   A cached verdict is sound to reuse exactly when nothing it read has
   changed. The table layer cannot know who is asking, so the asker
   (Enforce's memo table, Sesame_conn's aggregate cache) opens a
   recording [scope] around the computation; every read inside —
   pk-index probes, secondary probes, full scans, even lookups of
   missing tables — records the (table, shard) slot it depended on
   together with that slot's generation *at the moment of the read*.
   Validation later compares just those slots against the live epochs.

   Soundness hinges on two details:

   - Generations are sampled {e before} the rows are read (the record
     happens at probe/scan start, under the table's read lock). A write
     that races the read lands after the sample, so the stored
     generation differs from the live one and the entry fails
     validation — a lost race costs a recompute, never a stale reuse.

   - When the same slot is recorded twice in one scope, the {e first}
     (oldest) generation wins. Any write between the two reads makes
     the footprint stale, which is the conservative direction.

   Scopes nest: a child scope's deps merge into its parent on exit, so
   a conjunction member evaluated inside its own scope still taints the
   enclosing request's footprint. Recording is per-domain (DLS) and
   costs one DLS read when no scope is open. *)

type dep = {
  ep : Epoch.table_epoch;
  table : string;
  shard : int;  (* -1 = whole-table dependency (scan, secondary probe, absence) *)
  gen : int;  (* the slot's generation when the read was made *)
}

type snapshot = dep array

type scope = (string * int, dep) Hashtbl.t

let stack : scope list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref ([] : scope list))

let recording () = !(Domain.DLS.get stack) <> []

let record_dep table shard ep =
  match !(Domain.DLS.get stack) with
  | [] -> ()
  | tbl :: _ ->
      let key = (table, shard) in
      if not (Hashtbl.mem tbl key) then
        let gen = if shard < 0 then Epoch.total_gen ep else Epoch.shard_gen ep shard in
        Hashtbl.add tbl key { ep; table; shard; gen }

let record_shard table ep shard = record_dep table shard ep
let record_table table ep = record_dep table (-1) ep

let record_table_name table =
  (* Missing-table lookups too: a verdict that observed "no such table"
     depends on the table staying absent, and creation bumps its
     (name-keyed, persistent) epoch. *)
  if recording () then record_dep table (-1) (Epoch.for_table table)

let snapshot_of tbl =
  let deps = Array.make (Hashtbl.length tbl) { ep = Epoch.for_table ""; table = ""; shard = -1; gen = 0 } in
  let i = ref 0 in
  Hashtbl.iter
    (fun _ d ->
      deps.(!i) <- d;
      incr i)
    tbl;
  deps

let merge_ambient (snap : snapshot) =
  match !(Domain.DLS.get stack) with
  | [] -> ()
  | tbl :: _ ->
      Array.iter
        (fun d ->
          let key = (d.table, d.shard) in
          if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key d)
        snap

let scope f =
  let st = Domain.DLS.get stack in
  let tbl : scope = Hashtbl.create 8 in
  st := tbl :: !st;
  let pop () = match !st with _ :: rest -> st := rest | [] -> () in
  match f () with
  | v ->
      pop ();
      let snap = snapshot_of tbl in
      (* Nested scopes: whatever the child read, the parent read too. *)
      merge_ambient snap;
      (v, snap)
  | exception e ->
      pop ();
      raise e

let dep_valid d =
  if d.shard < 0 then Epoch.total_gen d.ep = d.gen
  else Epoch.shard_gen d.ep d.shard = d.gen

let valid (snap : snapshot) = Array.for_all dep_valid snap
let cardinal (snap : snapshot) = Array.length snap

let deps (snap : snapshot) =
  Array.to_list snap
  |> List.map (fun d -> (d.table, d.shard))
  |> List.sort compare
