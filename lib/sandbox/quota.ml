type limits = {
  max_runs : int option;
  max_traps : int option;
  max_fuel : int option;
  max_wall_s : float option;
  max_mem_bytes : int option;
}

let no_limits =
  { max_runs = None; max_traps = None; max_fuel = None; max_wall_s = None; max_mem_bytes = None }

let limits ?max_runs ?max_traps ?max_fuel ?max_wall_s ?max_mem_bytes () =
  { max_runs; max_traps; max_fuel; max_wall_s; max_mem_bytes }

type counters = {
  runs : int;
  traps : int;
  fuel : int;
  wall_s : float;
  peak_mem_bytes : int;
  denied : int;
}

let zero_counters =
  { runs = 0; traps = 0; fuel = 0; wall_s = 0.0; peak_mem_bytes = 0; denied = 0 }

type entry = {
  mutable runs : int;
  mutable traps : int;
  mutable fuel : int;
  mutable wall_s : float;
  mutable peak_mem_bytes : int;
  mutable denied : int;
}

(* One mutex over the whole table: admissions and accounting from worker
   domains must observe exact counters (a lost increment under-charges a
   region or under-reports its refusals). *)
type t = { limits : limits; lock : Mutex.t; entries : (string, entry) Hashtbl.t }

let create ?(limits = no_limits) () =
  { limits; lock = Mutex.create (); entries = Hashtbl.create 16 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let entry_of t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { runs = 0; traps = 0; fuel = 0; wall_s = 0.0; peak_mem_bytes = 0; denied = 0 } in
      Hashtbl.add t.entries key e;
      e

(* First limit the cumulative counters have already breached, if any.
   [max_runs] counts admissible runs, so the (n+1)th is the breach. *)
let breach_of limits (e : entry) =
  let over_int limit v = match limit with Some l -> v >= l | None -> false in
  let over_float limit v = match limit with Some l -> v >= l | None -> false in
  if over_int limits.max_runs e.runs then Some "runs"
  else if over_int limits.max_traps e.traps then Some "traps"
  else if over_int limits.max_fuel e.fuel then Some "fuel"
  else if over_float limits.max_wall_s e.wall_s then Some "wall-clock"
  else if over_int limits.max_mem_bytes e.peak_mem_bytes then Some "memory"
  else None

type admission = Admit | Deny_quota of { breached : string }

let admission_message = function
  | Admit -> "admitted"
  | Deny_quota { breached } -> Printf.sprintf "region exceeded its %s quota" breached

let admit t ~key =
  with_lock t (fun () ->
      let e = entry_of t key in
      match breach_of t.limits e with
      | None -> Admit
      | Some breached ->
          e.denied <- e.denied + 1;
          Deny_quota { breached })

let account t ~key ~trapped ~fuel ~wall_s ~mem_bytes =
  (* The seam fires before any counter moves: an injected accounting
     fault must leave the books untouched and the caller must deny the
     response rather than serve it unaccounted. Hit outside the lock so
     the raise cannot wedge other domains. *)
  Sesame_faults.hit Sesame_faults.Quota_account;
  with_lock t (fun () ->
      let e = entry_of t key in
      e.runs <- e.runs + 1;
      if trapped then e.traps <- e.traps + 1;
      e.fuel <- e.fuel + fuel;
      e.wall_s <- e.wall_s +. wall_s;
      if mem_bytes > e.peak_mem_bytes then e.peak_mem_bytes <- mem_bytes)

let counters_of (e : entry) : counters =
  {
    runs = e.runs;
    traps = e.traps;
    fuel = e.fuel;
    wall_s = e.wall_s;
    peak_mem_bytes = e.peak_mem_bytes;
    denied = e.denied;
  }

let counters_for t ~key =
  with_lock t (fun () -> Option.map counters_of (Hashtbl.find_opt t.entries key))

let snapshot t =
  with_lock t (fun () ->
      Hashtbl.fold (fun key e acc -> (key, counters_of e) :: acc) t.entries []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let totals t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ (e : entry) (acc : counters) : counters ->
          {
            runs = acc.runs + e.runs;
            traps = acc.traps + e.traps;
            fuel = acc.fuel + e.fuel;
            wall_s = acc.wall_s +. e.wall_s;
            peak_mem_bytes = max acc.peak_mem_bytes e.peak_mem_bytes;
            denied = acc.denied + e.denied;
          })
        t.entries zero_counters)

let describe_counters (c : counters) =
  Printf.sprintf "runs=%d traps=%d fuel=%d wall=%.3fs peak-mem=%d denied=%d" c.runs c.traps
    c.fuel c.wall_s c.peak_mem_bytes c.denied

(* Compact state string for the attestation manifest — what the region's
   books said when this run was recorded. *)
let state_string t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> "fresh"
      | Some e ->
          Printf.sprintf "runs=%d traps=%d fuel=%d denied=%d" e.runs e.traps e.fuel e.denied)
