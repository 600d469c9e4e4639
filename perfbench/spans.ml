(* The benchmark's span recorder. Spans are recorded by the benchmark's
   own code around its calls into each layer, kept in memory, and written
   out when the run ends. A record is either a span (name, id, parent,
   request id, start, end on the shared monotonic clock) or a value a
   layer reports about itself (the sandbox's per-run timings). *)

type record =
  | Span of { name : string; id : int; parent : int; req : int; start_ns : int64; end_ns : int64 }
  | Value of { name : string; req : int; value : float }

type t = { lock : Mutex.t; mutable records : record list; mutable next : int }

let create () = { lock = Mutex.create (); records = []; next = 1 }
let no_parent = 0

let add t r =
  Mutex.lock t.lock;
  t.records <- r :: t.records;
  Mutex.unlock t.lock

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

(* [span t name ~req ~parent f] runs [f id], where [id] names this span
   for any child spans [f] records. *)
let span t name ~req ~parent f =
  let id = fresh_id t in
  let start_ns = Sesame_clock.now_ns () in
  let v = f id in
  add t (Span { name; id; parent; req; start_ns; end_ns = Sesame_clock.now_ns () });
  v

let value t name ~req value = add t (Value { name; req; value })

let write_channel oc t =
  List.iter
    (function
      | Span { name; id; parent; req; start_ns; end_ns } ->
          Printf.fprintf oc "S\t%s\t%d\t%d\t%d\t%Ld\t%Ld\n" name id parent req start_ns end_ns
      | Value { name; req; value } -> Printf.fprintf oc "V\t%s\t%d\t%.9g\n" name req value)
    (List.rev t.records)

let read_file path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        match String.split_on_char '\t' line with
        | [ "S"; name; id; parent; req; s; e ] ->
            go
              (Span
                 {
                   name;
                   id = int_of_string id;
                   parent = int_of_string parent;
                   req = int_of_string req;
                   start_ns = Int64.of_string s;
                   end_ns = Int64.of_string e;
                 }
              :: acc)
        | [ "V"; name; req; v ] ->
            go (Value { name; req = int_of_string req; value = float_of_string v } :: acc)
        | _ -> failwith ("bad span line: " ^ line))
  in
  go []

(* ------------------------------------------------------------------ *)
(* Analysis. Span ids are unique per process, so the client and server
   recorders draw from disjoint ranges. The client's [client.request]
   span takes the request id itself as its id, so the server's span for
   the same request can name it as parent. *)

let create_from first = { (create ()) with next = first }
let server_ids = 1_000_000_000
let client_ids = 2_000_000_000
let request_span req = if req > 0 then req else no_parent

let duration_us = function
  | Span { start_ns; end_ns; _ } -> Int64.to_float (Int64.sub end_ns start_ns) /. 1e3
  | Value _ -> 0.0

(* Self time: the span's duration minus the part of its interval that
   its children cover (overlapping children counted once). *)
let self_times records =
  let children = Hashtbl.create 1024 in
  List.iter
    (function
      | Span { parent; start_ns; end_ns; _ } when parent <> no_parent ->
          Hashtbl.add children parent (start_ns, end_ns)
      | _ -> ())
    records;
  List.filter_map
    (function
      | Span { name; id; start_ns; end_ns; req; _ } as s ->
          let kids =
            List.sort compare
              (List.map
                 (fun (a, b) -> (max a start_ns, min b end_ns))
                 (Hashtbl.find_all children id))
          in
          let covered, _ =
            List.fold_left
              (fun (acc, upto) (a, b) ->
                let a = max a upto in
                if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, upto))
              (0L, start_ns) kids
          in
          Some (name, req, duration_us s -. (Int64.to_float covered /. 1e3))
      | Value _ -> None)
    records

let durations records name =
  List.filter_map
    (function Span { name = n; _ } as s when n = name -> Some (duration_us s) | _ -> None)
    records

let values records name =
  List.filter_map (function Value { name = n; value; _ } when n = name -> Some value | _ -> None) records

(* Span durations per request id, for joining client and server views. *)
let by_request records name =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (function
      | Span { name = n; req; _ } as s when n = name && req > 0 -> Hashtbl.replace tbl req (duration_us s)
      | _ -> ())
    records;
  tbl
