(* Entry point. [sesame_bench serve DIR] is the server process;
   [sesame_bench run --workload W --seed N --seconds S --trace 0|1
   --work DIR --commit ID --cores N] is the client, which starts the server
   process itself. perfbench/run.py builds this and runs the client. *)

let usage () =
  prerr_endline
    "usage: sesame_bench run --workload browse|analytics|mixed --seed N --seconds S --trace 0|1 --work DIR \
     --commit ID --cores N\n       sesame_bench serve DATA_DIR";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve"; data_dir ] -> Server_proc.main ~data_dir
  | _ :: "run" :: args ->
      let rec opts acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = opts [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let workload = get "workload" in
      if not (List.mem workload Workload.names) then usage ();
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      Client.run ~exe:Sys.executable_name ~workload ~seed:(int "seed") ~seconds:(float_of_int (int "seconds"))
        ~trace:(int "trace" = 1) ~work:(get "work") ~commit:(get "commit")
        ~cores:(int "cores")
  | _ -> usage ()
