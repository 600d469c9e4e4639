type t = Value.t array

let get schema row col = row.(Schema.column_index_exn schema col)

let get_opt schema row col =
  Option.map (fun i -> row.(i)) (Schema.column_index schema col)

let set schema row col v =
  let row = Array.copy row in
  row.(Schema.column_index_exn schema col) <- v;
  row

let of_assoc schema bindings =
  let row = Array.make (Schema.arity schema) Value.Null in
  let unknown =
    List.find_opt (fun (col, _) -> not (Schema.mem schema col)) bindings
  in
  match unknown with
  | Some (col, _) ->
      Error (Printf.sprintf "table %s has no column %s" (Schema.name schema) col)
  | None ->
      List.iter
        (fun (col, v) -> row.(Schema.column_index_exn schema col) <- v)
        bindings;
      Ok row

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let pp fmt row =
  Format.fprintf fmt "@[<h>(";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf fmt ", ";
      Value.pp fmt v)
    row;
  Format.fprintf fmt ")@]"
