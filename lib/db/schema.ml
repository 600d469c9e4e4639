type column = { name : string; ty : Value.ty; nullable : bool }

type t = {
  name : string;
  columns : column array;
  index : (string, int) Hashtbl.t;
  primary_key : int option;
}

let make ~name ?primary_key columns =
  if columns = [] then Error (Printf.sprintf "table %s: no columns" name)
  else
    let index = Hashtbl.create (List.length columns) in
    let dup = ref None in
    List.iteri
      (fun i (c : column) ->
        if Hashtbl.mem index c.name then dup := Some c.name
        else Hashtbl.add index c.name i)
      columns;
    match !dup with
    | Some col -> Error (Printf.sprintf "table %s: duplicate column %s" name col)
    | None -> (
        let columns = Array.of_list columns in
        match primary_key with
        | None -> Ok { name; columns; index; primary_key = None }
        | Some pk -> (
            match Hashtbl.find_opt index pk with
            | None -> Error (Printf.sprintf "table %s: primary key %s is not a column" name pk)
            | Some i when columns.(i).nullable ->
                Error (Printf.sprintf "table %s: primary key %s must not be nullable" name pk)
            | Some i -> Ok { name; columns; index; primary_key = Some i }))

let make_exn ~name ?primary_key columns =
  match make ~name ?primary_key columns with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let name t = t.name
let columns t = Array.to_list t.columns
let arity t = Array.length t.columns
let primary_key t = Option.map (fun i -> t.columns.(i).name) t.primary_key
let column_index t col = Hashtbl.find_opt t.index col
let column_name t i = t.columns.(i).name
let column_type t i = t.columns.(i).ty

let column_index_exn t col =
  match column_index t col with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "table %s has no column %s" t.name col)

let mem t col = Hashtbl.mem t.index col

let validate_row t row =
  if Array.length row <> Array.length t.columns then
    Error
      (Printf.sprintf "table %s: row has %d values, schema has %d columns" t.name
         (Array.length row) (Array.length t.columns))
  else
    let bad = ref None in
    Array.iteri
      (fun i v ->
        if !bad = None then
          let col = t.columns.(i) in
          if Value.is_null v then (
            if not col.nullable then
              bad := Some (Printf.sprintf "column %s is not nullable" col.name))
          else if not (Value.has_type v col.ty) then
            bad :=
              Some
                (Printf.sprintf "column %s expects %s, got %s" col.name
                   (Value.ty_to_string col.ty) (Value.to_string v)))
      row;
    match !bad with
    | Some msg -> Error (Printf.sprintf "table %s: %s" t.name msg)
    | None -> Ok ()

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>%s(" t.name;
  Array.iteri
    (fun i (c : column) ->
      if i > 0 then Format.fprintf fmt ",@ ";
      Format.fprintf fmt "%s %a%s" c.name Value.pp_ty c.ty
        (if c.nullable then "" else " NOT NULL"))
    t.columns;
  Format.fprintf fmt ")@]"
