type t = {
  functions : (string, Ir.func) Hashtbl.t;
  impls : (string, string list ref) Hashtbl.t;  (* method -> impl names *)
}

let create () = { functions = Hashtbl.create 64; impls = Hashtbl.create 16 }

let define t (f : Ir.func) =
  if Hashtbl.mem t.functions f.fname then
    invalid_arg (Printf.sprintf "function %s is already defined" f.fname);
  Hashtbl.add t.functions f.fname f

let define_all t fs = List.iter (define t) fs
let find t name = Hashtbl.find_opt t.functions name

let functions t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.functions []
  |> List.sort (fun (a : Ir.func) b -> String.compare a.fname b.fname)

let size t = Hashtbl.length t.functions

let register_impl t ~method_name ~impl =
  match Hashtbl.find_opt t.impls method_name with
  | Some cell -> if not (List.mem impl !cell) then cell := impl :: !cell
  | None -> Hashtbl.add t.impls method_name (ref [ impl ])

let impls t method_name =
  match Hashtbl.find_opt t.impls method_name with
  | Some cell -> List.rev !cell
  | None -> []

let resolve_dynamic t ~method_name ~receiver_hint =
  match receiver_hint with
  | Some ty ->
      let qualified = ty ^ "::" ^ method_name in
      if Hashtbl.mem t.functions qualified then Some [ qualified ] else None
  | None -> (
      match impls t method_name with
      | [] -> None
      | candidates -> Some candidates)
