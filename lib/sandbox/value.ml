type t =
  | Unit
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Vec of t list
  | Tuple of t list
  | Floats of float array

let float_equal x y = x = y || (Float.is_nan x && Float.is_nan y)

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> float_equal x y
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | Vec xs, Vec ys | Tuple xs, Tuple ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Floats xs, Floats ys ->
      Array.length xs = Array.length ys && Array.for_all2 float_equal xs ys
  | (Unit | Int _ | Float _ | Bool _ | Str _ | Vec _ | Tuple _ | Floats _), _ -> false

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%h" f
  | Bool b -> Format.pp_print_bool fmt b
  | Str s -> Format.fprintf fmt "%S" s
  | Vec vs -> Format.fprintf fmt "[%a]" pp_list vs
  | Tuple vs -> Format.fprintf fmt "(%a)" pp_list vs
  | Floats fs ->
      Format.fprintf fmt "[|%a|]"
        (Format.pp_print_seq
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
           (fun fmt f -> Format.fprintf fmt "%h" f))
        (Array.to_seq fs)

and pp_list fmt vs =
  Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ") pp fmt vs

let rec size_bytes = function
  | Unit -> 0
  | Int _ -> 8
  | Float _ -> 8
  | Bool _ -> 1
  | Str s -> String.length s
  | Vec vs | Tuple vs -> List.fold_left (fun acc v -> acc + size_bytes v) 8 vs
  | Floats fs -> 8 + (8 * Array.length fs)

let floats fs = Vec (List.map (fun f -> Float f) fs)

let to_floats = function
  | Vec vs ->
      List.fold_right
        (fun v acc ->
          match (v, acc) with
          | Float f, Some fs -> Some (f :: fs)
          | _, _ -> None)
        vs (Some [])
  | Unit | Int _ | Float _ | Bool _ | Str _ | Tuple _ | Floats _ -> None
