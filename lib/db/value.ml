type t =
  | Null
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

type ty = Tint | Tfloat | Ttext | Tbool

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Text _ -> Some Ttext
  | Bool _ -> Some Tbool

let has_type v ty =
  match type_of v with None -> true | Some t -> t = ty

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | Int x, Float y | Float y, Int x -> float_of_int x = y
  | Text x, Text y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Null | Int _ | Float _ | Text _ | Bool _), _ -> false

(* Numbers hash by their bare float value, which [equal] compares:
   [Int 1] and [Float 1.0] collide, and so do [-0.0] and [0.0] (they
   are [=]). *)
let hash = function
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | (Null | Text _ | Bool _) as v -> Hashtbl.hash v

(* Rank in the total order; numbers share a rank so they compare
   numerically across Int/Float. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Text _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Text x, Text y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let pp fmt = function
  | Null -> Format.pp_print_string fmt "NULL"
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | Text s -> Format.fprintf fmt "%S" s
  | Bool b -> Format.pp_print_bool fmt b

let to_string v = Format.asprintf "%a" pp v

let ty_to_string = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Ttext -> "TEXT"
  | Tbool -> "BOOL"

let pp_ty fmt ty = Format.pp_print_string fmt (ty_to_string ty)

let type_error expected v =
  invalid_arg (Printf.sprintf "Value: expected %s, got %s" expected (to_string v))

let to_int = function Int i -> i | v -> type_error "INT" v
let to_float = function Float f -> f | Int i -> float_of_int i | v -> type_error "FLOAT" v
let to_text = function Text s -> s | v -> type_error "TEXT" v
let to_bool = function Bool b -> b | v -> type_error "BOOL" v
let is_null = function Null -> true | Int _ | Float _ | Text _ | Bool _ -> false
