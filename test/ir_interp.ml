(* A reference interpreter for the Region IR: the execution oracle the
   Scrutinizer's verdicts are tested against.

   The semantics is the one the analysis models, made concrete:
   - every binding is a location in a model heap; [Let] allocates a
     fresh location and rebinds the name for the rest of the function,
     [Assign (Lvar _)] overwrites the bound location;
   - [Ref v] / [Ref_mut v] are pointers to [v]'s location; field and
     index reads and writes, [For] and arithmetic look through them;
     writing through a shared reference is not a program the IR models
     (Rust rejects it), so it raises [Ill_formed];
   - [Unsafe_write] writes its known target like an assignment;
   - calls pass arguments by value (pointers are copied, so writes
     through a [Ref_mut] argument reach the caller);
   - native, extern and unknown bodies, and allow-listed functions, are
     deterministic opaque functions of their arguments; allow-listed ones
     also write an opaque value through each [Ref_mut] argument;
   - a dynamic call runs one candidate, picked by [dispatch]: the
     receiver's concrete type is part of the region's signature, so it is
     the same in every run that only changes sensitive values;
   - every statement and call costs one unit of fuel.

   What an observer outside the region sees is the list of {!event}s
   (calls into non-allow-listed bodies the interpreter cannot see, with
   their arguments read through pointers, global writes and opaque
   unsafe writes) plus the final contents of by-reference captures. The
   region's return value goes back to the caller inside a policy
   container, so it is not observed. *)

open Sesame_scrutinizer

type value =
  | Unit
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Tuple of value list
  | Vec of value list
  | Record of (string * value) list  (** sorted by field name *)
  | Ptr of { loc : int; mut_ : bool }

type event =
  | Call_out of string * value list
  | Global_write of string * value
  | Opaque_write of value list

type outcome = {
  result : value;  (** read through pointers *)
  events : event list;  (** in execution order *)
  captures : (string * value) list;  (** by-reference captures, final contents *)
}

exception Out_of_fuel
exception Ill_formed of string

exception Return_exn of value

type state = {
  program : Program.t;
  allowlist : Allowlist.t;
  dispatch : int;
  heap : (int, value) Hashtbl.t;
  mutable next_loc : int;
  globals : (string, value) Hashtbl.t;
  mutable events : event list;  (* reversed *)
  mutable fuel : int;
}

type frame = (string, int) Hashtbl.t  (* variable -> location *)

let tick st =
  if st.fuel <= 0 then raise Out_of_fuel;
  st.fuel <- st.fuel - 1

let alloc st v =
  let loc = st.next_loc in
  st.next_loc <- loc + 1;
  Hashtbl.replace st.heap loc v;
  loc

let load st loc = Option.value (Hashtbl.find_opt st.heap loc) ~default:Unit

(* The location [v] names, allocating a [Unit] binding for a name the
   function never bound. *)
let loc_of st (fr : frame) v =
  match Hashtbl.find_opt fr v with
  | Some loc -> loc
  | None ->
      let loc = alloc st Unit in
      Hashtbl.replace fr v loc;
      loc

(* A pointer chain longer than this is a cycle (a variable that points at
   itself), which no well-typed program builds. *)
let max_chain = 8

let strip st v =
  let rec go n = function
    | Ptr { loc; _ } ->
        if n = 0 then raise (Ill_formed "pointer cycle");
        go (n - 1) (load st loc)
    | v -> v
  in
  go max_chain v

(* A value with every pointer replaced by what it points at; the depth
   bound keeps a self-referencing heap finite. *)
let rec deep ?(depth = 8) st v =
  match v with
  | Ptr { loc; _ } -> if depth = 0 then Unit else deep ~depth:(depth - 1) st (load st loc)
  | Tuple vs -> Tuple (List.map (deep ~depth st) vs)
  | Vec vs -> Vec (List.map (deep ~depth st) vs)
  | Record fs -> Record (List.map (fun (f, x) -> (f, deep ~depth st x)) fs)
  | v -> v

(* Small results keep loops over them short. *)
let opaque tag args = Int (Hashtbl.hash (Digest.string (Marshal.to_string (tag, args) [])) mod 8)

let truthy = function
  | Bool b -> b
  | Int n -> n <> 0
  | Float f -> f <> 0.0
  | Str s -> s <> ""
  | Unit -> false
  | Tuple _ | Vec _ | Record _ | Ptr _ -> true

let field_of v f =
  match v with Record fs -> Option.value (List.assoc_opt f fs) ~default:Unit | _ -> Unit

let set_field v f x =
  let fs = match v with Record fs -> List.remove_assoc f fs | _ -> [] in
  Record (List.sort (fun (a, _) (b, _) -> String.compare a b) ((f, x) :: fs))

let nth_opt vs i = if i < 0 then None else List.nth_opt vs i

let index_of v i =
  match (v, i) with
  | (Vec vs | Tuple vs), Int i -> Option.value (nth_opt vs i) ~default:Unit
  | _ -> Unit

let set_index v i x =
  match (v, i) with
  | Vec vs, Int i when i >= 0 && i < List.length vs ->
      Vec (List.mapi (fun j y -> if j = i then x else y) vs)
  | v, _ -> v

let arith op a b =
  match (op, a, b) with
  | Ir.Add, Int x, Int y -> Int (x + y)
  | Ir.Sub, Int x, Int y -> Int (x - y)
  | Ir.Mul, Int x, Int y -> Int (x * y)
  | Ir.Div, Int x, Int y -> Int (if y = 0 then 0 else x / y)
  | Ir.Rem, Int x, Int y -> Int (if y = 0 then 0 else x mod y)
  | Ir.Add, Float x, Float y -> Float (x +. y)
  | Ir.Sub, Float x, Float y -> Float (x -. y)
  | Ir.Mul, Float x, Float y -> Float (x *. y)
  | Ir.Div, Float x, Float y -> Float (x /. y)
  | (Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Rem), _, _ -> Int 0
  | Ir.Eq, a, b -> Bool (a = b)
  | Ir.Ne, a, b -> Bool (a <> b)
  | Ir.Lt, a, b -> Bool (compare a b < 0)
  | Ir.Le, a, b -> Bool (compare a b <= 0)
  | Ir.Gt, a, b -> Bool (compare a b > 0)
  | Ir.Ge, a, b -> Bool (compare a b >= 0)
  | Ir.And, a, b -> Bool (truthy a && truthy b)
  | Ir.Or, a, b -> Bool (truthy a || truthy b)
  | Ir.Concat, Str x, Str y -> Str (x ^ y)
  | Ir.Concat, a, b -> opaque "concat" [ a; b ]

(* Write [x] into the storage [loc] holds, first following the pointers
   stored there when [through] (field, index and deref writes look
   through references; a whole-variable write does not). *)
let write st loc ~through update =
  let rec go n loc =
    match load st loc with
    | Ptr { loc = target; mut_ } when through ->
        if not mut_ then raise (Ill_formed "write through a shared reference");
        if n = 0 then raise (Ill_formed "pointer cycle");
        go (n - 1) target
    | v -> Hashtbl.replace st.heap loc (update v)
  in
  go max_chain loc

let rec eval st (fr : frame) (e : Ir.expr) : value =
  match e with
  | Ir.Unit -> Unit
  | Ir.Int_lit n -> Int n
  | Ir.Float_lit f -> Float f
  | Ir.Str_lit s -> Str s
  | Ir.Bool_lit b -> Bool b
  | Ir.Var v -> load st (loc_of st fr v)
  | Ir.Global g -> (
      match Hashtbl.find_opt st.globals g with Some v -> v | None -> opaque "global" [ Str g ])
  | Ir.Field (inner, f) -> field_of (strip st (eval st fr inner)) f
  | Ir.Index (a, i) ->
      let a = strip st (eval st fr a) in
      index_of a (strip st (eval st fr i))
  | Ir.Unop (Ir.Not, inner) -> Bool (not (truthy (strip st (eval st fr inner))))
  | Ir.Unop (Ir.Neg, inner) -> (
      match strip st (eval st fr inner) with
      | Int n -> Int (-n)
      | Float f -> Float (-.f)
      | _ -> Int 0)
  | Ir.Binop (op, a, b) ->
      let a = deep st (eval st fr a) in
      arith op a (deep st (eval st fr b))
  | Ir.Tuple es -> Tuple (List.map (eval st fr) es)
  | Ir.Vec es -> Vec (List.map (eval st fr) es)
  | Ir.Ref v -> Ptr { loc = loc_of st fr v; mut_ = false }
  | Ir.Ref_mut v -> Ptr { loc = loc_of st fr v; mut_ = true }
  | Ir.Deref inner -> (
      match eval st fr inner with Ptr { loc; _ } -> load st loc | v -> v)
  | Ir.Call (callee, args) ->
      let args = List.map (eval st fr) args in
      call st callee args

and call st callee args =
  tick st;
  match callee with
  | Ir.Static name -> call_named st name args
  | Ir.Dynamic { method_name; receiver_hint } -> (
      match Program.resolve_dynamic st.program ~method_name ~receiver_hint with
      | Some (_ :: _ as candidates) ->
          let pick = Hashtbl.hash (st.dispatch, method_name) mod List.length candidates in
          call_named st (List.nth candidates pick) args
      | Some [] | None -> call_out st ("dyn " ^ method_name) args)
  | Ir.Fn_ptr _ -> call_out st "fn-ptr" args

and call_out st name args =
  let args = List.map (deep st) args in
  st.events <- Call_out (name, args) :: st.events;
  opaque name args

and call_named st name args =
  if Allowlist.mem st.allowlist name then begin
    let seen = List.map (deep st) args in
    List.iter
      (function
        | Ptr { loc; mut_ = true } -> Hashtbl.replace st.heap loc (opaque (name ^ "#w") seen)
        | _ -> ())
      args;
    opaque name seen
  end
  else
    match Program.find st.program name with
    | None -> call_out st name args
    | Some f -> (
        match f.Ir.body with
        | Ir.Native | Ir.Unresolved_generic -> call_out st name args
        | Ir.Body stmts -> (
            let fr : frame = Hashtbl.create 8 in
            List.iteri
              (fun i p ->
                Hashtbl.replace fr p (alloc st (Option.value (nth_opt args i) ~default:Unit)))
              f.Ir.params;
            match exec_block st fr stmts with () -> Unit | exception Return_exn v -> v))

and exec_block st fr stmts = List.iter (exec st fr) stmts

and assign st fr (lhs : Ir.lhs) ~index x =
  match lhs with
  | Ir.Lvar v -> Hashtbl.replace st.heap (loc_of st fr v) x
  | Ir.Lfield (v, f) -> write st (loc_of st fr v) ~through:true (fun cur -> set_field cur f x)
  | Ir.Lindex (v, _) -> write st (loc_of st fr v) ~through:true (fun cur -> set_index cur index x)
  | Ir.Lderef v -> (
      match load st (loc_of st fr v) with
      | Ptr { loc; mut_ } ->
          if not mut_ then raise (Ill_formed "write through a shared reference");
          Hashtbl.replace st.heap loc x
      | _ -> Hashtbl.replace st.heap (loc_of st fr v) x)
  | Ir.Lglobal g ->
      Hashtbl.replace st.globals g x;
      st.events <- Global_write (g, deep st x) :: st.events

and exec st fr (s : Ir.stmt) =
  tick st;
  match s with
  | Ir.Let (v, e) ->
      let x = eval st fr e in
      Hashtbl.replace fr v (alloc st x)
  | Ir.Assign (lhs, e) | Ir.Unsafe_write (lhs, e) ->
      (* The index expression first, then the value, as the analysis
         evaluates them. *)
      let index = match lhs with Ir.Lindex (_, i) -> strip st (eval st fr i) | _ -> Unit in
      assign st fr lhs ~index (eval st fr e)
  | Ir.Opaque_unsafe es ->
      let vs = List.map (fun e -> deep st (eval st fr e)) es in
      st.events <- Opaque_write vs :: st.events
  | Ir.If (c, t, e) ->
      if truthy (strip st (eval st fr c)) then exec_block st fr t else exec_block st fr e
  | Ir.While (c, body) ->
      while truthy (strip st (eval st fr c)) do
        tick st;
        exec_block st fr body
      done
  | Ir.For (v, e, body) ->
      let items =
        match strip st (eval st fr e) with
        | Vec vs | Tuple vs -> vs
        | Record fs -> List.map snd fs
        | Int n -> List.init (max 0 (min n 8)) (fun i -> Int i)
        | _ -> []
      in
      List.iter
        (fun x ->
          tick st;
          Hashtbl.replace fr v (alloc st x);
          exec_block st fr body)
        items
  | Ir.Return None -> raise (Return_exn Unit)
  | Ir.Return (Some e) -> raise (Return_exn (eval st fr e))
  | Ir.Expr_stmt e -> ignore (eval st fr e)

(* Run [spec] on [args] (one per parameter) with the captures bound to
   [captures] (a missing capture starts as [Unit]). *)
let run ?(allowlist = Allowlist.default) ?(dispatch = 0) ?(fuel = 5_000) program
    (spec : Spec.t) ~args ~captures =
  let st =
    {
      program;
      allowlist;
      dispatch;
      heap = Hashtbl.create 64;
      next_loc = 0;
      globals = Hashtbl.create 8;
      events = [];
      fuel;
    }
  in
  let fr : frame = Hashtbl.create 16 in
  List.iteri
    (fun i p -> Hashtbl.replace fr p (alloc st (Option.value (nth_opt args i) ~default:Unit)))
    spec.Spec.params;
  let observed =
    List.filter_map
      (fun (c : Ir.capture) ->
        let loc = alloc st (Option.value (List.assoc_opt c.cap_var captures) ~default:Unit) in
        Hashtbl.replace fr c.cap_var loc;
        match c.mode with Ir.By_value -> None | Ir.By_ref | Ir.By_mut_ref -> Some (c.cap_var, loc))
      spec.Spec.captures
  in
  let result =
    match exec_block st fr spec.Spec.body with () -> Unit | exception Return_exn v -> v
  in
  {
    result = deep st result;
    events = List.rev st.events;
    captures = List.map (fun (v, loc) -> (v, deep st (load st loc))) observed;
  }

let rec pp_value fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Int n -> Format.pp_print_int fmt n
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Bool b -> Format.pp_print_bool fmt b
  | Tuple vs -> Format.fprintf fmt "(%a)" pp_values vs
  | Vec vs -> Format.fprintf fmt "[%a]" pp_values vs
  | Record fs ->
      Format.fprintf fmt "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
           (fun fmt (f, v) -> Format.fprintf fmt "%s = %a" f pp_value v))
        fs
  | Ptr { loc; mut_ } -> Format.fprintf fmt "&%s#%d" (if mut_ then "mut " else "") loc

and pp_values fmt vs =
  Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_value fmt vs

let pp_event fmt = function
  | Call_out (name, args) -> Format.fprintf fmt "call %s(%a)" name pp_values args
  | Global_write (g, v) -> Format.fprintf fmt "global %s = %a" g pp_value v
  | Opaque_write vs -> Format.fprintf fmt "opaque unsafe write (%a)" pp_values vs

let pp_outcome fmt o =
  Format.fprintf fmt "@[<v>result %a@,events:@,  %a@,captures: %a@]" pp_value o.result
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "@,  ") pp_event)
    o.events
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt (v, x) -> Format.fprintf fmt "%s = %a" v pp_value x))
    o.captures
