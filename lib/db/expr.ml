type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | Cmp of cmp * operand * operand
  | And of t * t
  | Or of t * t
  | Not of t
  | In of operand * Value.t list
  | Like of operand * string
  | Is_null of operand

and operand = Col of string | Lit of Value.t

(* LIKE matching: '%' matches any run (incl. empty), '_' any one char.
   Classic two-pointer algorithm with backtracking to the last '%'. *)
let like_matches ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si star_p star_s =
    if si = ns then
      (* Consume trailing '%'s. *)
      let rec only_percents i = i >= np || (pattern.[i] = '%' && only_percents (i + 1)) in
      only_percents pi
    else if pi < np && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_p star_s
    else if pi < np && pattern.[pi] = '%' then go (pi + 1) si (Some pi) si
    else
      match star_p with
      | Some sp -> go (sp + 1) (star_s + 1) star_p (star_s + 1)
      | None -> false
  in
  go 0 0 None 0

let cmp_holds = function
  | Eq -> Value.equal
  | Ne -> fun a b -> not (Value.equal a b)
  | Lt -> fun a b -> Value.compare a b < 0
  | Le -> fun a b -> Value.compare a b <= 0
  | Gt -> fun a b -> Value.compare a b > 0
  | Ge -> fun a b -> Value.compare a b >= 0

module Value_set = Hashtbl.Make (Value)

(* Membership in [vs] under [Value.equal]. [Value.hash] agrees with
   [Value.equal], so the set narrows the search to one bucket and its
   [equal] confirms each hit; every list element is added (never
   replaced) because cross-type number equality is not transitive. *)
let member vs =
  let set = Value_set.create (2 * List.length vs) in
  List.iter (fun v -> Value_set.add set v ()) vs;
  Value_set.mem set

let unknown_column schema c =
  Printf.sprintf "table %s has no column %s" (Schema.name schema) c

(* A column resolves to its position here, once; an unknown one raises
   only when a row's evaluation reaches it. *)
let operand schema = function
  | Lit v -> fun _ -> v
  | Col c -> (
      match Schema.column_index schema c with
      | Some i -> fun row -> row.(i)
      | None ->
          let msg = unknown_column schema c in
          fun _ -> invalid_arg msg)

let rec compile schema = function
  | True -> fun _ -> true
  | Cmp (op, a, Lit vb) when not (Value.is_null vb) ->
      let va = operand schema a and holds = cmp_holds op in
      fun row ->
        let va = va row in
        (not (Value.is_null va)) && holds va vb
  | Cmp (op, a, b) ->
      let va = operand schema a and vb = operand schema b and holds = cmp_holds op in
      fun row ->
        let va = va row in
        let vb = vb row in
        (not (Value.is_null va)) && (not (Value.is_null vb)) && holds va vb
  | And (a, b) ->
      let a = compile schema a and b = compile schema b in
      fun row -> a row && b row
  | Or (a, b) ->
      let a = compile schema a and b = compile schema b in
      fun row -> a row || b row
  | Not a ->
      let a = compile schema a in
      fun row -> not (a row)
  | In (a, vs) ->
      let va = operand schema a and mem = member vs in
      fun row ->
        let va = va row in
        (not (Value.is_null va)) && mem va
  | Like (a, pattern) -> (
      let va = operand schema a in
      fun row ->
        match va row with
        | Value.Text s -> like_matches ~pattern s
        | Value.Null | Value.Int _ | Value.Float _ | Value.Bool _ -> false)
  | Is_null a ->
      let va = operand schema a in
      fun row -> Value.is_null (va row)

let columns e =
  let acc = ref [] in
  let add = function
    | Col c -> if not (List.mem c !acc) then acc := c :: !acc
    | Lit _ -> ()
  in
  let rec go = function
    | True -> ()
    | Cmp (_, a, b) -> add a; add b
    | And (a, b) | Or (a, b) -> go a; go b
    | Not a -> go a
    | In (a, _) | Like (a, _) | Is_null a -> add a
  in
  go e;
  List.rev !acc

let validate schema e =
  match List.find_opt (fun c -> not (Schema.mem schema c)) (columns e) with
  | Some c -> Error (unknown_column schema c)
  | None -> Ok ()

let rec equality_on e col =
  match e with
  | Cmp (Eq, Col c, Lit v) | Cmp (Eq, Lit v, Col c) when c = col -> Some v
  | And (a, b) -> (
      match equality_on a col with Some v -> Some v | None -> equality_on b col)
  | True | Cmp _ | Or _ | Not _ | In _ | Like _ | Is_null _ -> None

let rec in_list_on e col =
  match e with
  | In (Col c, vs) when c = col -> Some vs
  | And (a, b) -> (
      match in_list_on a col with Some vs -> Some vs | None -> in_list_on b col)
  | True | Cmp _ | Or _ | Not _ | In _ | Like _ | Is_null _ -> None

(* [e] without the conjunct [equality_on e col] ([`Equal]) or
   [in_list_on e col] ([`In]) finds, searched in the same left-to-right
   order; [e] itself when there is none. *)
let drop_pin e col pin =
  let pinned = function
    | Cmp (Eq, Col c, Lit _) | Cmp (Eq, Lit _, Col c) -> pin = `Equal && c = col
    | In (Col c, _) -> pin = `In && c = col
    | True | Cmp _ | And _ | Or _ | Not _ | In _ | Like _ | Is_null _ -> false
  in
  let rec go = function
    | And (a, b) -> (
        match go a with
        | Some True -> Some b
        | Some a -> Some (And (a, b))
        | None -> (
            match go b with Some True -> Some a | Some b -> Some (And (a, b)) | None -> None))
    | c -> if pinned c then Some True else None
  in
  Option.value (go e) ~default:e

let pp_operand fmt = function
  | Col c -> Format.pp_print_string fmt c
  | Lit v -> Value.pp fmt v

let cmp_symbol = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "TRUE"
  | Cmp (op, a, b) ->
      Format.fprintf fmt "%a %s %a" pp_operand a (cmp_symbol op) pp_operand b
  | And (a, b) -> Format.fprintf fmt "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf fmt "NOT %a" pp a
  | In (a, vs) ->
      Format.fprintf fmt "%a IN (%a)" pp_operand a
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           Value.pp)
        vs
  | Like (a, pattern) -> Format.fprintf fmt "%a LIKE %S" pp_operand a pattern
  | Is_null a -> Format.fprintf fmt "%a IS NULL" pp_operand a
