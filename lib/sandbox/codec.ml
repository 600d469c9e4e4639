(* Wire format: one-character tag, then a textual payload.
     u            unit
     i<dec>;      int
     f<hex>;      float (%h rendering)
     b0; / b1;    bool
     s<len>:<bytes>
     v<count>:e1e2...   vec
     t<count>:e1e2...   tuple
     F<count>:<hex>;<hex>;...   flat floats *)

let encode value =
  let buf = Buffer.create 256 in
  let rec go v =
    match v with
    | Value.Unit -> Buffer.add_char buf 'u'
    | Value.Int i ->
        Buffer.add_char buf 'i';
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf ';'
    | Value.Float f ->
        Buffer.add_char buf 'f';
        Buffer.add_string buf (Printf.sprintf "%h" f);
        Buffer.add_char buf ';'
    | Value.Bool b ->
        Buffer.add_string buf (if b then "b1;" else "b0;")
    | Value.Str s ->
        Buffer.add_char buf 's';
        Buffer.add_string buf (string_of_int (String.length s));
        Buffer.add_char buf ':';
        Buffer.add_string buf s
    | Value.Vec vs ->
        Buffer.add_char buf 'v';
        Buffer.add_string buf (string_of_int (List.length vs));
        Buffer.add_char buf ':';
        List.iter go vs
    | Value.Tuple vs ->
        Buffer.add_char buf 't';
        Buffer.add_string buf (string_of_int (List.length vs));
        Buffer.add_char buf ':';
        List.iter go vs
    | Value.Floats fs ->
        Buffer.add_char buf 'F';
        Buffer.add_string buf (string_of_int (Array.length fs));
        Buffer.add_char buf ':';
        Array.iter
          (fun f ->
            Buffer.add_string buf (Printf.sprintf "%h" f);
            Buffer.add_char buf ';')
          fs
  in
  go value;
  Buffer.contents buf

exception Bad of string

let decode s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "decode error at %d: %s" !pos msg)) in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let until stop =
    let start = !pos in
    while !pos < n && s.[!pos] <> stop do incr pos done;
    if !pos >= n then fail (Printf.sprintf "expected %C" stop);
    let text = String.sub s start (!pos - start) in
    incr pos;
    text
  in
  let int_until stop =
    let text = until stop in
    match int_of_string_opt text with
    | Some i -> i
    | None -> fail (Printf.sprintf "bad integer %S" text)
  in
  let float_until stop =
    let text = until stop in
    match float_of_string_opt text with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad float %S" text)
  in
  let rec go () =
    match next () with
    | 'u' -> Value.Unit
    | 'i' -> Value.Int (int_until ';')
    | 'f' -> Value.Float (float_until ';')
    | 'b' -> (
        match until ';' with
        | "0" -> Value.Bool false
        | "1" -> Value.Bool true
        | other -> fail (Printf.sprintf "bad bool %S" other))
    | 's' ->
        let len = int_until ':' in
        if len < 0 || !pos + len > n then fail "bad string length";
        let text = String.sub s !pos len in
        pos := !pos + len;
        Value.Str text
    | 'v' ->
        let count = int_until ':' in
        if count < 0 then fail "bad vec count";
        Value.Vec (List.init count (fun _ -> go ()))
    | 't' ->
        let count = int_until ':' in
        if count < 0 then fail "bad tuple count";
        Value.Tuple (List.init count (fun _ -> go ()))
    | 'F' ->
        let count = int_until ':' in
        (* Every element takes at least two bytes ("0;"): a count the
           rest of the input cannot hold is refused before the array is
           allocated. *)
        if count < 0 || count > (n - !pos) / 2 then fail "bad floats count";
        let fs = Array.create_float count in
        for i = 0 to count - 1 do
          fs.(i) <- float_until ';'
        done;
        Value.Floats fs
    | c -> fail (Printf.sprintf "unknown tag %C" c)
  in
  match
    let v = go () in
    if !pos <> n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
