type strategy = Serialize | Swizzle

let strategy_name = function Serialize -> "serialize" | Swizzle -> "swizzle"

(* Guest object layout (Swizzle):
     tag: u8 at +0 (padded to 4)
     Unit  0 | -
     Int   1 | lo:u32 +4, hi:u32 +8  (i64 kept in two words: 32-bit ABI)
     Float 2 | f64 at +8 (aligned)
     Bool  3 | u8 at +4
     Str   4 | len:u32 +4, ptr:u32 +8
     Vec   5 | len:u32 +4, ptr:u32 +8 -> u32 element addresses
     Tuple 6 | like Vec
     Floats 7 | len:u32 +4, ptr:u32 +8 -> len contiguous f64s *)

let tag_unit = 0
and tag_int = 1
and tag_float = 2
and tag_bool = 3
and tag_str = 4
and tag_vec = 5
and tag_tuple = 6
and tag_floats = 7

let rec swizzle_in arena v =
  let header tag size =
    let addr = Arena.alloc arena size in
    Arena.write_u8 arena addr tag;
    addr
  in
  match v with
  | Value.Unit -> header tag_unit 4
  | Value.Int i ->
      let addr = header tag_int 12 in
      Arena.write_u32 arena (addr + 4) (i land 0xFFFFFFFF);
      Arena.write_u32 arena (addr + 8) ((i asr 32) land 0xFFFFFFFF);
      addr
  | Value.Float f ->
      let addr = header tag_float 16 in
      Arena.write_f64 arena (addr + 8) f;
      addr
  | Value.Bool b ->
      let addr = header tag_bool 8 in
      Arena.write_u8 arena (addr + 4) (if b then 1 else 0);
      addr
  | Value.Str s ->
      let addr = header tag_str 12 in
      let payload = Arena.alloc arena (String.length s) in
      Arena.write_bytes arena payload s;
      Arena.write_u32 arena (addr + 4) (String.length s);
      Arena.write_u32 arena (addr + 8) payload;
      addr
  | Value.Vec vs | Value.Tuple vs ->
      let tag = (match v with Value.Vec _ -> tag_vec | _ -> tag_tuple) in
      let addr = header tag 12 in
      let elems = List.map (swizzle_in arena) vs in
      let table = Arena.alloc arena (4 * List.length elems) in
      List.iteri (fun i e -> Arena.write_u32 arena (table + (4 * i)) e) elems;
      Arena.write_u32 arena (addr + 4) (List.length elems);
      Arena.write_u32 arena (addr + 8) table;
      addr
  | Value.Floats fs ->
      let addr = header tag_floats 12 in
      let payload = Arena.alloc arena (8 * Array.length fs) in
      Arena.write_f64s arena payload fs;
      Arena.write_u32 arena (addr + 4) (Array.length fs);
      Arena.write_u32 arena (addr + 8) payload;
      addr

let rec swizzle_out arena addr =
  let tag = Arena.read_u8 arena addr in
  if tag = tag_unit then Value.Unit
  else if tag = tag_int then begin
    let lo = Arena.read_u32 arena (addr + 4) in
    let hi = Arena.read_u32 arena (addr + 8) in
    (* Sign-extend the high word back to a native int. *)
    let hi = if hi land 0x80000000 <> 0 then hi - 0x100000000 else hi in
    Value.Int ((hi lsl 32) lor lo)
  end
  else if tag = tag_float then Value.Float (Arena.read_f64 arena (addr + 8))
  else if tag = tag_bool then Value.Bool (Arena.read_u8 arena (addr + 4) <> 0)
  else if tag = tag_str then begin
    let len = Arena.read_u32 arena (addr + 4) in
    let payload = Arena.read_u32 arena (addr + 8) in
    Value.Str (Arena.read_bytes arena payload len)
  end
  else if tag = tag_vec || tag = tag_tuple then begin
    let len = Arena.read_u32 arena (addr + 4) in
    let table = Arena.read_u32 arena (addr + 8) in
    let elems =
      List.init len (fun i -> swizzle_out arena (Arena.read_u32 arena (table + (4 * i))))
    in
    if tag = tag_vec then Value.Vec elems else Value.Tuple elems
  end
  else if tag = tag_floats then begin
    let len = Arena.read_u32 arena (addr + 4) in
    let payload = Arena.read_u32 arena (addr + 8) in
    Value.Floats (Arena.read_f64s arena payload len)
  end
  else raise (Arena.Sandbox_trap (Printf.sprintf "corrupt guest object tag %d" tag))

let serialize_in arena v =
  let encoded = Sesame_faults.corrupt_string Sesame_faults.Copier_encode (Codec.encode v) in
  let addr = Arena.alloc arena (4 + String.length encoded) in
  Arena.write_u32 arena addr (String.length encoded);
  Arena.write_bytes arena (addr + 4) encoded;
  addr

let serialize_out arena addr =
  let len = Arena.read_u32 arena addr in
  let encoded =
    Sesame_faults.corrupt_string Sesame_faults.Copier_decode
      (Arena.read_bytes arena (addr + 4) len)
  in
  match Codec.decode encoded with
  | Ok v -> v
  | Error msg -> raise (Arena.Sandbox_trap msg)

let copy_in strategy arena v =
  Sesame_faults.hit ~corruptible:(strategy = Serialize) Sesame_faults.Copier_encode;
  match strategy with
  | Swizzle -> swizzle_in arena v
  | Serialize -> serialize_in arena v

let copy_out strategy arena addr =
  Sesame_faults.hit ~corruptible:(strategy = Serialize) Sesame_faults.Copier_decode;
  match strategy with
  | Swizzle -> swizzle_out arena addr
  | Serialize -> serialize_out arena addr
