exception Sandbox_trap of string

type t = {
  mem : Bytes.t;
  globals_size : int;
  checkpoint : Bytes.t;  (* copy of the globals segment at creation *)
  mutable brk : int;  (* bump pointer *)
  mutable high_water : int;
  mutable poisoned : bool;
}

let trap fmt = Printf.ksprintf (fun m -> raise (Sandbox_trap m)) fmt

let create ?(size = 4 * 1024 * 1024) ?(globals_size = 4096) () =
  if globals_size >= size then invalid_arg "Arena.create: globals larger than arena";
  let mem = Bytes.make size '\000' in
  {
    mem;
    globals_size;
    checkpoint = Bytes.sub mem 0 globals_size;
    brk = globals_size;
    high_water = globals_size;
    poisoned = false;
  }

let size t = Bytes.length t.mem
let high_water t = t.high_water

let align8 n = (n + 7) land lnot 7

let poison t = t.poisoned <- true
let poisoned t = t.poisoned

let alloc t n =
  Sesame_faults.hit Sesame_faults.Arena_alloc;
  if n < 0 then trap "alloc of negative size %d" n;
  let addr = t.brk in
  let next = align8 (addr + n) in
  if next > Bytes.length t.mem then trap "sandbox heap exhausted (%d bytes requested)" n;
  t.brk <- next;
  if next > t.high_water then t.high_water <- next;
  addr

let check t addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.mem then
    trap "out-of-bounds sandbox access at %d (+%d)" addr len

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.get t.mem addr)

let write_u8 t addr v =
  check t addr 1;
  Bytes.set t.mem addr (Char.chr (v land 0xFF))

let read_u32 t addr =
  check t addr 4;
  Int32.to_int (Bytes.get_int32_le t.mem addr) land 0xFFFFFFFF

let write_u32 t addr v =
  check t addr 4;
  Bytes.set_int32_le t.mem addr (Int32.of_int v)

let read_f64 t addr =
  check t addr 8;
  Int64.float_of_bits (Bytes.get_int64_le t.mem addr)

let write_f64 t addr v =
  check t addr 8;
  Bytes.set_int64_le t.mem addr (Int64.bits_of_float v)

let read_f64s t addr n =
  check t addr (8 * n);
  let fs = Array.create_float n in
  for i = 0 to n - 1 do
    fs.(i) <- Int64.float_of_bits (Bytes.get_int64_le t.mem (addr + (8 * i)))
  done;
  fs

let write_f64s t addr fs =
  check t addr (8 * Array.length fs);
  Array.iteri (fun i f -> Bytes.set_int64_le t.mem (addr + (8 * i)) (Int64.bits_of_float f)) fs

let read_bytes t addr len =
  check t addr len;
  Bytes.sub_string t.mem addr len

let write_bytes t addr s =
  check t addr (String.length s);
  Bytes.blit_string s 0 t.mem addr (String.length s)

let write_global_u32 t off v =
  if off < 0 || off + 4 > t.globals_size then trap "global offset %d out of range" off;
  write_u32 t off v

let read_global_u32 t off =
  if off < 0 || off + 4 > t.globals_size then trap "global offset %d out of range" off;
  read_u32 t off

let wipe t =
  Bytes.fill t.mem t.globals_size (t.high_water - t.globals_size) '\000';
  Bytes.blit t.checkpoint 0 t.mem 0 t.globals_size;
  t.brk <- t.globals_size;
  t.high_water <- t.globals_size

let reset_allocator t = t.brk <- t.globals_size

(* A fixed, arbitrary offset; real RLBox offsets guest pointers into the
   host address space. Tests use it to check pointers are translated. *)
let swizzle_offset _t = 0x5E5A0000
