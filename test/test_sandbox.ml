open Sesame_sandbox

let test name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let value_tests =
  [
    test "equal is structural, NaN-tolerant" (fun () ->
        check_bool "nan" true (Value.equal (Value.Float Float.nan) (Value.Float Float.nan));
        check_bool "vec" true
          (Value.equal (Value.Vec [ Value.Int 1 ]) (Value.Vec [ Value.Int 1 ]));
        check_bool "tuple<>vec" false
          (Value.equal (Value.Tuple [ Value.Int 1 ]) (Value.Vec [ Value.Int 1 ])));
    test "floats helpers round-trip" (fun () ->
        check_bool "rt" true (Value.to_floats (Value.floats [ 1.0; 2.5 ]) = Some [ 1.0; 2.5 ]);
        check_bool "mixed" true (Value.to_floats (Value.Vec [ Value.Int 1 ]) = None));
    test "size_bytes grows with payload" (fun () ->
        check_bool "str" true (Value.size_bytes (Value.Str "abcd") = 4);
        check_bool "vec" true
          (Value.size_bytes (Value.floats [ 1.; 2.; 3. ]) > Value.size_bytes (Value.floats [ 1. ])));
  ]

let sample_values =
  [
    Value.Unit;
    Value.Int 0;
    Value.Int (-1);
    Value.Int max_int;
    Value.Int min_int;
    Value.Float 3.14159;
    Value.Float (-0.0);
    Value.Bool true;
    Value.Bool false;
    Value.Str "";
    Value.Str "hello \x00 world";
    Value.Vec [];
    Value.Vec [ Value.Int 1; Value.Str "two"; Value.Float 3.0 ];
    Value.Tuple [ Value.Vec [ Value.Tuple [ Value.Bool true ] ]; Value.Str "nested" ];
  ]

let codec_tests =
  [
    test "encode/decode round-trips every sample" (fun () ->
        List.iter
          (fun v ->
            match Codec.decode (Codec.encode v) with
            | Ok v' -> check_bool "rt" true (Value.equal v v')
            | Error m -> Alcotest.fail m)
          sample_values);
    test "decode rejects trailing garbage" (fun () ->
        check_bool "trailing" true (Result.is_error (Codec.decode (Codec.encode Value.Unit ^ "x"))));
    test "decode rejects truncation" (fun () ->
        let enc = Codec.encode (Value.Str "hello") in
        check_bool "trunc" true
          (Result.is_error (Codec.decode (String.sub enc 0 (String.length enc - 1)))));
    test "decode rejects unknown tags" (fun () ->
        check_bool "tag" true (Result.is_error (Codec.decode "q123;")));
    test "decode rejects negative counts" (fun () ->
        check_bool "neg" true (Result.is_error (Codec.decode "v-1:")));
  ]

let arena_tests =
  [
    test "alloc is 8-byte aligned and bounded" (fun () ->
        let a = Arena.create ~size:65536 () in
        let p1 = Arena.alloc a 3 in
        let p2 = Arena.alloc a 3 in
        check_int "aligned" 0 ((p2 - p1) mod 8);
        check_bool "exhaustion traps" true
          (try
             ignore (Arena.alloc a 1_000_000);
             false
           with Arena.Sandbox_trap _ -> true));
    test "reads and writes round-trip" (fun () ->
        let a = Arena.create ~size:65536 () in
        let p = Arena.alloc a 64 in
        Arena.write_u32 a p 0xDEADBEEF;
        check_int "u32" 0xDEADBEEF (Arena.read_u32 a p);
        Arena.write_f64 a (p + 8) 2.75;
        Alcotest.(check (float 0.0)) "f64" 2.75 (Arena.read_f64 a (p + 8));
        Arena.write_bytes a (p + 16) "hello";
        Alcotest.(check string) "bytes" "hello" (Arena.read_bytes a (p + 16) 5));
    test "out-of-bounds access traps (SFI)" (fun () ->
        let a = Arena.create ~size:65536 () in
        check_bool "oob read" true
          (try
             ignore (Arena.read_u32 a 65535);
             false
           with Arena.Sandbox_trap _ -> true);
        check_bool "negative" true
          (try
             ignore (Arena.read_u8 a (-1));
             false
           with Arena.Sandbox_trap _ -> true));
    test "wipe zeroes the heap and restores globals" (fun () ->
        let a = Arena.create ~size:4096 ~globals_size:64 () in
        Arena.write_global_u32 a 0 7;
        let p = Arena.alloc a 16 in
        Arena.write_u32 a p 42;
        Arena.write_global_u32 a 0 99;
        Arena.wipe a;
        check_int "heap zeroed" 0 (Arena.read_u32 a p);
        check_int "globals restored to creation state" 0 (Arena.read_global_u32 a 0);
        let p2 = Arena.alloc a 16 in
        check_int "allocator reset" p p2);
    test "reset without wipe leaves residue (why wiping matters)" (fun () ->
        let a = Arena.create ~size:65536 () in
        let p = Arena.alloc a 16 in
        Arena.write_u32 a p 1234;
        Arena.reset_allocator a;
        let p2 = Arena.alloc a 16 in
        check_int "same slot" p p2;
        check_int "residue visible" 1234 (Arena.read_u32 a p2));
    test "globals segment is bounds-checked" (fun () ->
        let a = Arena.create ~size:4096 ~globals_size:8 () in
        check_bool "oob global" true
          (try
             Arena.write_global_u32 a 8 1;
             false
           with Arena.Sandbox_trap _ -> true));
  ]

let copier_tests =
  let roundtrip strategy v =
    let a = Arena.create () in
    let addr = Copier.copy_in strategy a v in
    Copier.copy_out strategy a addr
  in
  [
    test "swizzle round-trips every sample" (fun () ->
        List.iter
          (fun v -> check_bool "rt" true (Value.equal v (roundtrip Copier.Swizzle v)))
          sample_values);
    test "serialize round-trips every sample" (fun () ->
        List.iter
          (fun v -> check_bool "rt" true (Value.equal v (roundtrip Copier.Serialize v)))
          sample_values);
    test "copy_out of corrupt guest object traps" (fun () ->
        let a = Arena.create () in
        let addr = Arena.alloc a 16 in
        Arena.write_u8 a addr 250;
        check_bool "trap" true
          (try
             ignore (Copier.copy_out Copier.Swizzle a addr);
             false
           with Arena.Sandbox_trap _ -> true));
    test "negative ints survive the 32-bit split" (fun () ->
        List.iter
          (fun i ->
            check_bool (string_of_int i) true
              (Value.equal (Value.Int i) (roundtrip Copier.Swizzle (Value.Int i))))
          [ -1; -12345678901; 12345678901; min_int; max_int ]);
  ]

let pool_tests =
  [
    test "acquire reuses preallocated arenas" (fun () ->
        let p = Pool.create ~capacity:2 ~arena_size:8192 () in
        let a1 = Pool.acquire p in
        let a2 = Pool.acquire p in
        let stats = Pool.stats p in
        check_int "reused" 2 stats.Pool.reused;
        check_int "created" 2 stats.Pool.created;
        Pool.release p a1;
        Pool.release p a2;
        check_int "available" 2 (Pool.available p));
    test "overflow allocates fresh arenas" (fun () ->
        let p = Pool.create ~capacity:1 ~arena_size:8192 () in
        let _a1 = Pool.acquire p in
        let _a2 = Pool.acquire p in
        check_int "created" 2 (Pool.stats p).Pool.created);
    test "release wipes" (fun () ->
        let p = Pool.create ~capacity:1 ~arena_size:8192 () in
        let a = Pool.acquire p in
        let addr = Arena.alloc a 8 in
        Arena.write_u32 a addr 77;
        Pool.release p a;
        let a' = Pool.acquire p in
        let addr' = Arena.alloc a' 8 in
        check_int "same arena, clean slot" 0 (Arena.read_u32 a' addr');
        check_int "wiped count" 1 (Pool.stats p).Pool.wiped);
    test "overflow release drops without wiping" (fun () ->
        let p = Pool.create ~capacity:1 ~arena_size:8192 () in
        let a1 = Pool.acquire p in
        let a2 = Pool.acquire p in
        Pool.release p a1;
        Pool.release p a2;
        let stats = Pool.stats p in
        check_int "wiped once" 1 stats.Pool.wiped;
        check_int "dropped once" 1 stats.Pool.dropped;
        check_int "available" 1 (Pool.available p));
    test "quarantined arenas are never reused" (fun () ->
        let p = Pool.create ~capacity:1 ~arena_size:8192 () in
        let a = Pool.acquire p in
        Pool.quarantine p a;
        let stats = Pool.stats p in
        check_int "poisoned" 1 stats.Pool.poisoned;
        check_int "replaced" 1 stats.Pool.replaced;
        check_bool "healthy" true (Pool.healthy p);
        let a' = Pool.acquire p in
        check_bool "fresh arena" true (a' != a);
        check_bool "not poisoned" false (Arena.poisoned a'));
    test "releasing a poisoned arena quarantines it" (fun () ->
        let p = Pool.create ~capacity:1 ~arena_size:8192 () in
        let a = Pool.acquire p in
        Arena.poison a;
        Pool.release p a;
        let stats = Pool.stats p in
        check_int "poisoned" 1 stats.Pool.poisoned;
        check_bool "healthy" true (Pool.healthy p);
        check_bool "replacement is clean" false (Arena.poisoned (Pool.acquire p)));
  ]

let runtime_tests =
  let quick_config ?budget mode =
    Runtime.config ~mode ~strategy:Copier.Swizzle ~slowdown:1.0 ~arena_size:65536 ?budget ()
  in
  let status_value = function
    | Runtime.Ok v -> v
    | Runtime.Trapped trap -> Alcotest.failf "unexpected trap: %s" (Runtime.trap_message trap)
  in
  [
    test "runs the closure on the copied input" (fun () ->
        let outcome =
          Runtime.run (quick_config Runtime.Naive) ~input:(Value.Int 20)
            ~f:(function Value.Int i -> Value.Int (i + 1) | v -> v)
        in
        check_bool "result" true
          (Value.equal (status_value outcome.Runtime.status) (Value.Int 21)));
    test "guest sees a copy, not the host value" (fun () ->
        let witnessed = ref Value.Unit in
        ignore
          (Runtime.run (quick_config Runtime.Naive) ~input:(Value.Str "secret")
             ~f:(fun v ->
               witnessed := v;
               v));
        check_bool "copy equal" true (Value.equal !witnessed (Value.Str "secret")));
    test "syscalls forbidden inside (trap), allowed outside" (fun () ->
        check_bool "outside ok" true
          (try
             Runtime.guard_syscall "net";
             true
           with Runtime.Forbidden_syscall _ -> false);
        let outcome =
          Runtime.run (quick_config Runtime.Naive) ~input:Value.Unit
            ~f:(fun v ->
              Runtime.guard_syscall "net";
              v)
        in
        (match outcome.Runtime.status with
        | Runtime.Trapped (Runtime.Syscall_blocked _) -> ()
        | Runtime.Trapped trap ->
            Alcotest.failf "wrong trap: %s" (Runtime.trap_message trap)
        | Runtime.Ok _ -> Alcotest.fail "syscall not blocked");
        check_bool "flag cleared after trap" false (Runtime.in_sandbox ()));
    test "guest exception traps and quarantines, exactly once" (fun () ->
        let pool = Pool.create ~capacity:1 ~arena_size:65536 () in
        let config = quick_config (Runtime.Pooled pool) in
        let outcome =
          Runtime.run config ~input:Value.Unit ~f:(fun _ -> failwith "guest crash")
        in
        (match outcome.Runtime.status with
        | Runtime.Trapped (Runtime.Guest_exception msg) ->
            check_bool "message mentions the exception" true (contains msg "guest crash")
        | _ -> Alcotest.fail "expected Guest_exception trap");
        let stats = Pool.stats pool in
        check_int "poisoned" 1 stats.Pool.poisoned;
        check_int "replaced" 1 stats.Pool.replaced;
        check_int "available (replacement)" 1 (Pool.available pool);
        check_bool "pool healthy" true (Pool.healthy pool));
    test "pooled runs reuse and wipe" (fun () ->
        let pool = Pool.create ~capacity:1 ~arena_size:65536 () in
        let config = quick_config (Runtime.Pooled pool) in
        ignore (Runtime.run config ~input:(Value.Int 1) ~f:Fun.id);
        ignore (Runtime.run config ~input:(Value.Int 2) ~f:Fun.id);
        let stats = Pool.stats pool in
        check_int "wiped twice" 2 stats.Pool.wiped;
        check_int "no extra arenas" 1 stats.Pool.created);
    test "fuel budget traps a non-terminating guest" (fun () ->
        let pool = Pool.create ~capacity:1 ~arena_size:65536 () in
        let config =
          quick_config ~budget:(Runtime.budget ~fuel:1000 ()) (Runtime.Pooled pool)
        in
        let outcome =
          Runtime.run config ~input:Value.Unit
            ~f:(fun _ ->
              while true do
                Runtime.tick ()
              done;
              Value.Unit)
        in
        (match outcome.Runtime.status with
        | Runtime.Trapped (Runtime.Fuel_exhausted { limit }) -> check_int "limit" 1000 limit
        | Runtime.Trapped trap ->
            Alcotest.failf "wrong trap: %s" (Runtime.trap_message trap)
        | Runtime.Ok _ -> Alcotest.fail "guest should have been terminated");
        check_int "arena quarantined" 1 (Pool.stats pool).Pool.poisoned;
        check_bool "pool healthy" true (Pool.healthy pool));
    test "deadline budget traps an overrunning guest" (fun () ->
        let config =
          quick_config ~budget:(Runtime.budget ~deadline_s:0.005 ()) Runtime.Naive
        in
        let outcome =
          Runtime.run config ~input:Value.Unit
            ~f:(fun v ->
              let stop = Sesame_clock.now_s () +. 0.05 in
              while Sesame_clock.now_s () < stop do
                Runtime.tick ()
              done;
              v)
        in
        match outcome.Runtime.status with
        | Runtime.Trapped (Runtime.Deadline_exceeded _) -> ()
        | Runtime.Trapped trap -> Alcotest.failf "wrong trap: %s" (Runtime.trap_message trap)
        | Runtime.Ok _ -> Alcotest.fail "guest should have been terminated");
    test "deadline catches a guest that never ticks" (fun () ->
        let config =
          quick_config ~budget:(Runtime.budget ~deadline_s:0.005 ()) Runtime.Naive
        in
        let outcome =
          Runtime.run config ~input:Value.Unit
            ~f:(fun v ->
              let stop = Sesame_clock.now_s () +. 0.05 in
              while Sesame_clock.now_s () < stop do
                ignore (Sys.opaque_identity ())
              done;
              v)
        in
        match outcome.Runtime.status with
        | Runtime.Trapped (Runtime.Deadline_exceeded _) -> ()
        | Runtime.Trapped trap -> Alcotest.failf "wrong trap: %s" (Runtime.trap_message trap)
        | Runtime.Ok _ -> Alcotest.fail "guest should have been terminated");
    test "memory budget traps an over-allocating guest" (fun () ->
        let pool = Pool.create ~capacity:1 ~arena_size:65536 () in
        let config =
          quick_config ~budget:(Runtime.budget ~mem_bytes:256 ()) (Runtime.Pooled pool)
        in
        let outcome =
          Runtime.run config ~input:(Value.Str (String.make 4096 'x')) ~f:Fun.id
        in
        (match outcome.Runtime.status with
        | Runtime.Trapped (Runtime.Memory_exceeded { used_bytes; limit_bytes }) ->
            check_int "limit" 256 limit_bytes;
            check_bool "used over cap" true (used_bytes > limit_bytes)
        | Runtime.Trapped trap ->
            Alcotest.failf "wrong trap: %s" (Runtime.trap_message trap)
        | Runtime.Ok _ -> Alcotest.fail "guest should have been terminated");
        check_int "arena quarantined" 1 (Pool.stats pool).Pool.poisoned);
    test "budget state restored after a trapped run" (fun () ->
        let config =
          quick_config ~budget:(Runtime.budget ~fuel:1 ()) Runtime.Naive
        in
        ignore
          (Runtime.run config ~input:Value.Unit
             ~f:(fun _ ->
               while true do
                 Runtime.tick ()
               done;
               Value.Unit));
        (* tick must be a no-op outside any sandbox, and a follow-up
           unbudgeted run must not inherit the exhausted fuel. *)
        Runtime.tick ();
        let outcome =
          Runtime.run (quick_config Runtime.Naive) ~input:(Value.Int 3)
            ~f:(fun v ->
              Runtime.tick ();
              Runtime.tick ();
              v)
        in
        check_bool "clean follow-up run" true
          (Value.equal (status_value outcome.Runtime.status) (Value.Int 3)));
    test "sandbox state is per-domain (DLS)" (fun () ->
        let inside_other_domain = ref true in
        let outcome =
          Runtime.run (quick_config Runtime.Naive) ~input:Value.Unit
            ~f:(fun v ->
              check_bool "inside here" true (Runtime.in_sandbox ());
              let d = Domain.spawn (fun () -> Runtime.in_sandbox ()) in
              inside_other_domain := Domain.join d;
              v)
        in
        ignore (status_value outcome.Runtime.status);
        check_bool "other domain not sandboxed" false !inside_other_domain;
        let d =
          Domain.spawn (fun () ->
              let o =
                Runtime.run (quick_config Runtime.Naive) ~input:Value.Unit
                  ~f:(fun v ->
                    Runtime.guard_syscall "net";
                    v)
              in
              match o.Runtime.status with
              | Runtime.Trapped (Runtime.Syscall_blocked _) -> true
              | _ -> false)
        in
        check_bool "guard applies on the spawned domain" true (Domain.join d);
        check_bool "main domain unaffected" false (Runtime.in_sandbox ()));
    test "timings are populated and non-negative" (fun () ->
        let outcome = Runtime.run (quick_config Runtime.Naive) ~input:(Value.Int 1) ~f:Fun.id in
        let t = outcome.Runtime.timings in
        check_bool "nonneg" true
          (t.Runtime.setup_s >= 0.0 && t.Runtime.copy_in_s >= 0.0 && t.Runtime.exec_s >= 0.0
          && t.Runtime.copy_out_s >= 0.0 && t.Runtime.teardown_s >= 0.0);
        check_bool "total" true (Runtime.total_s t >= 0.0));
    test "slowdown stretches execution" (fun () ->
        let busy v =
          let acc = ref 0 in
          for i = 1 to 2_000_000 do
            acc := !acc + i
          done;
          ignore (Sys.opaque_identity !acc);
          v
        in
        let time cfg =
          let o = Runtime.run cfg ~input:Value.Unit ~f:busy in
          o.Runtime.timings.Runtime.exec_s
        in
        let fast =
          time (Runtime.config ~mode:Runtime.Naive ~slowdown:1.0 ~arena_size:65536 ())
        in
        let slow =
          time (Runtime.config ~mode:Runtime.Naive ~slowdown:3.0 ~arena_size:65536 ())
        in
        check_bool "stretched" true (slow > fast *. 1.5));
  ]

(* ------------------------------------------------------------------ *)
(* Flat f64 payloads ([Value.Floats]). *)

let specials =
  [| Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; Float.max_float;
     Float.min_float; Float.epsilon; 1.0; -2.5 |]

(* Bit-exact, except that any NaN matches any NaN: the text codec
   renders every NaN as "nan". *)
let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y)

let floats_roundtrip strategy fs =
  let a = Arena.create ~size:(1 lsl 20) () in
  match Copier.copy_out strategy a (Copier.copy_in strategy a (Value.Floats fs)) with
  | Value.Floats fs' -> Array.length fs = Array.length fs' && Array.for_all2 same_bits fs fs'
  | _ -> false

let floats_arb =
  let open QCheck.Gen in
  let elem = frequency [ (3, float); (1, oneofa specials) ] in
  let gen =
    frequency
      [
        (8, array_size (int_bound 64) elem);
        (1, return [||]);
        (1, array_size (return 10_000) elem);
      ]
  in
  QCheck.make
    ~print:(fun fs -> Format.asprintf "%a" Value.pp (Value.Floats fs))
    ~shrink:QCheck.Shrink.array gen

let floats_property strategy =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:(Printf.sprintf "floats round-trip bit-exactly (%s)" (Copier.strategy_name strategy))
       floats_arb (floats_roundtrip strategy))

(* Lay a Floats object out in an arena, returning its guest address. *)
let floats_in_arena n =
  let a = Arena.create ~size:65536 () in
  let addr = Copier.copy_in Copier.Swizzle a (Value.Floats (Array.init n float_of_int)) in
  (a, addr)

let traps f =
  try
    ignore (f ());
    false
  with Arena.Sandbox_trap _ -> true

let floats_tests =
  [
    floats_property Copier.Swizzle;
    floats_property Copier.Serialize;
    test "edge payloads round-trip under both strategies" (fun () ->
        List.iter
          (fun fs ->
            check_bool "swizzle" true (floats_roundtrip Copier.Swizzle fs);
            check_bool "serialize" true (floats_roundtrip Copier.Serialize fs))
          [ [||]; specials; Array.init 10_000 (fun i -> float_of_int i /. 7.0) ]);
    test "equal is NaN-tolerant and shape-strict" (fun () ->
        check_bool "nan" true (Value.equal (Value.Floats specials) (Value.Floats specials));
        check_bool "empty" true (Value.equal (Value.Floats [||]) (Value.Floats [||]));
        check_bool "length" false
          (Value.equal (Value.Floats [| 1.0 |]) (Value.Floats [| 1.0; 2.0 |]));
        check_bool "element" false
          (Value.equal (Value.Floats [| 1.0 |]) (Value.Floats [| 2.0 |]));
        check_bool "floats<>vec" false
          (Value.equal (Value.Floats [| 1.0 |]) (Value.floats [ 1.0 ]));
        check_bool "no to_floats" true (Value.to_floats (Value.Floats [| 1.0 |]) = None));
    test "size_bytes counts one 8-byte word per element" (fun () ->
        check_int "empty" 8 (Value.size_bytes (Value.Floats [||]));
        check_int "3.4k pairs" (8 + (8 * 6800))
          (Value.size_bytes (Value.Floats (Array.make 6800 0.0))));
    test "a corrupted length traps before reading past the arena" (fun () ->
        let a, addr = floats_in_arena 4 in
        Arena.write_u32 a (addr + 4) 0xFFFFFFFF;
        check_bool "huge length" true (traps (fun () -> Copier.copy_out Copier.Swizzle a addr));
        let payload = Arena.read_u32 a (addr + 8) in
        Arena.write_u32 a (addr + 4) (((Arena.size a - payload) / 8) + 1);
        check_bool "one past the end" true
          (traps (fun () -> Copier.copy_out Copier.Swizzle a addr)));
    test "a corrupted pointer traps" (fun () ->
        let a, addr = floats_in_arena 4 in
        Arena.write_u32 a (addr + 8) (Arena.size a - 8);
        check_bool "tail" true (traps (fun () -> Copier.copy_out Copier.Swizzle a addr));
        Arena.write_u32 a (addr + 8) 0xFFFFFFF0;
        check_bool "wild" true (traps (fun () -> Copier.copy_out Copier.Swizzle a addr)));
    test "decode refuses a count the input cannot hold" (fun () ->
        check_bool "short" true (Result.is_error (Codec.decode "F3:0x1p+0;"));
        check_bool "huge" true (Result.is_error (Codec.decode "F99999999999999:"));
        check_bool "negative" true (Result.is_error (Codec.decode "F-1:"));
        check_bool "bad element" true (Result.is_error (Codec.decode "F1:zz;")));
    test "copier faults on a floats payload trap and quarantine the arena" (fun () ->
        let module F = Sesame_faults in
        List.iter
          (fun (point, action, strategy) ->
            let pool = Pool.create ~capacity:1 ~arena_size:65536 () in
            let config =
              Runtime.config ~mode:(Runtime.Pooled pool) ~strategy ~slowdown:1.0
                ~arena_size:65536 ()
            in
            let outcome =
              F.arm [ F.plan ~nth:0 point action ];
              Fun.protect ~finally:F.disarm (fun () ->
                  Runtime.run config ~input:(Value.Floats [| 1.0; 2.0; 3.0 |]) ~f:Fun.id)
            in
            let label =
              Printf.sprintf "%s × %s (%s)" (F.point_name point) (F.action_name action)
                (Copier.strategy_name strategy)
            in
            check_bool (label ^ " trapped") true
              (match outcome.Runtime.status with Runtime.Trapped _ -> true | Runtime.Ok _ -> false);
            check_int (label ^ " quarantined") 1 (Pool.stats pool).Pool.poisoned)
          [
            (F.Copier_encode, F.Raise, Copier.Swizzle);
            (F.Copier_decode, F.Raise, Copier.Swizzle);
            (F.Copier_encode, F.Raise, Copier.Serialize);
            (F.Copier_decode, F.Raise, Copier.Serialize);
            (F.Copier_encode, F.Corrupt, Copier.Serialize);
            (F.Copier_decode, F.Corrupt, Copier.Serialize);
          ]);
  ]

let () =
  Alcotest.run "sandbox"
    [
      ("value", value_tests);
      ("codec", codec_tests);
      ("arena", arena_tests);
      ("copier", copier_tests);
      ("pool", pool_tests);
      ("runtime", runtime_tests);
      ("floats", floats_tests);
    ]
