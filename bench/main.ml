(* The experiment harness: one experiment per table/figure in the paper's
   evaluation (§10). Run all with `dune exec bench/main.exe`, or name
   experiments: `dune exec bench/main.exe -- fig8 fig9a`. EXPERIMENTS.md
   records paper-vs-measured for each. *)

module C = Sesame_core
module Db = Sesame_db
module Http = Sesame_http
module Scrut = Sesame_scrutinizer
module Sbx = Sesame_sandbox
module Sign = Sesame_signing
module Apps = Sesame_apps
module Corpus = Sesame_corpus
open Bench_util

let req ?(cookies = "user=admin@school.edu") ?(body = "") meth target =
  Http.Request.make
    ~headers:
      (Http.Headers.of_list
         [ ("Cookie", cookies); ("Content-Type", "application/x-www-form-urlencoded") ])
    ~body meth target

let expect_status label response expected =
  let got = Http.Status.to_int response.Http.Response.status in
  if got <> expected then
    Printf.printf "!! %s returned %d (expected %d): %s\n" label got expected
      response.Http.Response.body

(* ------------------------------------------------------------------ *)
(* Fig. 5: policy code size per application. *)

let count_file_loc path =
  if Sys.file_exists path then
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         let trimmed = String.trim line in
         if trimmed <> "" && not (String.length trimmed >= 2 && String.sub trimmed 0 2 = "(*")
         then incr n
       done
     with End_of_file -> close_in ic);
    !n
  else 0

let app_loc_files =
  [
    ("youchat", [ "lib/apps/youchat.ml" ]);
    ("voltron", [ "lib/apps/voltron.ml" ]);
    ("portfolio", [ "lib/apps/portfolio.ml"; "lib/apps/crypto.ml" ]);
    ("websubmit", [ "lib/apps/websubmit.ml"; "lib/apps/websubmit_schema.ml" ]);
  ]

let app_loc app =
  match List.assoc_opt app app_loc_files with
  | Some files -> List.fold_left (fun acc f -> acc + count_file_loc f) 0 files
  | None -> 0

let fig5 () =
  header "Fig. 5: policy code size scales with policy complexity, not app size";
  Printf.printf "%-12s %8s %8s %12s %10s\n" "App" "Policies" "App LoC" "Policy LoC" "CHECK LoC";
  let print_app name inventory =
    let policies = List.length inventory in
    let policy_loc = List.fold_left (fun acc (_, p, _) -> acc + p) 0 inventory in
    let check_loc = List.fold_left (fun acc (_, _, c) -> acc + c) 0 inventory in
    Printf.printf "%-12s %8d %8d %12d %10d\n" name policies (app_loc name) policy_loc check_loc
  in
  print_app "youchat" Apps.Youchat.policy_inventory;
  print_app "voltron" Apps.Voltron.policy_inventory;
  print_app "portfolio" Apps.Portfolio.policy_inventory;
  print_app "websubmit" Apps.Websubmit.policy_inventory

(* ------------------------------------------------------------------ *)
(* Fig. 6 and Fig. 7: region counts/sizes and critical-region review
   burden, generated from the live region registry. *)

let instantiate_apps () =
  C.Registry.reset ();
  (match Apps.Websubmit.create () with Ok _ -> () | Error m -> failwith m);
  (match Apps.Youchat.create () with Ok _ -> () | Error m -> failwith m);
  (match Apps.Voltron.create () with Ok _ -> () | Error m -> failwith m);
  (match Apps.Portfolio.create () with Ok _ -> () | Error m -> failwith m)

let fig6 () =
  header "Fig. 6: counts and sizes of privacy regions per application";
  instantiate_apps ();
  Printf.printf "%-12s %-6s %8s %14s %10s\n" "App" "Region" "Count" "Total % of app" "Size (LoC)";
  List.iter
    (fun app ->
      let total = app_loc app in
      List.iter
        (fun kind ->
          let count = C.Registry.count ~app kind in
          if count > 0 then begin
            let entries =
              List.filter
                (fun (e : C.Registry.entry) -> e.kind = kind)
                (C.Registry.entries ~app ())
            in
            let loc_sum = List.fold_left (fun acc (e : C.Registry.entry) -> acc + e.loc) 0 entries in
            let lo, hi =
              match C.Registry.loc_range ~app kind with Some r -> r | None -> (0, 0)
            in
            Printf.printf "%-12s %-6s %8d %13.1f%% %7d-%d\n" app
              (C.Registry.kind_name kind) count
              (100.0 *. float_of_int loc_sum /. float_of_int (max 1 total))
              lo hi
          end)
        [ C.Registry.Verified; C.Registry.Sandboxed; C.Registry.Critical ])
    [ "youchat"; "voltron"; "portfolio"; "websubmit" ]

let fig7 () =
  header "Fig. 7: critical-region count and review burden";
  instantiate_apps ();
  Printf.printf "%-12s %8s %8s %10s %12s\n" "App" "LoC" "# CRs" "Burden %" "Avg burden";
  List.iter
    (fun app ->
      let total = app_loc app in
      let crs = C.Registry.count ~app C.Registry.Critical in
      let burden = C.Registry.review_burden ~app in
      if crs = 0 then Printf.printf "%-12s %8d %8d %10s %12s\n" app total 0 "-" "-"
      else
        Printf.printf "%-12s %8d %8d %9.1f%% %8.1f LoC\n" app total crs
          (100.0 *. float_of_int burden /. float_of_int (max 1 total))
          (float_of_int burden /. float_of_int crs))
    [ "youchat"; "voltron"; "portfolio"; "websubmit" ]

(* ------------------------------------------------------------------ *)
(* Fig. 8: WebSubmit endpoint latency, baseline vs Sesame. *)

let fig8_samples = 15

let fig8 () =
  header "Fig. 8: WebSubmit end-to-end endpoint latency (100 students x 100 questions)";
  let sesame =
    match Apps.Websubmit.create () with Ok t -> t | Error m -> failwith m
  in
  (match Apps.Websubmit.seed sesame ~students:100 ~questions:100 with
  | Ok () -> ()
  | Error m -> failwith m);
  let baseline =
    match Apps.Websubmit_baseline.create () with
    | Ok t -> t
    | Error m -> failwith m
  in
  (match Apps.Websubmit_baseline.seed baseline ~students:100 ~questions:100 with
  | Ok () -> ()
  | Error m -> failwith m);
  (* Both sides pay a modeled 1 ms DB round trip per statement from here
     on, standing in for the paper's MySQL testbed (seeding is free). *)
  Db.Database.set_query_cost_ns (Apps.Websubmit.database sesame) 1_000_000;
  Db.Database.set_query_cost_ns (Apps.Websubmit_baseline.database baseline) 1_000_000;
  (* Prime the model for the predict endpoints. *)
  expect_status "retrain (sesame)"
    (Apps.Websubmit.retrain_model sesame (req ~body:"" Http.Meth.POST "/retrain"))
    200;
  expect_status "retrain (baseline)"
    (Apps.Websubmit_baseline.retrain_model baseline (req Http.Meth.POST "/retrain"))
    200;
  let fresh_email =
    let counter = ref 0 in
    fun prefix ->
      incr counter;
      Printf.sprintf "%s%d@new.edu" prefix !counter
  in
  let dispatch_ws handler target ?body meth () =
    let r = handler sesame (req ?body meth target) in
    if Http.Status.to_int r.Http.Response.status >= 400 then
      failwith ("sesame endpoint failed: " ^ r.Http.Response.body)
  in
  ignore dispatch_ws;
  let endpoints =
    [
      ( "Get Aggregates",
        (fun () -> Apps.Websubmit.get_aggregates sesame (req Http.Meth.GET "/aggregates")),
        fun () -> Apps.Websubmit_baseline.get_aggregates baseline (req Http.Meth.GET "/aggregates") );
      ( "Get Employer Info",
        (fun () -> Apps.Websubmit.get_employer_info sesame (req Http.Meth.GET "/employer")),
        fun () -> Apps.Websubmit_baseline.get_employer_info baseline (req Http.Meth.GET "/employer") );
      ( "Predict Grades",
        (fun () -> Apps.Websubmit.predict_grades sesame (req Http.Meth.GET "/predict/7")),
        fun () -> Apps.Websubmit_baseline.predict_grades baseline (req Http.Meth.GET "/predict/7") );
      ( "Register Users",
        (fun () ->
          Apps.Websubmit.register_user sesame
            (req ~cookies:""
               ~body:
                 (Printf.sprintf "email=%s&apikey=k&consent=true" (fresh_email "s"))
               Http.Meth.POST "/register")),
        fun () ->
          Apps.Websubmit_baseline.register_user baseline
            (req ~cookies:""
               ~body:(Printf.sprintf "email=%s&apikey=k&consent=true" (fresh_email "b"))
               Http.Meth.POST "/register") );
      ( "Retrain Model",
        (fun () -> Apps.Websubmit.retrain_model sesame (req Http.Meth.POST "/retrain")),
        fun () -> Apps.Websubmit_baseline.retrain_model baseline (req Http.Meth.POST "/retrain") );
    ]
  in
  (* The first request per endpoint is cold (allocator and plan
     certificates unprimed; both sides declare their secondary indexes
     at creation, so none is built mid-run); folding it into the median
     misreported steady state, so it is timed apart and the table
     reports warm median + p99. *)
  Printf.printf "%-20s %12s %12s %12s %12s %12s %10s\n" "Endpoint" "base med"
    "sesame cold" "sesame med" "sesame p99" "base p99" "overhead";
  let saved_elide = C.Enforce.elision () in
  let saved_push = C.Enforce.pushdown_enabled () in
  let rows =
    List.map
      (fun (name, with_sesame, without) ->
        let (base_cold, base), (ses_cold, ses) =
          sample_cold_pair ~n:fig8_samples
            (fun () -> ignore (without ()))
            (fun () -> ignore (with_sesame ()))
        in
        (* One steady-state request under fresh counters: how many checks
           the plan discharged, and whether the endpoint ran without a
           single residual policy evaluation. *)
        C.Enforce.reset_stats ();
        ignore (with_sesame ());
        let st = C.Enforce.stats () in
        (* [misses] counts every check that ran. *)
        let fully_elided = st.C.Enforce.elisions > 0 && st.C.Enforce.misses = 0 in
        (* Ablation: the same warm endpoint with elision and pushdown off
           (the PR 5 configuration) — what the certificates buy. *)
        C.Enforce.set_elision false;
        C.Enforce.set_pushdown false;
        let noelide = sample ~n:fig8_samples (fun () -> ignore (with_sesame ())) in
        C.Enforce.set_elision saved_elide;
        C.Enforce.set_pushdown saved_push;
        let overhead = 100.0 *. ((median ses /. median base) -. 1.0) in
        let noelide_overhead = 100.0 *. ((median noelide /. median base) -. 1.0) in
        Printf.printf "%-20s %9.0f us %9.0f us %9.0f us %9.0f us %9.0f us %+9.1f%%\n" name
          (us (median base)) (us ses_cold) (us (median ses)) (us (p99 ses))
          (us (p99 base)) overhead;
        Json.Obj
          [
            ("endpoint", Json.Str name);
            ("base_cold_us", Json.Num (us base_cold));
            ("base_warm_median_us", Json.Num (us (median base)));
            ("base_p99_us", Json.Num (us (p99 base)));
            ("sesame_cold_us", Json.Num (us ses_cold));
            ("sesame_warm_median_us", Json.Num (us (median ses)));
            ("sesame_p99_us", Json.Num (us (p99 ses)));
            ("overhead_pct", Json.Num overhead);
            ("noelide_warm_median_us", Json.Num (us (median noelide)));
            ("noelide_overhead_pct", Json.Num noelide_overhead);
            ("elisions_per_request", Json.Int st.C.Enforce.elisions);
            ("pushdowns_per_request", Json.Int st.C.Enforce.pushdowns);
            ("fully_elided", Json.Bool fully_elided);
          ])
      endpoints
  in
  Printf.printf "\nElision ablation (warm medians, elide+pushdown off vs on):\n";
  List.iter
    (function
      | Json.Obj fields ->
          let str k = match List.assoc k fields with Json.Str s -> s | _ -> "" in
          let num k = match List.assoc k fields with Json.Num f -> f | _ -> 0.0 in
          let int k = match List.assoc k fields with Json.Int i -> i | _ -> 0 in
          let flag k =
            match List.assoc k fields with Json.Bool b -> b | _ -> false
          in
          Printf.printf
            "%-20s noelide %9.0f us (%+6.1f%%)  elide %9.0f us (%+6.1f%%)  \
             elisions/req %d  pushdowns/req %d%s\n"
            (str "endpoint")
            (num "noelide_warm_median_us")
            (num "noelide_overhead_pct")
            (num "sesame_warm_median_us")
            (num "overhead_pct") (int "elisions_per_request")
            (int "pushdowns_per_request")
            (if flag "fully_elided" then "  [fully elided]" else "")
      | _ -> ())
    rows;
  Json.to_file "BENCH_fig8.json"
    (Json.Obj
       [
         ("experiment", Json.Str "fig8");
         ("students", Json.Int 100);
         ("questions", Json.Int 100);
         ("db_round_trip_us", Json.Int 1000);
         ("samples", Json.Int fig8_samples);
         ("endpoints", Json.List rows);
       ]);
  Printf.printf "\nBechamel (OLS ns/run):\n";
  run_bechamel
    [
      Bechamel.Test.make ~name:"fig8/get-aggregates-sesame"
        (Bechamel.Staged.stage (fun () ->
             Sys.opaque_identity
               (Apps.Websubmit.get_aggregates sesame (req Http.Meth.GET "/aggregates"))));
      Bechamel.Test.make ~name:"fig8/get-aggregates-baseline"
        (Bechamel.Staged.stage (fun () ->
             Sys.opaque_identity
               (Apps.Websubmit_baseline.get_aggregates baseline
                  (req Http.Meth.GET "/aggregates"))));
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 9a: sandbox reuse optimizations (hashing region). *)

let breakdown label timings_list =
  let field f = median (Array.of_list (List.map f timings_list)) in
  let open Sbx.Runtime in
  Printf.printf "%-18s %10.1f %10.1f %10.1f %10.1f %10.1f %12.1f\n" label
    (us (field (fun t -> t.setup_s)))
    (us (field (fun t -> t.copy_in_s)))
    (us (field (fun t -> t.exec_s)))
    (us (field (fun t -> t.copy_out_s)))
    (us (field (fun t -> t.teardown_s)))
    (us (field total_s))

let fig9a () =
  header "Fig. 9a: sandbox reuse optimizations (API-key hashing region)";
  let app = match Apps.Websubmit.create () with Ok t -> t | Error m -> failwith m in
  let region = Apps.Websubmit.sandbox_hash_region app in
  let key = C.Mock.pcon "the-users-api-key-0123456789" in
  let n = 25 in
  let hash_direct () =
    ignore (Sys.opaque_identity (Sesame_ml.Apikey.hash ~iterations:32 ~salt:"s" "the-users-api-key-0123456789"))
  in
  let baseline = sample ~n hash_direct in
  Printf.printf "baseline (no sandbox): median %.1f us\n\n" (us (median baseline));
  Printf.printf "%-18s %10s %10s %10s %10s %10s %12s\n" "mode" "setup" "copy-in" "exec"
    "copy-out" "teardown" "total (us)";
  let run_mode label mode =
    let config = Sbx.Runtime.config ~mode ~strategy:Sbx.Copier.Swizzle () in
    let region' =
      (* Rebuild the region with this lifecycle mode. *)
      ignore region;
      C.Region.Sandboxed.make ~app:"bench" ~name:("fig9a::" ^ label) ~config ~loc:4
        ~encode:(fun k -> Sbx.Value.Str k)
        ~decode:(function Sbx.Value.Str s -> Ok s | _ -> Error "expected Str")
        ~f:(function
          | Sbx.Value.Str k -> Sbx.Value.Str (Sesame_ml.Apikey.hash ~iterations:32 ~salt:"s" k)
          | v -> v)
        ()
    in
    let timings = ref [] in
    for _ = 1 to n do
      match C.Region.Sandboxed.run region' key with
      | Ok _ -> timings := Option.get (C.Region.Sandboxed.last_timings region') :: !timings
      | Error e -> failwith (C.Region.error_to_string e)
    done;
    breakdown label !timings
  in
  run_mode "naive" Sbx.Runtime.Naive;
  run_mode "pooled+wipe" (Sbx.Runtime.Pooled (Sbx.Pool.create ()));
  Printf.printf "\nBechamel (OLS ns/run):\n";
  let pooled_config = Sbx.Runtime.config () in
  let pooled_region =
    C.Region.Sandboxed.make ~app:"bench" ~name:"fig9a::bechamel" ~config:pooled_config ~loc:4
      ~encode:(fun k -> Sbx.Value.Str k)
      ~decode:(function Sbx.Value.Str s -> Ok s | _ -> Error "expected Str")
      ~f:(function
        | Sbx.Value.Str k -> Sbx.Value.Str (Sesame_ml.Apikey.hash ~iterations:32 ~salt:"s" k)
        | v -> v)
      ()
  in
  run_bechamel
    [
      Bechamel.Test.make ~name:"fig9a/pooled-sandbox-hash"
        (Bechamel.Staged.stage (fun () ->
             Sys.opaque_identity (C.Region.Sandboxed.run pooled_region key)));
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 9b: copy optimizations (ML training region). Three payload
   layouts for the same 4000 points: [serialize] renders a Vec of
   (x, y) Tuples through the text codec; [swizzle-copy] deep-copies that
   boxed structure, one guest object per float; [flat-f64] runs
   WebSubmit's own Retrain region, which interleaves the points into
   one contiguous f64 run. *)

let fig9b () =
  header "Fig. 9b: sandbox copy optimizations (ML training over 4000 rows)";
  let points = List.init 4000 (fun i -> (float_of_int (i mod 100), 40.0 +. float_of_int (i mod 61))) in
  let pcons = List.map (fun p -> C.Mock.pcon p) points in
  let train_value = function
    | Sbx.Value.Vec elems ->
        let pts =
          List.filter_map
            (function
              | Sbx.Value.Tuple [ Sbx.Value.Float x; Sbx.Value.Float y ] -> Some (x, y)
              | _ -> None)
            elems
        in
        (match Sesame_ml.Linreg.train_simple pts with
        | Ok m -> Sbx.Value.floats [ m.Sesame_ml.Linreg.weights.(0); m.intercept ]
        | Error _ -> Sbx.Value.floats [ 0.0; 0.0 ])
    | v -> v
  in
  let baseline () =
    ignore (Sys.opaque_identity (Sesame_ml.Linreg.train_simple points))
  in
  let base = sample ~n:9 baseline in
  Printf.printf "baseline (no sandbox): median %.2f ms\n\n" (ms (median base));
  Printf.printf "%-18s %10s %10s %10s %10s %10s %12s\n" "strategy" "setup" "copy-in" "exec"
    "copy-out" "teardown" "total (ms)";
  let decode v = match Sbx.Value.to_floats v with Some fs -> Ok fs | None -> Error "bad shape" in
  let config strategy =
    Sbx.Runtime.config ~mode:(Sbx.Runtime.Pooled (Sbx.Pool.create ())) ~strategy ()
  in
  let report label region run =
    let timings = ref [] in
    for _ = 1 to 9 do
      match run () with
      | Ok _ -> timings := Option.get (C.Region.Sandboxed.last_timings region) :: !timings
      | Error e -> failwith (C.Region.error_to_string e)
    done;
    let field f = median (Array.of_list (List.map f !timings)) in
    let open Sbx.Runtime in
    Printf.printf "%-18s %10.2f %10.2f %10.2f %10.2f %10.2f %12.2f\n" label
      (ms (field (fun t -> t.setup_s)))
      (ms (field (fun t -> t.copy_in_s)))
      (ms (field (fun t -> t.exec_s)))
      (ms (field (fun t -> t.copy_out_s)))
      (ms (field (fun t -> t.teardown_s)))
      (ms (field total_s));
    field (fun t -> t.copy_in_s +. t.copy_out_s)
  in
  let run_boxed label strategy =
    let region =
      C.Region.Sandboxed.make ~app:"bench" ~name:("fig9b::" ^ label) ~config:(config strategy)
        ~loc:19
        ~encode:(fun (x, y) -> Sbx.Value.Tuple [ Sbx.Value.Float x; Sbx.Value.Float y ])
        ~decode ~f:train_value ()
    in
    report label region (fun () -> C.Region.Sandboxed.run_list region pcons)
  in
  let serialize_copy = run_boxed "serialize" Sbx.Copier.Serialize in
  let swizzle_copy = run_boxed "swizzle-copy" Sbx.Copier.Swizzle in
  let flat_copy =
    let app = match Apps.Websubmit.create () with Ok t -> t | Error m -> failwith m in
    let region = Apps.Websubmit.sandbox_train_region app in
    let folded = C.Fold.out_list pcons in
    report "flat-f64" region (fun () -> C.Region.Sandboxed.run region folded)
  in
  Printf.printf "\ncopy-time reduction (serialize/swizzle): %.1fx\n"
    (serialize_copy /. swizzle_copy);
  Printf.printf "copy-time reduction (serialize/flat-f64): %.1fx\n"
    (serialize_copy /. flat_copy);
  Printf.printf "\nBechamel (OLS ns/run):\n";
  run_bechamel
    [
      Bechamel.Test.make ~name:"fig9b/serialize-encode-decode"
        (Bechamel.Staged.stage (fun () ->
             let v =
               Sbx.Value.Vec
                 (List.map
                    (fun (x, y) -> Sbx.Value.Tuple [ Sbx.Value.Float x; Sbx.Value.Float y ])
                    points)
             in
             Sys.opaque_identity (Sbx.Codec.decode (Sbx.Codec.encode v))));
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 9c: policy composition vs repeated checks. *)

let fig9c () =
  header "Fig. 9c: policy composition (staff answers view; DB round-trip 50us)";
  (* The DB cost knob models the round trip that each discussion-leader
     lookup pays. *)
  let query_cost_ns = 50_000 in
  let app =
    match Apps.Websubmit.create ~query_cost_ns () with Ok t -> t | Error m -> failwith m
  in
  (match Apps.Websubmit.seed app ~students:50 ~questions:2 with
  | Ok () -> ()
  | Error m -> failwith m);
  let baseline =
    match Apps.Websubmit_baseline.create ~query_cost_ns () with
    | Ok t -> t
    | Error m -> failwith m
  in
  (match Apps.Websubmit_baseline.seed baseline ~students:50 ~questions:2 with
  | Ok () -> ()
  | Error m -> failwith m);
  let n = 11 in
  let base =
    sample ~n (fun () ->
        ignore (Apps.Websubmit_baseline.view_answers baseline (req Http.Meth.GET "/answers/1")))
  in
  Printf.printf "policy-free baseline: median %.2f ms\n\n" (ms (median base));
  Printf.printf "%-34s %12s %12s %10s\n" "variant" "median" "p95" "vs base";
  let variant label cookies compose =
    let run () =
      let r =
        Apps.Websubmit.view_answers app ~compose
          (req ~cookies (Http.Meth.GET) "/answers/1")
      in
      expect_status label r 200
    in
    let samples = sample ~n run in
    Printf.printf "%-34s %9.2f ms %9.2f ms %9.1fx\n" label (ms (median samples))
      (ms (p95 samples))
      (median samples /. median base)
  in
  variant "admin, no composition" "user=admin@school.edu" false;
  variant "admin, with composition" "user=admin@school.edu" true;
  variant "discussion leader, no comp." "user=leader@school.edu" false;
  variant "discussion leader, with comp." "user=leader@school.edu" true;
  Printf.printf "\nBechamel (OLS ns/run):\n";
  run_bechamel
    [
      Bechamel.Test.make ~name:"fig9c/leader-composed-view"
        (Bechamel.Staged.stage (fun () ->
             Sys.opaque_identity
               (Apps.Websubmit.view_answers app ~compose:true
                  (req ~cookies:"user=leader@school.edu" Http.Meth.GET "/answers/1"))));
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 10: Scrutinizer over the 98-region corpus. *)

let fig10 ?(scale = Corpus.App_corpus.Full) () =
  header "Fig. 10: Scrutinizer on the four applications' privacy regions";
  let program = Corpus.App_corpus.program scale in
  let cases = Corpus.App_corpus.cases () in
  let cache = Scrut.Analysis.Summary_cache.create () in
  Printf.printf "%-12s %10s %10s %10s %12s %10s %8s\n" "App" "leak-free" "accepted"
    "leaking" "rejected" "functions" "time";
  List.iter
    (fun app ->
      let mine = List.filter (fun (c : Corpus.App_corpus.case) -> c.app = app) cases in
      let t0 = Sesame_clock.now_s () in
      let verdicts =
        List.map
          (fun (c : Corpus.App_corpus.case) ->
            (c, Scrut.Analysis.check ~cache program c.spec))
          mine
      in
      let elapsed = Sesame_clock.now_s () -. t0 in
      let leak_free, leaking =
        List.partition
          (fun ((c : Corpus.App_corpus.case), _) ->
            c.expectation = Corpus.App_corpus.Leak_free)
          verdicts
      in
      let accepted =
        List.length (List.filter (fun (_, v) -> v.Scrut.Analysis.accepted) leak_free)
      in
      let rejected_leaking =
        List.length
          (List.filter (fun (_, v) -> not v.Scrut.Analysis.accepted) leaking)
      in
      let functions =
        List.fold_left
          (fun acc (_, v) -> acc + v.Scrut.Analysis.stats.functions_analyzed)
          0 verdicts
      in
      Printf.printf "%-12s %10d %10d %10d %12s %10d %7.2fs\n" app (List.length leak_free)
        accepted (List.length leaking)
        (Printf.sprintf "%d/%d" rejected_leaking (List.length leaking))
        functions elapsed)
    Corpus.App_corpus.apps;
  Printf.printf "(all leaking regions must be rejected; accepted counts mirror Fig. 10)\n";
  (* Summary-cache ablation: the first pass above filled the cache; a second
     pass over the whole corpus should hit for every repeated calling
     context and run measurably faster. *)
  let time_pass ~cache =
    let t0 = Sesame_clock.now_s () in
    List.iter
      (fun (c : Corpus.App_corpus.case) ->
        ignore (Scrut.Analysis.check ?cache program c.spec))
      cases;
    Sesame_clock.now_s () -. t0
  in
  let cold = time_pass ~cache:None in
  let h0 = Scrut.Analysis.Summary_cache.hits cache in
  let m0 = Scrut.Analysis.Summary_cache.misses cache in
  let warm = time_pass ~cache:(Some cache) in
  let wh = Scrut.Analysis.Summary_cache.hits cache - h0 in
  let wm = Scrut.Analysis.Summary_cache.misses cache - m0 in
  (* A hit prunes the callee's whole subtree (its children are never even
     requested), so hit counts stay small while the saved work is large:
     the warm-pass rate over the lookups actually issued is the honest
     number. *)
  Printf.printf
    "summary cache: %d entries; warm-pass hit rate %.1f%% (%d hits / %d misses)\n"
    (Scrut.Analysis.Summary_cache.entries cache)
    (if wh + wm = 0 then 0.0 else 100.0 *. float_of_int wh /. float_of_int (wh + wm))
    wh wm;
  Printf.printf "corpus pass without cache: %7.2fms, with warm cache: %7.2fms (%.1fx)\n"
    (cold *. 1e3) (warm *. 1e3)
    (if warm > 0.0 then cold /. warm else infinity)

(* ------------------------------------------------------------------ *)
(* §10.3 stdlib study. *)

let stdlib_study () =
  header "Std-collection methods under Scrutinizer (§10.3)";
  let program = Corpus.Stdlib_corpus.program () in
  let cases = Corpus.Stdlib_corpus.cases () in
  let verdict (c : Corpus.Stdlib_corpus.case) = Scrut.Analysis.check program c.spec in
  let leak_free = List.filter (fun (c : Corpus.Stdlib_corpus.case) -> c.leak_free) cases in
  let leaking = List.filter (fun (c : Corpus.Stdlib_corpus.case) -> not c.leak_free) cases in
  let accepted =
    List.filter (fun c -> (verdict c).Scrut.Analysis.accepted) leak_free
  in
  let rejected_leaking =
    List.filter (fun c -> not (verdict c).Scrut.Analysis.accepted) leaking
  in
  Printf.printf "leakage-free methods: %d, accepted: %d (false positives: %d)\n"
    (List.length leak_free) (List.length accepted)
    (List.length leak_free - List.length accepted);
  Printf.printf "leaking methods: %d, rejected: %d\n" (List.length leaking)
    (List.length rejected_leaking);
  List.iter
    (fun (c : Corpus.Stdlib_corpus.case) ->
      if c.leak_free && not (verdict c).Scrut.Analysis.accepted then
        Printf.printf "  false positive: %s\n" c.name)
    cases

(* ------------------------------------------------------------------ *)
(* Precision ablation: the place-sensitive domain vs the var-granular
   seed engine over the field-disjoint corpus. *)

let precision () =
  header "Precision ablation: place-sensitive domain vs the var-granular seed engine";
  let program = Corpus.Precision_corpus.program () in
  let cases = Corpus.Precision_corpus.cases () in
  let time f =
    let t0 = Sesame_clock.now_s () in
    let r = f () in
    (r, Sesame_clock.now_s () -. t0)
  in
  Printf.printf "%-30s %-34s %10s %10s\n" "Region" "Kind" "seed" "place";
  let flips = ref 0 and legacy_t = ref 0.0 and v2_t = ref 0.0 in
  List.iter
    (fun (c : Corpus.Precision_corpus.case) ->
      let legacy, lt = time (fun () -> Scrut.Legacy_analysis.check program c.spec) in
      let v, vt = time (fun () -> Scrut.Analysis.check program c.spec) in
      legacy_t := !legacy_t +. lt;
      v2_t := !v2_t +. vt;
      let show a = if a then "ACCEPT" else "reject" in
      if (not legacy.Scrut.Legacy_analysis.accepted) && v.Scrut.Analysis.accepted then
        incr flips;
      Printf.printf "%-30s %-34s %10s %10s\n" c.name
        (if c.flips then "leak-free, field-disjoint" else "control (" ^ c.description ^ ")"
         |> fun s -> if String.length s > 34 then String.sub s 0 31 ^ "..." else s)
        (show legacy.Scrut.Legacy_analysis.accepted)
        (show v.Scrut.Analysis.accepted))
    cases;
  let expected_flips, controls = Corpus.Precision_corpus.counts () in
  Printf.printf
    "\nfalse rejections removed: %d/%d (controls still rejected: %d); seed %.2fms, place-sensitive %.2fms (%.1fx)\n"
    !flips expected_flips controls (!legacy_t *. 1e3) (!v2_t *. 1e3)
    (if !legacy_t > 0.0 then !v2_t /. !legacy_t else infinity);
  (* Witness provenance: the place-sensitive engine explains each control
     rejection; print one end-to-end trace as the figure's exhibit. *)
  match
    List.find_opt (fun (c : Corpus.Precision_corpus.case) -> not c.flips) cases
  with
  | None -> ()
  | Some c ->
      let v = Scrut.Analysis.check program c.spec in
      List.iter
        (fun (r : Scrut.Analysis.rejection) ->
          Printf.printf "\nwitness for %s:\n" c.name;
          List.iter
            (fun s -> Printf.printf "  %s\n" (Scrut.Analysis.step_to_string s))
            r.Scrut.Analysis.trace)
        v.Scrut.Analysis.rejections

(* ------------------------------------------------------------------ *)
(* §5 micro-benchmark: PCon layout indirection. *)

let pcon_micro () =
  header "PCon layout micro-benchmark (section 5: obfuscated indirection)";
  let n = 100_000 in
  let ints = List.init n Fun.id in
  let plain = List.map (fun i -> C.Mock.pcon ~policy:C.Policy.no_policy i) ints in
  C.Pcon.set_default_storage C.Pcon.Plain;
  let plain = List.map (fun p -> C.Pcon.Internal.map Fun.id p) plain in
  C.Pcon.set_default_storage C.Pcon.Obfuscated;
  let obfuscated = List.map (fun p -> C.Pcon.Internal.map Fun.id p) plain in
  let raw = Array.of_list ints in
  let sum_pcons ps = List.fold_left (fun acc p -> acc + C.Pcon.Internal.unwrap p) 0 ps in
  let sum_raw () = Array.fold_left ( + ) 0 raw in
  let t_raw = sample ~n:21 (fun () -> ignore (Sys.opaque_identity (sum_raw ()))) in
  let t_plain = sample ~n:21 (fun () -> ignore (Sys.opaque_identity (sum_pcons plain))) in
  let t_obf = sample ~n:21 (fun () -> ignore (Sys.opaque_identity (sum_pcons obfuscated))) in
  Printf.printf "raw ints:           %10.1f us\n" (us (median t_raw));
  Printf.printf "plain PCons:        %10.1f us (%.2fx raw)\n" (us (median t_plain))
    (median t_plain /. median t_raw);
  Printf.printf "obfuscated PCons:   %10.1f us (%.2fx raw; paper reports 1.7-2.1x)\n"
    (us (median t_obf))
    (median t_obf /. median t_raw);
  Printf.printf "\nBechamel (OLS ns/run):\n";
  run_bechamel
    [
      Bechamel.Test.make ~name:"pcon-micro/obfuscated-sum"
        (Bechamel.Staged.stage (fun () -> Sys.opaque_identity (sum_pcons obfuscated)));
      Bechamel.Test.make ~name:"pcon-micro/plain-sum"
        (Bechamel.Staged.stage (fun () -> Sys.opaque_identity (sum_pcons plain)));
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: the three shapes a conjunction of N policies can take —
   distinct instances (stacked), one shared instance repeated (dedup
   collapses it), and same-family joinable instances (join collapses
   them) — and what each costs to build and check. *)

module Viewer_family = struct
  type s = { who : string }

  let name = "bench::viewer"
  let check s ctx = C.Context.user ctx = Some s.who
  let join = None
  let no_folding = false
  let describe s = "Viewer(" ^ s.who ^ ")"
end

module Viewer = C.Policy.Make (Viewer_family)

module Cohort_family = struct
  type s = { members : int }

  let name = "bench::cohort"
  let check s _ = s.members > 0
  let join = Some (fun a b -> Some { members = min a.members b.members })
  let no_folding = false
  let describe s = Printf.sprintf "Cohort(%d)" s.members
end

module Cohort = C.Policy.Make (Cohort_family)

let conjoin_ablation () =
  header "Ablation: policy conjunction — stacking vs dedup vs join (N = 10000)";
  let n = 10_000 in
  let ctx = C.Mock.context ~user:"who0" () in
  let scenario label policies =
    let t0 = Sesame_clock.now_s () in
    let conj = C.Policy.conjoin_all policies in
    let t1 = Sesame_clock.now_s () in
    C.Policy.reset_check_count ();
    ignore (C.Policy.check conj ctx);
    let t2 = Sesame_clock.now_s () in
    Printf.printf "%-28s %6d leaves %8.0f us build %8.0f us check %8d leaf checks
"
      label
      (List.length (C.Policy.conjuncts conj))
      (us (t1 -. t0)) (us (t2 -. t1)) (C.Policy.check_count ())
  in
  (* Fresh instances with identical state: no dedup (ids differ), and the
     check passes every leaf so the full traversal cost is visible. *)
  scenario "distinct (stacked)" (List.init n (fun _ -> Viewer.make { who = "who0" }));
  let shared = Viewer.make { who = "who0" } in
  scenario "one instance repeated (dedup)" (List.init n (fun _ -> shared));
  scenario "same family (join)" (List.init n (fun i -> Cohort.make { members = i + 1 }))

(* ------------------------------------------------------------------ *)
(* Ablation: what elision and pushdown each buy on the enforcement hot
   path. Two workloads per mode: a wide conjunction of distinct
   moderately-expensive leaves (the Fold/Pcon_row shape) and the
   WebSubmit aggregates endpoint (the Fig. 8 shape). *)

module Audit_family = struct
  type s = { seed : int }

  let name = "bench::audit"

  (* A deterministic ~microsecond of work per leaf — enough that the
     full traversal shows. *)
  let check s ctx =
    let who = match C.Context.user ctx with Some u -> u | None -> "" in
    let acc = ref s.seed in
    for i = 0 to 127 do
      String.iter (fun c -> acc := (!acc * 31) + Char.code c + i) who
    done;
    !acc <> max_int

  let join = None
  let no_folding = false
  let describe s = Printf.sprintf "Audit(%d)" s.seed
end

module Audit = C.Policy.Make (Audit_family)

let parcheck () =
  header "Parcheck: elision and pushdown on the enforcement hot path";
  let n_policies = 10_000 in
  let ctx = C.Mock.context ~user:"who0" () in
  let conj =
    C.Policy.conjoin_all (List.init n_policies (fun i -> Audit.make { seed = i }))
  in
  (* Aggregates with no modeled DB round trip: what remains is exactly
     the enforcement + grouping work. *)
  let app = match Apps.Websubmit.create () with Ok t -> t | Error m -> failwith m in
  (match Apps.Websubmit.seed app ~students:100 ~questions:100 with
  | Ok () -> ()
  | Error m -> failwith m);
  let aggregates () =
    ignore
      (Sys.opaque_identity
         (Apps.Websubmit.get_aggregates app (req Http.Meth.GET "/aggregates")))
  in
  (* Retrain is the pushdown workload: its consent filter either runs as
     a post-hoc check per row (reference) or rides the indexed scan as a
     translated predicate. *)
  let retrain () =
    ignore
      (Sys.opaque_identity
         (Apps.Websubmit.retrain_model app (req Http.Meth.POST "/retrain")))
  in
  let saved_elide = C.Enforce.elision () in
  let saved_push = C.Enforce.pushdown_enabled () in
  Printf.printf "host cores: %d; %d leaves per conjunction\n\n"
    (Domain.recommended_domain_count ())
    n_policies;
  Printf.printf "%-22s %12s %12s %12s %12s %12s %8s %7s %7s\n" "mode" "conj cold"
    "conj warm" "agg cold" "agg warm" "retrain" "checks" "elide" "push";
  (* (label, elide, pushdown). The sequential mode keeps the plan
     disabled so its numbers stay comparable across runs; the other two
     ablate what the certificates and the translated scan predicates
     buy. The conjunction workload has no plan entries, so elision only
     moves the aggregates columns. *)
  let modes =
    [ ("sequential", false, false); ("elide", true, false); ("pushdown", false, true) ]
  in
  let rows =
    List.map
      (fun (label, elide, push) ->
        C.Enforce.set_elision elide;
        C.Enforce.set_pushdown push;
        C.Enforce.reset_stats ();
        let conj_cold, conj_warm =
          sample_cold ~n:9 (fun () ->
              ignore (Sys.opaque_identity (C.Enforce.check conj ctx)))
        in
        let agg_cold, agg_warm = sample_cold ~n:9 aggregates in
        let _, retrain_warm = sample_cold ~n:9 retrain in
        let st = C.Enforce.stats () in
        Printf.printf "%-22s %9.0f us %9.0f us %9.0f us %9.0f us %9.0f us %8d %7d %7d\n"
          label (us conj_cold)
          (us (median conj_warm))
          (us agg_cold)
          (us (median agg_warm))
          (us (median retrain_warm))
          st.C.Enforce.misses st.C.Enforce.elisions st.C.Enforce.pushdowns;
        Json.Obj
          [
            ("mode", Json.Str label);
            ("conj_cold_us", Json.Num (us conj_cold));
            ("conj_warm_median_us", Json.Num (us (median conj_warm)));
            ("conj_warm_p99_us", Json.Num (us (p99 conj_warm)));
            ("agg_cold_us", Json.Num (us agg_cold));
            ("agg_warm_median_us", Json.Num (us (median agg_warm)));
            ("agg_warm_p99_us", Json.Num (us (p99 agg_warm)));
            ("retrain_warm_median_us", Json.Num (us (median retrain_warm)));
            ("checks", Json.Int st.C.Enforce.misses);
            ("elisions", Json.Int st.C.Enforce.elisions);
            ("pushdowns", Json.Int st.C.Enforce.pushdowns);
          ])
      modes
  in
  C.Enforce.set_elision saved_elide;
  C.Enforce.set_pushdown saved_push;
  Json.to_file "BENCH_parcheck.json"
    (Json.Obj
       [
         ("experiment", Json.Str "parcheck");
         ("leaves", Json.Int n_policies);
         ("host_cores", Json.Int (Domain.recommended_domain_count ()));
         ("modes", Json.List rows);
       ])

(* ------------------------------------------------------------------ *)
(* Ablation: what the fault-injection seams cost. Disarmed (the
   production configuration) a hit is one load and branch; armed with a
   plan that never fires it also walks the plan list. Measured both as a
   micro-benchmark of the hook itself and end-to-end on a WebSubmit
   endpoint that crosses the DB, policy and render seams. *)

module F = Sesame_faults

let faults_ablation () =
  header "Ablation: fault-injection hook overhead (disarmed vs armed-not-firing)";
  let n = 1_000_000 in
  F.disarm ();
  let hits () =
    for _ = 1 to n do
      F.hit F.Db_query
    done
  in
  let baseline () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity ())
    done
  in
  let per_hit t = (median t -. 0.0) /. float_of_int n *. 1e9 in
  let t_base = sample ~n:11 baseline in
  let t_disarmed = sample ~n:11 hits in
  F.arm [ F.plan ~nth:max_int F.Db_query F.Raise ];
  let t_armed = sample ~n:11 hits in
  F.disarm ();
  Printf.printf "empty loop:          %10.1f us\n" (us (median t_base));
  Printf.printf "disarmed hit:        %10.1f us (%5.2f ns/hit)\n" (us (median t_disarmed))
    (per_hit t_disarmed);
  Printf.printf "armed, never fires:  %10.1f us (%5.2f ns/hit)\n" (us (median t_armed))
    (per_hit t_armed);
  let app = match Apps.Websubmit.create () with Ok a -> a | Error m -> failwith m in
  (match Apps.Websubmit.seed app ~students:10 ~questions:2 with
  | Ok () -> ()
  | Error m -> failwith m);
  let view () =
    expect_status "view"
      (Apps.Websubmit.handle app (req ~cookies:"user=student0@school.edu" Http.Meth.GET "/view/1"))
      200
  in
  F.disarm ();
  let t_view_off = sample ~n:31 view in
  F.arm [ F.plan ~nth:max_int F.Db_query F.Raise ];
  let t_view_on = sample ~n:31 view in
  F.disarm ();
  Printf.printf "GET /view, disarmed: %10.1f us\n" (us (median t_view_off));
  Printf.printf "GET /view, armed:    %10.1f us (%.3fx)\n" (us (median t_view_on))
    (median t_view_on /. median t_view_off);
  Printf.printf "\nBechamel (OLS ns/run):\n";
  run_bechamel
    [
      Bechamel.Test.make ~name:"faults/hit-disarmed"
        (Bechamel.Staged.stage (fun () -> Sys.opaque_identity (F.hit F.Db_query)));
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: what durability costs. The same insert workload runs
   against the bare in-memory engine and three durable configurations —
   write-behind (No_sync), strict (fsync per commit), and strict with
   periodic checkpoints — then each durable directory is reopened to
   price recovery itself (WAL replay vs checkpoint load). *)

module W = Sesame_wal

let wal_ablation () =
  header "Ablation: durable policy store — in-memory vs WAL vs WAL+checkpoint";
  let n = 300 in
  let schema =
    Db.Schema.make_exn ~name:"notes" ~primary_key:"id"
      [
        { Db.Schema.name = "id"; ty = Db.Value.Tint; nullable = false };
        { Db.Schema.name = "owner"; ty = Db.Value.Ttext; nullable = false };
        { Db.Schema.name = "note"; ty = Db.Value.Ttext; nullable = false };
      ]
  in
  let provenance ~table:_ ~column ~row:_ =
    [ { W.Provenance.ctor = "bench::owner"; param = column } ]
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let fresh_dir =
    let counter = ref 0 in
    fun () ->
      incr counter;
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "sesame-bench-wal-%d-%d" (Unix.getpid ()) !counter)
      in
      rm_rf dir;
      dir
  in
  let insert db i =
    match
      Db.Database.exec db "INSERT INTO notes VALUES (?, ?, ?)"
        ~params:
          [
            Db.Value.Int i;
            Db.Value.Text (Printf.sprintf "user%d@school.edu" (i mod 7));
            Db.Value.Text (Printf.sprintf "note %d with some payload text" i);
          ]
    with
    | Ok _ -> ()
    | Error m -> failwith m
  in
  let time_inserts db =
    let t0 = now () in
    for i = 1 to n do
      insert db i
    done;
    now () -. t0
  in
  Printf.printf "%d inserts, each journaling values + policy provenance:\n\n" n;
  Printf.printf "%-24s %10s %12s %10s %12s\n" "mode" "total" "per insert" "vs memory" "recovery";
  let baseline =
    let db = Db.Database.create () in
    (match Db.Database.create_table db schema with Ok () -> () | Error m -> failwith m);
    time_inserts db
  in
  Printf.printf "%-24s %7.1f ms %9.1f us %9s %12s\n" "in-memory" (ms baseline)
    (us (baseline /. float_of_int n))
    "1.0x" "-";
  let durable label config =
    W.Provenance.reset ();
    W.Provenance.register "bench::owner";
    let dir = fresh_dir () in
    let store =
      match W.Durable.open_store ~config ~provenance ~dir () with
      | Ok t -> t
      | Error e -> failwith (W.Durable.error_message e)
    in
    (match Db.Database.create_table (W.Durable.db store) schema with
    | Ok () -> ()
    | Error m -> failwith m);
    let elapsed = time_inserts (W.Durable.db store) in
    (match W.Durable.close store with Ok () -> () | Error m -> failwith m);
    let t0 = now () in
    let reopened =
      match W.Durable.open_store ~config ~provenance ~dir () with
      | Ok t -> t
      | Error e -> failwith (W.Durable.error_message e)
    in
    let recovery = now () -. t0 in
    let recovered =
      match Db.Database.table (W.Durable.db reopened) "notes" with
      | Some tbl -> Db.Table.length tbl
      | None -> 0
    in
    if recovered <> n then failwith (Printf.sprintf "%s: recovered %d/%d rows" label recovered n);
    (match W.Durable.close reopened with Ok () -> () | Error m -> failwith m);
    rm_rf dir;
    Printf.printf "%-24s %7.1f ms %9.1f us %8.1fx %9.1f ms\n" label (ms elapsed)
      (us (elapsed /. float_of_int n))
      (elapsed /. baseline)
      (ms recovery)
  in
  durable "wal, no sync"
    { W.Durable.sync = W.Durable.No_sync; checkpoint_every = None };
  durable "wal, fsync each commit"
    { W.Durable.sync = W.Durable.Fsync; checkpoint_every = None };
  durable "wal+checkpoint (64)"
    { W.Durable.sync = W.Durable.Fsync; checkpoint_every = Some 64 };
  Printf.printf
    "\n(recovery column: reopen cost — WAL replay for the first two, checkpoint\n\
    \ load + short-tail replay for the last)\n"

(* ------------------------------------------------------------------ *)
(* Serve: open-loop load curves over real sockets. All four applications
   mount under one Sesame_server behind a path-prefix mux, and
   Loadgen drives a mixed GET workload at several fixed target rates.
   Open-loop + scheduled-arrival latency means overload shows up as
   latency (queueing delay) instead of silently lowering the offered
   rate — see EXPERIMENTS.md for the methodology. *)

let serve_env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (try float_of_string (String.trim s) with Failure _ -> default)
  | None -> default

let serve_env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string (String.trim s) with Failure _ -> default)
  | None -> default

let serve_rates () =
  match Sys.getenv_opt "SERVE_RATES" with
  | Some s ->
      let rates =
        List.filter_map
          (fun part ->
            match float_of_string_opt (String.trim part) with
            | Some r when r > 0.0 -> Some r
            | _ -> None)
          (String.split_on_char ',' s)
      in
      if rates = [] then [ 200.0; 400.0; 800.0 ] else rates
  | None -> [ 200.0; 400.0; 800.0 ]

let serve () =
  header "Serve: open-loop load curves over real sockets (all four apps)";
  let domains = max 4 Sesame_server.default_config.Sesame_server.domains in
  let burst_max = serve_env_int "SERVE_BURST_MAX" 4 in
  (* SERVE_ATTEST_LOG=path: sign an attestation frame per region install
     and sandbox run. Installed before app creation so the approvals the
     verifier replays against land first. *)
  let recorder =
    match Sys.getenv_opt "SERVE_ATTEST_LOG" with
    | None | Some "" -> None
    | Some path -> (
        match Sign.Attest.create_recorder path with
        | Ok r ->
            Sign.Attest.install r;
            Some r
        | Error m -> failwith ("serve: attest log: " ^ m))
  in
  (* SERVE_QUOTA_OFFENDER=1 adds a register-hammering POST target and
     caps that region's cumulative runs, so quota exhaustion (503s on
     the offender, everyone else unaffected) shows up in the curves.
     Off by default: CI expects all-2xx rows. *)
  let offender = serve_env_int "SERVE_QUOTA_OFFENDER" 0 <> 0 in
  let quota_limits =
    if offender then
      Some (Sbx.Quota.limits ~max_runs:(serve_env_int "SERVE_QUOTA_MAX_RUNS" 100) ())
    else None
  in
  let hardening =
    match
      Apps.Websubmit.harden ~pool_capacity:domains
        ~max_pool_capacity:(domains + burst_max) ?quota_limits ()
    with
    | Ok h -> h
    | Error m -> failwith ("serve: " ^ m)
  in
  Printf.printf "sandbox %s\n" (Sbx.Preflight.summary hardening.Apps.Websubmit.preflight);
  let websubmit =
    match Apps.Websubmit.create ~hardening () with Ok t -> t | Error m -> failwith m
  in
  (match Apps.Websubmit.seed websubmit ~students:20 ~questions:5 with
  | Ok () -> ()
  | Error m -> failwith m);
  let youchat = match Apps.Youchat.create () with Ok t -> t | Error m -> failwith m in
  (match Apps.Youchat.seed youchat ~users:20 ~messages:200 with
  | Ok () -> ()
  | Error m -> failwith m);
  let voltron = match Apps.Voltron.create () with Ok t -> t | Error m -> failwith m in
  (match Apps.Voltron.seed voltron ~classes:2 ~students_per_class:4 with
  | Ok () -> ()
  | Error m -> failwith m);
  let portfolio = match Apps.Portfolio.create () with Ok t -> t | Error m -> failwith m in
  (match Apps.Portfolio.seed portfolio ~candidates:10 with
  | Ok () -> ()
  | Error m -> failwith m);
  (* Path-prefix mux: /<app>/<rest> dispatches <rest> to that app's own
     router. The request record is reused with the prefix stripped, so
     query strings, cookies and bodies pass through untouched. *)
  let split_prefix path =
    if String.length path < 2 || path.[0] <> '/' then None
    else
      match String.index_from_opt path 1 '/' with
      | Some i -> Some (String.sub path 1 (i - 1), String.sub path i (String.length path - i))
      | None -> Some (String.sub path 1 (String.length path - 1), "/")
  in
  let handler (request : Http.Request.t) =
    match split_prefix request.Http.Request.path with
    | Some (app, rest) -> (
        let sub = { request with Http.Request.path = rest } in
        match app with
        | "websubmit" -> Apps.Websubmit.handle websubmit sub
        | "youchat" -> Apps.Youchat.handle youchat sub
        | "voltron" -> Apps.Voltron.handle voltron sub
        | "portfolio" -> Apps.Portfolio.handle portfolio sub
        | _ -> Http.Response.error Http.Status.Not_found "no such app")
    | None -> Http.Response.error Http.Status.Not_found "no such app"
  in
  (* The mixed workload: authorized reads across all four apps. Voltron's
     buffer ids depend on seeding order, so probe in-process for one that
     the instructor can actually read. *)
  let probe_2xx t =
    let headers =
      Http.Headers.of_list
        (("Cookie", t.Loadgen.cookies)
        ::
        (if t.Loadgen.body = "" then []
         else [ ("Content-Type", "application/x-www-form-urlencoded") ]))
    in
    let r =
      handler
        (Http.Request.make ~headers ~body:t.Loadgen.body t.Loadgen.meth t.Loadgen.path)
    in
    let code = Http.Status.to_int r.Http.Response.status in
    code >= 200 && code < 300
  in
  let voltron_buffer =
    let candidates =
      List.concat_map
        (fun id ->
          List.map
            (fun cookie ->
              Loadgen.get ~cookies:cookie "voltron-buffer"
                (Printf.sprintf "/voltron/buffers/%d" id))
            [ "user=instructor0@university.edu"; "user=student0_0@university.edu" ])
        (List.init 40 (fun i -> i + 1))
    in
    List.find_opt probe_2xx candidates
  in
  let targets =
    [
      Loadgen.get ~cookies:"user=admin@school.edu" "websubmit-aggregates"
        "/websubmit/aggregates";
      Loadgen.get ~cookies:"user=admin@school.edu" "websubmit-answers" "/websubmit/answers/1";
      Loadgen.get ~cookies:"user=user0@chat.io" "youchat-inbox" "/youchat/inbox";
      Loadgen.get ~cookies:"user=user0@chat.io" "youchat-group" "/youchat/group/1";
      Loadgen.get ~cookies:"user=officer@school.cz" "portfolio-admin"
        "/portfolio/admin/candidates";
    ]
    @ (match voltron_buffer with Some t -> [ t ] | None -> [])
    @ (if offender then
         [
           (* Every request runs the register::hash_key sandboxed region,
              burning its cumulative quota. *)
           Loadgen.post ~cookies:"user=admin@school.edu"
             ~body:"email=load@school.edu&apikey=loadgen-key&consent=false" "websubmit-offender"
             "/websubmit/register";
         ]
       else [])
  in
  let live, dead = List.partition probe_2xx targets in
  List.iter
    (fun (t : Loadgen.target) -> Printf.printf "!! dropping target %s (%s): not 2xx in probe\n" t.Loadgen.label t.Loadgen.path)
    dead;
  if live = [] then failwith "serve: no live targets";
  (* In-process cost per target, for reading the load curve: a target
     whose handler takes h seconds saturates one domain at 1/h rps. *)
  List.iter
    (fun (t : Loadgen.target) ->
      let samples =
        sample ~warmup:2 ~n:5 (fun () -> ignore (Sys.opaque_identity (probe_2xx t)))
      in
      Printf.printf "  %-24s %8.2f ms in-process median\n" t.Loadgen.label
        (ms (median samples)))
    live;
  let apps_covered =
    List.sort_uniq compare
      (List.filter_map
         (fun (t : Loadgen.target) ->
           Option.map fst (split_prefix t.Loadgen.path))
         live)
  in
  Printf.printf "targets: %s\napps covered: %s\n"
    (String.concat ", " (List.map (fun (t : Loadgen.target) -> t.Loadgen.label) live))
    (String.concat ", " apps_covered);
  let config =
    {
      Sesame_server.default_config with
      Sesame_server.domains;
      max_connections = 512;
      autoscale =
        Some
          {
            Sesame_server.default_autoscale with
            Sesame_server.min_domains = domains;
            max_domains = domains + burst_max;
          };
    }
  in
  (* Scaling the worker set also scales the sandbox pool: one arena per
     handler worker keeps hardened sandbox acquisitions pool-hits. *)
  let sandbox_pool = hardening.Apps.Websubmit.sandbox_pool in
  let on_scale ~workers = ignore (Sbx.Pool.set_capacity sandbox_pool workers) in
  let server =
    match Sesame_server.start ~config ~on_error:(fun _ -> ()) ~on_scale ~handler () with
    | Ok t -> t
    | Error m -> failwith ("serve: " ^ m)
  in
  Fun.protect
    ~finally:(fun () ->
      Sesame_server.stop server;
      Option.iter
        (fun r ->
          Sign.Attest.uninstall ();
          Sign.Attest.close_recorder r)
        recorder)
    (fun () ->
      let port = Sesame_server.port server in
      let duration_s = serve_env_float "SERVE_DURATION_S" 3.0 in
      let warmup_s = min (serve_env_float "SERVE_WARMUP_S" 0.5) (duration_s /. 2.0) in
      (* The server dedicates one pool domain per live connection, so
         more keep-alive clients than domains would just queue behind
         the pool and measure the queue, not the server. *)
      let connections = serve_env_int "SERVE_CONNECTIONS" domains in
      let rates = serve_rates () in
      Printf.printf
        "\nserver: %d handler domains; %d client connections; %.1fs per rate (%.1fs warmup)\n\n"
        domains connections duration_s warmup_s;
      Printf.printf "%-12s %10s %10s %9s %9s %9s %9s %7s %7s %6s %6s %5s\n" "target rps"
        "achieved" "goodput" "p50" "p99" "p99.9" "max" "ok" "non2xx" "shed" "supp" "errs";
      let run_rate ?(targets = live) ~overload rate =
        let before = Sesame_server.stats server in
        let s = Loadgen.run ~connections ~warmup_s ~port ~rate ~duration_s targets in
        let after = Sesame_server.stats server in
        let shed = after.Sesame_server.shed - before.Sesame_server.shed in
        let mutations_shed =
          after.Sesame_server.mutations_shed - before.Sesame_server.mutations_shed
        in
        let scale_ups = after.Sesame_server.scale_ups - before.Sesame_server.scale_ups in
        let scale_downs =
          after.Sesame_server.scale_downs - before.Sesame_server.scale_downs
        in
        Printf.printf
          "%-12.0f %10.1f %10.1f %6.2fms %6.2fms %6.2fms %6.2fms %7d %7d %6d %6d %5d%s\n"
          s.Loadgen.target_rps s.Loadgen.achieved_rps s.Loadgen.goodput_rps s.Loadgen.p50_ms
          s.Loadgen.p99_ms s.Loadgen.p999_ms s.Loadgen.max_ms s.Loadgen.ok s.Loadgen.non_2xx
          s.Loadgen.shed_503 s.Loadgen.suppressed s.Loadgen.errors
          (if overload then "  (overload)" else "");
        ( s,
          Json.Obj
            [
              ("target_rps", Json.Num s.Loadgen.target_rps);
              ("overload", Json.Bool overload);
              ("achieved_rps", Json.Num s.Loadgen.achieved_rps);
              ("goodput_rps", Json.Num s.Loadgen.goodput_rps);
              ("p50_ms", Json.Num s.Loadgen.p50_ms);
              ("p99_ms", Json.Num s.Loadgen.p99_ms);
              ("p999_ms", Json.Num s.Loadgen.p999_ms);
              ("max_ms", Json.Num s.Loadgen.max_ms);
              ("completed", Json.Int s.Loadgen.completed);
              ("ok", Json.Int s.Loadgen.ok);
              ("non_2xx", Json.Int s.Loadgen.non_2xx);
              ("shed_503", Json.Int s.Loadgen.shed_503);
              ("suppressed", Json.Int s.Loadgen.suppressed);
              ("client_errors", Json.Int s.Loadgen.errors);
              ("shed", Json.Int shed);
              ("mutations_shed", Json.Int mutations_shed);
              ("scale_ups", Json.Int scale_ups);
              ("scale_downs", Json.Int scale_downs);
              ("burst_workers", Json.Int after.Sesame_server.burst_workers);
              ("measured_s", Json.Num s.Loadgen.measured_s);
            ] )
      in
      let base = List.map (run_rate ~overload:false) rates in
      (* Saturation is what the server actually absorbed at the highest
         offered rate; one extra row at 2x that shows the overload
         regime — bounded p99 for admitted requests and nonzero goodput
         while the excess is shed (or withheld honoring Retry-After),
         not queued into collapse. SERVE_OVERLOAD=0 skips it. *)
      let saturation_rps =
        List.fold_left (fun acc (s, _) -> Float.max acc s.Loadgen.achieved_rps) 0.0 base
      in
      let overload_rows =
        if serve_env_int "SERVE_OVERLOAD" 1 = 0 || saturation_rps <= 0.0 then []
        else [ run_rate ~overload:true (2.0 *. saturation_rps) ]
      in
      (* The mixed 90/10 row: the same read targets with one POST per
         ten requests (a youchat message send — a write to a table none
         of the read endpoints' policies depend on), over the same
         sockets. Loadgen cycles the target list, so 9 reads + 1 write
         per cycle. *)
      let mixed_rows =
        let send =
          Loadgen.post ~cookies:"user=user0@chat.io" ~body:"body=hello+from+loadgen"
            "youchat-send" "/youchat/send"
        in
        if serve_env_int "SERVE_MIXED" 1 = 0 then []
        else if not (probe_2xx send) then begin
          Printf.printf "!! dropping mixed row: youchat-send not 2xx in probe\n";
          []
        end
        else begin
          let reads = Array.of_list live in
          let targets =
            List.init 9 (fun i -> reads.(i mod Array.length reads)) @ [ send ]
          in
          Printf.printf "mixed 90/10 (9 reads : 1 youchat-send write per cycle):\n";
          let s, row = run_rate ~targets ~overload:false (List.hd rates) in
          ignore s;
          [ (match row with Json.Obj fields -> Json.Obj (("mix", Json.Str "90/10") :: fields) | j -> j) ]
        end
      in
      let rows = List.map snd (base @ overload_rows) @ mixed_rows in
      let final = Sesame_server.stats server in
      let pool = Sbx.Pool.stats sandbox_pool in
      let pool_min, pool_max = Sbx.Pool.bounds sandbox_pool in
      let quota_totals = Sbx.Quota.totals hardening.Apps.Websubmit.quota in
      Printf.printf
        "\nsandbox pool: capacity %d (bounds %d..%d), free %d, poisoned %d, replaced %d, \
         grown %d, shrunk %d\n"
        pool.Sbx.Pool.capacity pool_min pool_max pool.Sbx.Pool.free pool.Sbx.Pool.poisoned
        pool.Sbx.Pool.replaced pool.Sbx.Pool.grown pool.Sbx.Pool.shrunk;
      Printf.printf "quota totals: %s\n" (Sbx.Quota.describe_counters quota_totals);
      List.iter
        (fun (key, c) ->
          Printf.printf "  region %s: %s\n" (String.sub key 0 (min 12 (String.length key)))
            (Sbx.Quota.describe_counters c))
        (Sbx.Quota.snapshot hardening.Apps.Websubmit.quota);
      Printf.printf "autoscale: %d scale-ups, %d scale-downs, %d burst workers at shutdown\n"
        final.Sesame_server.scale_ups final.Sesame_server.scale_downs
        final.Sesame_server.burst_workers;
      let quota_json (c : Sbx.Quota.counters) =
        Json.Obj
          [
            ("runs", Json.Int c.Sbx.Quota.runs);
            ("traps", Json.Int c.Sbx.Quota.traps);
            ("fuel", Json.Int c.Sbx.Quota.fuel);
            ("wall_s", Json.Num c.Sbx.Quota.wall_s);
            ("peak_mem_bytes", Json.Int c.Sbx.Quota.peak_mem_bytes);
            ("denied", Json.Int c.Sbx.Quota.denied);
            ("throttled", Json.Int c.Sbx.Quota.throttled);
            ("quarantine_events", Json.Int c.Sbx.Quota.quarantine_events);
          ]
      in
      Json.to_file "BENCH_serve.json"
        (Json.Obj
           [
             ("experiment", Json.Str "serve");
             ("methodology", Json.Str "open-loop Poisson arrivals; latency from scheduled arrival (coordinated-omission aware); warmup discarded");
             ("apps", Json.List (List.map (fun a -> Json.Str a) apps_covered));
             ( "targets",
               Json.List
                 (List.map
                    (fun (t : Loadgen.target) -> Json.Str (t.Loadgen.label ^ " " ^ t.Loadgen.path))
                    live) );
             ("server_domains", Json.Int domains);
             ("connections", Json.Int connections);
             ("duration_s", Json.Num duration_s);
             ("warmup_s", Json.Num warmup_s);
             ("saturation_rps", Json.Num saturation_rps);
             ("server_accepted", Json.Int final.Sesame_server.accepted);
             ("server_served", Json.Int final.Sesame_server.served);
             ("server_shed", Json.Int final.Sesame_server.shed);
             ("server_mutations_shed", Json.Int final.Sesame_server.mutations_shed);
             ("server_parse_errors", Json.Int final.Sesame_server.parse_errors);
             ("server_timeouts", Json.Int final.Sesame_server.timeouts);
             ("scale_ups", Json.Int final.Sesame_server.scale_ups);
             ("scale_downs", Json.Int final.Sesame_server.scale_downs);
             ( "sandbox_pool",
               Json.Obj
                 [
                   ("capacity", Json.Int pool.Sbx.Pool.capacity);
                   ("min_capacity", Json.Int pool_min);
                   ("max_capacity", Json.Int pool_max);
                   ("free", Json.Int pool.Sbx.Pool.free);
                   ("created", Json.Int pool.Sbx.Pool.created);
                   ("reused", Json.Int pool.Sbx.Pool.reused);
                   ("poisoned", Json.Int pool.Sbx.Pool.poisoned);
                   ("replaced", Json.Int pool.Sbx.Pool.replaced);
                   ("grown", Json.Int pool.Sbx.Pool.grown);
                   ("shrunk", Json.Int pool.Sbx.Pool.shrunk);
                 ] );
             ( "preflight",
               Json.Str (Sbx.Preflight.summary hardening.Apps.Websubmit.preflight) );
             ("quota_totals", quota_json quota_totals);
             ( "quota_regions",
               Json.List
                 (List.map
                    (fun (key, c) ->
                      match quota_json c with
                      | Json.Obj fields -> Json.Obj (("body_hash", Json.Str key) :: fields)
                      | other -> other)
                    (Sbx.Quota.snapshot hardening.Apps.Websubmit.quota)) );
             ("quota_offender", Json.Bool offender);
             ("rates", Json.List rows);
           ]))

(* ------------------------------------------------------------------ *)
(* Chaos: every in-flight request must resolve — an answer or a
   structured refusal — while deadlines expire at the edge, the mutation
   watermark sheds, the WAL faults mid-write and the connector serves a
   brownout snapshot. Phases run over real sockets against the durable
   WebSubmit app; each gate lands as a boolean in BENCH_chaos.json so CI
   can fail on any regression without parsing prose. *)

module Faults = Sesame_faults

type chaos_reply = {
  cr_status : int;  (* 0 = transport error; -1 = client timeout (a hang) *)
  cr_retry_after : bool;
  cr_degraded : bool;
  cr_body : string;
}

let chaos_call ~port ?(headers = []) ?(body = "") meth path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let write_all s =
    let len = String.length s in
    let rec go off =
      if off < len then go (off + Unix.write_substring fd s off (len - off))
    in
    go 0
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    (* The client-side verdict on "did this request resolve": anything
       the server never answers within 10s counts as a hang. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    write_all
      (Http.Wire.write_request ~headers:(Http.Headers.of_list headers) ~body
         ~host:"127.0.0.1" meth path);
    let buf = Bytes.create 8192 in
    Http.Wire.read_response
      (Http.Wire.source_of_fun (fun () ->
           match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> ""
           | n -> Bytes.sub_string buf 0 n))
  with
  | `Response (status, headers, body) ->
      {
        cr_status = status;
        cr_retry_after = Http.Headers.get headers "Retry-After" <> None;
        cr_degraded = Http.Headers.get headers Http.Serving.header_name <> None;
        cr_body = body;
      }
  | `Eof | `Error _ ->
      { cr_status = 0; cr_retry_after = false; cr_degraded = false; cr_body = "" }
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
      { cr_status = -1; cr_retry_after = false; cr_degraded = false; cr_body = "" }
  | exception Unix.Unix_error _ ->
      { cr_status = 0; cr_retry_after = false; cr_degraded = false; cr_body = "" }

(* Refusal bodies are fixed strings; anything resembling an internal
   detail in a client-visible body is a redaction violation. *)
let chaos_leaky body =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn > 0 && go 0
  in
  List.exists (contains body)
    [ "Injected"; "exception"; "backtrace"; "Fatal error"; ".tmp"; "/sesame-chaos" ]

let chaos () =
  header "Chaos: deadline storms, priority sheds, brownout and recovery over real sockets";
  let seed = serve_env_int "CHAOS_SEED" 42 in
  let data_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sesame-chaos-%d" (Unix.getpid ()))
  in
  if Sys.file_exists data_dir then
    Array.iter (fun f -> Sys.remove (Filename.concat data_dir f)) (Sys.readdir data_dir);
  Faults.disarm ();
  (* A modeled 3 ms DB round trip per statement makes deadline expiry
     deterministic: the auth lookup alone overruns a 1 ms budget, so
     every storm request is refused at its first sink handoff. *)
  let app, _store =
    match Apps.Websubmit.create_durable ~query_cost_ns:3_000_000 ~data_dir () with
    | Ok v -> v
    | Error m -> failwith ("chaos: " ^ m)
  in
  (match Apps.Websubmit.seed app ~students:20 ~questions:5 with
  | Ok () -> ()
  | Error m -> failwith ("chaos: " ^ m));
  let conn = Apps.Websubmit.conn app in
  let handler (request : Http.Request.t) =
    let p = request.Http.Request.path in
    if p = "/health" then Http.Response.text "ok"
    else
      let prefix = "/websubmit" in
      let plen = String.length prefix in
      if String.length p >= plen && String.sub p 0 plen = prefix then
        let rest = String.sub p plen (String.length p - plen) in
        Apps.Websubmit.handle app
          { request with Http.Request.path = (if rest = "" then "/" else rest) }
      else Http.Response.error Http.Status.Not_found "no such app"
  in
  let start_server watermark =
    let config =
      {
        Sesame_server.default_config with
        Sesame_server.domains = 4;
        max_connections = 128;
        default_deadline_ms = 2_000;
        shed_mutations_at = watermark;
      }
    in
    match Sesame_server.start ~config ~on_error:(fun _ -> ()) ~handler () with
    | Ok t -> t
    | Error m -> failwith ("chaos: " ^ m)
  in
  (* Server A serves the fault/brownout phases (watermark far above the
     phase concurrency); server B has watermark 1, so every non-health
     mutation on it is deterministically shed — a pinned overload. *)
  let server_a = start_server 64 in
  let server_b = start_server 1 in
  Fun.protect
    ~finally:(fun () ->
      Faults.disarm ();
      Sesame_server.stop server_a;
      Sesame_server.stop server_b)
  @@ fun () ->
  let port_a = Sesame_server.port server_a in
  let port_b = Sesame_server.port server_b in
  let admin = ("Cookie", "user=admin@school.edu") in
  let student = ("Cookie", "user=student0@school.edu") in
  let form = ("Content-Type", "application/x-www-form-urlencoded") in
  let failures = ref [] in
  let gate name ok detail =
    Printf.printf "  [%s] %s%s\n"
      (if ok then "ok" else "FAIL")
      name
      (if detail = "" then "" else ": " ^ detail);
    if not ok then failures := (name ^ (if detail = "" then "" else ": " ^ detail)) :: !failures;
    ok
  in
  let all = ref [] in
  let record replies =
    all := replies @ !all;
    replies
  in
  let concurrently n f =
    let ds = Array.init n (fun i -> Domain.spawn (fun () -> f i)) in
    record (List.concat (Array.to_list (Array.map Domain.join ds)))
  in
  let next_id = ref (9000 + (seed mod 100)) in
  let submit ~port ?headers () =
    incr next_id;
    chaos_call ~port
      ~headers:(Option.value headers ~default:[ student; form ])
      ~body:(Printf.sprintf "answer=chaos%d" !next_id)
      Http.Meth.POST
      (Printf.sprintf "/websubmit/submit/1/%d" !next_id)
  in
  let phase_json = ref [] in
  let phase name fields = phase_json := Json.Obj (("phase", Json.Str name) :: fields) :: !phase_json in

  (* Phase 1 — baseline: health, read, aggregate and write all answer 2xx. *)
  Printf.printf "\nphase 1: baseline\n";
  let health = record [ chaos_call ~port:port_a Http.Meth.GET "/health" ] in
  let reads =
    record
      [
        chaos_call ~port:port_a ~headers:[ admin ] Http.Meth.GET "/websubmit/aggregates";
        chaos_call ~port:port_a ~headers:[ admin ] Http.Meth.GET "/websubmit/answers/1";
      ]
  in
  let writes = record [ submit ~port:port_a () ] in
  let ok2xx r = r.cr_status >= 200 && r.cr_status < 300 in
  let baseline_ok = List.for_all ok2xx (health @ reads @ writes) in
  ignore
    (gate "baseline all 2xx" baseline_ok
       (String.concat ","
          (List.map (fun r -> string_of_int r.cr_status) (health @ reads @ writes))));
  phase "baseline" [ ("all_2xx", Json.Bool baseline_ok) ];

  (* Phase 2 — deadline storm: 1 ms budgets on the heaviest endpoint
     under enough concurrency that queueing alone overruns the budget.
     Every request must resolve as 200 or as a 503 carrying Retry-After;
     none may hang. *)
  Printf.printf "phase 2: deadline storm (X-Deadline-Ms: 1)\n";
  let storm =
    concurrently 12 (fun _ ->
        List.init 4 (fun _ ->
            chaos_call ~port:port_a
              ~headers:[ admin; ("X-Deadline-Ms", "1") ]
              Http.Meth.GET "/websubmit/aggregates"))
  in
  let storm_resolved =
    List.for_all (fun r -> r.cr_status = 200 || r.cr_status = 503) storm
  in
  let storm_refusals = List.filter (fun r -> r.cr_status = 503) storm in
  let storm_retry_after = List.for_all (fun r -> r.cr_retry_after) storm_refusals in
  ignore
    (gate "deadline storm: every request resolved (200 or 503)" storm_resolved
       (Printf.sprintf "%d/%d refused" (List.length storm_refusals) (List.length storm)));
  ignore
    (gate "deadline storm: refusals observed and carry Retry-After"
       (storm_refusals <> [] && storm_retry_after)
       "");
  phase "deadline-storm"
    [
      ("requests", Json.Int (List.length storm));
      ("refused_503", Json.Int (List.length storm_refusals));
      ("all_resolved", Json.Bool storm_resolved);
      ("refusals_carry_retry_after", Json.Bool (storm_refusals <> [] && storm_retry_after));
    ];

  (* Phase 3 — priority classes on the pinned-overload server: mutations
     shed with 503 + Retry-After while reads and health (even POSTed
     health probes) keep answering. *)
  Printf.printf "phase 3: priority sheds (watermark 1)\n";
  let shed_writes = concurrently 4 (fun _ -> [ submit ~port:port_b () ]) in
  let live_reads =
    concurrently 4 (fun _ ->
        [ chaos_call ~port:port_b ~headers:[ admin ] Http.Meth.GET "/websubmit/answers/1" ])
  in
  let live_health =
    record
      [
        chaos_call ~port:port_b Http.Meth.GET "/health";
        chaos_call ~port:port_b Http.Meth.POST "/health";
      ]
  in
  let sheds_structured =
    List.for_all (fun r -> r.cr_status = 503 && r.cr_retry_after) shed_writes
  in
  let reads_live = List.for_all ok2xx live_reads && List.for_all ok2xx live_health in
  ignore (gate "overload: mutations shed with 503 + Retry-After" sheds_structured "");
  ignore (gate "overload: reads and health still answer 2xx" reads_live "");
  let b_stats = Sesame_server.stats server_b in
  ignore
    (gate "overload: server counted mutation sheds"
       (b_stats.Sesame_server.mutations_shed >= List.length shed_writes)
       (string_of_int b_stats.Sesame_server.mutations_shed));
  phase "priority-sheds"
    [
      ("mutations_shed", Json.Int b_stats.Sesame_server.mutations_shed);
      ("sheds_structured", Json.Bool sheds_structured);
      ("reads_live", Json.Bool reads_live);
    ];

  (* Phase 4 — WAL fault, then brownout: one journaled write fails (and
     is never acknowledged), poisoning the store; reads fall back to the
     last consistent snapshot and say so; writes are refused 503. *)
  Printf.printf "phase 4: WAL fault -> brownout\n";
  Faults.arm [ Faults.plan ~nth:0 Faults.Db_wal_append Faults.Raise ];
  let poisoned_write = record [ submit ~port:port_a () ] in
  Faults.disarm ();
  let write_refused_cleanly =
    List.for_all (fun r -> r.cr_status >= 400 && r.cr_status < 600) poisoned_write
  in
  let degraded_reads =
    record
      (List.init 3 (fun _ ->
           chaos_call ~port:port_a ~headers:[ admin ] Http.Meth.GET "/websubmit/aggregates"))
  in
  (* Written as admin: student auth needs the (poisoned) users table and
     401s before reaching the connector; admin authenticates without it,
     so the probe lands on the brownout write refusal itself. *)
  let brownout_writes = record [ submit ~port:port_a ~headers:[ admin; form ] () ] in
  let reads_degraded = List.for_all (fun r -> ok2xx r && r.cr_degraded) degraded_reads in
  let writes_browned =
    List.for_all (fun r -> r.cr_status = 503 && r.cr_retry_after) brownout_writes
  in
  ignore (gate "wal fault: faulted write refused (4xx/5xx)" write_refused_cleanly "");
  ignore
    (gate "brownout: snapshot reads answer 2xx with Degraded marker" reads_degraded
       (String.concat ","
          (List.map
             (fun r -> Printf.sprintf "%d%s" r.cr_status (if r.cr_degraded then "+D" else ""))
             degraded_reads)));
  ignore (gate "brownout: writes refused 503 + Retry-After" writes_browned "");
  ignore (gate "brownout: connector reports brownout" (C.Sesame_conn.in_brownout conn) "");
  phase "brownout"
    [
      ("reads_degraded", Json.Bool reads_degraded);
      ("writes_refused", Json.Bool writes_browned);
      ("brownout_entries", Json.Int (C.Sesame_conn.brownout_entries conn));
    ];

  (* Phase 5 — recovery: reopen the store from disk, reads come back
     fresh (no Degraded marker) and writes succeed again. *)
  Printf.printf "phase 5: recovery\n";
  let recovered = match Apps.Websubmit.recover app with Ok _ -> true | Error _ -> false in
  let fresh_reads =
    record [ chaos_call ~port:port_a ~headers:[ admin ] Http.Meth.GET "/websubmit/aggregates" ]
  in
  let fresh_writes = record [ submit ~port:port_a () ] in
  let fresh_ok =
    List.for_all (fun r -> ok2xx r && not r.cr_degraded) fresh_reads
    && List.for_all ok2xx fresh_writes
  in
  ignore (gate "recovery: store reopened" recovered "");
  ignore (gate "recovery: fresh reads and writes restored" fresh_ok "");
  phase "recovery" [ ("reopened", Json.Bool recovered); ("service_restored", Json.Bool fresh_ok) ];

  (* Cross-phase gates. *)
  Printf.printf "\ncross-phase gates\n";
  let total = List.length !all in
  let hangs = List.length (List.filter (fun r -> r.cr_status = -1) !all) in
  let transport = List.length (List.filter (fun r -> r.cr_status = 0) !all) in
  let leaks = List.filter (fun r -> chaos_leaky r.cr_body) !all in
  let refusals_503 = List.filter (fun r -> r.cr_status = 503) !all in
  let refusals_structured = List.for_all (fun r -> r.cr_retry_after) refusals_503 in
  ignore (gate "zero hangs" (hangs = 0) (Printf.sprintf "%d/%d" hangs total));
  ignore
    (gate "every request resolved" (hangs = 0 && transport = 0)
       (Printf.sprintf "%d transport errors" transport));
  ignore
    (gate "every 503 carries Retry-After" refusals_structured
       (string_of_int (List.length refusals_503)));
  ignore (gate "zero redaction violations" (leaks = [])
       (match leaks with [] -> "" | r :: _ -> r.cr_body));
  let a_stats = Sesame_server.stats server_a in
  Printf.printf
    "\nserver A: accepted %d, served %d, shed %d; server B: served %d, mutations shed %d\n"
    a_stats.Sesame_server.accepted a_stats.Sesame_server.served a_stats.Sesame_server.shed
    b_stats.Sesame_server.served b_stats.Sesame_server.mutations_shed;
  Json.to_file "BENCH_chaos.json"
    (Json.Obj
       [
         ("experiment", Json.Str "chaos");
         ( "methodology",
           Json.Str
             "real-socket phases: baseline, 1ms-deadline storm, pinned mutation shed, \
              WAL-fault brownout, recovery; a request that gets no answer within 10s \
              counts as a hang" );
         ("seed", Json.Int seed);
         ("requests", Json.Int total);
         ("hangs", Json.Int hangs);
         ("transport_errors", Json.Int transport);
         ("refusals_503", Json.Int (List.length refusals_503));
         ("phases", Json.List (List.rev !phase_json));
         ( "gates",
           Json.Obj
             [
               ("all_resolved", Json.Bool (hangs = 0 && transport = 0));
               ("zero_hangs", Json.Bool (hangs = 0));
               ("structured_refusals", Json.Bool refusals_structured);
               ("zero_redaction_violations", Json.Bool (leaks = []));
               ("brownout_degraded_reads", Json.Bool reads_degraded);
               ("post_recovery_success", Json.Bool fresh_ok);
             ] );
         ("failures", Json.List (List.map (fun f -> Json.Str f) (List.rev !failures)));
         ("passed", Json.Bool (!failures = []));
       ]);
  if !failures <> [] then
    failwith
      (Printf.sprintf "chaos: %d gate(s) failed: %s" (List.length !failures)
         (String.concat "; " (List.rev !failures)))

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig5", "Policy code size per app", fig5);
    ("fig6", "Privacy-region counts and sizes", fig6);
    ("fig7", "Critical-region review burden", fig7);
    ("fig8", "WebSubmit endpoint latency, baseline vs Sesame", fig8);
    ("fig9a", "Sandbox reuse optimizations", fig9a);
    ("fig9b", "Sandbox copy optimizations", fig9b);
    ("fig9c", "Policy composition", fig9c);
    ("fig10", "Scrutinizer over the region corpus", fun () -> fig10 ());
    ("stdlib", "Scrutinizer over std-collection methods", stdlib_study);
    ("precision", "Place-sensitive vs seed-engine precision ablation", precision);
    ("pcon-micro", "PCon layout indirection", pcon_micro);
    ("conjoin", "Policy conjunction ablation (stack/dedup/join)", conjoin_ablation);
    ("parcheck", "Enforcement hot-path ablation (elision, pushdown)", parcheck);
    ("faults", "Fault-injection hook overhead ablation", faults_ablation);
    ("wal", "Durable-store ablation (in-memory/no-sync/fsync/checkpoint)", wal_ablation);
    ("serve", "Open-loop socket load curves over all four apps", serve);
    ("chaos", "Deadline/overload/brownout chaos gates over real sockets", chaos);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (n, _, _) -> n) experiments
  in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, _, run) -> run ()
      | None ->
          Printf.printf "unknown experiment %s; available: %s\n" name
            (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)))
    requested
