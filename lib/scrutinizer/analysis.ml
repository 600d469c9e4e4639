(* Scrutinizer's leakage-freedom analysis over a place-sensitive taint
   domain with witness-path provenance. See analysis.mli for the
   user-facing contract and DESIGN.md for the domain write-up. *)

type reason =
  | Mutable_capture of { var : string }
  | Capture_mutation of { func : string; var : string }
  | Unsafe_mutation of { func : string }
  | Tainted_native_call of { func : string; callee : string }
  | Unknown_body_call of { func : string; callee : string }
  | Unresolvable_dispatch of { func : string; method_name : string }
  | Fn_pointer_call of { func : string }
  | Tainted_global_write of { func : string; global : string }

let pp_reason fmt = function
  | Mutable_capture { var } -> Format.fprintf fmt "captures %s by mutable reference" var
  | Capture_mutation { func; var } ->
      Format.fprintf fmt "%s: may mutate captured variable %s" func var
  | Unsafe_mutation { func } ->
      Format.fprintf fmt "%s: uses an unsafe mutation primitive" func
  | Tainted_native_call { func; callee } ->
      Format.fprintf fmt "%s: sensitive data flows into native code %s" func callee
  | Unknown_body_call { func; callee } ->
      Format.fprintf fmt "%s: sensitive data flows into unknown function %s" func callee
  | Unresolvable_dispatch { func; method_name } ->
      Format.fprintf fmt "%s: cannot resolve dynamic dispatch of %s" func method_name
  | Fn_pointer_call { func } ->
      Format.fprintf fmt "%s: call through an unresolved function pointer" func
  | Tainted_global_write { func; global } ->
      Format.fprintf fmt "%s: sensitive data flows into global %s" func global

let reason_to_string r = Format.asprintf "%a" pp_reason r

(* A witness step: one hop of the path sensitive data takes from a source
   binding to the rejected sink. Traces are decoration on the lattice —
   they never participate in equality, so they cannot affect termination
   or verdicts, only explanations. *)
type step_kind = Source | Flow | Branch | Call | Return | Writeback | Sink

type step = { step_kind : step_kind; step_fn : string; step_detail : string }

let step_kind_label = function
  | Source -> "source"
  | Flow -> "flow"
  | Branch -> "branch"
  | Call -> "call"
  | Return -> "return"
  | Writeback -> "writeback"
  | Sink -> "sink"

let pp_step fmt s =
  Format.fprintf fmt "[%s] %s: %s" (step_kind_label s.step_kind) s.step_fn s.step_detail

let step_to_string s = Format.asprintf "%a" pp_step s

let pp_trace fmt trace =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_step fmt trace

type rejection = { reason : reason; trace : step list }

let pp_rejection fmt r = pp_reason fmt r.reason
let rejection_to_string r = Format.asprintf "%a" pp_rejection r

type stats = {
  functions_analyzed : int;
  duration_s : float;
}

type verdict = { accepted : bool; rejections : rejection list; stats : stats }

(* ------------------------------------------------------------------ *)

module Sset = Set.Make (String)

(* Cells map bounded access paths (field chains rooted at one variable)
   to abstract values. Paths longer than [max_path_depth] widen to their
   depth-k prefix, which keeps the domain finite per program. *)
module Pathmap = Map.Make (struct
  type t = string list

  let compare = compare
end)

module Rmap = Map.Make (struct
  type t = reason

  let compare = compare
end)

(* Per-parameter per-path write-back sets: (param, path) -> provenance. *)
module Wmap = Map.Make (struct
  type t = string * string list

  let compare = compare
end)

let max_path_depth = 2
let truncate_path p = List.filteri (fun i _ -> i < max_path_depth) p

let trace_limit = 24

(* Truncation keeps the head (the source end) and the final step (the
   sink end), so even a widened trace still spans source-to-sink. *)
let cap tr =
  if List.compare_length_with tr trace_limit <= 0 then tr
  else
    let last = List.nth tr (List.length tr - 1) in
    List.filteri (fun i _ -> i < trace_limit - 1) tr @ [ last ]

let shorten s = if String.length s <= 48 then s else String.sub s 0 45 ^ "..."
let step kind fn detail = { step_kind = kind; step_fn = fn; step_detail = detail }

type info = { taint : bool; roots : Sset.t; trace : step list }

let untainted = { taint = false; roots = Sset.empty; trace = [] }

(* Traces are excluded: they are explanations, not lattice content. *)
let info_equal a b = a.taint = b.taint && Sset.equal a.roots b.roots

(* Keep-first trace joins pin each cell's explanation to the first flow
   that tainted it, so fixpoint re-iteration cannot oscillate traces. *)
let info_join a b =
  {
    taint = a.taint || b.taint;
    roots = Sset.union a.roots b.roots;
    trace = (if a.taint then a.trace else b.trace);
  }

(* A function's analysis effect under one calling context (its summary):
   whether the return value may carry sensitive data (and how it got
   there), through which parameter *places* sensitive data may be written
   back to the caller, and the rejections arising anywhere in the
   function's subtree, each with a callee-relative witness trace. Modulo
   the trace decoration, effects form a finite join-semilattice; the
   worklist engine only ever grows them, which guarantees termination. *)
type fn_effect = {
  ret : bool;
  ret_trace : step list;
  writes : step list Wmap.t;
  rejs : step list Rmap.t;
}

let bottom_effect = { ret = false; ret_trace = []; writes = Wmap.empty; rejs = Rmap.empty }

let effect_join a b =
  {
    ret = a.ret || b.ret;
    ret_trace = (if a.ret then a.ret_trace else b.ret_trace);
    writes = Wmap.union (fun _ x _ -> Some x) a.writes b.writes;
    rejs = Rmap.union (fun _ x _ -> Some x) a.rejs b.rejs;
  }

let effect_equal a b =
  a.ret = b.ret
  && Wmap.equal (fun _ _ -> true) a.writes b.writes
  && Rmap.equal (fun _ _ -> true) a.rejs b.rejs

(* Summary key: one analysis context of one function. *)
type skey = { kfn : string; ktaints : bool list; kpc : bool }

(* ------------------------------------------------------------------ *)
(* Worklist engine state. *)

type item = Spec_body | Fn of skey

module Iset = Set.Make (struct
  type t = item

  let compare = compare
end)

type summary = {
  mutable eff : fn_effect;
  mutable dependents : Iset.t;  (* items to re-run when [eff] grows *)
}

type ctx = {
  program : Program.t;
  allowlist : Allowlist.t;
  spec : Spec.t;
  capture_roots : Sset.t;  (* by-ref captures of the top-level region *)
  (* Rejections are published to the verdict only during the final
     deterministic witness pass (see [check]); until then they live in
     the analyzing frame's effect. First-occurrence order, O(1) dedup. *)
  mutable publishing : bool;
  mutable rejections : rejection list;  (* reversed *)
  rejection_seen : (reason, unit) Hashtbl.t;
  (* Worklist state. *)
  summaries : (skey, summary) Hashtbl.t;
  queue : item Queue.t;
  queued : (item, unit) Hashtbl.t;
}

(* The per-run mutable state of the item being analyzed: its name, its
   parameter set (empty for the spec body), the effect accumulated by
   this run, and [fr_exit]: once a return is taken under sensitive
   control flow, whether any later statement runs depends on sensitive
   data, so later statements run under that (witnessed) pc. *)
type frame = {
  fname : string;
  params : Sset.t;
  item : item;
  mutable fr_ret : bool;
  mutable fr_ret_trace : step list;
  mutable fr_writes : step list Wmap.t;
  mutable fr_rejs : step list Rmap.t;
  mutable fr_exit : step list option;
}

let reject ctx frame ~trace reason =
  if not (Rmap.mem reason frame.fr_rejs) then
    frame.fr_rejs <- Rmap.add reason trace frame.fr_rejs;
  if ctx.publishing && not (Hashtbl.mem ctx.rejection_seen reason) then begin
    Hashtbl.add ctx.rejection_seen reason ();
    ctx.rejections <- { reason; trace } :: ctx.rejections
  end

(* The region's by-ref captures, as seen from the running frame. Only the
   spec body can name a capture: a callee's local that shares a capture's
   name is a different variable, so a callee's summary must not depend on
   the region's capture names. A callee reaches a capture only through an
   argument; the spec body's call sites reject a [&mut] of
   capture-derived data escaping into any call. *)
let capture_roots ctx frame =
  match frame.item with Spec_body -> ctx.capture_roots | Fn _ -> Sset.empty

(* Sensitive control flow carries its own provenance: [None] is an
   insensitive pc, [Some trace] a sensitive one with the witness path of
   the branch condition that raised it. *)
type pc = step list option

let pc_on (pc : pc) = Option.is_some pc
let pc_trace (pc : pc) = Option.value pc ~default:[]

type env = (string, info Pathmap.t) Hashtbl.t

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> x = y && go a' b'
  in
  go a b

(* The whole-variable aliasing view: roots are tracked per cell entry but
   aliasing stays variable-granular (a reference to any part of [v] can
   reach [v]), exactly as in the var-level domain. *)
let env_roots (env : env) v =
  match Hashtbl.find_opt env v with
  | None -> Sset.empty
  | Some cell -> Pathmap.fold (fun _ i acc -> Sset.union acc i.roots) cell Sset.empty

(* Read a place: join every entry whose path is a prefix of the read path
   (a write to [v.f] is visible through [v.f.g]) or an extension of it (a
   read of [v] or [v.f] sees taint stored at [v.f.g]). Disjoint sibling
   fields do not overlap — that is the precision the place domain buys. *)
let env_read (env : env) (pl : Ir.place) : info =
  let i =
    match Hashtbl.find_opt env pl.Ir.base with
    | None -> untainted
    | Some cell ->
        Pathmap.fold
          (fun p entry acc ->
            if is_prefix p pl.Ir.path || is_prefix pl.Ir.path p then info_join acc entry
            else acc)
          cell untainted
  in
  { i with roots = env_roots env pl.Ir.base }

(* Strong update: the variable is wholly overwritten, so every stale
   field entry dies with the old cell. Only whole-variable writes
   ([Let], [Assign (Lvar _)], loop bindings) may do this. *)
let env_strong (env : env) v info = Hashtbl.replace env v (Pathmap.singleton [] info)

(* Weak update at a path: join, never untaint — field writes and writes
   through references may alias, so they can only add facts. *)
let env_weak (env : env) v path info =
  let path = truncate_path path in
  let cell = Option.value (Hashtbl.find_opt env v) ~default:Pathmap.empty in
  let cur = Option.value (Pathmap.find_opt path cell) ~default:untainted in
  Hashtbl.replace env v (Pathmap.add path (info_join cur info) cell)

let record_write frame v path ~trace =
  let key = (v, truncate_path path) in
  if not (Wmap.mem key frame.fr_writes) then frame.fr_writes <- Wmap.add key trace frame.fr_writes

(* Taint [pl] as the target of a write through a reference or a call
   write-back. A write into memory reachable through one of the current
   function's parameters is a caller-visible write-back, recorded in the
   frame's effect at the written path whether or not the place was
   already tainted locally. *)
let env_taint_place frame (env : env) (pl : Ir.place) ~trace =
  env_weak env pl.Ir.base pl.Ir.path { taint = true; roots = Sset.empty; trace };
  if Sset.mem pl.Ir.base frame.params then record_write frame pl.Ir.base pl.Ir.path ~trace

let enqueue ctx item =
  if not (Hashtbl.mem ctx.queued item) then begin
    Hashtbl.add ctx.queued item ();
    Queue.add item ctx.queue
  end

(* Normalize a call's argument taints to the callee's parameter count.
   Surplus arguments (arity mismatch) have no parameter of their own, so
   their taint is joined onto the last parameter rather than silently
   dropped — conservative, never unsound. *)
let normalize_taints (f : Ir.func) arg_taints =
  let n = List.length f.Ir.params in
  let kept = List.filteri (fun i _ -> i < n) arg_taints in
  let kept = kept @ List.init (max 0 (n - List.length kept)) (fun _ -> false) in
  let surplus_tainted =
    List.exists Fun.id (List.filteri (fun i _ -> i >= n) arg_taints)
  in
  if n > 0 && surplus_tainted then
    List.mapi (fun i t -> if i = n - 1 then true else t) kept
  else kept

let set_ret frame trace =
  frame.fr_ret <- true;
  if frame.fr_ret_trace = [] then frame.fr_ret_trace <- trace

let exit_under frame (pc : pc) =
  if pc_on pc && not (pc_on frame.fr_exit) then
    frame.fr_exit <-
      Some (cap (pc_trace pc @ [ step Branch frame.fname "returns early under sensitive control flow" ]))

let rec eval ctx frame (env : env) ~pc (e : Ir.expr) : info =
  match e with
  | Ir.Unit | Ir.Int_lit _ | Ir.Float_lit _ | Ir.Str_lit _ | Ir.Bool_lit _ -> untainted
  | Ir.Global _ -> untainted
  | Ir.Var v | Ir.Ref v | Ir.Ref_mut v ->
      let i = env_read env (Ir.place_of_var v) in
      { i with roots = Sset.add v i.roots }
  | Ir.Field (inner, _) -> (
      match Ir.place_of_expr e with
      | Some pl ->
          let i = env_read env pl in
          { i with roots = Sset.add pl.Ir.base i.roots }
      | None -> eval ctx frame env ~pc inner)
  | Ir.Unop (_, inner) | Ir.Deref inner -> eval ctx frame env ~pc inner
  | Ir.Index (a, b) | Ir.Binop (_, a, b) ->
      info_join (eval ctx frame env ~pc a) (eval ctx frame env ~pc b)
  | Ir.Tuple es | Ir.Vec es ->
      List.fold_left (fun acc e -> info_join acc (eval ctx frame env ~pc e)) untainted es
  | Ir.Call (callee, args) -> eval_call ctx frame env ~pc callee args

and eval_call ctx frame env ~pc callee args : info =
  let arg_infos = List.map (eval ctx frame env ~pc) args in
  let any_tainted = pc_on pc || List.exists (fun (i : info) -> i.taint) arg_infos in
  (* A mutable reference to capture-derived data escaping into any call is a
     potential mutation of the capture (§7.1 case 1/2). *)
  List.iter
    (fun arg ->
      match arg with
      | Ir.Ref_mut v ->
          let roots = Sset.add v (env_roots env v) in
          let hit = Sset.inter roots (capture_roots ctx frame) in
          Sset.iter
            (fun var ->
              reject ctx frame
                ~trace:[ step Sink frame.fname ("&mut " ^ var ^ " escapes into a call") ]
                (Capture_mutation { func = frame.fname; var }))
            hit
      | _ -> ())
    args;
  let arg_taints = List.map (fun (i : info) -> i.taint) arg_infos in
  (* The splice prefix: how sensitive data reached this call site — the
     first tainted argument's provenance, else the pc's. *)
  let prefix =
    match List.find_opt (fun (i : info) -> i.taint) arg_infos with
    | Some i -> i.trace
    | None -> pc_trace pc
  in
  let arg_trace (i : info) = if i.taint then i.trace else prefix in
  (* Taint every variable an argument expression can reach: the write-back
     model for callees whose body the analyzer cannot see. Known bodies
     get precise per-parameter per-path write-back effects from their
     summaries instead. *)
  let taint_arg_targets ~via (i : info) =
    let tr = cap (arg_trace i @ [ step Writeback frame.fname ("written back by " ^ via) ]) in
    Sset.iter (fun v -> env_taint_place frame env (Ir.place_of_var v) ~trace:tr) i.roots
  in
  let blanket_writeback ~via () =
    if any_tainted then List.iter (taint_arg_targets ~via) arg_infos
  in
  let sink_trace name what = cap (prefix @ [ step Sink frame.fname (what ^ " " ^ name) ]) in
  let apply_effect name (f : Ir.func) (eff : fn_effect) =
    (* Replay the callee subtree's rejections with the caller's provenance
       spliced in front of the callee-relative trace, and apply its
       write-back effects: each written (param, path) lands on the actual
       argument's place extended by that path, with the argument's aliases
       written at their base. *)
    let call_step = step Call frame.fname ("calls " ^ name) in
    Rmap.iter
      (fun reason tr -> reject ctx frame ~trace:(cap (prefix @ (call_step :: tr))) reason)
      eff.rejs;
    let infos = Array.of_list arg_infos in
    let arg_exprs = Array.of_list args in
    List.iteri
      (fun idx p ->
        if idx < Array.length infos then
          Wmap.iter
            (fun (wp, wpath) tr ->
              if wp = p then begin
                let i = infos.(idx) in
                let spliced =
                  cap
                    (arg_trace i
                    @ (call_step :: tr)
                    @ [ step Writeback frame.fname ("written back from " ^ name) ])
                in
                match Ir.place_of_expr arg_exprs.(idx) with
                | Some apl ->
                    env_taint_place frame env
                      { Ir.base = apl.Ir.base; path = apl.Ir.path @ wpath }
                      ~trace:spliced;
                    Sset.iter
                      (fun v ->
                        if v <> apl.Ir.base then
                          env_taint_place frame env (Ir.place_of_var v) ~trace:spliced)
                      i.roots
                | None ->
                    Sset.iter
                      (fun v -> env_taint_place frame env (Ir.place_of_var v) ~trace:spliced)
                      i.roots
              end)
            eff.writes)
      f.Ir.params;
    if eff.ret then Some (cap (prefix @ (call_step :: eff.ret_trace))) else None
  in
  let call_one name : step list option =
    if Allowlist.mem ctx.allowlist name then begin
      blanket_writeback ~via:name ();
      if any_tainted then
        Some (cap (prefix @ [ step Return frame.fname ("result of allow-listed " ^ name) ]))
      else None
    end
    else
      match Program.find ctx.program name with
      | None ->
          blanket_writeback ~via:name ();
          if any_tainted then begin
            reject ctx frame
              ~trace:(sink_trace name "sensitive data flows into unknown function")
              (Unknown_body_call { func = frame.fname; callee = name });
            Some (cap (prefix @ [ step Return frame.fname ("result of unknown " ^ name) ]))
          end
          else None
      | Some f -> (
          match f.Ir.body with
          | Ir.Native | Ir.Unresolved_generic ->
              blanket_writeback ~via:name ();
              if any_tainted then begin
                reject ctx frame
                  ~trace:(sink_trace name "sensitive data flows into native code")
                  (Tainted_native_call { func = frame.fname; callee = name });
                Some (cap (prefix @ [ step Return frame.fname ("result of native " ^ name) ]))
              end
              else None
          | Ir.Body _ ->
              (* Calls whose arguments are all insensitive under insensitive
                 control flow cannot move sensitive data: skipped, as in the
                 paper. *)
              if not any_tainted then None
              else
                let key =
                  { kfn = f.Ir.fname; ktaints = normalize_taints f arg_taints; kpc = pc_on pc }
                in
                apply_effect name f (request_summary ctx ~dependent:frame.item key))
  in
  let ret_trace =
    match callee with
    | Ir.Static name -> call_one name
    | Ir.Dynamic { method_name; receiver_hint } -> (
        match Program.resolve_dynamic ctx.program ~method_name ~receiver_hint with
        | None ->
            blanket_writeback ~via:("dyn " ^ method_name) ();
            reject ctx frame
              ~trace:
                (cap
                   (prefix
                   @ [ step Sink frame.fname ("unresolvable dynamic dispatch of " ^ method_name) ]))
              (Unresolvable_dispatch { func = frame.fname; method_name });
            Some (cap (prefix @ [ step Return frame.fname ("result of unresolved " ^ method_name) ]))
        | Some candidates ->
            List.fold_left
              (fun acc c ->
                match call_one c with
                | None -> acc
                | Some tr -> ( match acc with None -> Some tr | Some _ -> acc))
              None candidates)
    | Ir.Fn_ptr _ ->
        blanket_writeback ~via:"a function pointer" ();
        reject ctx frame
          ~trace:
            (cap (prefix @ [ step Sink frame.fname "call through an unresolved function pointer" ]))
          (Fn_pointer_call { func = frame.fname });
        Some (cap (prefix @ [ step Return frame.fname "result of function-pointer call" ]))
  in
  let arg_roots =
    List.fold_left (fun acc (i : info) -> Sset.union acc i.roots) Sset.empty arg_infos
  in
  match ret_trace with
  | Some tr -> { taint = true; roots = arg_roots; trace = tr }
  | None -> { taint = false; roots = arg_roots; trace = [] }

(* Look up (or start computing) the summary for [key]. New keys are seeded
   at bottom and analyzed eagerly (depth-first), with the worklist only
   re-running items whose dependencies grow — which happens on recursive
   cycles. The requesting item is recorded as a dependent either way; the
   registry is a set, so re-requests are O(log n) instead of a linear
   membership scan. *)
and request_summary ctx ~dependent key : fn_effect =
  match Hashtbl.find_opt ctx.summaries key with
  | Some s ->
      s.dependents <- Iset.add dependent s.dependents;
      s.eff
  | None ->
      let s = { eff = bottom_effect; dependents = Iset.singleton dependent } in
      Hashtbl.add ctx.summaries key s;
      run_fn ctx key;
      s.eff

(* Analyze one function body under one calling context and join the result
   into its summary; if the summary grew, every dependent is re-queued. *)
and run_fn ctx key =
  let s = Hashtbl.find ctx.summaries key in
  match Program.find ctx.program key.kfn with
  | None -> ()
  | Some f -> (
      match f.Ir.body with
      | Ir.Native | Ir.Unresolved_generic -> ()
      | Ir.Body stmts ->
          let frame =
            {
              fname = f.Ir.fname;
              params = Sset.of_list f.Ir.params;
              item = Fn key;
              fr_ret = false;
              fr_ret_trace = [];
              fr_writes = Wmap.empty;
              fr_rejs = Rmap.empty;
              fr_exit = None;
            }
          in
          let env : env = Hashtbl.create 16 in
          List.iter2
            (fun param taint ->
              env_strong env param
                {
                  taint;
                  roots = Sset.empty;
                  trace =
                    (if taint then
                       [ step Source f.Ir.fname ("sensitive data enters through parameter " ^ param) ]
                     else []);
                })
            f.Ir.params key.ktaints;
          let pc =
            if key.kpc then Some [ step Branch f.Ir.fname "called under sensitive control flow" ]
            else None
          in
          exec_stmts ctx frame env ~pc stmts;
          let eff =
            {
              ret = frame.fr_ret;
              ret_trace = frame.fr_ret_trace;
              writes = frame.fr_writes;
              rejs = frame.fr_rejs;
            }
          in
          let joined = effect_join s.eff eff in
          if not (effect_equal joined s.eff) then begin
            s.eff <- joined;
            Iset.iter (enqueue ctx) s.dependents
          end)

and exec_stmts ctx frame env ~pc stmts = List.iter (exec_stmt ctx frame env ~pc) stmts

and raise_pc frame ~pc cond (ci : info) : pc =
  if pc_on pc then pc
  else if ci.taint then
    Some (cap (ci.trace @ [ step Branch frame.fname ("branches on " ^ shorten (Ir.expr_source cond)) ]))
  else None

(* The [Lindex] index expression is a real subexpression of the statement:
   it is evaluated for its effects (embedded calls and their rejections)
   and its taint joins the written value — an index derived from sensitive
   data makes the write position sensitive-dependent. *)
and eval_lhs_index ctx frame env ~pc = function
  | Ir.Lindex (_, idx) -> eval ctx frame env ~pc idx
  | Ir.Lvar _ | Ir.Lfield _ | Ir.Lderef _ | Ir.Lglobal _ -> untainted

and exec_stmt ctx frame env ~pc (stmt : Ir.stmt) =
  let pc = if pc_on pc then pc else frame.fr_exit in
  match stmt with
  | Ir.Let (v, e) ->
      let i = eval ctx frame env ~pc e in
      let taint = i.taint || pc_on pc in
      let trace =
        if not taint then []
        else
          let src = if i.taint then i.trace else pc_trace pc in
          cap (src @ [ step Flow frame.fname ("let " ^ v ^ " = " ^ shorten (Ir.expr_source e)) ])
      in
      env_strong env v { taint; roots = i.roots; trace }
  | Ir.Assign (lhs, e) ->
      let idx = eval_lhs_index ctx frame env ~pc lhs in
      let i = info_join (eval ctx frame env ~pc e) idx in
      let i = if pc_on pc && not i.taint then { i with taint = true; trace = pc_trace pc } else i in
      assign ctx frame env lhs i
  | Ir.Unsafe_write (lhs, e) ->
      (* A known-target unsafe write: analyzed like an assignment, except
         that touching capture-derived data violates case 2 regardless of
         the written value. *)
      (match Ir.lhs_base lhs with
      | Some v ->
          let roots = Sset.add v (env_roots env v) in
          if not (Sset.is_empty (Sset.inter roots (capture_roots ctx frame))) then
            reject ctx frame
              ~trace:[ step Sink frame.fname ("unsafe mutation of " ^ Ir.lhs_source lhs) ]
              (Unsafe_mutation { func = frame.fname })
      | None -> ());
      let idx = eval_lhs_index ctx frame env ~pc lhs in
      let i = info_join (eval ctx frame env ~pc e) idx in
      let i = if pc_on pc && not i.taint then { i with taint = true; trace = pc_trace pc } else i in
      assign ctx frame env lhs i
  | Ir.Opaque_unsafe args ->
      (* Unresolvable raw-pointer mutation: conservatively rejected. *)
      reject ctx frame
        ~trace:[ step Sink frame.fname "opaque unsafe mutation (unresolvable pointer target)" ]
        (Unsafe_mutation { func = frame.fname });
      List.iter (fun e -> ignore (eval ctx frame env ~pc e)) args
  | Ir.If (c, then_, else_) ->
      (* Each branch starts from the state before the [if]; the state
         after it is their join. Running the else branch on the then
         branch's output would let a strong update on one path erase a
         fact that still holds on the other. *)
      let ci = eval ctx frame env ~pc c in
      let pc' = raise_pc frame ~pc c ci in
      let else_env = Hashtbl.copy env in
      exec_stmts ctx frame env ~pc:pc' then_;
      exec_stmts ctx frame else_env ~pc:pc' else_;
      Hashtbl.iter
        (fun v cell ->
          let cur = Option.value (Hashtbl.find_opt env v) ~default:Pathmap.empty in
          Hashtbl.replace env v (Pathmap.union (fun _ a b -> Some (info_join a b)) cur cell))
        else_env
  | Ir.While (c, body) ->
      fixpoint ctx frame env (fun () ->
          let ci = eval ctx frame env ~pc c in
          let pc' = raise_pc frame ~pc c ci in
          exec_stmts ctx frame env ~pc:pc' body;
          (* Every later test of the condition runs only because this one
             held: its calls execute under the raised pc. *)
          if pc_on pc' && not (pc_on pc) then ignore (eval ctx frame env ~pc:pc' c))
  | Ir.For (v, e, body) ->
      fixpoint ctx frame env (fun () ->
          let ei = eval ctx frame env ~pc e in
          (* The element is derived from the collection; the trip count
             leaks the collection's shape, so the body runs under a pc
             raised by the collection's taint. *)
          let taint = ei.taint || pc_on pc in
          let trace =
            if not taint then []
            else if ei.taint then
              cap (ei.trace @ [ step Flow frame.fname ("iterates " ^ shorten (Ir.expr_source e) ^ " as " ^ v) ])
            else pc_trace pc
          in
          env_strong env v { taint; roots = ei.roots; trace };
          let pc' = raise_pc frame ~pc e ei in
          exec_stmts ctx frame env ~pc:pc' body)
  | Ir.Return None ->
      if pc_on pc then set_ret frame (pc_trace pc);
      exit_under frame pc
  | Ir.Return (Some e) ->
      let i = eval ctx frame env ~pc e in
      if i.taint then set_ret frame (cap (i.trace @ [ step Return frame.fname "returned to caller" ]))
      else if pc_on pc then
        set_ret frame (cap (pc_trace pc @ [ step Return frame.fname "return under sensitive control flow" ]));
      exit_under frame pc
  | Ir.Expr_stmt e -> ignore (eval ctx frame env ~pc e)

and assign ctx frame env lhs (value : info) =
  let value =
    if value.taint then
      { value with trace = cap (value.trace @ [ step Flow frame.fname ("assigned to " ^ Ir.lhs_source lhs) ]) }
    else value
  in
  let capture_hit targets =
    let hit = Sset.inter targets (capture_roots ctx frame) in
    Sset.iter
      (fun var ->
        let sink = step Sink frame.fname ("mutates capture-derived " ^ Ir.lhs_source lhs) in
        let trace = if value.taint then cap (value.trace @ [ sink ]) else [ sink ] in
        reject ctx frame ~trace (Capture_mutation { func = frame.fname; var }))
      hit
  in
  match lhs with
  | Ir.Lvar v -> env_strong env v value
  | Ir.Lfield (v, f) ->
      let targets = Sset.add v (env_roots env v) in
      capture_hit targets;
      (* A tainted store into a projection of a parameter (or of anything
         that may alias one) is caller-visible — at the written path for
         the base itself, at the whole variable for its aliases. *)
      if value.taint then
        Sset.iter
          (fun t ->
            if Sset.mem t frame.params then
              record_write frame t (if t = v then [ f ] else []) ~trace:value.trace)
          targets;
      env_weak env v [ f ] value
  | Ir.Lindex (v, _) ->
      let targets = Sset.add v (env_roots env v) in
      capture_hit targets;
      if value.taint then
        Sset.iter
          (fun t -> if Sset.mem t frame.params then record_write frame t [] ~trace:value.trace)
          targets;
      env_weak env v [] value
  | Ir.Lderef v ->
      (* Write through a reference: affects everything it may point at. *)
      let targets = Sset.add v (env_roots env v) in
      capture_hit targets;
      if value.taint then
        Sset.iter
          (fun target -> env_taint_place frame env (Ir.place_of_var target) ~trace:value.trace)
          targets
  | Ir.Lglobal g ->
      if value.taint then
        reject ctx frame
          ~trace:(cap (value.trace @ [ step Sink frame.fname ("written to global " ^ g) ]))
          (Tainted_global_write { func = frame.fname; global = g })

(* Loop fixpoint: run the body, then join the loop-head state back in (the
   loop may execute zero times, and the join makes the head state grow
   monotonically, which guarantees convergence — taint, root sets, and
   path keys only range over finitely many program variables and fields at
   bounded depth). Re-iterate while the head state grew, this frame
   raised a new rejection, or a return under sensitive control flow was
   first seen (the next iteration runs only if it was not taken); the
   comparison is structural and trace-blind.
   The iteration bound is a safety net only — monotone growth cannot
   cycle. *)
and fixpoint ctx frame env body =
  ignore ctx;
  let max_iterations = 64 in
  let cell_equal = Pathmap.equal info_equal in
  let rec go n =
    let head = Hashtbl.copy env in
    let rejections_before = Rmap.cardinal frame.fr_rejs in
    let exit_before = pc_on frame.fr_exit in
    body ();
    Hashtbl.iter
      (fun v head_cell ->
        let cur_cell = Option.value (Hashtbl.find_opt env v) ~default:Pathmap.empty in
        let joined = Pathmap.union (fun _ cur hd -> Some (info_join cur hd)) cur_cell head_cell in
        if not (cell_equal joined cur_cell) then Hashtbl.replace env v joined)
      head;
    let grew =
      Hashtbl.length env <> Hashtbl.length head
      || Hashtbl.fold
           (fun v cell acc ->
             acc
             ||
             match Hashtbl.find_opt head v with
             | None -> true
             | Some head_cell -> not (cell_equal cell head_cell))
           env false
    in
    if
      (grew || Rmap.cardinal frame.fr_rejs <> rejections_before || pc_on frame.fr_exit <> exit_before)
      && n < max_iterations
    then
      go (n + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)

let fresh_ctx ~allowlist program (spec : Spec.t) =
  {
    program;
    allowlist;
    spec;
    capture_roots = Sset.of_list (Spec.by_ref_captures spec);
    publishing = false;
    rejections = [];
    rejection_seen = Hashtbl.create 16;
    summaries = Hashtbl.create 64;
    queue = Queue.create ();
    queued = Hashtbl.create 16;
  }

(* One walk of the spec body. [seed] binds the region's parameters in the
   fresh environment; captures start untainted. *)
let run_spec ctx ~seed =
  let spec = ctx.spec in
  let frame =
    {
      fname = spec.Spec.name;
      params = Sset.empty;
      item = Spec_body;
      fr_ret = false;
      fr_ret_trace = [];
      fr_writes = Wmap.empty;
      fr_rejs = Rmap.empty;
      fr_exit = None;
    }
  in
  let env : env = Hashtbl.create 16 in
  seed env;
  List.iter (fun (c : Ir.capture) -> env_strong env c.cap_var untainted) spec.Spec.captures;
  exec_stmts ctx frame env ~pc:None spec.Spec.body;
  frame

(* Drain the worklist: re-run every item one of whose dependency summaries
   grew since it last ran. Monotone effects over finite lattices make this
   terminate; when the queue is empty every summary is a fixpoint.

   Then the witness pass: one final program-order walk of the spec body
   publishes the rejections with fully spliced traces, and its frame is
   returned. Publication is deferred to this pass so rejection order and
   traces depend only on the program text and the (deterministic) fixpoint
   effects, not on worklist scheduling. *)
let solve ctx ~seed =
  ignore (run_spec ctx ~seed);
  let rec drain () =
    match Queue.take_opt ctx.queue with
    | None -> ()
    | Some item ->
        Hashtbl.remove ctx.queued item;
        (match item with Spec_body -> ignore (run_spec ctx ~seed) | Fn key -> run_fn ctx key);
        drain ()
  in
  drain ();
  ctx.publishing <- true;
  run_spec ctx ~seed

let check ?(allowlist = Allowlist.default) program (spec : Spec.t) =
  let started = Sesame_clock.now_ns () in
  let graph = Callgraph.collect program ~allowlist spec in
  let collection_rejections =
    List.map
      (function
        | Callgraph.Unresolvable_dispatch { caller; method_name } ->
            {
              reason = Unresolvable_dispatch { func = caller; method_name };
              trace = [ step Sink caller ("cannot resolve dynamic dispatch of " ^ method_name) ];
            }
        | Callgraph.Fn_pointer_call { caller } ->
            {
              reason = Fn_pointer_call { func = caller };
              trace = [ step Sink caller "call through an unresolved function pointer" ];
            })
      (Callgraph.failures graph)
  in
  let capture_rejections =
    List.map
      (fun var ->
        {
          reason = Mutable_capture { var };
          trace = [ step Sink spec.Spec.name ("captures " ^ var ^ " by mutable reference") ];
        })
      (Spec.by_mut_ref_captures spec)
  in
  let ctx = fresh_ctx ~allowlist program spec in
  let seed env =
    List.iter
      (fun p ->
        env_strong env p
          {
            taint = true;
            roots = Sset.empty;
            trace = [ step Source spec.Spec.name ("sensitive region argument " ^ p) ];
          })
      spec.Spec.params
  in
  ignore (solve ctx ~seed);
  let rejections = capture_rejections @ collection_rejections @ List.rev ctx.rejections in
  (* Dedup by reason preserving first-occurrence order (and so each
     reason's first witness trace), linear in the number of rejections. *)
  let rejections =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun r ->
        if Hashtbl.mem seen r.reason then false
        else begin
          Hashtbl.add seen r.reason ();
          true
        end)
      rejections
  in
  let stats =
    {
      functions_analyzed = Callgraph.functions_analyzed graph;
      duration_s = Sesame_clock.elapsed_s ~since:started;
    }
  in
  { accepted = rejections = []; rejections; stats }

(* ------------------------------------------------------------------ *)
(* Place-exposure probes.

   [check] answers "can the region leak its arguments at all?". The
   elision pass asks a finer question: "can this one *place* — parameter
   [p] at access path [path] — reach the region's output or any sink?".
   A probe re-runs the same fixpoint with a custom seeding: every
   parameter starts untainted and only the probed place carries taint.
   The place escapes iff the final deterministic walk taints the return
   value or publishes any rejection. Everything else — summaries, the
   worklist, the witness pass — is shared with [check]. *)

type exposure = {
  exp_param : string;
  exp_path : string list;
  exp_released : bool;
  exp_trace : step list;  (** witness when released; empty otherwise *)
}

let render_path path = String.concat "" (List.map (fun f -> "." ^ f) path)

let param_exposures ?(allowlist = Allowlist.default) program (spec : Spec.t) ~places =
  let graph = Callgraph.collect program ~allowlist spec in
  let structural_block =
    (* A region the whole-region analysis cannot even walk (unresolvable
       dispatch, function-pointer calls, mutable captures) proves nothing
       about any place: report every probe released, conservatively. *)
    match (Callgraph.failures graph, Spec.by_mut_ref_captures spec) with
    | [], [] -> None
    | _ :: _, _ ->
        Some [ step Sink spec.Spec.name "call graph incomplete: place exposure unprovable" ]
    | _, var :: _ ->
        Some
          [
            step Sink spec.Spec.name
              ("captures " ^ var ^ " by mutable reference: place exposure unprovable");
          ]
  in
  let probe (param, path) =
    match structural_block with
    | Some trace -> { exp_param = param; exp_path = path; exp_released = true; exp_trace = trace }
    | None ->
        let ctx = fresh_ctx ~allowlist program spec in
        let seed env =
          List.iter (fun p -> env_strong env p untainted) spec.Spec.params;
          let probed =
            {
              taint = true;
              roots = Sset.empty;
              trace =
                [
                  step Source spec.Spec.name
                    (Printf.sprintf "probed place %s%s of sensitive region argument" param
                       (render_path path));
                ];
            }
          in
          if path = [] then env_strong env param probed else env_weak env param path probed
        in
        let frame = solve ctx ~seed in
        let rejections = List.rev ctx.rejections in
        if frame.fr_ret then
          {
            exp_param = param;
            exp_path = path;
            exp_released = true;
            exp_trace = frame.fr_ret_trace;
          }
        else if rejections <> [] then
          {
            exp_param = param;
            exp_path = path;
            exp_released = true;
            exp_trace = (List.hd rejections).trace;
          }
        else { exp_param = param; exp_path = path; exp_released = false; exp_trace = [] }
  in
  List.map (fun (param, path) -> probe (param, truncate_path path)) places

let pp_verdict fmt v =
  if v.accepted then
    Format.fprintf fmt "ACCEPTED (%d functions, %.3fs)" v.stats.functions_analyzed
      v.stats.duration_s
  else
    Format.fprintf fmt "@[<v 2>REJECTED (%d functions, %.3fs):@,%a@]"
      v.stats.functions_analyzed v.stats.duration_s
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt r ->
           Format.fprintf fmt "@[<v 2>%a@,%a@]" pp_reason r.reason pp_trace r.trace))
      v.rejections
