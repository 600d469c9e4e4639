type atom =
  | Sink_is of string
  | Sink_not of string
  | Custom_eq of string * string
  | Custom_not of string * string
  | Principal_in of string list

let atom_to_string = function
  | Sink_is s -> Printf.sprintf "sink = %s" s
  | Sink_not s -> Printf.sprintf "sink <> %s" s
  | Custom_eq (k, v) -> Printf.sprintf "%s = %s" k v
  | Custom_not (k, v) -> Printf.sprintf "%s <> %s" k v
  | Principal_in ps -> Printf.sprintf "principal in {%s}" (String.concat ", " ps)

let pp_atom fmt a = Format.pp_print_string fmt (atom_to_string a)

type family = {
  family : string;
  inspects : (string * string list) list;
  satisfied_when : atom list list;
  pushable : bool;
}

type site = {
  endpoint : string;
  sinks : string list;
  facts : atom list;
  region : Spec.t option;
  row_params : (string * string) list;
}

type proof =
  | Field_disjoint of { param : string; path : string list }
  | Context_satisfies of { clause : atom list }

type verdict = Redundant of proof | Pushable | Residual of string

type certificate = {
  cert_endpoint : string;
  cert_sink : string;
  cert_family : string;
  cert_verdict : verdict;
  cert_witness : Analysis.step list;
}

(* ------------------------------------------------------------------ *)
(* Entailment over context atoms. Sound and syntactic: a fact list
   entails an atom only when some fact forces it for every context, so
   an incomplete model can only lose elisions. *)

let subset a b = List.for_all (fun x -> List.mem x b) a

let fact_implies fact atom =
  match (fact, atom) with
  | Sink_is s, Sink_is s' -> String.equal s s'
  | Sink_is s, Sink_not s' -> not (String.equal s s')
  | Sink_not s, Sink_not s' -> String.equal s s'
  | Custom_eq (k, v), Custom_eq (k', v') -> String.equal k k' && String.equal v v'
  | Custom_eq (k, v), Custom_not (k', v') -> String.equal k k' && not (String.equal v v')
  | Custom_not (k, v), Custom_not (k', v') -> String.equal k k' && String.equal v v'
  | Principal_in ps, Principal_in ps' -> subset ps ps'
  | _ -> false

let entails facts atom = List.exists (fun f -> fact_implies f atom) facts

(* ------------------------------------------------------------------ *)

let step kind fn detail = { Analysis.step_kind = kind; step_fn = fn; step_detail = detail }
let render_path path = String.concat "" (List.map (fun f -> "." ^ f) path)

(* R2: some satisfying clause of the family is entailed by the site's
   facts under the given sink. The sink itself is a fact at the sink. *)
let context_satisfaction (site : site) ~sink (fam : family) =
  let facts = Sink_is sink :: site.facts in
  List.find_opt (fun clause -> List.for_all (entails facts) clause) fam.satisfied_when

(* R1: every place the family's verdict can depend on is either not
   carried by any region parameter at this site, or provably never
   released by the region. Returns the witness probe list on success. *)
let field_disjointness ?allowlist ~program (site : site) (fam : family) =
  match (site.region, fam.inspects) with
  | None, _ | _, [] -> None
  | Some spec, inspects ->
      (* Places to probe: inspected columns carried into the region by a
         row parameter. A family inspecting a table no region parameter
         carries is trivially disjoint for that table. *)
      let places =
        List.concat_map
          (fun (table, path) ->
            List.filter_map
              (fun (param, ptable) ->
                if String.equal table ptable then Some (param, path) else None)
              site.row_params)
          inspects
      in
      if places = [] then
        Some
          ( [],
            [
              step Analysis.Branch site.endpoint
                "no region parameter carries a row of an inspected table";
            ] )
      else
        let exposures = Analysis.param_exposures ?allowlist program spec ~places in
        if List.exists (fun (e : Analysis.exposure) -> e.exp_released) exposures then None
        else
          let steps =
            List.map
              (fun (e : Analysis.exposure) ->
                step Analysis.Branch spec.Spec.name
                  (Printf.sprintf "place %s%s never reaches the region's output or a sink"
                     e.exp_param (render_path e.exp_path)))
              exposures
          in
          Some (exposures, steps)

let classify_triple ?allowlist ~program (site : site) ~sink (fam : family) =
  let base kind =
    {
      cert_endpoint = site.endpoint;
      cert_sink = sink;
      cert_family = fam.family;
      cert_verdict = kind;
      cert_witness = [];
    }
  in
  match context_satisfaction site ~sink fam with
  | Some clause ->
      let witness =
        step Analysis.Source site.endpoint
          (Printf.sprintf "site facts: %s"
             (String.concat "; " (List.map atom_to_string (Sink_is sink :: site.facts))))
        :: List.map
             (fun a ->
               step Analysis.Branch fam.family ("entailed satisfying atom: " ^ atom_to_string a))
             clause
        @ [
            step Analysis.Sink site.endpoint
              (Printf.sprintf "%s is identically true at sink %s: check elided" fam.family sink);
          ]
      in
      { (base (Redundant (Context_satisfies { clause }))) with cert_witness = witness }
  | None -> (
      match field_disjointness ?allowlist ~program site fam with
      | Some (exposures, steps) ->
          let proof =
            match exposures with
            | e :: _ -> Field_disjoint { param = e.Analysis.exp_param; path = e.Analysis.exp_path }
            | [] -> Field_disjoint { param = "-"; path = [] }
          in
          let region_name =
            match site.region with Some s -> s.Spec.name | None -> site.endpoint
          in
          let witness =
            step Analysis.Source site.endpoint
              (Printf.sprintf "region %s feeds sink %s" region_name sink)
            :: steps
            @ [
                step Analysis.Sink site.endpoint
                  (Printf.sprintf
                     "%s inspects only fields the region never releases: check elided" fam.family);
              ]
          in
          { (base (Redundant proof)) with cert_witness = witness }
      | None ->
          if fam.pushable then
            let witness =
              [
                step Analysis.Source site.endpoint
                  (Printf.sprintf "%s exposes a row-predicate translation" fam.family);
                step Analysis.Sink site.endpoint
                  "check compiled into the scan predicate: no per-row policy objects";
              ]
            in
            { (base Pushable) with cert_witness = witness }
          else
            base
              (Residual
                 (Printf.sprintf
                    "no satisfying clause entailed at sink %s and no disjointness proof" sink))
      )

let classify ?allowlist ~program ~families ~sites () =
  List.concat_map
    (fun site ->
      List.concat_map
        (fun sink ->
          List.map (fun fam -> classify_triple ?allowlist ~program site ~sink fam) families)
        site.sinks)
    sites

let verdict_equal a b =
  match (a, b) with
  | ( Redundant (Field_disjoint { param = p; path = q }),
      Redundant (Field_disjoint { param = p'; path = q' }) ) ->
      String.equal p p' && q = q'
  | ( Redundant (Context_satisfies { clause = c }),
      Redundant (Context_satisfies { clause = c' }) ) ->
      c = c'
  | Pushable, Pushable -> true
  | Residual x, Residual y -> String.equal x y
  | _ -> false

let replay ?allowlist ~program ~families ~sites cert =
  match
    ( List.find_opt (fun s -> String.equal s.endpoint cert.cert_endpoint) sites,
      List.find_opt (fun f -> String.equal f.family cert.cert_family) families )
  with
  | Some site, Some fam when List.mem cert.cert_sink site.sinks ->
      let fresh = classify_triple ?allowlist ~program site ~sink:cert.cert_sink fam in
      verdict_equal fresh.cert_verdict cert.cert_verdict
      && List.equal
           (fun (a : Analysis.step) b -> a = b)
           fresh.cert_witness cert.cert_witness
  | _ -> false

let verdict_name = function
  | Redundant _ -> "redundant"
  | Pushable -> "pushable"
  | Residual _ -> "residual"

let pp_certificate fmt c =
  let verdict_detail =
    match c.cert_verdict with
    | Redundant (Field_disjoint { param; path }) ->
        Printf.sprintf "redundant (field-disjoint: %s%s)" param (render_path path)
    | Redundant (Context_satisfies { clause }) ->
        Printf.sprintf "redundant (context: %s)"
          (String.concat " & " (List.map atom_to_string clause))
    | Pushable -> "pushable"
    | Residual why -> Printf.sprintf "residual (%s)" why
  in
  Format.fprintf fmt "@[<v 2>%s @ %s :: %s -> %s@,%a@]" c.cert_endpoint c.cert_sink
    c.cert_family verdict_detail Analysis.pp_trace c.cert_witness
