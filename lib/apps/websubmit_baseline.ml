module Db = Sesame_db
module Http = Sesame_http

type t = {
  db : Db.Database.t;
  mutable model : (float * float) option;
}

let database t = t.db

let create ?(query_cost_ns = 0) () =
  let db = Db.Database.create ~query_cost_ns () in
  let ( let* ) = Result.bind in
  let* () = Db.Database.create_table db Websubmit_schema.users in
  let* () = Db.Database.create_table db Websubmit_schema.answers in
  let* () = Db.Database.create_table db Websubmit_schema.leaders in
  (* Get Employer Info gathers the consenting students' answers by
     email; that is the one lookup hot enough to declare an index for. *)
  let* () = Db.Database.ensure_index db ~table:"answers" ~column:"email" in
  Ok { db; model = None }

let seed t ~students ~questions = Websubmit_schema.seed t.db ~students ~questions

let rows_of = function
  | Ok (Db.Database.Rows { rows; _ }) -> rows
  | Ok (Db.Database.Affected _) | Error _ -> []

(* Cookie authentication, identical to the Sesame port's guard so Fig. 8
   compares like-for-like requests. *)
let authenticate t request =
  match Http.Request.cookie request "user" with
  | None -> None
  | Some email -> (
      match
        Db.Database.exec t.db "SELECT email FROM users WHERE email = ?"
          ~params:[ Db.Value.Text email ]
      with
      | Ok (Db.Database.Rows { rows = [ _ ]; _ }) -> Some email
      | _ ->
          if email = "admin@school.edu" || email = "leader@school.edu" then Some email
          else None)

let require_auth t request k =
  match authenticate t request with
  | Some user -> k user
  | None -> Http.Response.error Http.Status.Unauthorized "not signed in"

(* GET /aggregates *)
let get_aggregates t request =
  require_auth t request @@ fun _user ->
  let rows =
    rows_of
      (Db.Database.exec t.db
         "SELECT AVG(grade), COUNT(grade) FROM answers GROUP BY lecture" ~params:[])
  in
  let body =
    rows
    |> List.map (fun row ->
           Printf.sprintf "<div>lecture %s: %s</div>"
             (Db.Value.to_string row.(0))
             (match row.(1) with Db.Value.Float f -> Printf.sprintf "%g" f | v -> Db.Value.to_string v))
    |> String.concat ""
  in
  Http.Response.html ("<html><body>" ^ body ^ "</body></html>")

(* GET /employer: one answers statement over every consenting student's
   email, as the Sesame port issues it, grouped here by email. *)
let get_employer_info t _request =
  let emails =
    rows_of
      (Db.Database.exec t.db "SELECT email FROM users WHERE consent_employer = ?"
         ~params:[ Db.Value.Bool true ])
    |> List.filter_map (fun row -> match row.(0) with Db.Value.Text _ as v -> Some v | _ -> None)
  in
  let grades = Hashtbl.create (List.length emails) in
  if emails <> [] then
    rows_of
      (Db.Database.exec t.db
         ("SELECT email, grade FROM answers WHERE grade IS NOT NULL AND email IN ("
         ^ String.concat ", " (List.map (fun _ -> "?") emails)
         ^ ")")
         ~params:emails)
    |> List.iter (fun row ->
           match (row.(0), row.(1)) with
           | Db.Value.Text email, (Db.Value.Float _ | Db.Value.Int _) ->
               let seen = Option.value (Hashtbl.find_opt grades email) ~default:[] in
               Hashtbl.replace grades email (Db.Value.to_float row.(1) :: seen)
           | _ -> ());
  let lines =
    List.filter_map
      (fun email ->
        let email = Db.Value.to_text email in
        Option.map
          (fun gs -> Printf.sprintf "%s,%.2f" email (Sesame_ml.Stats.mean (List.rev gs)))
          (Hashtbl.find_opt grades email))
      emails
  in
  Http.Response.text (String.concat "\n" lines)

(* POST /retrain *)
let retrain_model t request =
  require_auth t request @@ fun _user ->
  let points =
    rows_of
      (Db.Database.exec t.db "SELECT question, grade FROM answers WHERE grade IS NOT NULL"
         ~params:[])
    |> List.filter_map (fun row ->
           match (row.(0), row.(1)) with
           | Db.Value.Int q, Db.Value.Float g -> Some (float_of_int q, g)
           | _ -> None)
  in
  match Sesame_ml.Linreg.train_simple points with
  | Ok model ->
      t.model <- Some (model.Sesame_ml.Linreg.weights.(0), model.intercept);
      Http.Response.text "model retrained"
  | Error msg -> Http.Response.error Http.Status.Internal_error msg

(* GET /predict/<question> *)
let predict_grades t request =
  require_auth t request @@ fun _user ->
  match t.model with
  | None -> Http.Response.error Http.Status.Not_found "model not trained"
  | Some (w, b) ->
      let question =
        Http.Request.path_param request "question"
        |> Option.map int_of_string_opt |> Option.join |> Option.value ~default:0
      in
      Http.Response.text (Printf.sprintf "%.2f" ((w *. float_of_int question) +. b))

(* POST /register *)
let register_user t request =
  match
    (Http.Request.form_param request "email", Http.Request.form_param request "apikey")
  with
  | Some email, Some apikey -> (
      let consent = Http.Request.form_param request "consent" = Some "true" in
      let gender = Option.value (Http.Request.form_param request "gender") ~default:"" in
      let hash =
        Sesame_ml.Apikey.hash ~iterations:Websubmit_schema.hash_iterations
          ~salt:Websubmit_schema.hash_salt apikey
      in
      match
        Db.Database.exec t.db
          "INSERT INTO users (email, apikey_hash, consent_employer, consent_ml, gender) VALUES (?, ?, ?, ?, ?)"
          ~params:
            [
              Db.Value.Text email;
              Db.Value.Text hash;
              Db.Value.Bool consent;
              Db.Value.Bool consent;
              Db.Value.Text gender;
            ]
      with
      | Ok _ -> Http.Response.text ~status:Http.Status.Created "registered"
      | Error msg -> Http.Response.error Http.Status.Internal_error msg)
  | _ -> Http.Response.error Http.Status.Bad_request "email and apikey are required"

(* GET /answers/<lecture> — the baseline's ad-hoc access control stops at
   "signed in", the kind of missing edge case Sesame's policies close. *)
let view_answers t request =
  require_auth t request @@ fun _user ->
  let lecture =
    Option.value (Http.Request.path_param request "lecture") ~default:"1"
  in
  let rows =
    rows_of
      (Db.Database.exec t.db "SELECT answer FROM answers WHERE lecture = ?"
         ~params:[ Db.Value.Int (int_of_string lecture) ])
  in
  let body =
    rows
    |> List.filter_map (fun row ->
           match row.(0) with Db.Value.Text a -> Some a | _ -> None)
    |> String.concat "\n"
  in
  Http.Response.html ("<html><body><pre>" ^ body ^ "</pre></body></html>")

let router t =
  let router = Http.Router.create () in
  Http.Router.post router "/register" (register_user t);
  Http.Router.get router "/aggregates" (get_aggregates t);
  Http.Router.get router "/employer" (get_employer_info t);
  Http.Router.post router "/retrain" (retrain_model t);
  Http.Router.get router "/predict/<question>" (predict_grades t);
  Http.Router.get router "/answers/<lecture>" (view_answers t);
  router

let handle t request = Http.Router.dispatch (router t) request
