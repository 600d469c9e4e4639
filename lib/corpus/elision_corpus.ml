module Scrut = Sesame_scrutinizer
module Elision = Scrut.Elision

type model = {
  app : string;
  families : Elision.family list;
  sites : Elision.site list;
}

let spec_of name =
  match
    List.find_opt (fun (c : App_corpus.case) -> String.equal c.name name) (App_corpus.cases ())
  with
  | Some c -> c.spec
  | None -> invalid_arg ("elision corpus references unknown region " ^ name)

(* The admin principals mirror the app modules (lib/apps); the corpus
   cannot depend on them, so the constants are restated here and the
   differential tests cross-check the websubmit ones against the app. *)
let websubmit_admins = [ "admin@school.edu" ]
let voltron_admins = [ "dean@university.edu" ]
let portfolio_admins = [ "officer@school.cz" ]

let websubmit_model () =
  {
    app = "websubmit";
    families =
      [
        {
          family = "websubmit::answer-access";
          inspects = [ ("answers", [ "email" ]); ("answers", [ "lecture" ]) ];
          satisfied_when = [ [ Elision.Principal_in websubmit_admins ] ];
          pushable = false;
        };
        {
          family = "websubmit::grade-access";
          inspects = [ ("answers", [ "email" ]) ];
          satisfied_when =
            [
              [ Elision.Custom_eq ("role", "employer") ];
              [ Elision.Principal_in websubmit_admins ];
            ];
          pushable = true;
        };
        {
          family = "websubmit::ml-training";
          inspects = [ ("users", [ "consent_ml" ]) ];
          satisfied_when = [ [ Elision.Sink_not "ml::train" ] ];
          pushable = true;
        };
        {
          (* Instance data only (k, members): residual by construction. *)
          family = "websubmit::k-anonymity";
          inspects = [];
          satisfied_when = [];
          pushable = false;
        };
      ];
    sites =
      [
        {
          endpoint = "/aggregates";
          sinks = [ "http::render" ];
          facts =
            [
              Elision.Principal_in websubmit_admins;
              Elision.Custom_not ("role", "employer");
            ];
          region = Some (spec_of "ws::mean_region");
          row_params = [ ("grades", "answers") ];
        };
        {
          (* The corpus predict region reads only model.weight and
             model.b: the inspected answers.email place is provably
             never released, so grade access is field-disjoint here
             even with no context facts at all. *)
          endpoint = "/predict";
          sinks = [ "http::respond" ];
          facts = [];
          region = Some (spec_of "ws::predict_region");
          row_params = [ ("model", "answers") ];
        };
        {
          (* Training: consent is instance data at exactly the guarded
             sink, so MlTraining cannot be elided — but its binding
             translates to a row predicate, so it classifies pushable. *)
          endpoint = "/retrain";
          sinks = [ "ml::train" ];
          facts = [ Elision.Principal_in websubmit_admins ];
          region = None;
          row_params = [];
        };
      ];
  }

let youchat_model () =
  {
    app = "youchat";
    families =
      [
        {
          (* Sender, recipient, and group membership are all instance
             data: no context clause ever satisfies the check, so every
             triple must classify residual. *)
          family = "youchat::message-access";
          inspects = [ ("messages", [ "sender" ]); ("messages", [ "recipient" ]) ];
          satisfied_when = [];
          pushable = false;
        };
      ];
    sites =
      [
        {
          endpoint = "/inbox";
          sinks = [ "http::render" ];
          facts = [];
          region = Some (spec_of "yc::preview_region");
          row_params = [ ("body", "messages") ];
        };
      ];
  }

let voltron_model () =
  {
    app = "voltron";
    families =
      [
        {
          family = "voltron::enroll-instructor";
          inspects = [];
          satisfied_when = [ [ Elision.Principal_in voltron_admins ] ];
          pushable = false;
        };
        {
          family = "voltron::firebase-auth";
          inspects = [];
          satisfied_when = [ [ Elision.Sink_is "db::query" ] ];
          pushable = false;
        };
        {
          family = "voltron::buffer-read";
          inspects = [ ("enrollments", [ "student" ]); ("classes", [ "instructor" ]) ];
          satisfied_when = [];
          pushable = false;
        };
      ];
    sites =
      [
        {
          (* Dashboard reads: the auth token reaches the read-query sink
             only, where FirebaseAuth is identically true. *)
          endpoint = "/dashboard";
          sinks = [ "db::query" ];
          facts = [];
          region = None;
          row_params = [];
        };
        {
          endpoint = "/buffer";
          sinks = [ "http::render" ];
          facts = [];
          region = Some (spec_of "vt::line_count_region");
          row_params = [ ("code", "buffers") ];
        };
      ];
  }

let portfolio_model () =
  {
    app = "portfolio";
    families =
      [
        {
          family = "portfolio::candidate-data";
          inspects = [ ("candidates", [ "email" ]) ];
          satisfied_when = [ [ Elision.Principal_in portfolio_admins ] ];
          pushable = false;
        };
        {
          (* Key material may reach DB sinks freely but never any other
             sink without the owner: residual at every release site. *)
          family = "portfolio::private-key";
          inspects = [ ("candidates", [ "private_key" ]) ];
          satisfied_when =
            [
              [ Elision.Sink_is "db::insert" ];
              [ Elision.Sink_is "db::query" ];
              [ Elision.Sink_is "db::execute" ];
            ];
          pushable = false;
        };
      ];
    sites =
      [
        {
          endpoint = "/review";
          sinks = [ "http::render" ];
          facts = [ Elision.Principal_in portfolio_admins ];
          region = None;
          row_params = [];
        };
      ];
  }

let models () =
  [ youchat_model (); voltron_model (); portfolio_model (); websubmit_model () ]

let model app = List.find_opt (fun m -> String.equal m.app app) (models ())

let classify ?(scale = App_corpus.Small) m =
  Elision.classify ~program:(App_corpus.program scale) ~families:m.families ~sites:m.sites ()
