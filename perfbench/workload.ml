(* Request streams for the three workloads, generated from the seed alone,
   and the output checks every response goes through.

   A workload is a deck of request slots with fixed per-class counts;
   the client deals the deck in a seeded shuffle and reshuffles it after
   each pass, so every pass has exactly the stated shares. Read slots
   hold fixed requests (drawn once from the seed), which the expected-
   response pass records; write slots make a fresh request at deal time. *)

module Http = Sesame_http
module Schema = Sesame_apps.Websubmit_schema

type check =
  | Exact  (** status and body must equal the expected-response pass *)
  | Reply of string  (** the body must be this fixed reply *)
  | Employer  (** consent-dependent body: checked against the client's model *)

type write = Submit of { student : int; question : int } | Consent of { student : int; value : bool }

type request = {
  cls : string;  (** request class, from a fixed vocabulary *)
  meth : Http.Meth.t;
  path : string;
  cookie : string;
  body : string;
  status : int;  (** the status this request must get *)
  refused : bool;  (** a request the policies must refuse *)
  check : check;
  truth : string option;
      (** seeded text the body must contain, checked in the expected-response pass *)
  write : write option;
}

let key r = Printf.sprintf "%s %s %s %s" (Http.Meth.to_string r.meth) r.path r.cookie r.body

let get ?(status = 200) ?(check = Exact) ?truth cls path cookie =
  { cls; meth = Http.Meth.GET; path; cookie; body = ""; status; refused = status >= 400; check; truth; write = None }

let post ?(status = 200) ?write ~reply cls path cookie body =
  { cls; meth = Http.Meth.POST; path; cookie; body; status; refused = false; check = Reply reply; truth = None; write }

(* ------------------------------------------------------------------ *)
(* Principals and ids of the seeded data (see Fixture.seed). *)

let students = Fixture.students
let questions = Fixture.questions
let student s = "user=" ^ Schema.student_email s
let admin = "user=admin@school.edu"

(* Seeding inserts one answer per (student, question), ids from 1. *)
let answer_id s q = 1 + (s * questions) + q
let answer_text s q = Printf.sprintf "answer %d from %s" q (Schema.student_email s)

let chat_user i = Printf.sprintf "user=user%d@chat.io" i
let chat_members = 10 (* youchat seeds users/2 members of group 1 *)
let chat_users = 20

(* Voltron: class c (0, 1) holds 4 students in groups of two; the two
   buffers of class 0 are ids 5 and 6, those of class 1 are 11 and 12. *)
let buffer_id c g = (if c = 0 then 5 else 11) + g
let voltron_student c i = Printf.sprintf "user=student%d_%d@university.edu" c i
let instructor c = Printf.sprintf "user=instructor%d@university.edu" c

let candidates = 10
let candidate_email i = Printf.sprintf "candidate%d@school.cz" i

let candidate_cookie i =
  let _, private_key = Sesame_apps.Crypto.keypair ~seed:(candidate_email i) in
  Printf.sprintf "user=%s; private_key=%s" (candidate_email i) private_key

(* ------------------------------------------------------------------ *)
(* Request classes. Each takes the seed's PRNG and draws one request. *)

let pick rng n = Random.State.int rng n

let view_own rng =
  let s = pick rng students and q = pick rng questions in
  get ~truth:(answer_text s q) "ws.view" (Printf.sprintf "/websubmit/view/%d" (answer_id s q)) (student s)

let browse_classes : (int * (Random.State.t -> request)) list =
  [
    (50, view_own);
    (5, fun rng ->
        get "ws.predict" (Printf.sprintf "/websubmit/predict/%d" (pick rng questions)) admin);
    (8, fun rng -> get "yc.inbox" "/youchat/inbox" (chat_user (pick rng chat_users)));
    (5, fun rng -> get "yc.group" "/youchat/group/1" (chat_user (pick rng chat_members)));
    (8, fun rng ->
        let c = pick rng 2 in
        if pick rng 3 = 0 then
          get "vt.buffer" (Printf.sprintf "/voltron/buffers/%d" (buffer_id c (pick rng 2))) (instructor c)
        else
          let i = pick rng 4 in
          get "vt.buffer" (Printf.sprintf "/voltron/buffers/%d" (buffer_id c (i / 2))) (voltron_student c i));
    (3, fun _ -> get "pf.admin" "/portfolio/admin/candidates" "user=officer@school.cz");
    (6, fun rng ->
        let i = pick rng candidates in
        get ~truth:("transcript of " ^ candidate_email i) "pf.document"
          (Printf.sprintf "/portfolio/documents/%d" (i + 1)) (candidate_cookie i));
    (* Refusals, 15 in 100, each with the status the app must answer. *)
    (3, fun rng ->
        let s = pick rng students and q = pick rng questions in
        let other = (s + 1 + pick rng (students - 1)) mod students in
        get ~status:404 "ws.view.other" (Printf.sprintf "/websubmit/view/%d" (answer_id other q)) (student s));
    (2, fun rng ->
        get ~status:403 "ws.aggregates.student" "/websubmit/aggregates" (student (pick rng students)));
    (2, fun rng ->
        get ~status:403 "ws.predict.student"
          (Printf.sprintf "/websubmit/predict/%d" (pick rng questions)) (student (pick rng students)));
    (1, fun rng ->
        get ~status:401 "ws.anon" (Printf.sprintf "/websubmit/view/%d" (1 + pick rng (students * questions))) "");
    (2, fun rng ->
        get ~status:403 "yc.group.nonmember" "/youchat/group/1"
          (chat_user (chat_members + pick rng (chat_users - chat_members))));
    (2, fun rng ->
        let c = pick rng 2 and i = pick rng 4 in
        (* the other group of the student's own class, or a class-(1-c) buffer *)
        let id = if pick rng 2 = 0 then buffer_id c (1 - (i / 2)) else buffer_id (1 - c) (pick rng 2) in
        get ~status:403 "vt.buffer.denied" (Printf.sprintf "/voltron/buffers/%d" id) (voltron_student c i));
    (2, fun rng ->
        let i = pick rng candidates in
        let owner = (i + 1 + pick rng (candidates - 1)) mod candidates in
        get ~status:403 "pf.document.other" (Printf.sprintf "/portfolio/documents/%d" (owner + 1))
          (candidate_cookie i));
    (1, fun rng ->
        get ~status:403 "pf.admin.candidate" "/portfolio/admin/candidates"
          ("user=" ^ candidate_email (pick rng candidates)));
  ]

let aggregates = get "ws.aggregates" "/websubmit/aggregates" admin
let employer check = get ~check "ws.employer" "/websubmit/employer" ""
let retrain = post ~reply:"model retrained" "ws.retrain" "/websubmit/retrain" admin ""

(* ------------------------------------------------------------------ *)
(* Mixed-workload writes and the client's model of the store they build. *)

type model = {
  consent : bool array;  (** per student, as of the last acknowledged toggle *)
  mutable next_question : int;  (** submits answer questions past the seeded ones *)
  mutable submits_acked : int;
}

let initial_consent s = s mod 3 = 0 (* Websubmit_schema.seed *)

let new_model () =
  { consent = Array.init students initial_consent; next_question = questions; submits_acked = 0 }

(* A toggle flips the student's consent as last acknowledged: with one
   closed-loop connection, every earlier write has been answered. *)
let consent_toggle_of model s =
  let value = not model.consent.(s) in
  post ~reply:"consent updated" ~write:(Consent { student = s; value }) "ws.consent" "/websubmit/consent"
    (student s) (Printf.sprintf "consent=%b" value)

let consent_toggle model rng = consent_toggle_of model (pick rng students)

let submit model rng =
  let s = pick rng students in
  let q = model.next_question in
  model.next_question <- q + 1;
  post ~status:201 ~reply:"submitted" ~write:(Submit { student = s; question = q }) "ws.submit"
    (Printf.sprintf "/websubmit/submit/1/%d" q) (student s) (Printf.sprintf "answer=bench-%d" q)

(* Called once a write got its expected status. *)
let acknowledge model = function
  | Submit _ -> model.submits_acked <- model.submits_acked + 1
  | Consent { student; value } -> model.consent.(student) <- value

(* ------------------------------------------------------------------ *)
(* Decks. *)

type slot = Read of request | Gen of (Random.State.t -> request)

type t = {
  deck : slot array;
  reads : request list;  (** distinct fixed requests, for the expected-response pass *)
  write_share : float;
  model : model;
}

let names = [ "browse"; "analytics"; "mixed" ]

let dedupe reqs =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun r ->
      let k = key r in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    reqs

let make ~name ~seed =
  let rng = Random.State.make [| seed; 0x5e5a |] in
  let model = new_model () in
  let fixed n f = List.init n (fun _ -> Read (f rng)) in
  let deck =
    match name with
    | "browse" ->
        (* 20 draws per share point: a 2000-slot deck. *)
        List.concat_map (fun (share, f) -> fixed (20 * share) f) browse_classes
    | "analytics" -> [ Read aggregates; Read aggregates; Read (employer Exact); Read (employer Exact); Read retrain ]
    | "mixed" ->
        (* 90/10 reads to writes, the repo's mixed-traffic mix (the
           parcheck and serve experiments). *)
        fixed 800 view_own
        @ List.init 50 (fun _ -> Read aggregates)
        @ List.init 50 (fun _ -> Read (employer Employer))
        @ List.init 50 (fun _ -> Gen (consent_toggle model))
        @ List.init 50 (fun _ -> Gen (submit model))
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  let deck = Array.of_list deck in
  let reads = dedupe (List.filter_map (function Read r -> Some r | Gen _ -> None) (Array.to_list deck)) in
  let writes = Array.fold_left (fun n -> function Gen _ -> n + 1 | Read _ -> n) 0 deck in
  { deck; reads; write_share = float_of_int writes /. float_of_int (Array.length deck); model }

(* An endless stream: the deck dealt in a seeded shuffle, reshuffled
   after each pass. *)
let stream t ~seed =
  let rng = Random.State.make [| seed; 0xdea1 |] in
  let order = Array.init (Array.length t.deck) Fun.id in
  let pos = ref (Array.length order) in
  fun () ->
    if !pos >= Array.length order then begin
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      pos := 0
    end;
    let slot = t.deck.(order.(!pos)) in
    incr pos;
    match slot with Read r -> r | Gen f -> f rng

(* ------------------------------------------------------------------ *)
(* Output checks. *)

(* The fixed redacted bodies a refusal may carry. *)
let redacted =
  [ "no such answer"; "not signed in"; "administrators only"; "policy check failed"; "admissions officers only" ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let mean_grade s =
  let email = Schema.student_email s in
  let sum = ref 0.0 in
  for q = 0 to questions - 1 do
    sum := !sum +. Schema.pseudo_grade email q
  done;
  !sum /. float_of_int questions

(* /employer lists "email,avg" for exactly the students consenting now;
   submits add ungraded answers, so each average is the seeded one. *)
let employer_ok model body =
  let lines = if body = "" then [] else String.split_on_char '\n' body in
  let expected = List.filter (fun s -> model.consent.(s)) (List.init students Fun.id) in
  List.length lines = List.length expected
  && List.for_all
       (fun s ->
         let prefix = Schema.student_email s ^ "," in
         List.exists
           (fun line ->
             String.length line > String.length prefix
             && String.sub line 0 (String.length prefix) = prefix
             &&
             match
               float_of_string_opt
                 (String.sub line (String.length prefix) (String.length line - String.length prefix))
             with
             | Some avg -> Float.abs (avg -. mean_grade s) <= 0.006
             | None -> false)
           lines)
       expected

(* [expected] is the response this request got in the expected-response
   pass, for [Exact] requests. A refusal must also carry one of the fixed
   redacted bodies, none of which holds a seeded secret. *)
let check_response t ~expected (r : request) ~status ~body =
  status = r.status
  && ((not r.refused) || List.mem body redacted)
  &&
  match r.check with
  | Exact -> ( match expected with Some (s, b) -> s = status && b = body | None -> false)
  | Reply reply -> body = reply
  | Employer -> employer_ok t.model body

(* The expected-response pass itself is checked against the seed. *)
let check_truth (r : request) ~status ~body =
  status = r.status
  && ((not r.refused) || List.mem body redacted)
  && match r.truth with Some text -> contains body text | None -> true
