module Db = Sesame_db

let hash_salt = "websubmit-apikey-salt"
let hash_iterations = 32

let users =
  Db.Schema.make_exn ~name:"users" ~primary_key:"email"
    [
      { name = "email"; ty = Db.Value.Ttext; nullable = false };
      { name = "apikey_hash"; ty = Db.Value.Ttext; nullable = false };
      { name = "consent_employer"; ty = Db.Value.Tbool; nullable = false };
      { name = "consent_ml"; ty = Db.Value.Tbool; nullable = false };
      { name = "gender"; ty = Db.Value.Ttext; nullable = true };
    ]

let answers =
  Db.Schema.make_exn ~name:"answers" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "email"; ty = Db.Value.Ttext; nullable = false };
      { name = "lecture"; ty = Db.Value.Tint; nullable = false };
      { name = "question"; ty = Db.Value.Tint; nullable = false };
      { name = "answer"; ty = Db.Value.Ttext; nullable = false };
      { name = "grade"; ty = Db.Value.Tfloat; nullable = true };
    ]

let leaders =
  Db.Schema.make_exn ~name:"discussion_leaders" ~primary_key:"id"
    [
      { name = "id"; ty = Db.Value.Tint; nullable = false };
      { name = "email"; ty = Db.Value.Ttext; nullable = false };
      { name = "lecture"; ty = Db.Value.Tint; nullable = false };
    ]

let pseudo_grade student question =
  let h = Hashtbl.hash (student, question, "grade") in
  40.0 +. float_of_int (h mod 61)

let student_email i = Printf.sprintf "student%d@school.edu" i

let seed db ~students ~questions =
  let ( let* ) = Result.bind in
  let check = function Ok _ -> Ok () | Error msg -> Error msg in
  let insert_user i =
    let email = student_email i in
    let key = Sesame_ml.Apikey.generate ~seed:i in
    let hash = Sesame_ml.Apikey.hash ~iterations:hash_iterations ~salt:hash_salt key in
    let consents = i mod 3 = 0 in
    Db.Database.exec db
      "INSERT INTO users (email, apikey_hash, consent_employer, consent_ml, gender) VALUES (?, ?, ?, ?, ?)"
      ~params:
        [
          Db.Value.Text email;
          Db.Value.Text hash;
          Db.Value.Bool consents;
          Db.Value.Bool consents;
          Db.Value.Text (if i mod 2 = 0 then "f" else "m");
        ]
  in
  let insert_answer student question =
    let email = student_email student in
    Db.Database.exec db
      "INSERT INTO answers (email, lecture, question, answer, grade) VALUES (?, ?, ?, ?, ?)"
      ~params:
        [
          Db.Value.Text email;
          Db.Value.Int 1;
          Db.Value.Int question;
          Db.Value.Text (Printf.sprintf "answer %d from %s" question email);
          Db.Value.Float (pseudo_grade email question);
        ]
  in
  let* () =
    List.fold_left
      (fun acc i -> match acc with Error _ -> acc | Ok () -> check (insert_user i))
      (Ok ())
      (List.init students Fun.id)
  in
  let* () =
    List.fold_left
      (fun acc (s, q) -> match acc with Error _ -> acc | Ok () -> check (insert_answer s q))
      (Ok ())
      (List.concat_map (fun s -> List.init questions (fun q -> (s, q))) (List.init students Fun.id))
  in
  let* () =
    check
      (Db.Database.exec db
         "INSERT INTO discussion_leaders (id, email, lecture) VALUES (?, ?, ?)"
         ~params:[ Db.Value.Int 1; Db.Value.Text "leader@school.edu"; Db.Value.Int 1 ])
  in
  check
    (Db.Database.exec db
       "INSERT INTO discussion_leaders (id, email, lecture) VALUES (?, ?, ?)"
       ~params:[ Db.Value.Int 2; Db.Value.Text (student_email 0); Db.Value.Int 1 ])
