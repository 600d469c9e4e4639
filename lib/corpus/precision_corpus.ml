(* Field-disjoint precision regions: leakage-free code the var-granular
   seed engine wrongly rejected because one sensitive field poisons the
   whole struct. Every [flips] case is accepted by the place-sensitive
   engine; the controls are flows it must keep rejecting — genuine leaks
   plus its deliberate conservatisms (depth widening, index insensitivity,
   var-granular taint signatures). *)

module Scrut = Sesame_scrutinizer
open Scrut.Ir

type case = {
  name : string;
  spec : Scrut.Spec.t;
  flips : bool;
  description : string;
}

let program () =
  let p = Scrut.Program.create () in
  Scrut.Program.define_all p
    [
      (* The audit sink: a native body nothing sensitive may reach. *)
      native ~package:"audit" ~name:"audit::emit" ~params:[ "msg" ] ();
      (* Writes its second argument into one field of its first — the
         per-parameter per-path write-back summary is (dst, [secret]). *)
      func ~name:"pc::set_secret" ~params:[ "dst"; "v" ]
        [ Assign (Lfield ("dst", "secret"), Var "v") ];
      (* Same shape one level down: fills dst.email, so a caller passing
         prof.contact sees the write land at prof.contact.email. *)
      func ~name:"pc::fill_contact" ~params:[ "dst"; "v" ]
        [ Assign (Lfield ("dst", "email"), Var "v") ];
      (* Splices to a depth-2 write-back: (dst, contact.email). *)
      func ~name:"pc::fill_deep" ~params:[ "dst"; "v" ]
        [ Expr_stmt (Call (Static "pc::fill_contact", [ Field (Var "dst", "contact"); Var "v" ])) ];
      (* Depth 3: home.contact.email widens to (dst, home.contact). *)
      func ~name:"pc::fill_deeper" ~params:[ "dst"; "v" ]
        [ Expr_stmt (Call (Static "pc::fill_deep", [ Field (Var "dst", "home"); Var "v" ])) ];
      (* Reads only the clean sibling field of its argument. *)
      func ~name:"pc::summarize" ~params:[ "rec" ]
        [ Return (Some (Field (Var "rec", "public"))) ];
    ];
  p

let spec name body = Scrut.Spec.make ~name ~params:[ "q" ] body

let flip name ~description body = { name; spec = spec name body; flips = true; description }

let control name ~description body =
  { name; spec = spec name body; flips = false; description }

let cases () =
  [
    (* -------- flips: rejected by the seed engine, leakage-free -------- *)
    flip "pc::local_field_disjoint"
      ~description:"sink reads the clean sibling of a tainted field"
      [
        Let ("rec", Str_lit "record");
        Assign (Lfield ("rec", "secret"), Var "q");
        Expr_stmt (Call (Static "audit::emit", [ Field (Var "rec", "public") ]));
      ];
    flip "pc::callee_writeback_disjoint"
      ~description:"callee writes dst.secret; sink reads dst.public"
      [
        Let ("rec", Str_lit "record");
        Expr_stmt (Call (Static "pc::set_secret", [ Ref_mut "rec"; Var "q" ]));
        Expr_stmt (Call (Static "audit::emit", [ Field (Var "rec", "public") ]));
      ];
    flip "pc::global_clean_field"
      ~description:"global write of a clean sibling field"
      [
        Let ("form", Str_lit "form");
        Assign (Lfield ("form", "token"), Var "q");
        Assign (Lglobal "stats", Field (Var "form", "count"));
      ];
    flip "pc::nested_disjoint"
      ~description:"depth-2 write-back; sink reads the disjoint depth-2 sibling"
      [
        Let ("prof", Str_lit "profile");
        Expr_stmt (Call (Static "pc::fill_deep", [ Ref_mut "prof"; Var "q" ]));
        Expr_stmt
          (Call (Static "audit::emit", [ Field (Field (Var "prof", "contact"), "phone") ]));
      ];
    flip "pc::branch_clean_field"
      ~description:"branch on a clean field with an effect in the body"
      [
        Let ("st", Str_lit "state");
        Assign (Lfield ("st", "secret"), Var "q");
        If
          ( Field (Var "st", "flag"),
            [ Expr_stmt (Call (Static "audit::emit", [ Str_lit "ping" ])) ],
            [] );
      ];
    flip "pc::copy_clean_field"
      ~description:"a let-copy of the clean field stays clean"
      [
        Let ("form", Str_lit "form");
        Assign (Lfield ("form", "body"), Var "q");
        Let ("meta", Field (Var "form", "meta"));
        Expr_stmt (Call (Static "audit::emit", [ Var "meta" ]));
      ];
    (* -------- controls: flows the place-sensitive engine must keep
       rejecting (genuine leaks and deliberate conservatisms) -------- *)
    control "pc::callee_reads_clean_field"
      ~description:
        "argument taint signatures are var-granular: a part-tainted struct passed whole is conservatively tainted"
      [
        Let ("rec", Str_lit "record");
        Assign (Lfield ("rec", "secret"), Var "q");
        Expr_stmt
          (Call (Static "audit::emit", [ Call (Static "pc::summarize", [ Var "rec" ]) ]));
      ];
    control "pc::same_field_leak"
      ~description:"the tainted field itself reaches the sink"
      [
        Let ("rec", Str_lit "record");
        Assign (Lfield ("rec", "secret"), Var "q");
        Expr_stmt (Call (Static "audit::emit", [ Field (Var "rec", "secret") ]));
      ];
    control "pc::whole_struct_leak"
      ~description:"the whole struct (tainted field included) reaches the sink"
      [
        Let ("rec", Str_lit "record");
        Assign (Lfield ("rec", "secret"), Var "q");
        Expr_stmt (Call (Static "audit::emit", [ Var "rec" ]));
      ];
    control "pc::depth_widening"
      ~description:"beyond depth k the path widens and siblings merge"
      [
        Let ("prof", Str_lit "profile");
        (* The write lands at prof.home.contact.email, truncated to
           prof.home.contact — so the depth-3 sibling read below overlaps
           the widened entry and is conservatively rejected. *)
        Expr_stmt (Call (Static "pc::fill_deeper", [ Ref_mut "prof"; Var "q" ]));
        Expr_stmt
          (Call
             ( Static "audit::emit",
               [ Field (Field (Field (Var "prof", "home"), "contact"), "phone") ] ));
      ];
    control "pc::index_insensitive"
      ~description:"element writes merge at the base: index positions are runtime values"
      [
        Let ("arr", Vec []);
        Assign (Lindex ("arr", Int_lit 0), Var "q");
        Expr_stmt (Call (Static "audit::emit", [ Index (Var "arr", Int_lit 1) ]));
      ];
  ]

let counts () =
  let cs = cases () in
  let flips = List.length (List.filter (fun c -> c.flips) cs) in
  (flips, List.length cs - flips)
