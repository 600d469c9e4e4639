(** The analyzed program: a registry of function bodies plus a trait-impl
    registry used to resolve dynamic dispatch.

    Mirrors the MIR collection of Appendix A: "Scrutinizer first collects
    Rust's MIR representation of all available function bodies ...
    including all possible variants for dynamic dispatch." *)

type t

val create : unit -> t

val define : t -> Ir.func -> unit
(** Raises [Invalid_argument] on a duplicate function name. *)

val define_all : t -> Ir.func list -> unit
val find : t -> string -> Ir.func option
val functions : t -> Ir.func list
(** Sorted by name. *)

val size : t -> int

val register_impl : t -> method_name:string -> impl:string -> unit
(** Declares that the function named [impl] is one implementation of the
    trait method [method_name]. *)

val impls : t -> string -> string list
(** All registered implementations of a method (empty when unknown —
    an unresolvable dispatch). *)

val resolve_dynamic :
  t -> method_name:string -> receiver_hint:string option -> string list option
(** The candidate set for a dynamic call: with a receiver hint ["Type"],
    the single impl named ["Type::method"] if registered; otherwise every
    registered impl. [None] when the set cannot be constructed. *)
