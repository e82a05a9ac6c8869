(** Node handles and XPath axes.

    A node identifies a tree node or an attribute within a stored document.
    Node identity and global document order are derived from the (document
    id, pre index, attribute index) triple, so they survive any amount of
    navigation — but not copying into another document, which is exactly the
    property the paper's message-passing semantics must work around. *)

type t = { doc : Doc.t; idx : int; attr : int }

type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Pi

val kind_to_string : kind -> string

val of_tree : Doc.t -> int -> t
val of_attr : Doc.t -> int -> t
val doc_node : Doc.t -> t
val doc : t -> Doc.t
val index : t -> int
val is_attribute : t -> bool
val kind : t -> kind
val name : t -> string

val compare_order : t -> t -> int
(** Global document order: (document id, pre index, attribute index),
    tree nodes carrying attribute index -1. *)

val same : t -> t -> bool
(** Node identity ([is] in XQuery). *)

val string_value : t -> string
val document_uri : t -> string option

val contains : t -> t -> bool
(** [contains a d] — [d] is [a] or a descendant (or attribute of a
    descendant-or-self) of [a]. *)

(** {2 Navigation} — all results in document order. Path steps over a
    context sequence are [Xd_lang.Step]. *)

val parent : t -> t option
val attributes : t -> t list
val children : t -> t list
val descendants : t -> t list
val descendant_or_self : t -> t list
val root : t -> t

val pp : Format.formatter -> t -> unit
