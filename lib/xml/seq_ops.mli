(** Node-sequence operations (document order, identity-based). *)

val sort : Node.t list -> Node.t list

val sort_dedup : Node.t list -> Node.t list
(** Document order without duplicates. A sequence already in that form
    is returned as is after one linear check. *)

val union : Node.t list -> Node.t list -> Node.t list
val intersect : Node.t list -> Node.t list -> Node.t list
val except : Node.t list -> Node.t list -> Node.t list
(** Set operators as one sorted merge of the normalised operands; on a
    tie the node of the left operand is kept. *)

val maximal : Node.t list -> Node.t list
(** Drop nodes contained in another node of the set (pass-by-fragment
    deduplication). Result is in document order. *)

val lowest_common_ancestor : Node.t list -> Node.t
(** @raise Invalid_argument on empty input or nodes from different
    documents. *)
