(** The XRPC wire protocol: SOAP-style XML messages in the three passing
    semantics of the paper (Figs. 1, 4, 5).

    - {e pass-by-value}: every node item is an isolated deep copy
      ([<copy>]); the receiver shreds each into a fresh document —
      exactly Problems 1-4.
    - {e pass-by-fragment}: node data travels once, in a [<fragments>]
      preamble holding the maximal subtrees in document order; items are
      [(fragid, nodeid)] references. Every reference additionally carries
      an origin key and both endpoints keep per-session origin tables, so
      a node received earlier in the session is referenced back instead of
      re-copied — the paper's single-message dedup generalized to the bulk
      session, preserving identity across round trips.
    - {e pass-by-projection}: fragments contain the runtime projection
      (Algorithm 1) of the used/returned node sets from the relative
      projection paths; requests carry a [<projection-paths>] element
      telling the callee how to project the response.

    Shredded fragments receive document ids derived from their origin
    keys, so document order among fragments of one sender is preserved at
    the receiver. *)

type passing = By_value | By_fragment | By_projection

val passing_to_string : passing -> string
val passing_of_string : string -> passing

(** {2 Faults} *)

exception Protocol_error of string
(** A structurally ill-formed message: the XML parsed, but the protocol
    content is wrong (missing elements/attributes, bad references,
    unknown enumeration values). Servers answer these with a
    non-retryable [xrpc:protocol.malformed] fault. *)

val protocol_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** The fault-code taxonomy (PROTOCOL.md, "Faults"). Transport-class
    faults are retryable — the same request may succeed on a clean wire;
    the others are deterministic. *)
type fault_code =
  | Transport_corrupt
  | Transport_timeout
  | Protocol_malformed
  | App_dynamic
  | App_type
  | Txn_aborted  (** the distributed transaction was aborted by 2PC *)
  | Topo_unroutable
      (** forwarding could not reach an owner: hop limit exhausted or a
          redirect loop (PROTOCOL.md, "Topology & forwarding") *)
  | Server_overloaded
      (** the peer's admission queue is full; retryable, with a
          server-suggested retry-after delay (PROTOCOL.md, "Deadlines &
          overload") *)
  | Deadline_exceeded
      (** the remaining deadline budget cannot cover the call's minimum
          service time; never retryable — budgets only shrink *)

exception
  Xrpc_fault of { host : string; code : fault_code; reason : string }
(** A parsed [<env:Fault>] response from [host], re-raised client-side. *)

exception Xrpc_timeout of { host : string; attempts : int }
(** No response from [host] within the per-call timeout, after
    [attempts] total sends. *)

exception Xrpc_forward of { doc : string; owner : string; epoch : int }
(** A parsed [<forward>] redirect answer: the callee no longer owns
    [doc]; re-resolve and retry at [owner]. Raised by the response
    shredder, consumed by {!Session}'s forwarding loop. *)

val retryable : fault_code -> bool
val fault_code_to_string : fault_code -> string

val fault_code_of_string : string -> fault_code
(** Raises {!Protocol_error} on an unknown code. *)

val envelope : string -> string
(** Wrap body content in the SOAP
    [<env:Envelope>]/[<env:Body>] scaffolding shared by every message. *)

val fault_body :
  ?retry_after:float -> code:fault_code -> reason:string -> unit -> string
(** Just the [<env:Fault>] element — embedded per-call inside batch
    responses. [retry_after] stamps the fixed-width server backoff
    suggestion (overload faults only). *)

val write_fault :
  ?retry_after:float -> code:fault_code -> reason:string -> unit -> string
(** A complete [<env:Fault>] response envelope. *)

(** {2 Transaction control} (PROTOCOL.md, "Transactions")

    2PC control messages are tiny dedicated envelopes — the coordinator
    sends [<prepare|commit|abort txn="T"/>], the participant acks with
    [<txn-ack txn="T" state="…"/>]. They are idempotent by construction
    and carry no request-id. *)

type txn_action = Prepare | Commit | Abort

val txn_action_to_string : txn_action -> string

type txn_ack = Ack_prepared | Ack_committed | Ack_aborted

val txn_ack_to_string : txn_ack -> string
val txn_ack_of_string : string -> txn_ack
val write_txn_control :
  ?epoch:int ->
  ?deadline:float ->
  action:txn_action ->
  txn:string ->
  unit ->
  string
(** [epoch] rides only on [<prepare>] under dynamic topology: a
    participant whose catalog epoch differs votes abort. [deadline]
    rides 2PC control only when the query has a budget. Absent both =
    static build, byte-identical wire. *)

val write_txn_ack : txn:string -> ack:txn_ack -> string

(** {2 Topology envelopes} (PROTOCOL.md, "Topology & forwarding") *)

val forward_body : doc:string -> owner:string -> epoch:int -> string
(** Just the [<forward doc owner epoch>] element (response position):
    the answering peer no longer owns [doc]. *)

val write_forward : doc:string -> owner:string -> epoch:int -> string

val parse_forward : Xd_xml.Node.t -> string * string * int
(** Read a [<forward>] element back into (doc, owner, epoch). Raises
    {!Protocol_error} on missing attributes, a bad epoch or an empty
    owner — malformed redirects become typed faults, never leaked
    exceptions. *)

val catalog_body : Xd_topo.Catalog.t -> string
val write_catalog : Xd_topo.Catalog.t -> string

val parse_catalog : Xd_xml.Node.t -> Xd_topo.Catalog.t
(** Read a [<catalog>] element back into a fresh catalog. Raises
    {!Protocol_error} on malformed entries/members. *)

val write_catalog_ack : epoch:int -> string
(** The [<catalog-ack epoch>] envelope a peer answers a catalog push
    with. *)

(** {2 Tracing header}

    Requests (and 2PC control messages) may carry an optional [<trace>]
    element as the first child of [<env:Body>], linking server-side
    spans under the caller's attempt span. The header is telemetry, not
    protocol: it is excluded from wire accounting ({!Network.send}
    [~meta]) and a header that cannot be decoded is simply ignored. *)

val trace_header : trace_id:string -> span_id:string -> string
(** [<trace trace-id=".." span-id=".."/>]; ids are 1–32 lowercase hex
    chars ({!Xd_obs.Trace.valid_id}). *)

val inject_trace_header : string -> header:string -> string * int * int
(** [inject_trace_header text ~header] inserts [header] right after
    [<env:Body>] and returns [(text', at, len)] — the header's byte
    range for {!Network.send}'s [~meta]. Text without an envelope body
    is returned unmodified (with a zero range). *)

val peek_trace_header : string -> (string * string) option
(** Textually decode a message's [(trace_id, span_id)]. [None] when the
    header is absent or malformed (bad hex ids, missing attributes,
    truncated) — such calls proceed untraced, never faulted. *)

val parse_txn_ack : Xd_xml.Node.t -> string * txn_ack
(** Read a [<txn-ack>] element back into (txn, ack). *)

val parse_fault : Xd_xml.Node.t -> fault_code * string
(** Read an [<env:Fault>] element back into (code, reason). *)

(** {2 Deadlines & overload} (PROTOCOL.md, "Deadlines & overload")

    Deadline and retry-after budgets ride the wire as fixed-width
    attributes: deterministic byte cost, re-stampable in place per retry
    attempt. Like the [<trace>] header they are invisible to the fault
    schedule — installing a deadline must not shift which messages an
    existing fault spec hits — but unlike [<trace>] they {e are} billed:
    the budget is real protocol payload. *)

val deadline_value : float -> string
(** ["%015.6f"] of the budget in simulated seconds, clamped at 0. *)

val retry_after_value : float -> string
(** ["%08.4f"] of the suggested delay, clamped at 0. *)

val buf_deadline : Buffer.t -> float -> unit
(** Append [ deadline="…"] (fixed width) to a message under
    construction. *)

val patch_deadline : string -> remaining:float -> string * (int * int) option
(** Re-stamp the message's (first) deadline attribute with the budget
    remaining now; returns the attribute's byte range for
    {!Network.send}'s [~hidden]. Identity on messages without one. *)

val overload_ranges : string -> (int * int) list
(** Byte ranges of every fixed-width deadline / retry-after attribute in
    the message, sorted by position — the fault schedule's blind spots.
    Only consulted when the overload layer is active. *)

val parse_deadline : Xd_xml.Node.t -> float option
(** The [deadline] attribute of a parsed request / batch / 2PC control
    element. Raises {!Protocol_error} on a malformed or negative value —
    typed [xrpc:protocol.malformed] faults, never silent ignores. *)

val parse_retry_after : Xd_xml.Node.t -> float option
(** The [retry-after] suggestion on a parsed [<env:Fault>]. Raises
    {!Protocol_error} on a malformed or negative value. *)

type foreign = { from_host : string; remote_did : int; omap : int array }
(** Provenance of a document shredded from a remote fragment:
    [omap.(local_idx) = remote original tree index]. *)

type endpoint = {
  self : Peer.t;
  foreign_docs : (int, foreign) Hashtbl.t;
  origin : (string * int * int, Xd_xml.Node.t) Hashtbl.t;
  shipped : (string, (int, Set.Make(Int).t ref) Hashtbl.t) Hashtbl.t;
  host_base : (string, int) Hashtbl.t;
}
(** Per-session per-peer marshaling state. *)

val make_endpoint : Peer.t -> endpoint

val remote_origin :
  endpoint -> host:string -> Xd_xml.Node.t -> (int * int) option
(** If the node was shredded from [host]'s data: its original identity
    there. Such nodes are referenced back, never re-shipped. *)

(** {2 Writer} *)

val buf_attr : Buffer.t -> string -> string -> unit
val buf_text : Buffer.t -> string -> unit
val effective_node : Xd_xml.Node.t -> Xd_xml.Node.t
(** Attributes travel with their owner element. *)

type frag = {
  fr_okey : int * int;
  fr_base_uri : string option;
  fr_omap : int list option;
  fr_content : Buffer.t -> unit;
  fr_nodeid : int -> int option;
}

val value_nodes : Xd_lang.Value.t list -> Xd_xml.Node.t list

val plan_by_fragment :
  endpoint -> host:string -> Xd_xml.Node.t list -> frag list
(** Maximal not-yet-shipped subtrees, registering session coverage. *)

val plan_by_projection :
  ?schema:(string -> string list) ->
  endpoint ->
  host:string ->
  used:Xd_xml.Node.t list ->
  returned:Xd_xml.Node.t list ->
  frag list
(** Per-document runtime projections of the given node sets. A returned
    attribute makes its owner merely used — attributes always travel with
    their element. *)

val write_fragments : Buffer.t -> frag list -> unit
val write_atom : Buffer.t -> Xd_lang.Value.atom -> unit
val write_copy : Buffer.t -> Xd_xml.Node.t -> unit

val write_ref :
  endpoint -> host:string -> frags:frag list -> Buffer.t -> Xd_xml.Node.t ->
  unit

val write_sequence :
  endpoint ->
  host:string ->
  passing:passing ->
  frags:frag list ->
  Buffer.t ->
  ?param:string ->
  Xd_lang.Value.t ->
  unit

(** {2 Reader (shredding)} *)

val find_child : Xd_xml.Node.t -> string -> Xd_xml.Node.t option
val children_named : Xd_xml.Node.t -> string -> Xd_xml.Node.t list
val attr_of : Xd_xml.Node.t -> string -> string option
val req_attr : Xd_xml.Node.t -> string -> string
val copy_children_to_doc : ?uri:string -> Xd_xml.Node.t -> Xd_xml.Doc.t

val shred_fragments :
  ?prebuilt:(int, Xd_xml.Doc.t) Hashtbl.t ->
  endpoint -> from_host:string -> Xd_xml.Node.t option -> unit
(** Parse a [<fragments>] section into fresh documents with origin-derived
    ids, registering provenance and origin entries. [prebuilt] (from
    [Codec.event_parse]) maps a fragment/copy element's pre-order index
    in the message document to its content, already shredded during the
    parse — when present it replaces the node-by-node child copy. *)

val shred_item :
  ?prebuilt:(int, Xd_xml.Doc.t) Hashtbl.t ->
  endpoint -> from_host:string -> Xd_xml.Node.t -> Xd_lang.Value.t

val shred_sequence :
  ?prebuilt:(int, Xd_xml.Doc.t) Hashtbl.t ->
  endpoint -> from_host:string -> Xd_xml.Node.t -> Xd_lang.Value.t
