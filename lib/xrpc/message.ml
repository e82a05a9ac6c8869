(* The XRPC wire protocol: SOAP-style XML messages in the three passing
   semantics of the paper.

   - pass-by-value: every node item is deep-copied into the message in its
     own wrapper; the receiver shreds each wrapper into a separate fresh
     document. Identity, order, ancestors and cross-item structure are lost
     — exactly Problems 1-4.

   - pass-by-fragment: all node-valued data is grouped in a <fragments>
     preamble. Only the *maximal* subtrees are serialized (a shipped node
     that is a descendant of another shipped node is never serialized
     twice), fragments are sorted in document order, and the <call> section
     carries (fragid, nodeid) references. Additionally every reference
     carries an origin key, and both endpoints keep per-session origin
     tables: a node that was received from the other side earlier in the
     session is referenced back by *its* origin instead of being re-copied.
     This generalizes the paper's single-message dedup to the whole bulk
     session, preserving node identity across round trips (a remote
     function returning its own parameter yields the caller's original
     node, not a copy).

   - pass-by-projection: like by-fragment, but fragments contain the
     runtime projection (Algorithm 1) of the used/returned node sets
     derived from the relative projection paths, and the request carries a
     <projection-paths> element telling the callee how to project the
     response. Ancestors up to the lowest common ancestor travel with the
     data, so reverse/horizontal axes and fn:root/fn:id/fn:idref work on
     shipped nodes.

   Document ids of shredded fragments are derived from origin keys, so
   document order among fragments of one sending store is preserved at the
   receiver — the by-fragment ordering guarantee, extended session-wide. *)

module X = Xd_xml
module Value = Xd_lang.Value
module Iset = Set.Make (Int)

type passing = By_value | By_fragment | By_projection

(* A structurally ill-formed message: the XML parsed, but the protocol
   content is wrong (missing elements/attributes, bad references, unknown
   enumeration values). The server answers these with a non-retryable
   protocol fault instead of letting them surface as confusing downstream
   dynamic errors. *)
exception Protocol_error of string

let protocol_error fmt =
  Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

let passing_to_string = function
  | By_value -> "by-value"
  | By_fragment -> "by-fragment"
  | By_projection -> "by-projection"

let passing_of_string = function
  | "by-value" -> By_value
  | "by-fragment" -> By_fragment
  | "by-projection" -> By_projection
  | s -> protocol_error "unknown passing mode %S" s

(* ------------------------------------------------------------------ *)
(* SOAP Faults.                                                        *)
(* ------------------------------------------------------------------ *)

(* The fault-code taxonomy (PROTOCOL.md). Transport-class faults are
   retryable: the same request may well succeed on a clean wire. The
   others are deterministic — retrying cannot help. *)
type fault_code =
  | Transport_corrupt (* message damaged in flight (e.g. truncated) *)
  | Transport_timeout (* an upstream peer did not answer in time *)
  | Protocol_malformed (* well-formed XML, ill-formed protocol content *)
  | App_dynamic (* XQuery dynamic error raised by the remote body *)
  | App_type (* XQuery type error raised by the remote body *)
  | Txn_aborted (* the distributed transaction was aborted by 2PC *)
  | Topo_unroutable (* forwarding could not reach an owner (hop limit
                       exhausted or a redirect loop) *)
  | Server_overloaded (* admission queue full: the peer sheds the request
                         and suggests a retry-after delay *)
  | Deadline_exceeded (* the remaining deadline budget cannot cover the
                         call's minimum service time *)

exception
  Xrpc_fault of { host : string; code : fault_code; reason : string }

exception Xrpc_timeout of { host : string; attempts : int }

(* A well-formed <forward> redirect answer: the callee no longer owns the
   data; the caller should re-resolve and retry at [owner]. Raised by the
   response shredder, consumed by Session's forwarding loop. *)
exception Xrpc_forward of { doc : string; owner : string; epoch : int }

(* Server_overloaded is retryable — the queue drains; the server even
   suggests when (retry-after). Deadline_exceeded is not: the budget only
   shrinks, so the retry would be rejected harder. *)
let retryable = function
  | Transport_corrupt | Transport_timeout | Server_overloaded -> true
  | Protocol_malformed | App_dynamic | App_type | Txn_aborted
  | Topo_unroutable | Deadline_exceeded ->
    false

let fault_code_to_string = function
  | Transport_corrupt -> "xrpc:transport.corrupt"
  | Transport_timeout -> "xrpc:transport.timeout"
  | Protocol_malformed -> "xrpc:protocol.malformed"
  | App_dynamic -> "xrpc:app.dynamic-error"
  | App_type -> "xrpc:app.type-error"
  | Txn_aborted -> "xrpc:txn.aborted"
  | Topo_unroutable -> "xrpc:topo.unroutable"
  | Server_overloaded -> "xrpc:server.overloaded"
  | Deadline_exceeded -> "xrpc:deadline.exceeded"

let fault_code_of_string = function
  | "xrpc:transport.corrupt" -> Transport_corrupt
  | "xrpc:transport.timeout" -> Transport_timeout
  | "xrpc:protocol.malformed" -> Protocol_malformed
  | "xrpc:app.dynamic-error" -> App_dynamic
  | "xrpc:app.type-error" -> App_type
  | "xrpc:txn.aborted" -> Txn_aborted
  | "xrpc:topo.unroutable" -> Topo_unroutable
  | "xrpc:server.overloaded" -> Server_overloaded
  | "xrpc:deadline.exceeded" -> Deadline_exceeded
  | s -> protocol_error "unknown fault code %S" s

(* SOAP 1.2 top-level role: sender faults are the caller's doing,
   everything else is on the receiving side. *)
let fault_role = function
  | Protocol_malformed -> "env:Sender"
  | Transport_corrupt | Transport_timeout | App_dynamic | App_type
  | Txn_aborted | Topo_unroutable | Server_overloaded | Deadline_exceeded ->
    "env:Receiver"

(* ------------------------------------------------------------------ *)
(* Session endpoint state.                                             *)
(* ------------------------------------------------------------------ *)

(* Provenance of a document shredded from a remote fragment: which host it
   came from, which remote document, and the remote original tree index for
   each local tree index (omap.(local_idx) = remote_idx; index 0 is the
   local document node). *)
type foreign = { from_host : string; remote_did : int; omap : int array }

type endpoint = {
  self : Peer.t;
  foreign_docs : (int, foreign) Hashtbl.t; (* local did -> provenance *)
  origin : (string * int * int, X.Node.t) Hashtbl.t;
      (* (host, remote did, remote idx) -> local node *)
  shipped : (string, (int, Iset.t ref) Hashtbl.t) Hashtbl.t;
      (* per dest host: my did -> indices already shipped there *)
  host_base : (string, int) Hashtbl.t;
}

let make_endpoint peer =
  {
    self = peer;
    foreign_docs = Hashtbl.create 16;
    origin = Hashtbl.create 64;
    shipped = Hashtbl.create 4;
    host_base = Hashtbl.create 4;
  }

(* Bases come from the store's id space, so synthesized document ids
   never collide across the endpoints of one network. *)
let base_for ep host =
  match Hashtbl.find_opt ep.host_base host with
  | Some b -> b
  | None ->
    let b = X.Store.fresh_base (Peer.store ep.self) in
    Hashtbl.replace ep.host_base host b;
    b

let shipped_for ep host =
  match Hashtbl.find_opt ep.shipped host with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 8 in
    Hashtbl.replace ep.shipped host h;
    h

let shipped_set tbl did =
  match Hashtbl.find_opt tbl did with
  | Some s -> s
  | None ->
    let s = ref Iset.empty in
    Hashtbl.replace tbl did s;
    s

(* Remote origin of a local tree node w.r.t. destination host, if it was
   shredded from that host's data. *)
let remote_origin ep ~host n =
  match Hashtbl.find_opt ep.foreign_docs n.X.Node.doc.X.Doc.did with
  | Some f when f.from_host = host ->
    let idx = X.Node.index n in
    if idx < Array.length f.omap then Some (f.remote_did, f.omap.(idx))
    else None
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Writer helpers.                                                     *)
(* ------------------------------------------------------------------ *)

let buf_attr buf name v =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\"";
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.add_char buf '"'

let buf_text buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s

(* The SOAP wrapper shared by every message; batch responses embed the
   per-call bodies (responses and faults) side by side inside one
   envelope, so the pieces are built separately. *)
let envelope body =
  "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"><env:Body>"
  ^ body ^ "</env:Body></env:Envelope>"

(* Deadline and retry-after ride the wire as fixed-width attributes, so
   their byte cost is deterministic and they can be re-stamped in place on
   every retry attempt without reserializing the message (PROTOCOL.md,
   "Deadlines & overload"). Like the <trace> header they are invisible to
   the fault schedule — installing a deadline must not shift which
   messages an existing fault spec hits — but unlike <trace> they ARE
   billed: the budget is real protocol payload. *)

let deadline_width = 15 (* "00000000.100000" — %015.6f *)
let deadline_value s = Printf.sprintf "%0*.6f" deadline_width (Float.max 0. s)
let deadline_marker = " deadline=\""
let deadline_attr_len = String.length deadline_marker + deadline_width + 1

let retry_after_width = 8 (* "000.0500" — %08.4f *)

let retry_after_value s =
  Printf.sprintf "%0*.4f" retry_after_width (Float.max 0. s)

let retry_after_marker = " retry-after=\""

let buf_deadline buf s =
  Buffer.add_string buf deadline_marker;
  Buffer.add_string buf (deadline_value s);
  Buffer.add_char buf '"'

(* Just the <env:Fault> element (PROTOCOL.md, "Faults"). *)
let fault_body ?retry_after ~code ~reason () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<env:Fault";
  (match retry_after with
  | Some s ->
    Buffer.add_string buf retry_after_marker;
    Buffer.add_string buf (retry_after_value s);
    Buffer.add_char buf '"'
  | None -> ());
  Buffer.add_string buf "><env:Code><env:Value>";
  Buffer.add_string buf (fault_role code);
  Buffer.add_string buf "</env:Value><env:Subcode><env:Value>";
  Buffer.add_string buf (fault_code_to_string code);
  Buffer.add_string buf
    "</env:Value></env:Subcode></env:Code><env:Reason><env:Text>";
  buf_text buf reason;
  Buffer.add_string buf "</env:Text></env:Reason></env:Fault>";
  Buffer.contents buf

(* A complete <env:Fault> response envelope. *)
let write_fault ?retry_after ~code ~reason () =
  envelope (fault_body ?retry_after ~code ~reason ())

(* ------------------------------------------------------------------ *)
(* Transaction control envelopes (PROTOCOL.md, "Transactions").        *)
(* ------------------------------------------------------------------ *)

(* 2PC control messages are tiny dedicated envelopes: the coordinator
   sends <prepare/commit/abort txn="T"/>, the participant acks with
   <txn-ack txn="T" state="…"/>. They are idempotent by construction, so
   unlike <request> they carry no request-id and need no dedup cache. *)

type txn_action = Prepare | Commit | Abort

let txn_action_to_string = function
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Abort -> "abort"

type txn_ack = Ack_prepared | Ack_committed | Ack_aborted

let txn_ack_to_string = function
  | Ack_prepared -> "prepared"
  | Ack_committed -> "committed"
  | Ack_aborted -> "aborted"

let txn_ack_of_string = function
  | "prepared" -> Ack_prepared
  | "committed" -> Ack_committed
  | "aborted" -> Ack_aborted
  | s -> protocol_error "unknown transaction ack state %S" s

(* [epoch] rides only on <prepare> under dynamic topology: the participant
   refuses to prepare when its catalog epoch has moved on (PROTOCOL.md,
   "Topology & forwarding"). Absent epoch = static build, byte-identical.
   [deadline] rides 2PC control only when the query has a budget — control
   messages consume it like any other hop. *)
let write_txn_control ?epoch ?deadline ~action ~txn () =
  let buf = Buffer.create 160 in
  Buffer.add_string buf
    "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"><env:Body><";
  Buffer.add_string buf (txn_action_to_string action);
  buf_attr buf "txn" txn;
  (match epoch with
  | Some e -> buf_attr buf "epoch" (string_of_int e)
  | None -> ());
  (match deadline with Some s -> buf_deadline buf s | None -> ());
  Buffer.add_string buf "/></env:Body></env:Envelope>";
  Buffer.contents buf

let write_txn_ack ~txn ~ack =
  let buf = Buffer.create 160 in
  Buffer.add_string buf
    "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"><env:Body><txn-ack";
  buf_attr buf "txn" txn;
  buf_attr buf "state" (txn_ack_to_string ack);
  Buffer.add_string buf "/></env:Body></env:Envelope>";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Topology envelopes (PROTOCOL.md, "Topology & forwarding").          *)
(* ------------------------------------------------------------------ *)

(* A peer that no longer owns [doc] answers a request with a redirect in
   response position instead of evaluating: the caller re-resolves and
   retries at [owner]. [epoch] is the answering peer's catalog version, so
   the caller can tell a fresh redirect from a stale one. *)
let forward_body ~doc ~owner ~epoch =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "<forward";
  buf_attr buf "doc" doc;
  buf_attr buf "owner" owner;
  buf_attr buf "epoch" (string_of_int epoch);
  Buffer.add_string buf "/>";
  Buffer.contents buf

(* The catalog itself as an envelope: how a replicated registry travels
   between peers (and how [--show-catalog] round-trips in tests). *)
let catalog_body cat =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<catalog";
  buf_attr buf "epoch" (string_of_int (Xd_topo.Catalog.epoch cat));
  Buffer.add_string buf ">";
  List.iter
    (fun e ->
      Buffer.add_string buf "<entry";
      buf_attr buf "doc" e.Xd_topo.Catalog.doc;
      buf_attr buf "owner" e.Xd_topo.Catalog.owner;
      if e.Xd_topo.Catalog.replicas <> [] then
        buf_attr buf "replicas" (String.concat " " e.Xd_topo.Catalog.replicas);
      Buffer.add_string buf "/>")
    (Xd_topo.Catalog.entries cat);
  List.iter
    (fun (p, up) ->
      Buffer.add_string buf "<member";
      buf_attr buf "peer" p;
      buf_attr buf "up" (if up then "true" else "false");
      Buffer.add_string buf "/>")
    (Xd_topo.Catalog.members cat);
  Buffer.add_string buf "</catalog>";
  Buffer.contents buf

let write_catalog_ack ~epoch =
  let buf = Buffer.create 96 in
  Buffer.add_string buf
    "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\"><env:Body><catalog-ack";
  buf_attr buf "epoch" (string_of_int epoch);
  Buffer.add_string buf "/></env:Body></env:Envelope>";
  Buffer.contents buf

(* ---- the optional <trace> telemetry header (PROTOCOL.md, "Tracing") ---- *)

let trace_header ~trace_id ~span_id =
  Printf.sprintf "<trace trace-id=\"%s\" span-id=\"%s\"/>" trace_id span_id

(* Naive substring search; messages are one-shot and small enough. *)
let find_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub text i m = sub then Some i
    else go (i + 1)
  in
  go 0

let body_open = "<env:Body>"

let inject_trace_header text ~header =
  match find_sub text body_open with
  | None -> (text, 0, 0) (* not an envelope: ship unmodified, no header *)
  | Some i ->
    let at = i + String.length body_open in
    ( String.sub text 0 at ^ header
      ^ String.sub text at (String.length text - at),
      at,
      String.length header )

(* Textual peek, deliberately tolerant: any header we cannot fully
   decode — absent, cut off by a truncation fault, missing an attribute,
   or carrying non-hex ids — yields [None] and the call proceeds
   untraced. A malformed header is never worth a fault. *)
let peek_trace_header text =
  let quoted_value text from =
    match String.index_from_opt text from '"' with
    | None -> None
    | Some e -> Some (String.sub text from (e - from), e + 1)
  in
  match find_sub text "<trace trace-id=\"" with
  | None -> None
  | Some i -> (
    let tstart = i + String.length "<trace trace-id=\"" in
    match quoted_value text tstart with
    | None -> None
    | Some (trace_id, after) -> (
      let sep = " span-id=\"" in
      let have_sep =
        String.length text >= after + String.length sep
        && String.sub text after (String.length sep) = sep
      in
      if not have_sep then None
      else
        match quoted_value text (after + String.length sep) with
        | None -> None
        | Some (span_id, after) ->
          let closed =
            String.length text >= after + 2
            && String.sub text after 2 = "/>"
          in
          if
            closed
            && Xd_obs.Trace.valid_id trace_id
            && Xd_obs.Trace.valid_id span_id
          then Some (trace_id, span_id)
          else None))

(* ---- deadline & retry-after wire fields (PROTOCOL.md, "Deadlines &
   overload") ---- *)

let find_sub_from text from sub =
  let n = String.length text and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub text i m = sub then Some i
    else go (i + 1)
  in
  go (Stdlib.max 0 from)

(* Re-stamp the (first, i.e. the envelope's own) deadline attribute with
   the budget remaining *now* — called once per send attempt, after the
   wire time of this very message has been pre-subtracted, so the value
   the callee reads is exactly its budget at receipt. Returns the byte
   range of the whole attribute so the sender can hide it from the fault
   schedule. *)
let patch_deadline text ~remaining =
  match find_sub text deadline_marker with
  | None -> (text, None)
  | Some i ->
    let vstart = i + String.length deadline_marker in
    if String.length text < vstart + deadline_width + 1 then (text, None)
    else begin
      let b = Bytes.of_string text in
      Bytes.blit_string (deadline_value remaining) 0 b vstart deadline_width;
      (Bytes.to_string b, Some (i, deadline_attr_len))
    end

(* Fixed-width attribute value: digits and exactly one dot. *)
let overload_value_ok text vstart width =
  String.length text >= vstart + width + 1
  && text.[vstart + width] = '"'
  &&
  let ok = ref true and dots = ref 0 in
  for k = vstart to vstart + width - 1 do
    match text.[k] with
    | '0' .. '9' -> ()
    | '.' -> incr dots
    | _ -> ok := false
  done;
  !ok && !dots = 1

(* Byte ranges of every deadline / retry-after attribute in [text], sorted
   by position — the fault schedule must not see these bytes, or turning
   on deadlines would shift which messages an existing spec hits. Only
   consulted when the overload layer is active. *)
let overload_ranges text =
  let collect marker width acc =
    let mlen = String.length marker in
    let rec go from acc =
      match find_sub_from text from marker with
      | None -> acc
      | Some i ->
        if overload_value_ok text (i + mlen) width then
          go (i + mlen + width + 1) ((i, mlen + width + 1) :: acc)
        else go (i + mlen) acc
    in
    go 0 acc
  in
  collect deadline_marker deadline_width []
  |> collect retry_after_marker retry_after_width
  |> List.sort compare

(* The node used for structural shipping: attributes travel with their
   owner element. *)
let effective_node n =
  if X.Node.is_attribute n then X.Node.of_tree n.X.Node.doc (X.Node.index n)
  else n

(* ------------------------------------------------------------------ *)
(* Fragment planning (sender side).                                    *)
(* ------------------------------------------------------------------ *)

type frag = {
  fr_okey : int * int; (* (sender did, sender root idx) *)
  fr_base_uri : string option;
  fr_omap : int list option; (* explicit map (by-projection); None = contiguous *)
  fr_content : Buffer.t -> unit; (* serializer for the fragment content *)
  fr_nodeid : int -> int option; (* sender tree idx -> nodeid in fragment *)
}

(* All node items of a list of values. *)
let value_nodes vs =
  List.concat_map
    (fun v ->
      List.filter_map (function Value.N n -> Some n | Value.A _ -> None) v)
    vs

(* By-fragment: ship maximal subtrees of the not-yet-shipped local nodes. *)
let plan_by_fragment ep ~host nodes =
  let local =
    List.filter (fun n -> remote_origin ep ~host n = None) nodes
    |> List.map effective_node
  in
  let maximal = X.Seq_ops.maximal local in
  let tbl = shipped_for ep host in
  let to_send =
    List.filter
      (fun m ->
        let s = shipped_set tbl m.X.Node.doc.X.Doc.did in
        not (Iset.mem (X.Node.index m) !s))
      maximal
  in
  List.map
    (fun m ->
      let d = m.X.Node.doc in
      let idx = X.Node.index m in
      let s = shipped_set tbl d.X.Doc.did in
      for i = idx to idx + d.X.Doc.size.(idx) do
        s := Iset.add i !s
      done;
      let size = d.X.Doc.size.(idx) in
      {
        fr_okey = (d.X.Doc.did, idx);
        fr_base_uri = X.Doc.uri d;
        fr_omap = None;
        fr_content = (fun buf -> X.Serializer.node_to_buf buf m);
        fr_nodeid =
          (fun i -> if i >= idx && i <= idx + size then Some (i - idx + 1) else None);
      })
    to_send

(* By-projection: project each touched document on the used/returned node
   sets and ship the projection (unless everything needed was already
   shipped this session). *)
let plan_by_projection ?schema ep ~host ~used ~returned =
  let local n = remote_origin ep ~host n = None in
  (* a *returned* attribute only needs its owner element bare: attributes
     always travel with their element, so the owner goes to the used set
     (shipping its whole subtree would defeat the projection) *)
  let ret_attrs, ret_elems =
    List.partition X.Node.is_attribute (List.filter local returned)
  in
  let used =
    (List.filter local used |> List.map effective_node)
    @ List.map effective_node ret_attrs
  in
  let returned = ret_elems in
  let tbl = shipped_for ep host in
  let groups = Xd_projection.Runtime.group_by_doc (used @ returned) in
  List.filter_map
    (fun (d, _) ->
      let pr = Xd_projection.Runtime.project ?schema ~used ~returned d in
      if pr.Xd_projection.Runtime.kept = 0 then None
      else begin
        let kept_orig =
          Hashtbl.fold (fun o _ acc -> o :: acc) pr.Xd_projection.Runtime.map []
        in
        let s = shipped_set tbl d.X.Doc.did in
        if List.for_all (fun o -> Iset.mem o !s) kept_orig then None
        else begin
          List.iter (fun o -> s := Iset.add o !s) kept_orig;
          (* omap: original index per projected preorder position 1.. *)
          let pairs =
            Hashtbl.fold
              (fun o p acc -> if p >= 1 then (p, o) :: acc else acc)
              pr.Xd_projection.Runtime.map []
            |> List.sort compare
          in
          let omap = List.map snd pairs in
          let pdoc = pr.Xd_projection.Runtime.doc in
          let pmap = pr.Xd_projection.Runtime.map in
          let base = pr.Xd_projection.Runtime.content_root in
          let root_idx = pr.Xd_projection.Runtime.orig_content_root in
          (* a projection that kept a whole contiguous subtree needs no
             explicit map: the receiver derives it from the okey, exactly
             as for by-fragment fragments *)
          let contiguous =
            List.for_all2
              (fun pos o -> o = root_idx + pos)
              (List.init (List.length omap) Fun.id)
              omap
          in
          Some
            {
              fr_okey = (d.X.Doc.did, root_idx);
              fr_base_uri = X.Doc.uri d;
              fr_omap = (if contiguous then None else Some omap);
              fr_content =
                (fun buf ->
                  List.iter
                    (X.Serializer.node_to_buf buf)
                    (X.Node.children (X.Node.doc_node pdoc)));
              fr_nodeid =
                (fun i ->
                  match Hashtbl.find_opt pmap i with
                  | Some p when p >= base -> Some (p - base + 1)
                  | _ -> None);
            }
        end
      end)
    groups

let write_fragments buf frags =
  Buffer.add_string buf "<fragments>";
  List.iter
    (fun f ->
      Buffer.add_string buf "<fragment";
      let did, idx = f.fr_okey in
      buf_attr buf "okey" (Printf.sprintf "%d:%d" did idx);
      (match f.fr_omap with
      | Some omap ->
        buf_attr buf "omap" (String.concat " " (List.map string_of_int omap))
      | None -> ());
      (match f.fr_base_uri with
      | Some u -> buf_attr buf "base-uri" u
      | None -> ());
      Buffer.add_char buf '>';
      f.fr_content buf;
      Buffer.add_string buf "</fragment>")
    frags;
  Buffer.add_string buf "</fragments>"

(* ------------------------------------------------------------------ *)
(* Item marshaling.                                                    *)
(* ------------------------------------------------------------------ *)

let atom_type = function
  | Value.String _ -> "string"
  | Value.Integer _ -> "integer"
  | Value.Double _ -> "double"
  | Value.Boolean _ -> "boolean"
  | Value.Untyped _ -> "untyped"

let write_atom buf a =
  Buffer.add_string buf "<atomic";
  buf_attr buf "type" (atom_type a);
  Buffer.add_char buf '>';
  buf_text buf (Value.atom_to_string a);
  Buffer.add_string buf "</atomic>"

(* by-value item *)
let write_copy buf n =
  let kind_name =
    match X.Node.kind n with
    | X.Node.Document -> "document"
    | X.Node.Element -> "element"
    | X.Node.Attribute -> "attribute"
    | X.Node.Text -> "text"
    | X.Node.Comment -> "comment"
    | X.Node.Pi -> "pi"
  in
  Buffer.add_string buf "<copy";
  buf_attr buf "kind" kind_name;
  (match X.Node.kind n with
  | X.Node.Attribute ->
    buf_attr buf "name" (X.Node.name n);
    buf_attr buf "value" (X.Node.string_value n)
  | X.Node.Pi -> buf_attr buf "name" (X.Node.name n)
  | _ -> ());
  (match X.Node.document_uri n with
  | Some u -> buf_attr buf "base-uri" u
  | None -> ());
  Buffer.add_char buf '>';
  (match X.Node.kind n with
  | X.Node.Element -> X.Serializer.node_to_buf buf n
  | X.Node.Document ->
    List.iter (X.Serializer.node_to_buf buf) (X.Node.children n)
  | X.Node.Text | X.Node.Comment | X.Node.Pi ->
    buf_text buf (X.Node.string_value n)
  | X.Node.Attribute -> ());
  Buffer.add_string buf "</copy>"

(* Fragment-based item reference. The fragid/nodeid attributes follow the
   paper's message format for fragments present in this message; the origin
   key handles session-cached nodes and back references. *)
let write_ref ep ~host ~frags buf n =
  let eff = effective_node n in
  let origin =
    match remote_origin ep ~host eff with
    | Some (rdid, ridx) -> Printf.sprintf "R:%d:%d" rdid ridx
    | None ->
      Printf.sprintf "L:%d:%d" eff.X.Node.doc.X.Doc.did (X.Node.index eff)
  in
  let fragid, nodeid =
    match remote_origin ep ~host eff with
    | Some _ -> (0, 0)
    | None -> (
      let did = eff.X.Node.doc.X.Doc.did and idx = X.Node.index eff in
      let rec find i = function
        | [] -> (0, 0)
        | f :: rest ->
          if fst f.fr_okey = did then
            match f.fr_nodeid idx with
            | Some nid -> (i, nid)
            | None -> find (i + 1) rest
          else find (i + 1) rest
      in
      find 1 frags)
  in
  if X.Node.is_attribute n then begin
    Buffer.add_string buf "<attr-ref";
    buf_attr buf "name" (X.Node.name n)
  end
  else Buffer.add_string buf "<node";
  buf_attr buf "o" origin;
  buf_attr buf "fragid" (string_of_int fragid);
  buf_attr buf "nodeid" (string_of_int nodeid);
  Buffer.add_string buf "/>"

let write_sequence ep ~host ~passing ~frags buf ?param (v : Value.t) =
  Buffer.add_string buf "<sequence";
  (match param with Some p -> buf_attr buf "param" p | None -> ());
  Buffer.add_char buf '>';
  List.iter
    (fun item ->
      match item with
      | Value.A a -> write_atom buf a
      | Value.N n -> (
        match passing with
        | By_value -> write_copy buf n
        | By_fragment | By_projection -> write_ref ep ~host ~frags buf n))
    v;
  Buffer.add_string buf "</sequence>"

(* ------------------------------------------------------------------ *)
(* Shredding (receiver side).                                          *)
(* ------------------------------------------------------------------ *)

let find_child n name =
  List.find_opt
    (fun c -> X.Node.kind c = X.Node.Element && X.Node.name c = name)
    (X.Node.children n)

let children_named n name =
  List.filter
    (fun c -> X.Node.kind c = X.Node.Element && X.Node.name c = name)
    (X.Node.children n)

let attr_of n name =
  List.find_map
    (fun a -> if X.Node.name a = name then Some (X.Node.string_value a) else None)
    (X.Node.attributes n)

let req_attr n name =
  match attr_of n name with
  | Some v -> v
  | None ->
    protocol_error "malformed XRPC message: missing attribute %s on <%s>"
      name (X.Node.name n)

(* An on-the-wire budget must be a finite non-negative float; anything
   else is ill-formed protocol content and answers with
   xrpc:protocol.malformed (never an exception, never silently ignored). *)
let budget_attr n name =
  match attr_of n name with
  | None -> None
  | Some v -> (
    match float_of_string_opt v with
    | Some s when s >= 0. && Float.is_finite s -> Some s
    | _ ->
      protocol_error "malformed XRPC message: bad %s %S on <%s>" name v
        (X.Node.name n))

(* The deadline attribute of a parsed request / batch / 2PC control
   element, if any. *)
let parse_deadline n = budget_attr n "deadline"

(* The retry-after suggestion on a parsed <env:Fault>, if any. *)
let parse_retry_after fault_node = budget_attr fault_node "retry-after"

(* Read an <env:Fault> element back into (code, reason). A fault whose
   own structure is broken is itself a protocol error. *)
let parse_fault fault_node =
  let child n name =
    match find_child n name with
    | Some c -> c
    | None -> protocol_error "fault envelope without <%s>" name
  in
  let code =
    fault_code_of_string
      (X.Node.string_value
         (child (child (child fault_node "env:Code") "env:Subcode")
            "env:Value"))
  in
  let reason =
    match find_child fault_node "env:Reason" with
    | None -> ""
    | Some r -> (
      match find_child r "env:Text" with
      | None -> ""
      | Some t -> X.Node.string_value t)
  in
  (code, reason)

(* Read a <txn-ack> element back into (txn, ack). *)
let parse_txn_ack n =
  (req_attr n "txn", txn_ack_of_string (req_attr n "state"))

(* A complete <forward> envelope (response position). *)
let write_forward ~doc ~owner ~epoch =
  envelope (forward_body ~doc ~owner ~epoch)

let int_attr n name =
  let v = req_attr n name in
  match int_of_string_opt v with
  | Some i -> i
  | None ->
    protocol_error "malformed XRPC message: bad %s %S on <%s>" name v
      (X.Node.name n)

(* Read a <forward> element back into (doc, owner, epoch). A redirect whose
   own structure is broken is a protocol error — the caller answers or
   raises a typed fault, never a leaked exception. *)
let parse_forward n =
  let doc = req_attr n "doc" and owner = req_attr n "owner" in
  let epoch = int_attr n "epoch" in
  if owner = "" then protocol_error "malformed <forward>: empty owner";
  (doc, owner, epoch)

(* A complete <catalog> envelope. *)
let write_catalog cat = envelope (catalog_body cat)

(* Read a <catalog> element back into a fresh Catalog.t. *)
let parse_catalog n =
  let epoch = int_attr n "epoch" in
  let entries =
    List.map
      (fun e ->
        let replicas =
          match attr_of e "replicas" with
          | None | Some "" -> []
          | Some s ->
            List.filter (fun r -> r <> "") (String.split_on_char ' ' s)
        in
        {
          Xd_topo.Catalog.doc = req_attr e "doc";
          owner = req_attr e "owner";
          replicas;
        })
      (children_named n "entry")
  in
  let members =
    List.map
      (fun m ->
        let up =
          match req_attr m "up" with
          | "true" -> true
          | "false" -> false
          | v -> protocol_error "malformed <member>: bad up %S" v
        in
        (req_attr m "peer", up))
      (children_named n "member")
  in
  List.iter
    (fun e ->
      if e.Xd_topo.Catalog.owner = "" || e.Xd_topo.Catalog.doc = "" then
        protocol_error "malformed <entry>: empty doc or owner")
    entries;
  Xd_topo.Catalog.of_parts ~epoch ~entries ~members

(* Copy the children of a parsed message node into a fresh document. *)
let copy_children_to_doc ?uri n =
  let b = X.Doc.Builder.create ?uri () in
  let rec go c =
    match X.Node.kind c with
    | X.Node.Element ->
      let attrs =
        List.map
          (fun a -> (X.Node.name a, X.Node.string_value a))
          (X.Node.attributes c)
      in
      X.Doc.Builder.start_element b (X.Node.name c) attrs;
      List.iter go (X.Node.children c);
      X.Doc.Builder.end_element b
    | X.Node.Text -> X.Doc.Builder.text b (X.Node.string_value c)
    | X.Node.Comment -> X.Doc.Builder.comment b (X.Node.string_value c)
    | X.Node.Pi -> X.Doc.Builder.pi b (X.Node.name c) (X.Node.string_value c)
    | X.Node.Document | X.Node.Attribute -> ()
  in
  List.iter go (X.Node.children n);
  X.Doc.Builder.finish b

(* The event shred fast path (Codec.event_parse) diverts fragment and
   copy subtrees into side documents while the message itself is being
   parsed, keyed by the pre-order index the host element occupies in
   the message document. A shredder handed such a table uses the
   prebuilt document instead of re-copying children node by node. *)
let prebuilt_doc prebuilt n =
  match prebuilt with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl (X.Node.index n)

(* Shred the <fragments> section at an endpoint, registering provenance and
   origin entries. *)
let shred_fragments ?prebuilt ep ~from_host fragments_node =
  match fragments_node with
  | None -> ()
  | Some fnode ->
    List.iter
      (fun frag ->
        let okey = req_attr frag "okey" in
        let rdid, ridx =
          match String.split_on_char ':' okey with
          | [ a; b ] -> (int_of_string a, int_of_string b)
          | _ -> protocol_error "malformed okey %S" okey
        in
        let uri = attr_of frag "base-uri" in
        let doc =
          match prebuilt_doc prebuilt frag with
          | Some d -> d
          | None -> copy_children_to_doc ?uri frag
        in
        let n_local = X.Doc.n_nodes doc in
        let omap =
          match attr_of frag "omap" with
          | Some m ->
            let parts =
              List.filter (fun s -> s <> "") (String.split_on_char ' ' m)
            in
            let arr = Array.make n_local (-1) in
            List.iteri
              (fun i o -> if i + 1 < n_local then arr.(i + 1) <- int_of_string o)
              parts;
            if ridx = 0 then arr.(0) <- 0;
            arr
          | None ->
            (* contiguous: local idx k (k>=1) <-> remote ridx + k - 1;
               local document node maps to remote document node only when
               the whole document was shipped (ridx = 0). *)
            Array.init n_local (fun k ->
                if k = 0 then (if ridx = 0 then 0 else -1)
                else if ridx = 0 then k
                else ridx + k - 1)
        in
        let base = base_for ep from_host in
        let did = base + ((rdid land 0x3fffff) lsl 22) + (ridx land 0x3fffff) in
        let doc = X.Store.add_with_did (Peer.store ep.self) doc did in
        Hashtbl.replace ep.foreign_docs doc.X.Doc.did
          { from_host; remote_did = rdid; omap };
        Array.iteri
          (fun local_idx remote_idx ->
            if remote_idx >= 0 then begin
              let key = (from_host, rdid, remote_idx) in
              if not (Hashtbl.mem ep.origin key) then
                Hashtbl.replace ep.origin key (X.Node.of_tree doc local_idx)
            end)
          omap)
      (children_named fnode "fragment")

(* Resolve one marshaled item at the receiver. *)
let shred_item ?prebuilt ep ~from_host item : Value.t =
  match X.Node.name item with
  | "atomic" ->
    let ty = req_attr item "type" in
    let s = X.Node.string_value item in
    let a =
      match ty with
      | "string" -> Value.String s
      | "integer" -> Value.Integer (int_of_string s)
      | "double" -> Value.Double (float_of_string s)
      | "boolean" -> Value.Boolean (s = "true")
      | _ -> Value.Untyped s
    in
    [ Value.A a ]
  | "copy" -> (
    let store = Peer.store ep.self in
    let uri = attr_of item "base-uri" in
    let content_doc () =
      match prebuilt_doc prebuilt item with
      | Some d -> d
      | None -> copy_children_to_doc ?uri item
    in
    match req_attr item "kind" with
    | "element" ->
      let doc = X.Store.add ~index_uri:false store (content_doc ()) in
      [ Value.N (X.Node.of_tree doc 1) ]
    | "document" ->
      let doc = X.Store.add ~index_uri:false store (content_doc ()) in
      [ Value.N (X.Node.doc_node doc) ]
    | "text" ->
      let s = X.Node.string_value item in
      if s = "" then [ Value.A (Value.Untyped "") ]
      else [ Value.N (Xd_lang.Construct.text store s) ]
    | "comment" ->
      let b = X.Doc.Builder.create () in
      X.Doc.Builder.comment b (X.Node.string_value item);
      let doc = X.Store.add store (X.Doc.Builder.finish b) in
      [ Value.N (X.Node.of_tree doc 1) ]
    | "pi" ->
      let b = X.Doc.Builder.create () in
      X.Doc.Builder.pi b (req_attr item "name") (X.Node.string_value item);
      let doc = X.Store.add store (X.Doc.Builder.finish b) in
      [ Value.N (X.Node.of_tree doc 1) ]
    | "attribute" ->
      [
        Value.N
          (Xd_lang.Construct.attribute store (req_attr item "name")
             (req_attr item "value"));
      ]
    | k -> protocol_error "malformed copy kind %S" k)
  | "node" | "attr-ref" -> (
    let o = req_attr item "o" in
    let node =
      match String.split_on_char ':' o with
      | [ "R"; did; idx ] -> (
        (* our own node, referenced back by the other side *)
        let did = int_of_string did and idx = int_of_string idx in
        match X.Store.find_did (Peer.store ep.self) did with
        | Some d when idx < X.Doc.n_nodes d -> X.Node.of_tree d idx
        | _ ->
          protocol_error "dangling remote origin reference %S" o)
      | [ "L"; did; idx ] -> (
        let did = int_of_string did and idx = int_of_string idx in
        match Hashtbl.find_opt ep.origin (from_host, did, idx) with
        | Some n -> n
        | None ->
          protocol_error "unresolved origin reference %S" o)
      | _ -> protocol_error "malformed origin %S" o
    in
    if X.Node.name item = "attr-ref" then begin
      let aname = req_attr item "name" in
      match
        List.find_opt (fun a -> X.Node.name a = aname) (X.Node.attributes node)
      with
      | Some a -> [ Value.N a ]
      | None ->
        protocol_error "attribute %s not found on shipped node"
          aname
    end
    else [ Value.N node ])
  | other ->
    protocol_error "unexpected item element <%s> in message" other

let shred_sequence ?prebuilt ep ~from_host seq_node : Value.t =
  List.concat_map
    (fun c ->
      match X.Node.kind c with
      | X.Node.Element -> shred_item ?prebuilt ep ~from_host c
      | _ -> [])
    (X.Node.children seq_node)
