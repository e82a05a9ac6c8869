(* The document store: assigns global document ids (which define cross-
   document order) and resolves URIs. Every peer, and the query client,
   owns exactly one store; shipping a node to another peer necessarily
   means re-creating it in the remote store with a fresh identity. *)

(* Document ids are allocated from an id space shared by every store
   whose nodes may meet in one sequence (the peers of one network), so
   cross-store node sequences — as arise when a query mixes local and
   peer documents — still have a well-defined, consistent document order.
   Ids travel on the wire inside origin keys, so the space belongs to the
   network, not the process: the same query on a freshly built network
   sends the same bytes whatever the process ran before.

   [next_base] numbers the id ranges the XRPC shredder reserves for
   fragment copies: base [k] covers [k lsl 44] up to [(k+1) lsl 44], far
   above any counted id. It cycles through [1, 2^18) so [k lsl 44] never
   passes max_int; a reused range only risks id collisions, which
   [add_with_did] resolves. *)
type ids = { mutable next_did : int; mutable next_base : int }

let new_ids () = { next_did = 0; next_base = 1 }

(* the space of stores created outside any network *)
let standalone = new_ids ()

type t = {
  mutable docs : Doc.t list; (* newest first *)
  by_uri : (string, Doc.t) Hashtbl.t;
  by_did : (int, Doc.t) Hashtbl.t;
  ids : ids;
}

let create ?(ids = standalone) () =
  { docs = []; by_uri = Hashtbl.create 16; by_did = Hashtbl.create 16; ids }

let fresh_base t =
  let k = t.ids.next_base in
  t.ids.next_base <- (if k = (1 lsl 18) - 1 then 1 else k + 1);
  k lsl 44

let register ~index_uri t doc =
  t.docs <- doc :: t.docs;
  Hashtbl.replace t.by_did doc.Doc.did doc;
  (match Doc.uri doc with
  | Some u when index_uri -> Hashtbl.replace t.by_uri u doc
  | Some _ | None -> ());
  doc

(* [index_uri:false] keeps the document's uri (fn:base-uri still works) but
   does not make it resolvable through fn:doc — shredded message copies
   must never shadow a peer's original documents. *)
let add ?(index_uri = true) t doc =
  if doc.Doc.did >= 0 then invalid_arg "Store.add: document already registered";
  doc.Doc.did <- t.ids.next_did;
  t.ids.next_did <- t.ids.next_did + 1;
  register ~index_uri t doc

(* Register with an explicit document id. Used by the XRPC shredder, which
   derives ids from origin keys so that document order among shredded
   fragments mirrors their order at the sending peer (the by-fragment
   ordering guarantee). Bumps the id past collisions. *)
let add_with_did t doc did =
  if doc.Doc.did >= 0 then
    invalid_arg "Store.add_with_did: document already registered";
  let rec free i = if Hashtbl.mem t.by_did i then free (i + 1) else i in
  let did = free did in
  doc.Doc.did <- did;
  register ~index_uri:false t doc

let find_did t did = Hashtbl.find_opt t.by_did did

(* Replace a registered document with a rebuilt version (XQUF apply): the
   new document takes over the old one's id and uri bindings. Handles held
   on the old version keep working against its unchanged arrays. *)
let replace_doc t old_doc new_doc =
  if new_doc.Doc.did >= 0 then
    invalid_arg "Store.replace_doc: replacement already registered";
  new_doc.Doc.did <- old_doc.Doc.did;
  t.docs <- new_doc :: List.filter (fun d -> d != old_doc) t.docs;
  Hashtbl.replace t.by_did new_doc.Doc.did new_doc;
  (match Doc.uri new_doc with
  | Some u -> (
    match Hashtbl.find_opt t.by_uri u with
    | Some bound when bound == old_doc -> Hashtbl.replace t.by_uri u new_doc
    | Some _ | None -> ())
  | None -> ());
  new_doc

(* Atomic multi-document replace (staged-PUL commit): validate every pair
   before mutating anything, so a bad pair leaves the store untouched and
   a distributed commit never half-applies locally. *)
let swap_all t pairs =
  List.iter
    (fun (old_doc, new_doc) ->
      if new_doc.Doc.did >= 0 then
        invalid_arg "Store.swap_all: replacement already registered";
      if not (Hashtbl.mem t.by_did old_doc.Doc.did) then
        invalid_arg "Store.swap_all: old document not in this store")
    pairs;
  List.iter (fun (old_doc, new_doc) -> ignore (replace_doc t old_doc new_doc)) pairs

(* Rollback of a replace: put a previously-registered document back under
   its own id (and uri binding, if it had one). *)
let reinstate t doc =
  if doc.Doc.did < 0 then invalid_arg "Store.reinstate: never registered";
  t.docs <- doc :: List.filter (fun d -> d.Doc.did <> doc.Doc.did) t.docs;
  Hashtbl.replace t.by_did doc.Doc.did doc;
  match Doc.uri doc with
  | Some u -> (
    match Hashtbl.find_opt t.by_uri u with
    | Some bound when bound.Doc.did = doc.Doc.did -> Hashtbl.replace t.by_uri u doc
    | Some _ | None -> ())
  | None -> ()

let find_uri t u = Hashtbl.find_opt t.by_uri u
let documents t = List.rev t.docs
let count t = List.length t.docs

let total_bytes_estimate t =
  (* rough retained-size proxy: node counts *)
  List.fold_left (fun acc d -> acc + Doc.total_nodes d) 0 t.docs

let of_tree t ?uri tree = add t (Doc.of_tree ?uri tree)
let of_forest t ?uri trees = add t (Doc.of_forest ?uri trees)
