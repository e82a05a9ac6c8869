(* Node handles and the XPath axes.

   A node is (document, tree index) or (document, attribute index). Global
   document order: documents are ordered by their store id; within a
   document tree nodes are in pre-order, and an element's attributes come
   after the element itself but before its first child. *)

type t = {
  doc : Doc.t;
  idx : int; (* tree node pre index; for attributes: owner's pre index *)
  attr : int; (* -1 for tree nodes, else index into the attribute table *)
}

type kind =
  | Document
  | Element
  | Attribute
  | Text
  | Comment
  | Pi

let kind_to_string = function
  | Document -> "document-node"
  | Element -> "element"
  | Attribute -> "attribute"
  | Text -> "text"
  | Comment -> "comment"
  | Pi -> "processing-instruction"

let of_tree doc idx = { doc; idx; attr = -1 }
let of_attr doc ai = { doc; idx = doc.Doc.attr_owner.(ai); attr = ai }
let doc_node doc = of_tree doc 0
let doc n = n.doc
let index n = n.idx
let is_attribute n = n.attr >= 0

let kind n =
  if n.attr >= 0 then Attribute
  else
    match n.doc.Doc.kind.(n.idx) with
    | Doc.Document -> Document
    | Doc.Element -> Element
    | Doc.Text -> Text
    | Doc.Comment -> Comment
    | Doc.Pi -> Pi

let name n =
  if n.attr >= 0 then n.doc.Doc.attr_name.(n.attr) else n.doc.Doc.name.(n.idx)

(* Document order is the int triple (did, pre, attr): tree nodes carry
   attr = -1, so an element's attributes sort after it and before its
   first child (pre + 1). Compared field by field, allocation-free. *)
let compare_order a b =
  let c = Int.compare a.doc.Doc.did b.doc.Doc.did in
  if c <> 0 then c
  else
    let c = Int.compare a.idx b.idx in
    if c <> 0 then c else Int.compare a.attr b.attr

let same a b =
  a.idx = b.idx && a.attr = b.attr && a.doc.Doc.did = b.doc.Doc.did

let string_value n =
  if n.attr >= 0 then n.doc.Doc.attr_value.(n.attr)
  else
    match n.doc.Doc.kind.(n.idx) with
    | Doc.Text | Doc.Comment | Doc.Pi -> n.doc.Doc.value.(n.idx)
    | Doc.Element | Doc.Document ->
      let buf = Buffer.create 32 in
      let last = n.idx + n.doc.Doc.size.(n.idx) in
      for i = n.idx to last do
        if n.doc.Doc.kind.(i) = Doc.Text then
          Buffer.add_string buf n.doc.Doc.value.(i)
      done;
      Buffer.contents buf

let document_uri n = Doc.uri n.doc

(* --- structural predicates ------------------------------------------- *)

let is_tree_descendant_or_self ~anc:a ~desc:d =
  a.doc.Doc.did = d.doc.Doc.did
  && d.idx >= a.idx
  && d.idx <= a.idx + a.doc.Doc.size.(a.idx)

(* [contains a d]: d is a (or an attribute of a) descendant-or-self of a. *)
let contains a d =
  if a.attr >= 0 then same a d else is_tree_descendant_or_self ~anc:a ~desc:d

(* --- navigation -------------------------------------------------------
   Per-node navigation in document order. Path steps over whole context
   sequences are the step kernels in Xd_lang.Step. *)

let parent n =
  if n.attr >= 0 then Some (of_tree n.doc n.idx)
  else
    let p = n.doc.Doc.parent.(n.idx) in
    if p < 0 then None else Some (of_tree n.doc p)

let attributes n =
  if n.attr >= 0 then []
  else
    let first = n.doc.Doc.attr_first.(n.idx) in
    if first < 0 then []
    else
      List.init n.doc.Doc.attr_count.(n.idx) (fun i -> of_attr n.doc (first + i))

let children n =
  if n.attr >= 0 then []
  else begin
    let d = n.doc in
    let stop = n.idx + d.Doc.size.(n.idx) in
    let rec loop i acc =
      if i > stop then List.rev acc
      else loop (i + d.Doc.size.(i) + 1) (of_tree d i :: acc)
    in
    loop (n.idx + 1) []
  end

let descendants n =
  if n.attr >= 0 then []
  else
    let d = n.doc in
    let stop = n.idx + d.Doc.size.(n.idx) in
    List.init (stop - n.idx) (fun i -> of_tree d (n.idx + 1 + i))

let descendant_or_self n = if n.attr >= 0 then [ n ] else n :: descendants n

let root n = of_tree n.doc 0

let pp fmt n =
  match kind n with
  | Document -> Fmt.pf fmt "document(%s)" (Option.value ~default:"?" (Doc.uri n.doc))
  | Element -> Fmt.pf fmt "<%s>@%d.%d" (name n) n.doc.Doc.did n.idx
  | Attribute -> Fmt.pf fmt "@%s=%S" (name n) (string_value n)
  | Text -> Fmt.pf fmt "text(%S)" (string_value n)
  | Comment -> Fmt.pf fmt "comment(%S)" (string_value n)
  | Pi -> Fmt.pf fmt "pi(%s)" (name n)
