(* The list-based path-step code the evaluator used before its step
   kernels (Xd_lang.Step), kept as the reference the differential tests
   compare against: per context node, list the axis, filter by the node
   test, then stable-sort the concatenation in document order and drop
   duplicates. Also the node-set operators before Seq_ops merged them.
   Deliberately naive — do not optimise it. *)

module X = Xd_xml
module Ast = Xd_lang.Ast
module N = X.Node

(* ---- document order: the (did, pre, is_attr, attr) tuple key ---------- *)

let order_key (n : N.t) =
  (n.N.doc.X.Doc.did, n.N.idx, (if n.N.attr >= 0 then 1 else 0), n.N.attr)

let compare_order a b = compare (order_key a) (order_key b)
let same a b = compare_order a b = 0

let sort_dedup ns =
  let sorted = List.stable_sort compare_order ns in
  let rec dedup = function
    | a :: (b :: _ as rest) -> if same a b then dedup rest else a :: dedup rest
    | rest -> rest
  in
  dedup sorted

(* ---- per-node axes ------------------------------------------------------ *)

let ancestors n =
  let rec up acc cur =
    match N.parent cur with None -> acc | Some p -> up (p :: acc) p
  in
  up [] n

let ancestor_or_self n = ancestors n @ [ n ]

let following_sibling (n : N.t) =
  if n.N.attr >= 0 then []
  else
    match N.parent n with
    | None -> []
    | Some p -> List.filter (fun (c : N.t) -> c.N.idx > n.N.idx) (N.children p)

let preceding_sibling (n : N.t) =
  if n.N.attr >= 0 then []
  else
    match N.parent n with
    | None -> []
    | Some p -> List.filter (fun (c : N.t) -> c.N.idx < n.N.idx) (N.children p)

(* following: nodes strictly after the subtree of n; an attribute uses its
   owner element *)
let following (n : N.t) =
  let base = if n.N.attr >= 0 then N.of_tree n.N.doc n.N.idx else n in
  let d = base.N.doc in
  let start = base.N.idx + d.X.Doc.size.(base.N.idx) + 1 in
  let total = X.Doc.n_nodes d in
  List.init (max 0 (total - start)) (fun i -> N.of_tree d (start + i))

(* preceding: nodes before n in document order, excluding ancestors *)
let preceding (n : N.t) =
  let base = if n.N.attr >= 0 then N.of_tree n.N.doc n.N.idx else n in
  let d = base.N.doc in
  let ancs = List.map (fun (a : N.t) -> a.N.idx) (ancestors base) in
  let rec loop i acc =
    if i >= base.N.idx then List.rev acc
    else
      let acc = if List.mem i ancs then acc else N.of_tree d i :: acc in
      loop (i + 1) acc
  in
  loop 0 []

(* ---- the step ----------------------------------------------------------- *)

let test_matches axis test n =
  let principal_attr = axis = Ast.Attribute in
  let kind = N.kind n in
  match test with
  | Ast.Kind_node -> true
  | Ast.Kind_text -> kind = N.Text
  | Ast.Kind_comment -> kind = N.Comment
  | Ast.Kind_element None -> kind = N.Element
  | Ast.Kind_element (Some nm) -> kind = N.Element && N.name n = nm
  | Ast.Kind_attribute None -> kind = N.Attribute
  | Ast.Kind_attribute (Some nm) -> kind = N.Attribute && N.name n = nm
  | Ast.Wildcard ->
    if principal_attr then kind = N.Attribute else kind = N.Element
  | Ast.Name_test nm ->
    if principal_attr then kind = N.Attribute && N.name n = nm
    else kind = N.Element && N.name n = nm

let axis_nodes axis n =
  match axis with
  | Ast.Child -> N.children n
  | Ast.Descendant -> N.descendants n
  | Ast.Descendant_or_self -> N.descendant_or_self n
  | Ast.Self -> [ n ]
  | Ast.Attribute -> N.attributes n
  | Ast.Parent -> ( match N.parent n with None -> [] | Some p -> [ p ])
  | Ast.Ancestor -> ancestors n
  | Ast.Ancestor_or_self -> ancestor_or_self n
  | Ast.Following -> following n
  | Ast.Following_sibling -> following_sibling n
  | Ast.Preceding -> preceding n
  | Ast.Preceding_sibling -> preceding_sibling n

let eval_step axis test ctx =
  sort_dedup
    (List.concat_map
       (fun n -> List.filter (test_matches axis test) (axis_nodes axis n))
       ctx)

(* ---- node-set operators -------------------------------------------------- *)

let union a b = sort_dedup (a @ b)

let intersect a b =
  let b = sort_dedup b in
  List.filter (fun n -> List.exists (same n) b) (sort_dedup a)

let except a b =
  let b = sort_dedup b in
  List.filter (fun n -> not (List.exists (same n) b)) (sort_dedup a)

let maximal ns =
  let rec keep = function
    | [] -> []
    | n :: rest -> n :: keep (List.filter (fun m -> not (N.contains n m)) rest)
  in
  keep (sort_dedup ns)
