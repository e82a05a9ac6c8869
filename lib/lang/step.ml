(* Path-step kernels over the pre/size encoding: the staircase join of
   Grust, van Keulen and Teubner (VLDB 2003) on Xd_xml.Doc's arrays.

   The context is put in document order without duplicates once (one
   linear check when it already is, the common case); a step's result
   does not depend on context order or duplicates. It is then cut into
   runs over one document. Each kernel walks a run in document order,
   applies the node test to the Doc arrays before allocating a Node.t,
   and emits its result already in document order and duplicate-free:
   the context nodes are pruned so that no two of them produce the same
   node, and the nested ones are merged in place. No step sorts nodes.

   Kernels accumulate their output reversed onto [acc]. *)

module X = Xd_xml
module D = X.Doc
module N = X.Node

(* ---- node tests on the arrays --------------------------------------------

   The principal node kind is attribute on the attribute axis and element
   on every other axis; only the attribute axis and the self-including
   axes over an attribute context node ever meet attributes. *)

let is_element (d : D.t) i =
  match d.D.kind.(i) with D.Element -> true | _ -> false

let tree_ok test (d : D.t) i =
  match test with
  | Ast.Kind_node -> true
  | Ast.Kind_text -> ( match d.D.kind.(i) with D.Text -> true | _ -> false)
  | Ast.Kind_comment -> ( match d.D.kind.(i) with D.Comment -> true | _ -> false)
  | Ast.Kind_element None | Ast.Wildcard -> is_element d i
  | Ast.Kind_element (Some nm) | Ast.Name_test nm ->
    is_element d i && String.equal d.D.name.(i) nm
  | Ast.Kind_attribute _ -> false

let attr_ok ~principal test (d : D.t) a =
  match test with
  | Ast.Kind_node | Ast.Kind_attribute None -> true
  | Ast.Kind_attribute (Some nm) -> String.equal d.D.attr_name.(a) nm
  | Ast.Wildcard -> principal
  | Ast.Name_test nm -> principal && String.equal d.D.attr_name.(a) nm
  | Ast.Kind_text | Ast.Kind_comment | Ast.Kind_element _ -> false

(* the context node itself, for self and the -or-self axes *)
let self_ok test (n : N.t) =
  if n.N.attr >= 0 then attr_ok ~principal:false test n.N.doc n.N.attr
  else tree_ok test n.N.doc n.N.idx

let emit test d i acc = if tree_ok test d i then N.of_tree d i :: acc else acc

(* ---- kernels ------------------------------------------------------------- *)

let self test _d ns acc =
  List.fold_left (fun acc n -> if self_ok test n then n :: acc else acc) acc ns

(* Attributes of distinct elements are disjoint and sit between their
   owner and its next pre index, so a sorted context gives sorted output. *)
let attribute test (d : D.t) ns acc =
  List.fold_left
    (fun acc (n : N.t) ->
      if n.N.attr >= 0 then acc
      else begin
        let first = d.D.attr_first.(n.N.idx) in
        let acc = ref acc in
        for a = first to first + d.D.attr_count.(n.N.idx) - 1 do
          if attr_ok ~principal:true test d a then acc := N.of_attr d a :: !acc
        done;
        !acc
      end)
    acc ns

(* descendant(-or-self): scan pre+1 .. pre+size of each context node.
   Context nodes inside that range are pruned (their result is part of
   it); an attribute of a scanned node still yields itself under -or-self,
   emitted right after its owner. Scans never overlap, so output order is
   scan order. O(|context| + covered nodes). *)
let descendant ~or_self test (d : D.t) ns acc =
  let rec next ns acc =
    match ns with
    | [] -> acc
    | (n : N.t) :: ns when n.N.attr >= 0 ->
      next ns (if or_self && self_ok test n then n :: acc else acc)
    | n :: ns ->
      let acc = if or_self then emit test d n.N.idx acc else acc in
      scan (n.N.idx + 1) (n.N.idx + d.D.size.(n.N.idx)) ns acc
  and scan i stop ns acc =
    match ns with
    | (m : N.t) :: ns when m.N.idx < i ->
      let acc =
        if or_self && m.N.attr >= 0 && self_ok test m then m :: acc else acc
      in
      scan i stop ns acc
    | _ ->
      if i > stop then next ns acc else scan (i + 1) stop ns (emit test d i acc)
  in
  next ns acc

(* Sibling-chain scans, shared by child and both sibling axes. A scan
   [(par, p, stop)] walks the children of [par] from position [p] to
   [stop], hopping over subtrees by size. Items come in order of their
   anchor pre index. An item anchored before the current position lies
   inside a subtree the scan just hopped over: its own scan is emitted
   first (the current one is suspended on a stack), unless it walks the
   same sibling chain, whose remaining part the current scan already
   covers. Output is in document order without a sort; a context without
   nested nodes never touches the stack. *)
let sibling_scans test (d : D.t) ~anchor ~scan items acc =
  let rec go par p stop stack items acc =
    match items with
    | it :: rest when anchor it < p -> (
      match scan it with
      | Some (par', p', stop') when par' <> par ->
        go par' p' stop' ((par, p, stop) :: stack) rest acc
      | Some _ | None -> go par p stop stack rest acc)
    | _ when p <= stop ->
      go par (p + d.D.size.(p) + 1) stop stack items (emit test d p acc)
    | _ -> (
      match (stack, items) with
      | (par, p, stop) :: stack, _ -> go par p stop stack items acc
      | [], [] -> acc
      | [], it :: rest -> (
        match scan it with
        | Some (par, p, stop) -> go par p stop [] rest acc
        | None -> go (-1) 0 (-1) [] rest acc))
  in
  go (-1) 0 (-1) [] items acc

let child test (d : D.t) ns acc =
  sibling_scans test d ns acc
    ~anchor:(fun (n : N.t) -> n.N.idx)
    ~scan:(fun (n : N.t) ->
      if n.N.attr >= 0 then None
      else Some (n.N.idx, n.N.idx + 1, n.N.idx + d.D.size.(n.N.idx)))

let following_sibling test (d : D.t) ns acc =
  sibling_scans test d ns acc
    ~anchor:(fun (n : N.t) -> n.N.idx)
    ~scan:(fun (n : N.t) ->
      let par = if n.N.attr >= 0 then -1 else d.D.parent.(n.N.idx) in
      if par < 0 then None
      else Some (par, n.N.idx + d.D.size.(n.N.idx) + 1, par + d.D.size.(par)))

(* (parent, child) pairs of the context, ordered by parent; with [~attrs]
   an attribute counts as the child of its owner. A sorted context yields
   them in order unless a later node's parent is an ancestor of an earlier
   node's; only then are the int pairs sorted. *)
let parent_pairs ~attrs (d : D.t) ns =
  let pairs =
    List.filter_map
      (fun (n : N.t) ->
        let p =
          if n.N.attr < 0 then d.D.parent.(n.N.idx)
          else if attrs then n.N.idx
          else -1
        in
        if p < 0 then None else Some (p, n.N.idx))
      ns
  in
  let rec ordered = function
    | (p, _) :: ((q, _) :: _ as rest) -> p <= q && ordered rest
    | _ -> true
  in
  if ordered pairs then pairs
  else
    List.sort
      (fun (p, c) (q, c') ->
        let k = Int.compare p q in
        if k <> 0 then k else Int.compare c c')
      pairs

let parent test (d : D.t) ns acc =
  snd
    (List.fold_left
       (fun (last, acc) (p, _) ->
         if p = last then (last, acc) else (p, emit test d p acc))
       (-1, acc)
       (parent_pairs ~attrs:true d ns))

(* preceding-sibling: per parent only the last context child matters;
   its preceding siblings are that parent's children before it. *)
let preceding_sibling test (d : D.t) ns acc =
  let[@tail_mod_cons] rec last_per_parent = function
    | (p, _) :: ((q, _) :: _ as rest) when p = q -> last_per_parent rest
    | pc :: rest -> pc :: last_per_parent rest
    | [] -> []
  in
  sibling_scans test d
    (last_per_parent (parent_pairs ~attrs:false d ns))
    acc ~anchor:fst
    ~scan:(fun (p, c) -> Some (p, p + 1, c - 1))

(* ancestor(-or-self): every ancestor below [bound] was emitted for an
   earlier context node, and every new one lies above it, so each node
   walks up only to the bound and the walks come out in document order.
   After a tree node the bound is its pre (pre + 1 when it emitted itself);
   after an attribute it is past the owner, which it emitted. *)
let ancestor ~or_self test (d : D.t) ns acc =
  let rec up i bound chain =
    if i >= bound then up d.D.parent.(i) bound (i :: chain) else chain
  in
  snd
    (List.fold_left
       (fun (bound, acc) (n : N.t) ->
         let attr = n.N.attr >= 0 in
         let from = if attr then n.N.idx else d.D.parent.(n.N.idx) in
         let acc =
           List.fold_left (fun acc i -> emit test d i acc) acc (up from bound [])
         in
         let acc = if or_self && self_ok test n then n :: acc else acc in
         ((if attr || or_self then n.N.idx + 1 else n.N.idx), acc))
       (0, acc) ns)

(* following: everything after the earliest-ending context subtree (an
   attribute counts as its owner). One pre bound for the whole run. *)
let following test (d : D.t) ns acc =
  let lo =
    List.fold_left
      (fun lo (n : N.t) -> min lo (n.N.idx + d.D.size.(n.N.idx) + 1))
      max_int ns
  in
  let acc = ref acc in
  for i = lo to D.n_nodes d - 1 do
    acc := emit test d i !acc
  done;
  !acc

(* preceding: the union over the run is the preceding set of its last
   node [m]: any earlier node not an ancestor of [m] precedes [m]. The
   ancestors of [m] are exactly the nodes before it whose subtree reaches
   it. One pre bound, no ancestor list. *)
let preceding test (d : D.t) ns acc =
  let m = List.fold_left (fun _ (n : N.t) -> n.N.idx) 0 ns in
  let acc = ref acc in
  for i = 0 to m - 1 do
    if i + d.D.size.(i) < m then acc := emit test d i !acc
  done;
  !acc

(* ---- driver --------------------------------------------------------------- *)

(* Cut a sorted context into runs over one document. Documents with
   distinct ids form increasing runs; two documents sharing an id (a
   replaced document still referenced) may interleave. *)
let runs = function
  | [] -> []
  | (n : N.t) :: _ as ns
    when List.for_all (fun (m : N.t) -> m.N.doc == n.N.doc) ns ->
    [ (n.N.doc, ns) ]
  | ns ->
    let rec cut acc = function
      | [] -> List.rev acc
      | (n : N.t) :: _ as ns ->
        let rec take run = function
          | (m : N.t) :: rest when m.N.doc == n.N.doc -> take (m :: run) rest
          | rest -> (List.rev run, rest)
        in
        let run, rest = take [] ns in
        cut ((n.N.doc, run) :: acc) rest
    in
    cut [] ns

let kernel = function
  | Ast.Child -> child
  | Ast.Descendant -> descendant ~or_self:false
  | Ast.Descendant_or_self -> descendant ~or_self:true
  | Ast.Self -> self
  | Ast.Attribute -> attribute
  | Ast.Parent -> parent
  | Ast.Ancestor -> ancestor ~or_self:false
  | Ast.Ancestor_or_self -> ancestor ~or_self:true
  | Ast.Following -> following
  | Ast.Following_sibling -> following_sibling
  | Ast.Preceding -> preceding
  | Ast.Preceding_sibling -> preceding_sibling

let eval axis test ctx =
  let k = kernel axis test in
  let runs = runs (X.Seq_ops.sort_dedup ctx) in
  let out = List.rev (List.fold_left (fun acc (d, ns) -> k d ns acc) [] runs) in
  let rec distinct_ids = function
    | ((a : D.t), _) :: (((b : D.t), _) :: _ as rest) ->
      a.D.did < b.D.did && distinct_ids rest
    | _ -> true
  in
  (* runs of one shared id may emit out of order across each other *)
  if distinct_ids runs then out else X.Seq_ops.sort_dedup out
