(* Node-sequence operations: document-order sorting, duplicate elimination
   (by node identity), and the three node-set operators. These are the
   operations whose semantics silently change when nodes are copied into
   messages — the crux of the paper. *)

let sort ns = List.stable_sort Node.compare_order ns

let rec strictly_ordered = function
  | a :: (b :: _ as rest) -> Node.compare_order a b < 0 && strictly_ordered rest
  | _ -> true

(* Step results and most operands are already in document order without
   duplicates, so one linear check usually replaces the sort. *)
let sort_dedup ns =
  if strictly_ordered ns then ns
  else
    let rec dedup = function
      | a :: (b :: _ as rest) ->
        if Node.same a b then dedup rest else a :: dedup rest
      | rest -> rest
    in
    dedup (sort ns)

(* One sorted merge of the normalised operands. [left], [both] and [right]
   say whether a node found only in [a], in both, or only in [b] survives;
   on a tie the node of [a] is kept. *)
let merge ~left ~both ~right a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest -> if right then List.rev_append acc rest else List.rev acc
    | rest, [] -> if left then List.rev_append acc rest else List.rev acc
    | x :: a', y :: b' ->
      let c = Node.compare_order x y in
      if c < 0 then go a' b (if left then x :: acc else acc)
      else if c > 0 then go a b' (if right then y :: acc else acc)
      else go a' b' (if both then x :: acc else acc)
  in
  go (sort_dedup a) (sort_dedup b) []

let union a b = merge ~left:true ~both:true ~right:true a b
let intersect a b = merge ~left:false ~both:true ~right:false a b
let except a b = merge ~left:true ~both:false ~right:false a b

(* Maximal nodes of a set: drop any node contained in another node of the
   set. Used by pass-by-fragment to avoid serializing a shipped node that is
   a descendant of another shipped node. In document order a containing
   node precedes everything it contains, and kept subtrees are disjoint, so
   only the last kept node can contain the next one. *)
let maximal ns =
  List.rev
    (List.fold_left
       (fun kept n ->
         match kept with
         | k :: _ when Node.contains k n -> kept
         | _ -> n :: kept)
       [] (sort_dedup ns))

(* Lowest common ancestor of a non-empty set of nodes of one document. *)
let lowest_common_ancestor ns =
  match sort_dedup ns with
  | [] -> invalid_arg "lowest_common_ancestor: empty"
  | first :: rest ->
    let rec meet anc n =
      if Node.contains anc n then anc
      else
        match Node.parent anc with
        | Some p -> meet p n
        | None -> invalid_arg "lowest_common_ancestor: multiple documents"
    in
    List.fold_left meet first rest
