(* Runtime XML projection — Algorithm 1 of the paper.

   Inputs are the *materialized* used and returned node sets (obtained by
   evaluating relative projection paths on actual parameter/result
   sequences), which is what makes the runtime technique more precise than
   compile-time projection: selections have already pruned the context.

   The traversal is top-down over the pre-order array; subtrees containing
   no projection node are skipped in O(1) thanks to the pre/size encoding.
   Post-processing trims the result to the lowest common ancestor of the
   projection nodes. The function also returns the original→projected
   index mapping, which the XRPC marshaller needs to emit fragid/nodeid
   references. *)

module X = Xd_xml

type projected = {
  doc : X.Doc.t; (* unregistered (did = -1) projected document *)
  map : (int, int) Hashtbl.t; (* original tree index -> projected index *)
  content_root : int; (* projected index of the trimmed root *)
  orig_content_root : int; (* original index of the trimmed root *)
  kept : int; (* number of original tree nodes kept *)
}

(* Normalize a projection node: attribute nodes are represented by their
   owner element (attributes travel with their element). *)
let tree_index n = X.Node.index n

(* [trim_lca] applies the paper's post-processing (lines 24-27 of
   Algorithm 1): descend to the lowest common ancestor of the projection
   nodes. Right for message fragments, whose references are relative; wrong
   for load-and-query baselines that re-run root-anchored paths — those
   pass [~trim_lca:false]. *)
let project ?schema ?(trim_lca = true) ~used ~returned (d : X.Doc.t) :
    projected =
  let n = X.Doc.n_nodes d in
  let used_idx =
    List.filter_map
      (fun nd ->
        if nd.X.Node.doc == d || nd.X.Node.doc.X.Doc.did = d.X.Doc.did then
          Some (tree_index nd)
        else None)
      used
  in
  let ret_idx =
    List.filter_map
      (fun nd ->
        if nd.X.Node.doc == d || nd.X.Node.doc.X.Doc.did = d.X.Doc.did then
          Some (tree_index nd)
        else None)
      returned
  in
  let is_returned = Array.make n false in
  List.iter (fun i -> is_returned.(i) <- true) ret_idx;
  let proj = List.sort_uniq compare (used_idx @ ret_idx) in
  let keep = Array.make n false in
  (* Algorithm 1 main loop. [cur] walks the document, [ps] the sorted
     projection nodes. *)
  let rec loop cur ps =
    match ps with
    | [] -> ()
    | p :: rest ->
      if cur >= n then ()
      else if p > cur && p <= cur + d.X.Doc.size.(cur) then begin
        (* proj is a strict descendant of cur: keep cur, descend *)
        keep.(cur) <- true;
        loop (cur + 1) ps
      end
      else if p = cur then
        if is_returned.(cur) then begin
          (* returned: keep the whole subtree, skip past it *)
          for i = cur to cur + d.X.Doc.size.(cur) do
            keep.(i) <- true
          done;
          let stop = cur + d.X.Doc.size.(cur) in
          (* [proj] is sorted: the nodes inside the subtree are a prefix *)
          let rec past = function
            | q :: qs when q <= stop -> past qs
            | qs -> qs
          in
          loop (stop + 1) (past rest)
        end
        else begin
          keep.(cur) <- true;
          loop (cur + 1) rest
        end
      else
        (* proj not in the subtree of cur: skip the subtree *)
        loop (cur + d.X.Doc.size.(cur) + 1) ps
  in
  loop 0 proj;
  (* schema awareness: minOccurs>=1 children of kept elements must stay.
     [schema name] returns the mandatory child element names of [name]. *)
  (match schema with
  | None -> ()
  | Some mandatory ->
    (* one forward pass suffices: children have larger indices, and newly
       kept children are processed later in the same pass *)
    for i = 0 to n - 1 do
      if keep.(i) && d.X.Doc.kind.(i) = X.Doc.Element then begin
        let wanted = mandatory d.X.Doc.name.(i) in
        if wanted <> [] then begin
          let stop = i + d.X.Doc.size.(i) in
          let j = ref (i + 1) in
          while !j <= stop do
            if
              d.X.Doc.kind.(!j) = X.Doc.Element
              && List.mem d.X.Doc.name.(!j) wanted
            then
              (* keep the mandatory child with its whole content — an
                 emptied element would not validate either *)
              for k = !j to !j + d.X.Doc.size.(!j) do
                keep.(k) <- true
              done;
            j := !j + d.X.Doc.size.(!j) + 1
          done
        end
      end
    done);
  (* post-processing: trim to the lowest common ancestor — descend while the
     current root has exactly one kept child and is not itself a projection
     node. *)
  let is_proj = Array.make n false in
  List.iter (fun i -> is_proj.(i) <- true) proj;
  let kept_children i =
    let stop = i + d.X.Doc.size.(i) in
    let acc = ref [] in
    let j = ref (i + 1) in
    while !j <= stop do
      if keep.(!j) then acc := !j :: !acc;
      j := !j + d.X.Doc.size.(!j) + 1
    done;
    List.rev !acc
  in
  let rec find_root i =
    if is_proj.(i) then i
    else
      match kept_children i with
      | [ c ] -> find_root c
      | _ -> i
  in
  let root = if trim_lca && keep.(0) then find_root 0 else 0 in
  (* build the projected document, recording the index mapping *)
  let b = X.Doc.Builder.create ?uri:(X.Doc.uri d) () in
  let map = Hashtbl.create 64 in
  let count = ref 0 in
  let next_proj_index = ref 1 (* builder index 0 is the document node *) in
  let rec emit i =
    if keep.(i) then begin
      incr count;
      Hashtbl.replace map i !next_proj_index;
      incr next_proj_index;
      match d.X.Doc.kind.(i) with
      | X.Doc.Element ->
        let attrs =
          match d.X.Doc.attr_first.(i) with
          | -1 -> []
          | first ->
            List.init d.X.Doc.attr_count.(i) (fun k ->
                (d.X.Doc.attr_name.(first + k), d.X.Doc.attr_value.(first + k)))
        in
        X.Doc.Builder.start_element b d.X.Doc.name.(i) attrs;
        emit_children i;
        X.Doc.Builder.end_element b
      | X.Doc.Text -> X.Doc.Builder.text b d.X.Doc.value.(i)
      | X.Doc.Comment -> X.Doc.Builder.comment b d.X.Doc.value.(i)
      | X.Doc.Pi -> X.Doc.Builder.pi b d.X.Doc.name.(i) d.X.Doc.value.(i)
      | X.Doc.Document ->
        decr next_proj_index;
        Hashtbl.replace map i 0;
        emit_children i
    end
  and emit_children i =
    let stop = i + d.X.Doc.size.(i) in
    let j = ref (i + 1) in
    while !j <= stop do
      emit !j;
      j := !j + d.X.Doc.size.(!j) + 1
    done
  in
  if proj <> [] && keep.(root) then emit root;
  let pdoc = X.Doc.Builder.finish b in
  {
    doc = pdoc;
    map;
    content_root = (match Hashtbl.find_opt map root with Some r -> r | None -> 0);
    orig_content_root = root;
    kept = !count;
  }

(* Convenience: group a mixed node set by document and project each. *)
let group_by_doc nodes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun nd ->
      let d = nd.X.Node.doc in
      let key = d.X.Doc.did in
      let cur = Option.value ~default:(d, []) (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (d, nd :: snd cur))
    nodes;
  Hashtbl.fold (fun _ (d, ns) acc -> (d, List.rev ns) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a.X.Doc.did b.X.Doc.did)
