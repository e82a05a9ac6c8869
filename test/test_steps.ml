(* Differential test of the path-step kernels (Xd_lang.Step) against the
   list-based step code they replaced (Step_oracle). Every comparison is
   exact: same nodes, same document, same order.

   - random documents with elements, attributes, text, comments and
     processing instructions, two per case plus constructed nodes, and
     contexts drawn from all of them: unsorted, duplicated, nested,
     holding attributes, spanning documents — every axis × node test,
     and the node-set operators of Seq_ops;
   - the path steps of random queries from Gen_queries over its
     documents;
   - the XMark paths of the benchmark's Qn2 and query mix. *)

module X = Xd_xml
module Ast = Xd_lang.Ast
module N = X.Node
open Util

let axes =
  Ast.
    [
      Child;
      Descendant;
      Descendant_or_self;
      Self;
      Attribute;
      Parent;
      Ancestor;
      Ancestor_or_self;
      Following;
      Following_sibling;
      Preceding;
      Preceding_sibling;
    ]

(* every node-test kind; "a" names an element, an attribute and a PI
   target in the random documents *)
let node_tests names =
  Ast.
    [
      Kind_node;
      Kind_text;
      Kind_comment;
      Wildcard;
      Kind_element None;
      Kind_attribute None;
    ]
  @ List.concat_map
      (fun n ->
        Ast.[ Name_test n; Kind_element (Some n); Kind_attribute (Some n) ])
      names

let identical a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : N.t) (y : N.t) ->
         x.N.doc == y.N.doc && x.N.idx = y.N.idx && x.N.attr = y.N.attr)
       a b

let show ns =
  "[" ^ String.concat " " (List.map (Fmt.to_to_string N.pp) ns) ^ "]"

(* the step over [ctx] under both implementations: the oracle's result,
   or the divergence *)
let step axis test ctx =
  let want = Step_oracle.eval_step axis test ctx in
  let got = Xd_lang.Step.eval axis test ctx in
  if identical got want then Ok want
  else
    Error
      (Printf.sprintf "%s::%s over %s:\n  kernel %s\n  oracle %s"
         (Xd_lang.Pp.axis_name axis)
         (Xd_lang.Pp.node_test_name test)
         (show ctx) (show got) (show want))

let first_error checks =
  List.find_map
    (fun check -> match check () with Ok _ -> None | Error e -> Some e)
    checks

let all_steps names ctx =
  first_error
    (List.concat_map
       (fun axis ->
         List.map (fun test () -> step axis test ctx) (node_tests names))
       axes)

(* a chain of steps from [ctx], each step compared over the whole
   context and, with [~singles], from each context node alone (the shape
   a for loop evaluates) *)
let chain ?(singles = false) ctx steps =
  let rec go ctx = function
    | [] -> None
    | (axis, test) :: rest -> (
      let single_err =
        if singles then
          first_error (List.map (fun n () -> step axis test [ n ]) ctx)
        else None
      in
      match (single_err, step axis test ctx) with
      | Some e, _ | None, Error e -> Some e
      | None, Ok next -> go next rest)
  in
  go ctx steps

let verdict = function None -> true | Some e -> QCheck.Test.fail_report e

(* ---- random documents and contexts -------------------------------------- *)

let gen_tree =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map (fun t -> X.Doc.T t) (oneofl [ "t"; "u" ]));
        (1, return (X.Doc.C "c"));
        (1, return (X.Doc.P ("a", "d")));
      ]
  in
  let attrs =
    oneofl [ []; [ ("id", "1") ]; [ ("a", "x"); ("id", "2") ]; [ ("b", "y") ] ]
  in
  let tree =
    sized_size (int_bound 24)
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 3,
                   map3
                     (fun name at kids -> X.Doc.E (name, at, kids))
                     (oneofl [ "a"; "b"; "c" ])
                     attrs
                     (list_size (int_bound 4) (self (n / 2))) );
               ])
  in
  map2 (fun at t -> X.Doc.E ("r", at, [ t ])) attrs tree

let all_nodes (d : X.Doc.t) =
  List.init (X.Doc.n_nodes d) (N.of_tree d)
  @ List.init (X.Doc.n_attrs d) (N.of_attr d)

type case = { t1 : X.Doc.tree; t2 : X.Doc.tree; picks : int list }

let arb_case =
  let open QCheck.Gen in
  let gen =
    map3
      (fun t1 t2 picks -> { t1; t2; picks })
      gen_tree gen_tree
      (list_size (int_bound 14) (int_bound 10_000))
  in
  let print c =
    Printf.sprintf "doc1 %s\ndoc2 %s\npicks %s"
      (X.Serializer.doc (X.Doc.of_tree c.t1))
      (X.Serializer.doc (X.Doc.of_tree c.t2))
      (String.concat "," (List.map string_of_int c.picks))
  in
  QCheck.make gen ~print

(* every node of two stored documents plus an element and a standalone
   attribute built by the constructors, each in a fresh document of the
   same store *)
let case_nodes c =
  let st = store () in
  let d1 = X.Store.of_tree st ~uri:"one.xml" c.t1 in
  let d2 = X.Store.of_tree st ~uri:"two.xml" c.t2 in
  let copied = List.filteri (fun i _ -> i mod 3 = 0) (all_nodes d1) in
  let elem =
    Xd_lang.Construct.element st "k"
      (List.map (fun n -> Xd_lang.Value.N n) copied)
  in
  let attr = Xd_lang.Construct.attribute st "a" "v" in
  Array.of_list
    (all_nodes d1 @ all_nodes d2
    @ all_nodes (N.doc elem)
    @ all_nodes (N.doc attr))

let prop_random_contexts =
  qtest ~count:1000 "random contexts: every axis and node test" arb_case
    (fun c ->
      let pool = case_nodes c in
      let ctx = List.map (fun i -> pool.(i mod Array.length pool)) c.picks in
      verdict (all_steps [ "a"; "b"; "k"; "id" ] ctx))

(* nested on purpose: a node with everything it contains, attributes
   included, in reverse document order *)
let prop_nested_contexts =
  qtest ~count:200 "nested contexts: a subtree with its attributes, reversed"
    arb_case (fun c ->
      let pool = case_nodes c in
      let n = pool.(List.fold_left ( + ) 0 c.picks mod Array.length pool) in
      let inside = List.filter (N.contains n) (Array.to_list pool) in
      verdict (all_steps [ "a"; "b" ] (List.rev inside)))

(* the node-set operators and [maximal] over two random contexts *)
let prop_set_ops =
  qtest ~count:300 "union/intersect/except/maximal against the list code"
    QCheck.(pair arb_case (list_of_size (Gen.int_bound 14) small_nat))
    (fun (c, picks') ->
      let pool = case_nodes c in
      let pick = List.map (fun i -> pool.(i mod Array.length pool)) in
      let a = pick c.picks and b = pick picks' in
      let module S = X.Seq_ops in
      let module O = Step_oracle in
      identical (S.union a b) (O.union a b)
      && identical (S.intersect a b) (O.intersect a b)
      && identical (S.except a b) (O.except a b)
      && identical (S.maximal a) (O.maximal a))

(* ---- Gen_queries paths --------------------------------------------------- *)

(* the maximal step chain ending at each Step of a query *)
let chains (q : Ast.query) =
  let rec path (e : Ast.expr) acc =
    match e.Ast.desc with
    | Ast.Step (e1, ax, t) -> path e1 ((ax, t) :: acc)
    | _ -> acc
  in
  Ast.fold
    (fun acc (e : Ast.expr) ->
      match e.Ast.desc with Ast.Step _ -> path e [] :: acc | _ -> acc)
    [] q.Ast.body

let gen_docs =
  lazy
    (let net, _ = Gen_queries.make_net () in
     List.map
       (fun (peer, name) ->
         Option.get
           (Xd_xrpc.Peer.find_doc (Xd_xrpc.Network.find_peer net peer) name))
       [
         ("peerA", "students.xml");
         ("peerB", "course.xml");
         ("client", "local.xml");
       ])

let prop_query_paths =
  qtest ~count:300 "Gen_queries path steps over its documents"
    Gen_queries.arb_query (fun q ->
      let docs = Lazy.force gen_docs in
      let roots = List.map N.doc_node docs in
      let everything = List.concat_map all_nodes docs in
      let from ctx =
        List.find_map (fun steps -> chain ~singles:true ctx steps) (chains q)
      in
      verdict
        (List.find_map from
           ([ roots; List.rev everything ] @ List.map (fun r -> [ r ]) roots)))

(* ---- XMark: the benchmark's Qn2 and query-mix paths --------------------- *)

let xmark_paths =
  [
    "child::site/child::people/child::person/descendant::age";
    "child::site/child::people/child::person/attribute::id";
    "child::site/child::people/child::person/child::name";
    "descendant::person/descendant::age";
    "descendant::open_auction/child::seller/attribute::person";
    "descendant::open_auction/child::annotation/child::author";
    "descendant::open_auction/attribute::id/parent::node()/preceding-sibling::*";
    "descendant::person/ancestor::*/following::*";
    "descendant::age/ancestor-or-self::node()/preceding::text()";
    "descendant::author/ancestor::open_auction/following-sibling::open_auction";
  ]

let test_xmark_paths () =
  let st = store () in
  let tree f = X.Store.of_tree st (f ~seed:42 ~persons:12) in
  let people = tree Xd_xmark.Generator.people_tree in
  let auctions = tree Xd_xmark.Generator.auctions_tree in
  let roots = [ N.doc_node people; N.doc_node auctions ] in
  List.iter
    (fun p ->
      let steps =
        List.map
          (function
            | Xd_projection.Path.Axis (ax, t) -> (ax, t)
            | _ -> Alcotest.fail "axis steps only")
          (Xd_projection.Path.of_string p)
      in
      List.iter
        (fun ctx ->
          match chain ~singles:true ctx steps with
          | None -> ()
          | Some e -> Alcotest.fail (p ^ ": " ^ e))
        (roots :: List.map (fun r -> [ r ]) roots))
    xmark_paths

let () =
  Alcotest.run "xd_steps"
    [
      ("random", [ prop_random_contexts; prop_nested_contexts; prop_set_ops ]);
      ("queries", [ prop_query_paths ]);
      ("xmark", [ tc "Qn2 and query-mix paths" test_xmark_paths ]);
    ]
