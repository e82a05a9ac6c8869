(* Tests for the XRPC wire protocol (Fig. 1, 4, 5): the three message
   formats, fragment deduplication, fragid/nodeid references, origin
   back-references across round trips, and the static-context attributes. *)

module X = Xd_xml
module M = Xd_xrpc.Message
module V = Xd_lang.Value
open Util

let setup () =
  let net = Xd_xrpc.Network.create () in
  let client = Xd_xrpc.Network.new_peer net "client" in
  let server = Xd_xrpc.Network.new_peer net "example.org" in
  (net, client, server)

let run_remote ?(passing = M.By_fragment) ~client_docs ~server_docs query =
  let net, client, server = setup () in
  List.iter (fun (n, x) -> ignore (Xd_xrpc.Peer.load_xml client ~doc_name:n x)) client_docs;
  List.iter (fun (n, x) -> ignore (Xd_xrpc.Peer.load_xml server ~doc_name:n x)) server_docs;
  let record = ref [] in
  let session = Xd_xrpc.Session.create ~record net client passing in
  let q = Xd_lang.Parser.parse_query query in
  let v = Xd_xrpc.Session.execute session q in
  (v, List.rev !record, net)

let messages recorded =
  List.map (fun r -> r.Xd_xrpc.Session.text) recorded

let contains hay needle =
  let n = String.length needle in
  let found = ref false in
  for i = 0 to String.length hay - n do
    if (not !found) && String.sub hay i n = needle then found := true
  done;
  !found

(* ---- basic round trips ---------------------------------------------------- *)

let test_atomic_roundtrip () =
  let v, msgs, _ =
    run_remote ~client_docs:[] ~server_docs:[]
      {|execute at {"example.org"} function ($x := 21) { $x * 2 }|}
  in
  check_string "atomic result" "42" (V.serialize v);
  check_int "two messages" 2 (List.length msgs);
  check_bool "typed atomic in request"
    (contains (List.nth (messages msgs) 0) "<atomic type=\"integer\">21</atomic>")

let test_string_escaping () =
  let v, _, _ =
    run_remote ~client_docs:[] ~server_docs:[]
      {|execute at {"example.org"} function ($x := "a<b&c") { concat($x, "!") }|}
  in
  check_string "escaped string round-trips" "a<b&c!" (V.serialize v)

let test_node_result_by_fragment () =
  let v, msgs, _ =
    run_remote
      ~server_docs:[ ("d.xml", "<r><a>1</a><a>2</a></r>") ]
      ~client_docs:[]
      {|execute at {"example.org"} function () { doc("d.xml")/child::r/child::a }|}
  in
  check_string "nodes shipped back" "<a>1</a><a>2</a>" (V.serialize v);
  let resp = List.nth (messages msgs) 1 in
  check_bool "response has fragments" (contains resp "<fragments><fragment");
  check_bool "response has node refs" (contains resp "<node o=")

let test_by_value_copies () =
  let v, msgs, _ =
    run_remote ~passing:M.By_value
      ~server_docs:[ ("d.xml", "<r><a>1</a></r>") ]
      ~client_docs:[]
      {|execute at {"example.org"} function () { doc("d.xml")/child::r/child::a }|}
  in
  check_string "deep copies arrive" "<a>1</a>" (V.serialize v);
  let resp = List.nth (messages msgs) 1 in
  check_bool "by-value uses <copy>" (contains resp "<copy kind=\"element\"");
  check_bool "no fragments section content" (contains resp "<fragments></fragments>")

(* ---- Fig. 4: fragment dedup and references -------------------------------- *)

let test_fragment_dedup () =
  (* ship $bc and $abc where $bc is inside $abc: one fragment only *)
  let v, msgs, _ =
    run_remote
      ~client_docs:[ ("local.xml", "<a><b><c/></b></a>") ]
      ~server_docs:[]
      {|let $abc := doc("local.xml")/child::a
        let $bc := $abc/child::b
        return execute at {"example.org"} function ($l := $bc, $r := $abc)
               { if ($l << $r) then "l-first" else "r-first" }|}
  in
  (* $abc is the parent: document order puts it first, even though it is
     the *second* parameter — exactly the earlier() scenario of Problem 3 *)
  check_string "order preserved in message" "r-first" (V.serialize v);
  let req = List.nth (messages msgs) 0 in
  let count_occurrences s sub =
    let n = String.length sub in
    let c = ref 0 in
    for i = 0 to String.length s - n do
      if String.sub s i n = sub then incr c
    done;
    !c
  in
  check_int "single fragment for nested params" 1
    (count_occurrences req "<fragment ");
  check_bool "b serialized once" (count_occurrences req "<b><c/></b>" = 1)

let test_fragid_nodeid () =
  let _, msgs, _ =
    run_remote
      ~client_docs:[ ("local.xml", "<a><b><c/></b></a>") ]
      ~server_docs:[]
      {|let $abc := doc("local.xml")/child::a
        let $bc := $abc/child::b
        return execute at {"example.org"} function ($l := $bc, $r := $abc)
               { count(($l, $r)) }|}
  in
  let req = List.nth (messages msgs) 0 in
  (* $abc is the fragment root: nodeid 1; $bc is its first child: nodeid 2
     (the paper's Fig. 4 numbering) *)
  check_bool "bc -> nodeid 2"
    (contains req "fragid=\"1\" nodeid=\"2\"");
  check_bool "abc -> nodeid 1"
    (contains req "fragid=\"1\" nodeid=\"1\"")

let test_multi_document_fragments () =
  (* parameters from two different documents travel as two fragments, in
     global document order, and keep their cross-document order remotely *)
  let v, msgs, _ =
    run_remote
      ~client_docs:[ ("a.xml", "<ra><x/></ra>"); ("b.xml", "<rb><y/></rb>") ]
      ~server_docs:[]
      {|let $x := doc("a.xml")/child::ra/child::x
        let $y := doc("b.xml")/child::rb/child::y
        return execute at {"example.org"} function ($l := $x, $r := $y)
               { if ($l << $r) then "a-first" else "b-first" }|}
  in
  check_string "cross-document order preserved" "a-first" (V.serialize v);
  let req = List.nth (messages msgs) 0 in
  let count_occurrences s sub =
    let n = String.length sub in
    let c = ref 0 in
    for i = 0 to String.length s - n do
      if String.sub s i n = sub then incr c
    done;
    !c
  in
  check_int "two fragments" 2 (count_occurrences req "<fragment ")

let test_identity_preserved_within_message () =
  let v, _, _ =
    run_remote
      ~client_docs:[ ("local.xml", "<a><b><c/></b></a>") ]
      ~server_docs:[]
      {|let $abc := doc("local.xml")/child::a
        let $bc := $abc/child::b
        return execute at {"example.org"} function ($l := $bc, $r := $abc)
               { string(count($l//child::* intersect $r//child::*)) }|}
  in
  (* $l's descendants are a subset of $r's: intersection non-empty *)
  check_bool "overlap detected remotely" (V.serialize v <> "0")

(* ---- origin back-references ------------------------------------------------ *)

let test_param_returned_is_original () =
  (* a remote function returning its own parameter must hand back the
     caller's original node, not a copy (session origin tracking) *)
  let v, _, _ =
    run_remote
      ~client_docs:[ ("local.xml", "<r><x/></r>") ]
      ~server_docs:[]
      {|let $n := doc("local.xml")/child::r/child::x
        let $back := execute at {"example.org"} function ($p := $n) { $p }
        return string($back is $n)|}
  in
  check_string "identity survives the round trip" "true" (V.serialize v)

let test_attribute_param () =
  let v, msgs, _ =
    run_remote
      ~client_docs:[ ("local.xml", {|<r><x id="i7"/></r>|}) ]
      ~server_docs:[]
      {|let $a := doc("local.xml")/child::r/child::x/attribute::id
        return execute at {"example.org"} function ($p := $a) { string($p) }|}
  in
  check_string "attribute value readable remotely" "i7" (V.serialize v);
  check_bool "attr-ref in request"
    (contains (List.nth (messages msgs) 0) "<attr-ref")

let test_repeat_call_fragments_cached () =
  (* the same nodes shipped by two calls of one session travel once *)
  let _, msgs, _ =
    run_remote
      ~client_docs:[ ("local.xml", "<r><x>abcdefghij</x></r>") ]
      ~server_docs:[]
      {|let $n := doc("local.xml")/child::r/child::x
        let $a := execute at {"example.org"} function ($p := $n) { string($p) }
        let $b := execute at {"example.org"} function ($p := $n) { string-length($p) }
        return concat($a, "-", string($b))|}
  in
  let reqs =
    List.filter_map
      (fun r ->
        match r.Xd_xrpc.Session.dir with
        | `Request _ -> Some r.Xd_xrpc.Session.text
        | `Response _ -> None)
      msgs
  in
  check_int "two requests" 2 (List.length reqs);
  check_bool "first request carries the fragment"
    (contains (List.nth reqs 0) "abcdefghij");
  check_bool "second request does not re-ship"
    (not (contains (List.nth reqs 1) "abcdefghij"))

(* ---- static context (Problem 5 class 1) ------------------------------------ *)

let test_static_context_propagated () =
  let v, _, _ =
    run_remote ~client_docs:[] ~server_docs:[]
      {|execute at {"example.org"} function ()
        { concat(string(static-base-uri()), "|", string(default-collation())) }|}
  in
  check_string "remote sees the caller's static context"
    "xdx://static/|codepoint" (V.serialize v)

let test_xrpc_wrapper_builtins () =
  (* the paper's xrpc:base-uri()/xrpc:document-uri() wrappers exist and
     coincide with the plain functions in this design *)
  let v, _, _ =
    run_remote
      ~client_docs:[ ("local.xml", "<r><x/></r>") ]
      ~server_docs:[]
      {|let $n := doc("local.xml")/child::r/child::x
        return execute at {"example.org"} function ($p := $n)
               { string(xrpc:base-uri($p)) }|}
  in
  check_string "xrpc:base-uri wrapper" "local.xml" (V.serialize v)

let test_base_uri_of_shipped_node () =
  (* Problem 5 class 2: fn:base-uri on a shipped node *)
  let v, _, _ =
    run_remote
      ~client_docs:[ ("local.xml", "<r><x/></r>") ]
      ~server_docs:[]
      {|let $n := doc("local.xml")/child::r/child::x
        return execute at {"example.org"} function ($p := $n) { string(base-uri($p)) }|}
  in
  check_string "base-uri travels in the fragment" "local.xml" (V.serialize v)

(* ---- projection messages (Fig. 5) ------------------------------------------- *)

let test_projection_paths_element () =
  let net, client, server = setup () in
  ignore
    (Xd_xrpc.Peer.load_xml server ~doc_name:"d.xml"
       "<r><p><id>1</id><blob>xxxxxxxxxxxxxxxxxxxxxx</blob></p></r>");
  ignore net;
  let record = ref [] in
  let session = Xd_xrpc.Session.create ~record net client M.By_projection in
  (* hand-build an execute-at with projection paths: the caller only needs
     child::id of the result *)
  let q =
    Xd_lang.Parser.parse_query
      {|(execute at {"example.org"} function () { doc("d.xml")/child::r/child::p })/child::id|}
  in
  (* fill paths like the decomposer would *)
  Xd_core.Projection_fill.fill ~funcs:[] q.Xd_lang.Ast.body;
  let v = Xd_xrpc.Session.execute session q in
  check_string "result" "<id>1</id>" (V.serialize v);
  let msgs = List.map (fun r -> r.Xd_xrpc.Session.text) (List.rev !record) in
  check_bool "request announces projection paths"
    (contains (List.nth msgs 0) "<projection-paths>");
  check_bool "request asks for child::id"
    (contains (List.nth msgs 0) "<returned-path>child::id</returned-path>");
  check_bool "response omits the blob"
    (not (contains (List.nth msgs 1) "xxxxxxxxxx"))

let test_projection_reverse_axis_response () =
  (* the makenodes() scenario of Fig. 5: the caller navigates parent:: on
     the result, so the response must include the ancestor *)
  let net, client, _server = setup () in
  let record = ref [] in
  let session = Xd_xrpc.Session.create ~record net client M.By_projection in
  let q =
    Xd_lang.Parser.parse_query
      {|declare function makenodes() { (element a { element b { element c {()} } })/child::b };
        (execute at {"example.org"} { makenodes() })/parent::a|}
  in
  Xd_core.Projection_fill.fill ~funcs:q.Xd_lang.Ast.funcs q.Xd_lang.Ast.body;
  let v = Xd_xrpc.Session.execute session q in
  check_string "parent reachable on shipped node" "<a><b><c/></b></a>"
    (V.serialize v);
  let msgs = List.map (fun r -> r.Xd_xrpc.Session.text) (List.rev !record) in
  check_bool "returned-path parent::a in request"
    (contains (List.nth msgs 0) "<returned-path>parent::a</returned-path>")

let test_schema_aware_projection () =
  (* with a schema, mandatory children of projected elements survive even
     though the query never touches them *)
  let net, client, server = setup () in
  ignore
    (Xd_xrpc.Peer.load_xml server ~doc_name:"d.xml"
       "<r><rec><key>1</key><mandatory>m</mandatory><optional>o</optional></rec></r>");
  ignore client;
  let schema = function "rec" -> [ "mandatory" ] | _ -> [] in
  let run ?schema () =
    let record = ref [] in
    let session =
      Xd_xrpc.Session.create ~record ?schema net client M.By_projection
    in
    let q =
      Xd_lang.Parser.parse_query
        {|(execute at {"example.org"} function () { doc("d.xml")/child::r/child::rec })/child::key|}
    in
    Xd_core.Projection_fill.fill ~funcs:[] q.Xd_lang.Ast.body;
    let v = Xd_xrpc.Session.execute session q in
    (V.serialize v, List.map (fun r -> r.Xd_xrpc.Session.text) (List.rev !record))
  in
  let v_plain, msgs_plain = run () in
  let v_schema, msgs_schema = run ~schema () in
  check_string "plain result" "<key>1</key>" v_plain;
  check_string "schema result" "<key>1</key>" v_schema;
  check_bool "plain response drops the mandatory element"
    (not (contains (List.nth msgs_plain 1) "<mandatory>"));
  check_bool "schema-aware response keeps it"
    (contains (List.nth msgs_schema 1) "<mandatory>m</mandatory>");
  check_bool "optional element still dropped"
    (not (contains (List.nth msgs_schema 1) "<optional>"))

let test_id_on_shipped_nodes () =
  (* Problem 5 class 4: fn:id on a shipped node works under by-projection
     because the Id_fn pseudo-step conserves all ID-carrying elements of
     the context document *)
  let net, client, _server = setup () in
  let record = ref [] in
  let session = Xd_xrpc.Session.create ~record net client M.By_projection in
  let q =
    Xd_lang.Parser.parse_query
      {|let $part := execute at {"example.org"}
                    function () { doc("d.xml")/child::db/child::hub }
        return string(id("n1", $part)/child::label)|}
  in
  let _server =
    let p = Xd_xrpc.Network.find_peer net "example.org" in
    Xd_xrpc.Peer.load_xml p ~doc_name:"d.xml"
      {|<db><node id="n1"><label>first</label></node><hub><x/></hub><node id="n2"><label>second</label></node></db>|}
  in
  Xd_core.Projection_fill.fill ~funcs:[] q.Xd_lang.Ast.body;
  let v = Xd_xrpc.Session.execute session q in
  check_string "id() resolves on the shipped projection" "first"
    (V.serialize v);
  (* the id() demand forced the ID-carrying elements into the response *)
  let msgs = List.map (fun r -> r.Xd_xrpc.Session.text) (List.rev !record) in
  check_bool "request announces the id() path"
    (contains (List.nth msgs 0) "id()")

(* ---- properties: random trees through the wire ------------------------------ *)

(* Shipping arbitrary node-valued parameters and getting them back must be
   value-preserving under every passing semantics, and identity-preserving
   under by-fragment/by-projection (origin tracking). *)
let prop_param_roundtrip passing name =
  Util.qtest ~count:80 name Util.arb_tree (fun t ->
      let net, client, _server = setup () in
      let doc =
        Xd_xml.Store.add
          (Xd_xrpc.Peer.store client)
          (X.Doc.of_tree ~uri:"p.xml" (Util.root_of_tree t))
      in
      let n = X.Node.of_tree doc 1 in
      let session = Xd_xrpc.Session.create net client passing in
      let q =
        Xd_lang.Parser.parse_query
          {|execute at {"example.org"} function ($p := doc("p.xml")/child::root) { $p }|}
      in
      let v = Xd_xrpc.Session.execute session q in
      match v with
      | [ V.N back ] ->
        X.Deep_equal.equal back n
        && (passing = M.By_value || X.Node.same back n)
      | _ -> false)

let prop_roundtrip_by_value =
  prop_param_roundtrip M.By_value "by-value round trip preserves values"

let prop_roundtrip_by_fragment =
  prop_param_roundtrip M.By_fragment
    "by-fragment round trip preserves identity"

let prop_roundtrip_by_projection =
  prop_param_roundtrip M.By_projection
    "by-projection round trip preserves identity"

(* remote counting over shipped subtrees agrees with local counting *)
let prop_remote_count =
  Util.qtest ~count:80 "remote count = local count" Util.arb_tree (fun t ->
      let net, client, _ = setup () in
      let doc =
        Xd_xml.Store.add
          (Xd_xrpc.Peer.store client)
          (X.Doc.of_tree ~uri:"p.xml" (Util.root_of_tree t))
      in
      let local =
        List.length (X.Node.descendants (X.Node.of_tree doc 1))
      in
      let session = Xd_xrpc.Session.create net client M.By_fragment in
      let q =
        Xd_lang.Parser.parse_query
          {|execute at {"example.org"} function ($p := doc("p.xml")/child::root)
            { count($p/descendant::node()) }|}
      in
      V.serialize (Xd_xrpc.Session.execute session q) = string_of_int local)

(* ---- malformed messages ------------------------------------------------------ *)

let test_malformed_rejected () =
  (* malformed requests never raise through the server: they come back as
     proper <env:Fault> envelopes with a code from the taxonomy *)
  let net, client, _ = setup () in
  let session = Xd_xrpc.Session.create net client M.By_fragment in
  let fault_of txt =
    let resp = Xd_xrpc.Session.handle_request session ~client_name:"client" txt in
    let root = X.Node.doc_node (X.Parser.parse_doc ~strip_ws:false resp) in
    let rec find n = function
      | [] -> Some n
      | name :: rest -> (
        match
          List.find_opt
            (fun c -> X.Node.kind c = X.Node.Element && X.Node.name c = name)
            (X.Node.children n)
        with
        | Some c -> find c rest
        | None -> None)
    in
    match find root [ "env:Envelope"; "env:Body"; "env:Fault" ] with
    | Some f -> Some (fst (M.parse_fault f))
    | None -> None
  in
  let is_fault code txt = fault_of txt = Some code in
  (* the XML layer is lenient with bare text, so "garbage" parses but has
     no envelope; actually broken markup is a transport-class fault *)
  check_bool "not xml" (is_fault M.Protocol_malformed "garbage");
  check_bool "truncated"
    (is_fault M.Transport_corrupt "<env:Envelope><env:Body>");
  check_bool "wrong envelope" (is_fault M.Protocol_malformed "<env:Envelope/>");
  check_bool "missing query"
    (is_fault M.Protocol_malformed
       "<env:Envelope><env:Body><request passing=\"by-fragment\"><fragments/><call/></request></env:Body></env:Envelope>");
  check_bool "missing call"
    (is_fault M.Protocol_malformed
       "<env:Envelope><env:Body><request passing=\"by-fragment\"><query>1</query></request></env:Body></env:Envelope>");
  check_bool "bad passing mode"
    (is_fault M.Protocol_malformed
       "<env:Envelope><env:Body><request passing=\"by-wormhole\"><query>1</query><call/></request></env:Body></env:Envelope>");
  (* raw '<' inside an attribute value is ill-formed XML (production
     [10]); both the tree and event parsers must reject it so the
     compiled and generic paths agree on the rejection set *)
  check_bool "raw '<' in attribute value"
    (is_fault M.Transport_corrupt
       "<env:Envelope><env:Body><request passing=\"by<value\"><query>1</query><call/></request></env:Body></env:Envelope>")

(* ---- deadlines & retry-after (PROTOCOL.md, "Deadlines & overload") --------- *)

(* The request a session with a budget actually puts on the wire. *)
let deadline_request () =
  let net, client, _ = setup () in
  let record = ref [] in
  let session =
    Xd_xrpc.Session.create ~record ~deadline:5.0 net client M.By_fragment
  in
  ignore
    (Xd_xrpc.Session.execute session
       (Xd_lang.Parser.parse_query
          {|execute at {"example.org"} function () { 1 }|}));
  List.hd (messages (List.rev !record))

let server_fault_of txt =
  let net, client, _ = setup () in
  let session = Xd_xrpc.Session.create net client M.By_fragment in
  let resp = Xd_xrpc.Session.handle_request session ~client_name:"client" txt in
  let root = X.Node.doc_node (X.Parser.parse_doc ~strip_ws:false resp) in
  let rec find n = function
    | [] -> Some n
    | name :: rest -> (
      match
        List.find_opt
          (fun c -> X.Node.kind c = X.Node.Element && X.Node.name c = name)
          (X.Node.children n)
      with
      | Some c -> find c rest
      | None -> None)
  in
  match find root [ "env:Envelope"; "env:Body"; "env:Fault" ] with
  | Some f -> Some (fst (M.parse_fault f))
  | None -> None

let test_deadline_on_wire () =
  let req = deadline_request () in
  check_bool "fixed-width attribute stamped"
    (contains req " deadline=\"00000005.000000\"");
  (* the hidden ranges the fault layer must skip cover exactly that
     attribute *)
  check_bool "one hidden range" (List.length (M.overload_ranges req) = 1)

let test_malformed_deadline () =
  let req = deadline_request () in
  let swap value =
    (* splice a same-width replacement over the stamped 15-char value *)
    let marker = " deadline=\"" in
    let rec find i =
      if String.sub req i (String.length marker) = marker then
        i + String.length marker
      else find (i + 1)
    in
    let at = find 0 in
    String.sub req 0 at ^ value
    ^ String.sub req (at + 15) (String.length req - at - 15)
  in
  check_bool "garbage deadline answered with protocol.malformed"
    (server_fault_of (swap "not-a-number!!!") = Some M.Protocol_malformed);
  check_bool "negative deadline answered with protocol.malformed"
    (server_fault_of (swap "-0000005.000000") = Some M.Protocol_malformed);
  check_bool "control: the unmangled request is answered"
    (server_fault_of req = None)

let test_malformed_retry_after () =
  let fault_elem txt =
    let root = X.Node.doc_node (X.Parser.parse_doc ~strip_ws:false txt) in
    let rec dig n =
      if X.Node.kind n = X.Node.Element && X.Node.name n = "env:Fault" then
        Some n
      else List.find_map dig (X.Node.children n)
    in
    Option.get (dig root)
  in
  let good =
    M.write_fault ~retry_after:0.25 ~code:M.Server_overloaded
      ~reason:"queue full" ()
  in
  (match M.parse_retry_after (fault_elem good) with
  | Some s -> check_bool "retry-after round-trips" (Float.abs (s -. 0.25) < 1e-9)
  | None -> check_bool "retry-after present" false);
  check_bool "overloaded is retryable" (M.retryable M.Server_overloaded);
  check_bool "deadline.exceeded is not" (not (M.retryable M.Deadline_exceeded));
  (* a corrupted or negative suggestion is a protocol error, never a
     silent ignore or a leaked native exception *)
  let mangle value =
    let marker = " retry-after=\"" in
    let rec find i =
      if String.sub good i (String.length marker) = marker then
        i + String.length marker
      else find (i + 1)
    in
    let at = find 0 in
    String.sub good 0 at ^ value
    ^ String.sub good (at + 8) (String.length good - at - 8)
  in
  let rejects value =
    match M.parse_retry_after (fault_elem (mangle value)) with
    | exception M.Protocol_error _ -> true
    | _ -> false
  in
  check_bool "garbage retry-after rejected" (rejects "huh?!%$#");
  check_bool "negative retry-after rejected" (rejects "-00.2500")

(* ---- topology envelopes ------------------------------------------------------ *)

let first_elem txt =
  let root = X.Node.doc_node (X.Parser.parse_doc ~strip_ws:false txt) in
  List.find
    (fun c -> X.Node.kind c = X.Node.Element)
    (X.Node.children root)

let test_forward_roundtrip () =
  let d, o, e =
    M.parse_forward
      (first_elem (M.forward_body ~doc:"d.xml" ~owner:"peer2" ~epoch:3))
  in
  check_string "doc" "d.xml" d;
  check_string "owner" "peer2" o;
  check_int "epoch" 3 e

let test_malformed_forward () =
  (* a redirect whose own structure is broken is a protocol error, never a
     leaked native exception *)
  let bad txt =
    match M.parse_forward (first_elem txt) with
    | exception M.Protocol_error _ -> true
    | _ -> false
  in
  check_bool "missing owner" (bad {|<forward doc="d.xml" epoch="1"/>|});
  check_bool "empty owner"
    (bad {|<forward doc="d.xml" owner="" epoch="1"/>|});
  check_bool "bad epoch"
    (bad {|<forward doc="d.xml" owner="p" epoch="soon"/>|});
  check_bool "missing epoch" (bad {|<forward doc="d.xml" owner="p"/>|});
  check_bool "missing doc" (bad {|<forward owner="p" epoch="1"/>|})

let test_catalog_roundtrip () =
  let cat =
    match Xd_topo.Catalog.of_spec "peer1/d.xml+peer2+peer3;peer2/e.xml" with
    | Ok c -> c
    | Error e -> failwith e
  in
  Xd_topo.Catalog.move cat ~doc:"e.xml" ~owner:"peer1";
  Xd_topo.Catalog.mark_down cat "peer3";
  let cat' = M.parse_catalog (first_elem (M.catalog_body cat)) in
  check_int "epoch survives" (Xd_topo.Catalog.epoch cat)
    (Xd_topo.Catalog.epoch cat');
  check_bool "entries survive"
    (Xd_topo.Catalog.entries cat = Xd_topo.Catalog.entries cat');
  check_bool "members and liveness survive"
    (Xd_topo.Catalog.members cat = Xd_topo.Catalog.members cat')

let test_malformed_catalog () =
  let bad txt =
    match M.parse_catalog (first_elem txt) with
    | exception M.Protocol_error _ -> true
    | _ -> false
  in
  check_bool "bad epoch" (bad {|<catalog epoch="x"/>|});
  check_bool "missing epoch" (bad {|<catalog/>|});
  check_bool "entry missing owner"
    (bad {|<catalog epoch="0"><entry doc="d.xml"/></catalog>|});
  check_bool "entry empty doc"
    (bad {|<catalog epoch="0"><entry doc="" owner="p"/></catalog>|});
  check_bool "member bad up"
    (bad
       {|<catalog epoch="0"><member peer="p" up="maybe"/></catalog>|});
  check_bool "member missing peer"
    (bad {|<catalog epoch="0"><member up="true"/></catalog>|})

let test_malformed_topo_envelopes_answered_with_faults () =
  (* over the wire, broken topology envelopes come back as typed
     <env:Fault>s from the server, like every other malformed message *)
  let net, client, _ = setup () in
  let session = Xd_xrpc.Session.create net client M.By_fragment in
  let respond txt =
    Xd_xrpc.Session.handle_request session ~client_name:"client" txt
  in
  let env body = "<env:Envelope><env:Body>" ^ body ^ "</env:Body></env:Envelope>" in
  check_bool "forward in request position is malformed"
    (contains
       (respond (env {|<forward doc="d.xml" owner="p" epoch="1"/>|}))
       "xrpc:protocol.malformed");
  check_bool "catalog push with bad epoch is malformed"
    (contains
       (respond (env {|<catalog epoch="soon"/>|}))
       "xrpc:protocol.malformed");
  check_bool "catalog push with broken entry is malformed"
    (contains
       (respond (env {|<catalog epoch="0"><entry doc="d.xml"/></catalog>|}))
       "xrpc:protocol.malformed");
  check_bool "well-formed catalog push is acked with its epoch"
    (contains
       (respond
          (env {|<catalog epoch="7"><entry doc="d.xml" owner="p"/></catalog>|}))
       {|<catalog-ack epoch="7"|})

(* ---- the optional <trace> telemetry header -------------------------------- *)

let test_trace_header_roundtrip () =
  let env =
    "<env:Envelope><env:Body><xrpc:request/></env:Body></env:Envelope>"
  in
  let hdr = M.trace_header ~trace_id:"ab12cd" ~span_id:"f3" in
  let injected, at, len = M.inject_trace_header env ~header:hdr in
  check_bool "inserted right after <env:Body>"
    (at = String.length "<env:Envelope><env:Body>");
  check_int "reported header length" (String.length hdr) len;
  check_bool "payload unchanged around the header"
    (String.sub injected 0 at ^ String.sub injected (at + len)
       (String.length injected - at - len)
    = env);
  (match M.peek_trace_header injected with
  | Some (t, s) ->
    check_string "trace id" "ab12cd" t;
    check_string "span id" "f3" s
  | None -> Alcotest.fail "valid header did not decode");
  check_bool "absent header -> None" (M.peek_trace_header env = None);
  (* a non-envelope ships unmodified *)
  let txt, at, len = M.inject_trace_header "<fragment/>" ~header:hdr in
  check_bool "non-envelope untouched" (txt = "<fragment/>" && at = 0 && len = 0)

(* Every way a header can be broken must decode to [None] — the call then
   proceeds untraced; a bad header is never a protocol fault. *)
let test_trace_header_malformed () =
  let peek h = M.peek_trace_header ("<env:Body>" ^ h ^ "<xrpc:request/>") in
  check_bool "uppercase hex rejected"
    (peek {|<trace trace-id="AB" span-id="12"/>|} = None);
  check_bool "non-hex rejected"
    (peek {|<trace trace-id="xyz" span-id="12"/>|} = None);
  check_bool "missing span-id rejected" (peek {|<trace trace-id="ab"/>|} = None);
  check_bool "empty trace id rejected"
    (peek {|<trace trace-id="" span-id="12"/>|} = None);
  check_bool "empty span id rejected"
    (peek {|<trace trace-id="ab" span-id=""/>|} = None);
  check_bool "overlong id rejected"
    (peek
       (Printf.sprintf {|<trace trace-id="%s" span-id="12"/>|}
          (String.make 33 'a'))
    = None);
  check_bool "unterminated attribute rejected"
    (M.peek_trace_header {|<env:Body><trace trace-id="ab" span-id="12|} = None);
  check_bool "unclosed element rejected"
    (M.peek_trace_header {|<env:Body><trace trace-id="ab" span-id="12"|}
    = None)

(* End to end: a server given a request with a corrupt header answers it
   untraced instead of faulting. *)
let test_trace_header_tolerated_by_server () =
  let net, client, _server = setup () in
  let tracer = Xd_obs.Trace.create () in
  let record = ref [] in
  let session =
    Xd_xrpc.Session.create ~record ~tracer net client M.By_fragment
  in
  let q =
    Xd_lang.Parser.parse_query
      {|execute at {"example.org"} function ($x := 21) { $x * 2 }|}
  in
  ignore (Xd_xrpc.Session.execute session q);
  let request =
    match
      List.find_opt
        (fun r ->
          match r.Xd_xrpc.Session.dir with
          | `Request _ -> true
          | `Response _ -> false)
        (List.rev !record)
    with
    | Some r -> r.Xd_xrpc.Session.text
    | None -> Alcotest.fail "no request recorded"
  in
  (* the recorded request is pre-injection: plant a corrupt header *)
  let corrupt, _, _ =
    M.inject_trace_header request
      ~header:{|<trace trace-id="NOT-HEX" span-id=""/>|}
  in
  let server = Xd_xrpc.Session.server_session session "example.org" in
  let response =
    Xd_xrpc.Session.handle_request server ~client_name:"client" corrupt
  in
  check_bool "answered, not faulted"
    (contains response "42" && not (contains response "Fault"))

let () =
  Alcotest.run "xd_messages"
    [
      ( "roundtrip",
        [
          tc "atomics" test_atomic_roundtrip;
          tc "escaping" test_string_escaping;
          tc "nodes by fragment" test_node_result_by_fragment;
          tc "by-value copies" test_by_value_copies;
        ] );
      ( "fragments",
        [
          tc "dedup (Fig. 4)" test_fragment_dedup;
          tc "fragid/nodeid" test_fragid_nodeid;
          tc "identity within message" test_identity_preserved_within_message;
          tc "multi-document fragments" test_multi_document_fragments;
        ] );
      ( "origins",
        [
          tc "param returned is original" test_param_returned_is_original;
          tc "attribute params" test_attribute_param;
          tc "session caching" test_repeat_call_fragments_cached;
        ] );
      ( "context",
        [
          tc "static context" test_static_context_propagated;
          tc "base-uri" test_base_uri_of_shipped_node;
          tc "xrpc: wrappers" test_xrpc_wrapper_builtins;
        ] );
      ( "projection",
        [
          tc "paths element (Fig. 5)" test_projection_paths_element;
          tc "reverse axis response" test_projection_reverse_axis_response;
          tc "schema-aware" test_schema_aware_projection;
          tc "fn:id on shipped nodes" test_id_on_shipped_nodes;
        ] );
      ( "robustness",
        [
          tc "malformed" test_malformed_rejected;
          tc "malformed deadline" test_malformed_deadline;
          tc "malformed retry-after" test_malformed_retry_after;
          tc "deadline on the wire" test_deadline_on_wire;
        ] );
      ( "topology",
        [
          tc "forward round trip" test_forward_roundtrip;
          tc "malformed forward" test_malformed_forward;
          tc "catalog round trip" test_catalog_roundtrip;
          tc "malformed catalog" test_malformed_catalog;
          tc "malformed envelopes answered with faults"
            test_malformed_topo_envelopes_answered_with_faults;
        ] );
      ( "tracing",
        [
          tc "header round trip" test_trace_header_roundtrip;
          tc "malformed headers decode to None" test_trace_header_malformed;
          tc "server tolerates corrupt header"
            test_trace_header_tolerated_by_server;
        ] );
      ( "properties",
        [
          prop_roundtrip_by_value;
          prop_roundtrip_by_fragment;
          prop_roundtrip_by_projection;
          prop_remote_count;
        ] );
    ]
