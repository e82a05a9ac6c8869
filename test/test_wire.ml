(* Wire pins: for a fixed list of exchanges that between them drive every
   path of the client-side XRPC exchange — data calls with retries, a
   same-peer <batch>, 2PC control with lost acks, aborts and deadline
   expiry, retry-budget stops, <forward> redirects, replica failover,
   breaker sheds and codec-decoded responses — print a digest of the
   recorded message transcript, the deterministic Stats counters, the
   span tree and the settled world, and compare each line against the
   pinned one. Any change to the bytes on the wire, to what the session
   counts, to the span tree or to the outcome shows up here.

   On an intended change of the wire, run this executable with --print
   and copy each printed line, minus its case name, over its pin. *)

module S = Xd_core.Strategy
module E = Xd_core.Executor
module F = Xd_xrpc.Fault
module M = Xd_xrpc.Message
module N = Xd_xrpc.Network
module St = Xd_xrpc.Stats
module C = Xd_topo.Catalog
module Tr = Xd_obs.Trace
open Util

let parse = Xd_lang.Parser.parse_query
let md5 s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let fault_of spec =
  match F.parse spec with
  | Ok s -> F.create ~seed:0 s
  | Error e -> Alcotest.failf "unparsable spec %S: %s" spec e

let transcript record =
  String.concat "\n"
    (List.rev_map
       (fun r ->
         (match r.Xd_xrpc.Session.dir with
         | `Request h -> "->" ^ h ^ " "
         | `Response h -> "<-" ^ h ^ " ")
         ^ r.Xd_xrpc.Session.text)
       !record)

let stats_line net =
  let st = net.N.stats in
  let ints =
    [ St.messages st; St.message_bytes st; St.document_bytes st;
      St.calls st; St.faults st; St.timeouts st; St.retries st;
      St.fallbacks st; St.dedup_hits st; St.batch_envelopes st;
      St.batch_calls st; St.txn_staged st; St.txn_commits st;
      St.txn_aborts st; St.forwarded st; St.topo_failovers st;
      St.ov_admitted st; St.ov_deadline_rejects st; St.breaker_opens st;
      St.breaker_shed st; St.retry_budget_stops st; St.codec_compiled st;
      St.codec_decodes st; St.codec_bailouts st ]
  in
  Printf.sprintf "%s sim=%.9f"
    (String.concat "," (List.map string_of_int ints))
    (St.network_s st)

(* Spans in completion order with their tree links, categories, peers,
   simulated intervals and attributes. Wall-clock measurements and plan
   vertex ids (numbered by the parser's process-wide counter) count by
   key only. *)
let spans_digest tr =
  let attr (k, v) =
    match v with
    | _ when k = "vertex" || k = "vertices" -> k
    | Tr.S s -> k ^ "=" ^ s
    | Tr.I i -> k ^ "=" ^ string_of_int i
    | Tr.B b -> k ^ "=" ^ string_of_bool b
    | Tr.F _ -> k
  in
  md5
    (String.concat "\n"
       (List.map
          (fun (s : Tr.span) ->
            Printf.sprintf "%s<%s %s/%s@%s [%.9f,%.9f] %s" s.Tr.span_id
              (Option.value ~default:"-" s.Tr.parent_id)
              s.Tr.cat s.Tr.name s.Tr.peer s.Tr.start_sim s.Tr.end_sim
              (String.concat ";" (List.map attr (List.rev s.Tr.attrs))))
          (Tr.spans tr)))

let world net =
  md5
    (String.concat "\n"
       (List.concat_map
          (fun p ->
            List.map Xd_xml.Serializer.doc
              (Xd_xml.Store.documents (Xd_xrpc.Peer.store p)))
          (List.sort
             (fun a b ->
               compare (Xd_xrpc.Peer.name a) (Xd_xrpc.Peer.name b))
             (Hashtbl.fold (fun _ p acc -> p :: acc) net.N.peers []))))

let outcome f =
  match f () with
  | v -> "value " ^ Xd_lang.Value.serialize v
  | exception M.Xrpc_fault { host; code; _ } ->
    Printf.sprintf "fault %s at %s" (M.fault_code_to_string code) host
  | exception M.Xrpc_timeout { host; attempts } ->
    Printf.sprintf "timeout at %s after %d" host attempts

(* Run [f] traced and recorded on [net]; [f] gets the recorder and the
   tracer and returns the query value. *)
let pin net f =
  let record = ref [] and tr = Tr.create () in
  Tr.set_sim tr (fun () -> St.network_s net.N.stats);
  let o = outcome (fun () -> f record tr) in
  Printf.sprintf "%s | wire %s | stats %s | spans %s | world %s" o
    (md5 (transcript record))
    (stats_line net) (spans_digest tr) (world net)

(* ---- the cases ----------------------------------------------------------- *)

let q_call =
  {|execute at {"peerA"} function ()
    { for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
      return string($p/child::name) }|}

let q_count = {|count(doc("xrpc://peerA/students.xml")/child::people/child::person)|}

let q_same_peer =
  {|(execute at {"peerA"} function ()
       { count(doc("xrpc://peerA/students.xml")//child::person) },
     execute at {"peerA"} function ()
       { count(doc("xrpc://peerA/students.xml")//child::age) },
     execute at {"peerB"} function ()
       { count(doc("xrpc://peerB/course.xml")//child::exam) })|}

let q_insert_two =
  {|(insert node <flag>done</flag> into doc("xrpc://peerA/students.xml")/child::people,
     insert node <flag>done</flag> into doc("xrpc://peerB/course.xml")/child::enroll)|}

(* an Executor run over the Gen_queries network *)
let exec ?fault ?deadline ?retry_budget ?(strategy = S.By_fragment) src () =
  let net, client = Gen_queries.make_net ?fault:(Option.map fault_of fault) () in
  pin net (fun record trace ->
      let r =
        E.run ~record ~trace ~timeout_s:0.5 ~retries:2 ?deadline ?retry_budget
          net ~client strategy (parse src)
      in
      r.E.value)

let little_doc = "<r><x>1</x><x>2</x><x>3</x></r>"

(* three peers holding d.xml under a catalog; a plain session runs [src] *)
let topo ?fault ?overload ?register src () =
  let net = N.create ?fault:(Option.map fault_of fault) () in
  let client = N.new_peer net "client" in
  List.iter
    (fun name ->
      ignore
        (Xd_xrpc.Peer.load_xml (N.new_peer net name) ~doc_name:"d.xml"
           little_doc))
    [ "peer1"; "peer2"; "peer3" ];
  Option.iter
    (fun register ->
      let cat = C.create () in
      register cat;
      N.set_catalog net cat)
    register;
  Option.iter (N.set_overload net) overload;
  pin net (fun record tracer ->
      let s =
        Xd_xrpc.Session.create ~record ~tracer ~timeout_s:0.5 net client
          M.By_fragment
      in
      Xd_xrpc.Session.execute s (parse src))

let q_d = {|execute at {"peer1"} function () { count(doc("d.xml")/child::r/child::x) }|}

let cases =
  [
    ( "data call retried after drop, truncate and dup",
      exec ~fault:"peerA:drop#1;peerA:truncate#1;peerA:dup#1" q_call );
    ("same-peer batch", exec ~strategy:S.By_projection q_same_peer);
    ("2PC with a dropped prepare ack", exec ~fault:"client:drop#1%2" q_insert_two);
    ("2PC abort", exec ~fault:"peerB:down%1" q_insert_two);
    ( "2PC deadline expiry",
      exec ~deadline:0.3 ~fault:"client:drop#1%2" q_insert_two );
    ( "deadline expiry before a retry",
      exec ~deadline:0.3 ~fault:"peerA:drop#1" q_call );
    ("retry-budget stop", exec ~retry_budget:0 ~fault:"peerA:drop#1" q_call);
    ( "forward redirect",
      topo ~register:(fun cat -> C.register cat ~doc:"d.xml" ~owner:"peer2" ()) q_d
    );
    ( "replica failover",
      topo ~fault:"peer1:down"
        ~register:(fun cat ->
          C.register cat ~doc:"d.xml" ~owner:"peer1" ~replicas:[ "peer2" ] ())
        q_d );
    ( "breaker shed",
      topo ~fault:"peer1:down"
        ~overload:(Xd_xrpc.Overload.create ~capacity:2 ~service_s:0.001 ())
        (Printf.sprintf "(%s)"
           (String.concat ","
              (List.init 4 (fun i ->
                   Printf.sprintf {|execute at {"peer1"} function () { %d }|} i))))
    );
    ("codec-decoded atomic response", exec q_count);
  ]

let pins =
  [
    "value Ann Bob Cyd Dan | wire 85766f7aa706 | stats 6,2615,0,1,4,1,2,0,1,0,0,0,0,0,0,0,0,0,0,0,0,1,1,1 sim=0.710549051 | spans 85be59340f76 | world ca94f628fced";
    "value 4 4 3 | wire 1cfa09931db3 | stats 4,2045,0,3,0,0,0,0,0,1,2,0,0,0,0,0,0,0,0,0,0,1,1,0 sim=0.000210552 | spans 53ab238ce76c | world ca94f628fced";
    "value  | wire 8cc6de3697dc | stats 14,2697,0,2,1,1,1,0,0,0,0,2,1,0,0,0,0,0,0,0,0,2,0,2 sim=0.557359534 | spans 14fd093abdc8 | world 93922e5ce119";
    "timeout at peerB after 3 | wire a936b53527dc | stats 14,2637,0,2,6,6,4,0,0,0,0,2,0,1,0,0,0,0,0,0,0,2,0,2 sim=3.534818771 | spans a8d570914103 | world b0cc5849e9ea";
    "fault xrpc:deadline.exceeded at peerA | wire afa420f6df09 | stats 6,1670,0,2,1,1,1,0,0,0,0,2,0,1,0,0,0,3,0,0,0,2,0,2 sim=0.556551318 | spans 3d1515ad1e2a | world b0cc5849e9ea";
    "fault xrpc:deadline.exceeded at peerA | wire e86859119572 | stats 1,513,0,1,1,1,1,0,0,0,0,0,0,0,0,0,0,1,0,0,0,1,0,0 sim=0.570301400 | spans a7ca7e04f84f | world ca94f628fced";
    "value Ann Bob Cyd Dan | wire ca6090b335da | stats 3,1250,0,2,1,1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,1,2,1,0 sim=0.500310000 | spans 47eff5e7f332 | world ca94f628fced";
    "value 3 | wire 8f5e2ff772e7 | stats 4,1088,0,2,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0 sim=0.000408704 | spans af728f2c67bb | world bebb07ae5539";
    "value 3 | wire f3825d43bf0a | stats 5,1746,0,2,3,3,2,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0 sim=1.708940634 | spans be0c03a25ed6 | world bebb07ae5539";
    "value 0 1 2 3 | wire 4e08d0e1af58 | stats 9,3015,0,3,9,9,6,4,0,0,0,0,0,0,0,0,0,0,1,1,0,0,0,0 sim=5.148060045 | spans 71fbc86864ff | world bebb07ae5539";
    "value 4 | wire 8800f4fea155 | stats 2,601,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,1,0 sim=0.000204808 | spans f4a5e1688887 | world ca94f628fced";
  ]

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--print" then
    List.iter (fun (name, f) -> Printf.printf "%s: %s\n" name (f ())) cases
  else
    Alcotest.run "xd_wire"
      [
        ( "pins",
          List.map2
            (fun (name, f) want ->
              tc name (fun () -> check_string name want (f ())))
            cases pins );
      ]
