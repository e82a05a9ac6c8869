(* Fault-injection properties: under ANY seeded fault schedule, a
   distributed execution either reproduces the local reference semantics
   exactly — same value, same post-run document state, updates applied at
   most once — or fails with a *typed* error (Xrpc_fault / Xrpc_timeout).
   Silent divergence is the one forbidden outcome.

   Also: the fault layer is deterministic (same spec+seed => identical
   stats) and free when disabled (empty spec => wire traffic identical to
   a fault-free build). *)

module S = Xd_core.Strategy
module E = Xd_core.Executor
module F = Xd_xrpc.Fault
module M = Xd_xrpc.Message
open Util

let make_net = Gen_queries.make_net

(* ---- fixed query catalog over the Gen_queries database ----------------- *)

let q_readonly_remote =
  {|count(doc("xrpc://peerA/students.xml")/child::people/child::person)|}

let q_join =
  {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
    for $e in doc("xrpc://peerB/course.xml")/child::enroll/child::exam
    return (if (($p/child::id = $e/attribute::id)) then string($e/child::grade) else ())|}

let q_explicit_call =
  {|execute at {"peerA"} function ()
    { for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
      return string($p/child::name) }|}

let q_nested =
  {|execute at {"peerA"} function ()
    { (count(doc("xrpc://peerA/students.xml")/child::people/child::person),
       execute at {"peerB"} function () { count(doc("xrpc://peerB/course.xml")//node()) }) }|}

let q_update =
  {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
    return (if (($p/child::age = 23)) then (delete node $p) else ())|}

let queries =
  [| q_readonly_remote; q_join; q_explicit_call; q_nested; q_update |]

let parse q = Xd_lang.Parser.parse_query q

(* Serialized state of every peer document — the update-visible world. *)
let world_state net =
  List.map
    (fun (host, name) ->
      let peer = Xd_xrpc.Network.find_peer net host in
      let d = Option.get (Xd_xrpc.Peer.find_doc peer name) in
      Xd_xml.Serializer.doc d)
    [ ("peerA", "students.xml"); ("peerB", "course.xml");
      ("client", "local.xml") ]

(* ---- random fault schedules -------------------------------------------- *)

let gen_rule =
  let open QCheck.Gen in
  let* target = oneofl [ ""; "peerA:"; "peerB:" ] in
  let* kind =
    oneofl [ "drop"; "dup"; "truncate"; "delay=0.3"; "crash=2"; "down" ]
  in
  let* prob = oneofl [ ""; "@0.2"; "@0.5"; "@1" ] in
  let* limit = oneofl [ ""; "#1"; "#3" ] in
  return (target ^ kind ^ prob ^ limit)

let gen_spec =
  let open QCheck.Gen in
  let* n = int_range 1 3 in
  let* rules = list_size (return n) gen_rule in
  return (String.concat ";" rules)

let arb_case =
  let open QCheck.Gen in
  let gen =
    let* qi = int_bound (Array.length queries - 1) in
    let* spec = gen_spec in
    let* seed = int_bound 9999 in
    return (qi, spec, seed)
  in
  QCheck.make
    ~print:(fun (qi, spec, seed) ->
      Printf.sprintf "query %d, spec %S, seed %d" qi spec seed)
    gen

let fault_of spec seed =
  match F.parse spec with
  | Ok s -> F.create ~seed s
  | Error e -> Alcotest.failf "generated an unparsable spec %S: %s" spec e

(* ---- the central property ---------------------------------------------- *)

(* One faulty run, classified. *)
let run_faulty ~strategy qi spec seed =
  let net, client = make_net ~fault:(fault_of spec seed) () in
  let q = parse queries.(qi) in
  match E.run ~timeout_s:0.5 ~retries:2 net ~client strategy q with
  | r -> (`Value r.E.value, world_state net)
  | exception M.Xrpc_fault _ -> (`Typed_failure, world_state net)
  | exception M.Xrpc_timeout _ -> (`Typed_failure, world_state net)

(* The reference outcome is a *fault-free distributed* run: test_random
   already pins E.run to the local semantics on values, and for updating
   queries only the distributed path routes the update to its owning
   peer (run_local leaves remote stores untouched). *)
let reference ?(strategy = S.By_fragment) qi =
  let net, client = make_net () in
  let q = parse queries.(qi) in
  let r = E.run net ~client strategy q in
  (r.E.value, world_state net)

let initial_state = lazy (world_state (fst (make_net ())))

let prop_no_silent_divergence strategy =
  qtest ~count:350
    (Printf.sprintf "any fault schedule: exact or typed failure (%s)"
       (S.to_string strategy))
    arb_case
    (fun (qi, spec, seed) ->
      match reference ~strategy qi with
      | exception _ ->
        (* a strategy that legitimately refuses this query fault-free
           (e.g. an update that cannot ship under it) is out of scope *)
        QCheck.assume_fail ()
      | ref_value, ref_state -> (
      match run_faulty ~strategy qi spec seed with
      | `Value v, state ->
        (* success must be exact: value AND document state *)
        Xd_lang.Value.deep_equal v ref_value && state = ref_state
      | `Typed_failure, state ->
        (* a typed failure may leave updates unapplied or applied (the
           response can be lost after the server committed) — but never
           double-applied or partially mangled *)
        state = ref_state || state = Lazy.force initial_state))

(* ---- determinism -------------------------------------------------------- *)

let stats_tuple net =
  let st = net.Xd_xrpc.Network.stats in
  let module St = Xd_xrpc.Stats in
  ( St.messages st,
    St.message_bytes st,
    St.documents_fetched st,
    St.document_bytes st,
    St.faults st,
    St.timeouts st,
    St.retries st,
    St.fallbacks st,
    St.dedup_hits st )

let prop_deterministic =
  qtest ~count:150 "same spec+seed => identical faults, stats and outcome"
    arb_case
    (fun (qi, spec, seed) ->
      let once () =
        let net, client = make_net ~fault:(fault_of spec seed) () in
        let q = parse queries.(qi) in
        let outcome =
          match E.run ~timeout_s:0.5 ~retries:2 net ~client S.By_fragment q with
          | r -> "value: " ^ Xd_lang.Value.serialize r.E.value
          | exception M.Xrpc_fault { code; _ } ->
            "fault: " ^ M.fault_code_to_string code
          | exception M.Xrpc_timeout { attempts; _ } ->
            Printf.sprintf "timeout after %d" attempts
        in
        (outcome, stats_tuple net, world_state net)
      in
      once () = once ())

(* ---- the wire depends on the network's history only -------------------- *)

(* Document ids and fragment ranges travel inside origin keys, so they
   come from an id space the network owns: the same query on a freshly
   built network sends the same bytes whatever the process ran before —
   here, unrelated documents in a standalone store and a by-fragment run
   on another network. Retries under this spec and seed put origin keys
   on the wire several times, so any drift in ids shows in the bytes. *)
let test_wire_independent_of_process () =
  let transcript () =
    let record = ref [] in
    let net, client =
      make_net ~fault:(fault_of "peerB:crash=2@0.5;peerA:truncate@0.2" 792) ()
    in
    (match
       E.run ~record ~timeout_s:0.5 ~retries:2 net ~client S.By_fragment
         (parse queries.(1))
     with
    | _ -> ()
    | exception (M.Xrpc_fault _ | M.Xrpc_timeout _) -> ());
    (List.rev !record, stats_tuple net)
  in
  let first = transcript () in
  let st = Xd_xml.Store.create () in
  for i = 1 to 25 do
    ignore (Xd_xml.Parser.parse ~store:st (Printf.sprintf "<a n='%d'/>" i))
  done;
  ignore (run_faulty ~strategy:S.By_fragment 3 "" 0);
  check_bool "identical transcript and stats on a fresh network"
    (first = transcript ())

(* ---- the fault layer is free when disabled ------------------------------ *)

let test_empty_spec_free () =
  List.iter
    (fun qi ->
      let run fault =
        let net, client = make_net ?fault () in
        let q = parse queries.(qi) in
        let r = E.run net ~client S.By_fragment q in
        (Xd_lang.Value.serialize r.E.value, stats_tuple net)
      in
      let plain = run None in
      let empty = run (Some (F.create [])) in
      check_bool
        (Printf.sprintf "query %d: empty spec = no fault layer" qi)
        (plain = empty))
    [ 0; 1; 2; 3 ]

(* ---- targeted scenarios -------------------------------------------------- *)

(* one dropped message: the retry completes the call exactly *)
let test_retry_recovers () =
  let net, client = make_net ~fault:(fault_of "drop@1#1" 0) () in
  let r = E.run net ~client S.By_fragment (parse q_readonly_remote) in
  check_string "value survives one drop" "4" (Xd_lang.Value.serialize r.E.value);
  check_bool "a timeout was waited out" (r.E.timing.E.timeouts >= 1);
  check_bool "the call was retried" (r.E.timing.E.retries >= 1)

(* a duplicated update request applies exactly once (server dedup) *)
let test_duplicate_update_applies_once () =
  let net, client = make_net ~fault:(fault_of "dup@1#1" 0) () in
  let r = E.run net ~client S.By_fragment (parse q_update) in
  ignore r.E.value;
  check_bool "duplicate answered from cache" (r.E.timing.E.dedup_hits >= 1);
  let _, ref_state = reference 4 in
  check_bool "update applied exactly once" (world_state net = ref_state)

(* a permanently-down peer with a read-only body degrades to data shipping *)
let test_down_peer_degrades () =
  let net, client = make_net ~fault:(fault_of "peerA:down" 0) () in
  let r = E.run net ~client S.By_fragment (parse q_explicit_call) in
  let ref_value, _ = reference 2 in
  check_bool "degraded result is exact"
    (Xd_lang.Value.deep_equal r.E.value ref_value);
  check_bool "fallback counted" (r.E.timing.E.fallbacks >= 1);
  check_bool "timeouts waited" (r.E.timing.E.timeouts >= 1)

(* an update body cannot degrade: typed timeout, document untouched *)
let test_down_peer_update_times_out () =
  let net, client = make_net ~fault:(fault_of "peerA:down" 0) () in
  check_bool "typed timeout"
    (match E.run net ~client S.By_fragment (parse q_update) with
    | exception M.Xrpc_timeout { host = "peerA"; _ } -> true
    | _ -> false);
  check_bool "document untouched"
    (world_state net = Lazy.force initial_state)

(* truncation surfaces as a retryable transport fault and is retried *)
let test_truncate_retried () =
  let net, client = make_net ~fault:(fault_of "truncate@1#1" 7) () in
  let r = E.run net ~client S.By_fragment (parse q_readonly_remote) in
  check_string "value survives truncation" "4"
    (Xd_lang.Value.serialize r.E.value);
  check_bool "fault injected" (r.E.timing.E.faults >= 1);
  check_bool "retried" (r.E.timing.E.retries >= 1)

(* spec parser round-trip and rejection *)
let test_spec_parse () =
  (match F.parse "peerA:drop@0.5#3;delay=0.25;dup" with
  | Ok spec ->
    check_int "three rules" 3 (List.length spec);
    check_string "round-trip" "peerA:drop@0.5#3;delay=0.25;dup"
      (F.spec_to_string spec)
  | Error e -> Alcotest.failf "spec should parse: %s" e);
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "%S rejected" bad)
        (match F.parse bad with Error _ -> true | Ok _ -> false))
    [ "explode"; "drop@nope"; "crash=x"; "drop#"; "peerA:" ]

let () =
  Alcotest.run "xd_faults"
    [
      ( "properties",
        [
          prop_no_silent_divergence S.By_fragment;
          prop_no_silent_divergence S.By_value;
          prop_no_silent_divergence S.By_projection;
          prop_deterministic;
        ] );
      ( "scenarios",
        [
          tc "empty spec is free" test_empty_spec_free;
          tc "retry recovers" test_retry_recovers;
          tc "duplicate update applies once" test_duplicate_update_applies_once;
          tc "down peer degrades" test_down_peer_degrades;
          tc "down peer update times out" test_down_peer_update_times_out;
          tc "truncation retried" test_truncate_retried;
          tc "spec parsing" test_spec_parse;
          tc "wire independent of process history"
            test_wire_independent_of_process;
        ] );
    ]
