(* Distributed-transaction properties: a multi-peer update query run
   through 2PC is ALL-OR-NOTHING and EXACTLY-ONCE under ANY seeded fault
   schedule — including crash-restarts that wipe a participant's volatile
   state at every individual 2PC step. After the outage heals and
   coordinator recovery re-drives unresolved transactions, the world is
   either exactly the committed reference state or exactly the initial
   state; a run that returned a value must have committed everywhere.

   Also: the transaction layer is deterministic (same spec+seed =>
   identical stats, outcome and final state), journals are durable across
   file-backed reopen, the server dedup cache is bounded, and a
   single-site update query keeps a wire byte-identical to a build that
   never heard of transactions. *)

module S = Xd_core.Strategy
module E = Xd_core.Executor
module D = Xd_core.Decompose
module F = Xd_xrpc.Fault
module M = Xd_xrpc.Message
module N = Xd_xrpc.Network
module J = Xd_xrpc.Journal
open Util

let make_net = Gen_queries.make_net
let parse q = Xd_lang.Parser.parse_query q

(* ---- multi-peer update catalog over the Gen_queries database ----------- *)

(* deletes at two peers: partial application is visible as a state that
   matches neither the reference nor the initial world *)
let q_delete_two =
  {|(for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
       return (if (($p/child::age = 23)) then (delete node $p) else ()),
     for $e in doc("xrpc://peerB/course.xml")/child::enroll/child::exam
       return (if (($e/child::grade = "C")) then (delete node $e) else ()))|}

(* inserts at two peers: a double-applied PUL is visible as a duplicated
   <flag> element, so this query also pins exactly-once *)
let q_insert_two =
  {|(insert node <flag>done</flag> into doc("xrpc://peerA/students.xml")/child::people,
     insert node <flag>done</flag> into doc("xrpc://peerB/course.xml")/child::enroll)|}

(* client-local update + remote update: the coordinator is a participant
   of its own transaction *)
let q_mixed_local =
  {|(delete node doc("local.xml")/child::conf/child::wanted,
     for $e in doc("xrpc://peerB/course.xml")/child::enroll/child::exam
       return (if (($e/child::grade = "A")) then (delete node $e) else ()))|}

(* single-peer update: [`Auto] keeps it off 2PC; [`Always] forces it *)
let q_single =
  {|for $p in doc("xrpc://peerA/students.xml")/child::people/child::person
    return (if (($p/child::age = 23)) then (delete node $p) else ())|}

let queries = [| q_delete_two; q_insert_two; q_mixed_local |]

let world_state net =
  List.map
    (fun (host, name) ->
      let peer = Xd_xrpc.Network.find_peer net host in
      let d = Option.get (Xd_xrpc.Peer.find_doc peer name) in
      Xd_xml.Serializer.doc d)
    [ ("peerA", "students.xml"); ("peerB", "course.xml");
      ("client", "local.xml") ]

let initial_state = lazy (world_state (fst (make_net ())))

(* ---- random fault schedules, restart-heavy ----------------------------- *)

let gen_rule =
  let open QCheck.Gen in
  let* target = oneofl [ ""; "peerA:"; "peerB:" ] in
  let* kind =
    oneofl
      [ "drop"; "dup"; "truncate"; "delay=0.3"; "crash=2"; "restart";
        "restart=2"; "down" ]
  in
  let* prob = oneofl [ ""; "@0.2"; "@0.5"; "@1" ] in
  let* limit = oneofl [ ""; "#1"; "#3" ] in
  let* skip = oneofl [ ""; "%1"; "%3"; "%6" ] in
  return (target ^ kind ^ prob ^ limit ^ skip)

let gen_spec =
  let open QCheck.Gen in
  let* n = int_range 1 3 in
  let* rules = list_size (return n) gen_rule in
  return (String.concat ";" rules)

let arb_case queries =
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

(* ---- the central property: atomic commit under any schedule ------------ *)

(* Fault-free transactional reference, memoized per (strategy, query). *)
let ref_memo : (string * string, (string * string list) option) Hashtbl.t =
  Hashtbl.create 16

let reference ~strategy ~txn src =
  let key = (S.to_string strategy, src) in
  match Hashtbl.find_opt ref_memo key with
  | Some r -> r
  | None ->
    let r =
      let net, client = make_net () in
      match E.run ~txn net ~client strategy (parse src) with
      | r -> Some (Xd_lang.Value.serialize r.E.value, world_state net)
      | exception _ -> None
    in
    Hashtbl.add ref_memo key r;
    r

(* One faulty transactional run: execute, classify, heal the outage, run
   coordinator recovery, and return the settled world. *)
let run_recover ~strategy ~txn src spec seed =
  let net, client = make_net ~fault:(fault_of spec seed) () in
  let outcome =
    match
      E.run ~timeout_s:0.5 ~retries:2 ~txn net ~client strategy (parse src)
    with
    | r -> `Value (Xd_lang.Value.serialize r.E.value)
    | exception M.Xrpc_fault _ -> `Typed_failure
    | exception M.Xrpc_timeout _ -> `Typed_failure
  in
  N.heal net;
  E.recover ~timeout_s:0.5 ~retries:2 net ~client;
  (outcome, world_state net)

let atomic_after_recovery ~strategy ~txn src (spec, seed) =
  match reference ~strategy ~txn src with
  | None -> QCheck.assume_fail ()
  | Some (ref_value, ref_state) -> (
    match run_recover ~strategy ~txn src spec seed with
    | `Value v, state ->
      (* success must be exact: value AND every peer committed *)
      v = ref_value && state = ref_state
    | `Typed_failure, state ->
      (* all-or-nothing: after recovery the transaction either committed
         everywhere or nowhere — any in-between state (one peer applied,
         the other not; an update applied twice) is a failure *)
      state = ref_state || state = Lazy.force initial_state)

let prop_atomic ~count strategy =
  qtest ~count
    (Printf.sprintf "2PC all-or-nothing under any fault schedule (%s)"
       (S.to_string strategy))
    (arb_case queries)
    (fun (qi, spec, seed) ->
      atomic_after_recovery ~strategy ~txn:`Auto queries.(qi) (spec, seed))

(* forcing 2PC onto a single-peer update must preserve the same contract *)
let prop_atomic_forced =
  qtest ~count:150 "forced 2PC on a single-peer update is still atomic"
    (arb_case [| q_single |])
    (fun (_, spec, seed) ->
      atomic_after_recovery ~strategy:S.By_fragment ~txn:`Always q_single
        (spec, seed))

(* ---- determinism -------------------------------------------------------- *)

let stats_tuple net =
  let st = net.Xd_xrpc.Network.stats in
  let module St = Xd_xrpc.Stats in
  ( ( St.messages st,
      St.message_bytes st,
      St.faults st,
      St.timeouts st,
      St.retries st,
      St.dedup_hits st ),
    ( St.dedup_evictions st,
      St.txn_staged st,
      St.txn_commits st,
      St.txn_aborts st ) )

let prop_deterministic =
  qtest ~count:200
    "same spec+seed => identical txn outcome, stats and settled state"
    (arb_case queries)
    (fun (qi, spec, seed) ->
      let once () =
        let net, client = make_net ~fault:(fault_of spec seed) () in
        let q = parse queries.(qi) in
        let outcome =
          match
            E.run ~timeout_s:0.5 ~retries:2 ~txn:`Auto net ~client
              S.By_fragment q
          with
          | r -> "value: " ^ Xd_lang.Value.serialize r.E.value
          | exception M.Xrpc_fault { code; _ } ->
            "fault: " ^ M.fault_code_to_string code
          | exception M.Xrpc_timeout { attempts; _ } ->
            Printf.sprintf "timeout after %d" attempts
        in
        N.heal net;
        E.recover ~timeout_s:0.5 ~retries:2 net ~client;
        (outcome, stats_tuple net, world_state net)
      in
      once () = once ())

(* ---- crash-restart parked at every single 2PC step ---------------------- *)

(* [%SKIP] parks one restart (or permanent outage) at the k-th message a
   peer receives, for every k the exchange can reach: request arrival,
   prepare arrival, commit arrival, and every retry in between. *)
let test_restart_every_step () =
  let ref_state =
    match reference ~strategy:S.By_fragment ~txn:`Auto q_delete_two with
    | Some (_, st) -> st
    | None -> Alcotest.fail "reference run failed"
  in
  List.iter
    (fun target ->
      List.iter
        (fun kind ->
          for skip = 0 to 9 do
            let spec =
              Printf.sprintf "%s%s#1%s" target kind
                (if skip > 0 then Printf.sprintf "%%%d" skip else "")
            in
            let _, state =
              run_recover ~strategy:S.By_fragment ~txn:`Auto q_delete_two
                spec 0
            in
            let ok =
              state = ref_state || state = Lazy.force initial_state
            in
            check_bool
              (Printf.sprintf "all-or-nothing under %S" spec)
              ok
          done)
        [ "restart"; "down" ])
    [ "peerA:"; "peerB:"; "" ]

(* ---- recovery completes an interrupted commit --------------------------- *)

(* peerB dies permanently right when the commit decision reaches it: the
   coordinator has journaled the decision, so recovery must finish the
   commit — not roll it back. *)
let test_recover_finishes_commit () =
  let ref_state =
    match reference ~strategy:S.By_fragment ~txn:`Auto q_delete_two with
    | Some (_, st) -> st
    | None -> Alcotest.fail "reference run failed"
  in
  let net, client = make_net ~fault:(fault_of "peerB:down%2" 0) () in
  (match
     E.run ~timeout_s:0.5 ~retries:2 ~txn:`Auto net ~client S.By_fragment
       (parse q_delete_two)
   with
  | _ -> ()
  | exception (M.Xrpc_fault _ | M.Xrpc_timeout _) -> ());
  N.heal net;
  E.recover ~timeout_s:0.5 ~retries:2 net ~client;
  check_bool "decided transaction committed everywhere after recovery"
    (world_state net = ref_state)

(* ---- journal durability -------------------------------------------------- *)

let test_journal_memory () =
  let j = J.in_memory ~peer:"p" in
  check_bool "stage" (J.stage j ~txn:"t1" ~req:"r1" ~pul:"<pul/>");
  check_bool "retried stage dedups"
    (not (J.stage j ~txn:"t1" ~req:"r1" ~pul:"<pul/>"));
  check_bool "prepare pins" (J.prepare j ~txn:"t1");
  check_bool "in doubt" (J.in_doubt j = [ "t1" ]);
  (match J.commit j ~txn:"t1" with
  | `Apply [ "<pul/>" ] -> J.committed j ~txn:"t1"
  | _ -> Alcotest.fail "expected the staged PUL back");
  check_bool "commit idempotent" (J.commit j ~txn:"t1" = `Already);
  (* abort after commit must not un-commit *)
  J.abort j ~txn:"t1";
  check_bool "commit survives late abort" (J.commit j ~txn:"t1" = `Already);
  (* presumed abort: staged but unprepared does not survive a restart *)
  check_bool "stage t2" (J.stage j ~txn:"t2" ~req:"" ~pul:"<pul/>");
  J.crash_restart j;
  check_bool "unprepared stage presumed aborted"
    (J.commit j ~txn:"t2" = `Unknown);
  check_bool "prepare after restart refused" (not (J.prepare j ~txn:"t2"))

let fresh_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)

let test_journal_file () =
  let dir = "txn-journal-test" in
  fresh_dir dir;
  let j = J.open_file ~dir ~peer:"p1" in
  check_bool "stage" (J.stage j ~txn:"t1" ~req:"r1" ~pul:"<pul a='&'/>");
  check_bool "prepare" (J.prepare j ~txn:"t1");
  (* reopening the file replays it as a crash-restart: the prepared vote
     and its PUL are durable *)
  let j2 = J.open_file ~dir ~peer:"p1" in
  check_bool "prepared survives reopen" (J.in_doubt j2 = [ "t1" ]);
  (match J.commit j2 ~txn:"t1" with
  | `Apply [ "<pul a='&'/>" ] -> J.committed j2 ~txn:"t1"
  | _ -> Alcotest.fail "expected the staged PUL back after reopen");
  let j3 = J.open_file ~dir ~peer:"p1" in
  check_bool "committed is durable" (J.commit j3 ~txn:"t1" = `Already);
  check_bool "stage t2" (J.stage j3 ~txn:"t2" ~req:"" ~pul:"<pul/>");
  let j4 = J.open_file ~dir ~peer:"p1" in
  check_bool "unprepared stage presumed aborted across reopen"
    (J.commit j4 ~txn:"t2" = `Unknown)

(* end-to-end with file-backed journals: an interrupted commit settles
   correctly and the journal files exist on disk *)
let test_journal_dir_end_to_end () =
  let dir = "txn-journal-e2e" in
  fresh_dir dir;
  let ref_state =
    match reference ~strategy:S.By_fragment ~txn:`Auto q_delete_two with
    | Some (_, st) -> st
    | None -> Alcotest.fail "reference run failed"
  in
  let net, client =
    make_net ~fault:(fault_of "peerB:restart#1%2" 0) ~journal_dir:dir ()
  in
  (match
     E.run ~timeout_s:0.5 ~retries:2 ~txn:`Auto net ~client S.By_fragment
       (parse q_delete_two)
   with
  | _ -> ()
  | exception (M.Xrpc_fault _ | M.Xrpc_timeout _) -> ());
  N.heal net;
  E.recover ~timeout_s:0.5 ~retries:2 net ~client;
  check_bool "settled all-or-nothing with file-backed journals"
    (world_state net = ref_state
    || world_state net = Lazy.force initial_state);
  check_bool "journal file written" (Sys.file_exists (dir ^ "/client.journal"))

(* ---- bounded dedup cache -------------------------------------------------- *)

(* two calls to the same peer on a duplicating wire: both responses carry
   request-ids and get cached; a cap of one forces an eviction *)
let test_dedup_cache_bounded () =
  let two_calls =
    {|(execute at {"peerA"} function ()
        { count(doc("xrpc://peerA/students.xml")/child::people/child::person) },
      execute at {"peerA"} function ()
        { count(doc("xrpc://peerA/students.xml")/child::people/child::tutor) })|}
  in
  let net, client = make_net ~fault:(fault_of "dup" 0) () in
  let plan = D.plan_of_query S.By_fragment (parse two_calls) in
  let r =
    E.run_plan ~timeout_s:0.5 ~retries:2 ~dedup_cap:1 net ~client plan
  in
  check_string "value exact under dups" "4 0"
    (Xd_lang.Value.serialize r.E.value);
  check_bool "cache eviction counted" (r.E.timing.E.dedup_evictions >= 1)

(* ---- single-site fast path: wire identity -------------------------------- *)

let trace session_record =
  List.map
    (fun r ->
      match r.Xd_xrpc.Session.dir with
      | `Request h -> "->" ^ h ^ " " ^ r.Xd_xrpc.Session.text
      | `Response h -> "<-" ^ h ^ " " ^ r.Xd_xrpc.Session.text)
    !session_record

(* a single-peer no-fault update query must produce a byte-identical wire
   under [`Auto] and under [`Off]: the transaction layer is invisible
   until a second site is involved *)
let test_single_site_wire_identity () =
  List.iter
    (fun strategy ->
      let run txn =
        let record = ref [] in
        let net, client = make_net () in
        let r = E.run ~record ~txn net ~client strategy (parse q_single) in
        (Xd_lang.Value.serialize r.E.value, trace record, world_state net)
      in
      let v_auto, t_auto, s_auto = run `Auto in
      let v_off, t_off, s_off = run `Off in
      check_bool
        (Printf.sprintf "identical wire bytes (%s)" (S.to_string strategy))
        (t_auto = t_off);
      check_string "identical value" v_off v_auto;
      check_bool "identical state" (s_auto = s_off))
    [ S.By_fragment; S.By_projection ]

(* ---- transaction ids never repeat ------------------------------------------ *)

(* Six two-peer inserts in a row through the executor, each its own
   transaction: every one must apply at both peers. A coordinator that
   reused an id would have its later inserts refused by participants that
   already committed that id, and they would vanish without an error.
   [crash_after] crash-restarts the coordinator's journal and runs
   recovery after that many inserts. *)
let sequential_inserts ?crash_after () =
  let net, client = make_net () in
  for i = 1 to 6 do
    ignore (E.run ~txn:`Auto net ~client S.By_fragment (parse q_insert_two));
    if crash_after = Some i then begin
      J.crash_restart (N.journal net "client");
      E.recover net ~client
    end
  done;
  let flags uri =
    Xd_lang.Value.serialize
      (E.run_local net ~client
         (parse (Printf.sprintf {|count(doc("%s")//child::flag)|} uri)))
  in
  check_string "six flags at peerA" "6" (flags "xrpc://peerA/students.xml");
  check_string "six flags at peerB" "6" (flags "xrpc://peerB/course.xml");
  check_int "six commits"
    6 (List.length
         (List.filter
            (function J.Resolved _ -> true | _ -> false)
            (J.records (N.journal net "client"))))

let test_sequential_inserts () = sequential_inserts ()

let test_sequential_inserts_crash () = sequential_inserts ~crash_after:3 ()

(* ---- the static site analysis -------------------------------------------- *)

let test_txn_needed () =
  let plan_query strategy src = (D.decompose strategy (parse src)).D.query in
  check_bool "single-peer plan needs no txn"
    (not (E.txn_needed ~self:"client" (plan_query S.By_fragment q_single)));
  check_bool "two-peer update plan needs txn"
    (E.txn_needed ~self:"client" (plan_query S.By_fragment q_delete_two));
  check_bool "local+remote update plan needs txn"
    (E.txn_needed ~self:"client" (plan_query S.By_fragment q_mixed_local));
  check_bool "read-only plan needs no txn"
    (not
       (E.txn_needed ~self:"client"
          (plan_query S.By_fragment
             {|count(doc("xrpc://peerA/students.xml")//node())|})));
  (* a computed host is statically unknowable: conservative yes *)
  let computed =
    {|execute at {string(doc("local.xml")/child::conf/child::wanted)}
      function () { delete node doc("xrpc://peerA/students.xml")/child::people }|}
  in
  check_bool "computed host is conservative"
    (E.txn_needed ~self:"client" (parse computed))

(* every catalog query must have a fault-free transactional reference
   under both function-shipping strategies — otherwise the atomicity
   properties above would pass vacuously *)
let test_references_exist () =
  List.iter
    (fun strategy ->
      Array.iteri
        (fun qi src ->
          check_bool
            (Printf.sprintf "query %d has a reference under %s" qi
               (S.to_string strategy))
            (reference ~strategy ~txn:`Auto src <> None))
        queries)
    [ S.By_fragment; S.By_projection ]

let () =
  Alcotest.run "xd_txn"
    [
      ( "properties",
        [
          prop_atomic ~count:400 S.By_fragment;
          prop_atomic ~count:300 S.By_projection;
          prop_atomic_forced;
          prop_deterministic;
        ] );
      ( "scenarios",
        [
          tc "references exist" test_references_exist;
          tc "restart at every 2PC step" test_restart_every_step;
          tc "recovery finishes a decided commit" test_recover_finishes_commit;
          tc "journal semantics (memory)" test_journal_memory;
          tc "journal durability (file)" test_journal_file;
          tc "file-backed journals end to end" test_journal_dir_end_to_end;
          tc "dedup cache is bounded" test_dedup_cache_bounded;
          tc "single-site wire identity" test_single_site_wire_identity;
          tc "txn_needed site analysis" test_txn_needed;
          tc "sequential transactions all apply" test_sequential_inserts;
          tc "transaction ids survive coordinator restart"
            test_sequential_inserts_crash;
        ] );
    ]
