(* A distributed execution session: installs the execute-at and fn:doc
   hooks into the evaluator, builds/dispatches the XRPC messages, and keeps
   the per-session endpoint state that realizes bulk-RPC-style fragment
   deduplication across the calls of one query execution.

   The whole exchange exercises real code paths: requests and responses are
   serialized to XML text, accounted on the simulated wire, and parsed back
   on the other side. Only the socket is simulated. *)

module X = Xd_xml
module Ast = Xd_lang.Ast
module Value = Xd_lang.Value
module Env = Xd_lang.Env
module Eval = Xd_lang.Eval
module Trace = Xd_obs.Trace

(* [dir] names the peer a request went to or a response came from *)
type recorded = { dir : [ `Request of string | `Response of string ]; text : string }

(* Coordinator state of one distributed transaction: the id travels on
   every update-carrying request of the query, and the participants are
   collected from response acknowledgements (transitively — a server that
   fanned out reports its own participants back). *)
type coord = {
  txn_id : string;
  mutable participants : string list;
  epoch : int option;
      (* catalog epoch when the transaction started (dynamic topology
         only): <prepare> carries it, participants whose catalog moved
         on vote abort *)
}

type t = {
  net : Network.t;
  self : Peer.t;
  passing : Message.passing;
  bulk : bool; (* session-wide fragment caching (bulk RPC); off = per-call *)
  schema : (string -> string list) option;
      (* schema-aware projection: mandatory child elements per element *)
  ep : Message.endpoint; (* this peer's endpoint state *)
  remote_sessions : (string, t) Hashtbl.t; (* server sessions by peer name *)
  server_funcs : (string, Ast.func list) Hashtbl.t; (* module cache per client *)
  fetched : (string, X.Doc.t) Hashtbl.t; (* data-shipped documents *)
  funcs_shipped : (string, unit) Hashtbl.t; (* hosts that got our module *)
  record : recorded list ref option;
  depth : int;
  timeout_s : float; (* simulated per-call timeout *)
  retries : int; (* extra attempts after the first *)
  replied : (string, string) Hashtbl.t;
      (* server side: request-id -> cached successful response; retried
         (or duplicated) update-carrying calls apply at most once *)
  replied_order : string Queue.t; (* FIFO eviction order for the cache *)
  dedup_cap : int; (* size cap on the dedup cache *)
  mutable next_req : int; (* client side: request-id counter *)
  mutable txn : coord option;
      (* the transaction in scope: set on the coordinator for the whole
         execution, and on a server session while it evaluates a
         txn-tagged request (so nested calls propagate the id) *)
  sched : (int, int list list) Hashtbl.t;
      (* effect-analysis schedule, coordinator only: anchor (Seq/Let/For)
         vertex id -> overlap groups, each the consecutive Execute_at
         vertex ids of one group in sequential evaluation order *)
  deadline_rel : float option;
      (* coordinator only: the query's total budget in simulated seconds;
         pinned to an absolute deadline lazily at first use, because the
         executor resets the stats clock after creating the session *)
  mutable deadline_at : float option;
      (* the absolute simulated-clock deadline in scope: pinned from
         [deadline_rel] on the coordinator, set per-request on a server
         session from the wire attribute (scoped by the admission gate) *)
  retry_budget : int ref option;
      (* per-query retry budget, shared by reference with every server
         session of one plan execution: retries anywhere in the fan-out
         draw from the same pool *)
  mutable retry_after_hint : float option;
      (* the retry-after suggestion parsed off the most recent fault
         response; consumed (and cleared) by the next backoff charge *)
  codec : Codec.t option;
      (* compiled per-call-site codecs from the wire-shape analysis;
         shared with every server session of the plan (the same handle
         serves both directions of an exchange). None = generic paths
         only, wire and registry byte-identical to a codec-less build *)
  tracer : Trace.t option; (* shared across every session of one run *)
  mutable cur : Trace.span option;
      (* the ambient span new spans parent under: the executor's root on
         the coordinator, the active attempt/evaluate span elsewhere *)
}

let create ?record ?(bulk = true) ?schema ?(depth = 0) ?(timeout_s = 1.0)
    ?(retries = 2) ?(dedup_cap = 256) ?(schedule = []) ?deadline ?retry_budget
    ?codec ?tracer net self passing =
  let sched = Hashtbl.create (max 1 (List.length schedule)) in
  List.iter
    (fun (anchor, members) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt sched anchor) in
      Hashtbl.replace sched anchor (prev @ [ members ]))
    schedule;
  {
    net;
    self;
    passing;
    bulk;
    schema;
    ep = Message.make_endpoint self;
    remote_sessions = Hashtbl.create 4;
    server_funcs = Hashtbl.create 4;
    fetched = Hashtbl.create 8;
    funcs_shipped = Hashtbl.create 4;
    record;
    depth;
    timeout_s;
    retries;
    replied = Hashtbl.create 8;
    replied_order = Queue.create ();
    dedup_cap = max 1 dedup_cap;
    next_req = 0;
    txn = None;
    sched;
    deadline_rel = deadline;
    deadline_at = None;
    retry_budget;
    retry_after_hint = None;
    codec;
    tracer;
    cur = None;
  }

let set_current_span session sp = session.cur <- sp

(* ---------------- tracing helpers -------------------------------------- *)

(* Run [f] with [sp] as the session's ambient span. *)
let with_cur session sp f =
  let prev = session.cur in
  session.cur <- sp;
  Fun.protect ~finally:(fun () -> session.cur <- prev) (fun () -> f ())

(* A span under the current ambient one, ambient for the duration of
   [f]. All no-ops when the session has no tracer. *)
let traced ?peer session ~cat name f =
  let peer = Option.value ~default:(Peer.name session.self) peer in
  Trace.with_span session.tracer
    ~parent:(Trace.ambient session.cur)
    ~peer ~cat name
    (fun sp -> with_cur session sp (fun () -> f sp))

(* An instantaneous event span carrying [attrs]. *)
let note session ~cat name attrs =
  let sp =
    Trace.start session.tracer
      ~parent:(Trace.ambient session.cur)
      ~peer:(Peer.name session.self) ~cat name
  in
  List.iter (fun (k, v) -> Trace.add_attr sp k v) attrs;
  Trace.finish session.tracer sp

(* Record on [sp] how far a Stats reader moved across [f], as
   [diff before after]. No-ops when untraced. *)
let attr_delta sp key reader diff f =
  match sp with
  | None -> f ()
  | Some _ ->
    let before = reader () in
    Fun.protect
      ~finally:(fun () -> Trace.add_attr sp key (diff before (reader ())))
      f

(* Traced accounting regions: a span in category [cat] whose [busy_s]
   attribute carries the exact amount [f] charged to the Stats bucket
   [reader]. Span wall clocks are separate gettimeofday reads and drift
   against the gauges; the deltas are what lets Profile reconcile
   per-vertex sums with the registry totals to the float, not to a
   tolerance. (A remote span's delta includes nested remote charges —
   Profile subtracts descendant remote spans to recover the self
   amount.) *)
let bucket_traced ?peer session ~cat reader time name f =
  let stats = session.net.Network.stats in
  traced ?peer session ~cat name @@ fun sp ->
  attr_delta sp "busy_s" (fun () -> reader stats) (fun a b -> Trace.F (b -. a))
  @@ fun () -> time stats f

let ser_traced ?peer session name f =
  bucket_traced ?peer session ~cat:"serialize" Stats.serialize_s
    Stats.time_serialize name f

let shred_traced session name f =
  bucket_traced session ~cat:"shred" Stats.shred_s Stats.time_shred name f

let remote_traced session name f =
  bucket_traced session ~cat:"remote" Stats.remote_exec_s Stats.time_remote
    name f

(* A "network" span stamped with the bytes billed across [f],
   retransmissions included. *)
let network_traced session name f =
  let stats = session.net.Network.stats in
  traced session ~cat:"network" name @@ fun sp ->
  attr_delta sp "bytes" (fun () -> Stats.total_bytes stats) (fun a b ->
      Trace.I (b - a))
  @@ fun () -> f sp

let recorded session = Option.map (fun r -> List.rev !r) session.record

(* ---------------- retry backoff ---------------------------------------- *)

(* FNV-1a over [s], folded to 16 bits. Hand-rolled (not Hashtbl.hash) so
   the jittered schedule is pinnable across OCaml versions/platforms. *)
let fnv16 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h 0xffffL)

(* Deterministic per-request jitter on the exponential backoff: attempt n
   (n >= 2) waits base * [1, 2) where base doubles per retry and the
   fraction is keyed on (request id, attempt). Retries of one overlap
   group thus spread out instead of storming a recovering peer in
   lockstep, and a given request replays the same schedule every run. *)
let backoff_s ~key ~attempt =
  let base = 0.05 *. (2. ** float_of_int (attempt - 2)) in
  let jitter =
    float_of_int (fnv16 (Printf.sprintf "%s#%d" key attempt)) /. 65536.
  in
  base *. (1. +. jitter)

(* ---------------- deadline budget -------------------------------------- *)

(* The absolute deadline in scope, if any. A coordinator's relative
   budget is pinned against the simulated clock at first use — after the
   executor's stats reset — and a server session carries the absolute
   deadline its admission gate installed for the current request. *)
let deadline_now session =
  match session.deadline_at with
  | Some _ as d -> d
  | None -> (
    match session.deadline_rel with
    | None -> None
    | Some rel ->
      let d = Stats.network_s session.net.Network.stats +. rel in
      session.deadline_at <- Some d;
      Some d)

let deadline_active session =
  session.deadline_at <> None || session.deadline_rel <> None

(* What is left of the deadline budget right now, if there is one. *)
let remaining session =
  Option.map
    (fun d -> d -. Stats.network_s session.net.Network.stats)
    (deadline_now session)

(* Charge one backoff wait to the simulated clock, honoring a server's
   retry-after suggestion when it exceeds our own jittered schedule. The
   hint is single-use: it belongs to the fault that carried it. *)
let charge_backoff session ~key ~attempt =
  let stats = session.net.Network.stats in
  let backoff = backoff_s ~key ~attempt in
  let wait =
    match session.retry_after_hint with
    | Some ra -> Float.max backoff ra
    | None -> backoff
  in
  session.retry_after_hint <- None;
  Stats.add_network_s stats wait

(* The shared per-query retry pool: [true] when this retry may proceed
   (and is charged), [false] when the pool is spent. *)
let retry_allowed session =
  match session.retry_budget with
  | None -> true
  | Some b ->
    if !b > 0 then begin
      decr b;
      true
    end
    else begin
      Stats.incr_retry_budget_stops session.net.Network.stats;
      false
    end

(* Raise the typed non-retryable expiry fault: budgets only shrink, so a
   call whose budget is gone can never succeed by waiting. *)
let raise_expired session ~host reason =
  Stats.incr_deadline_rejects session.net.Network.stats;
  raise
    (Message.Xrpc_fault { host; code = Message.Deadline_exceeded; reason })

(* ---------------- dynamic topology helpers ----------------------------- *)

(* Redirect chains are bounded: after [max_forward_hops] unanswered
   redirects the call fails with xrpc:topo.unroutable. *)
let max_forward_hops = 4

(* The document names a body touches, as catalog keys: relative doc()
   names stay as-is, xrpc:// URIs lose their host part (ownership is the
   catalog's call, not the URI author's). Nested execute-at bodies are
   skipped — their documents are the nested call's routing problem. *)
let body_doc_names (body : Ast.expr) =
  let acc = ref [] in
  let rec go (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Execute_at x ->
      List.iter go (x.Ast.host :: List.map snd x.Ast.params)
    | _ ->
      List.iter
        (fun (d : Xd_dgraph.Dgraph.uri_dep) ->
          match d.Xd_dgraph.Dgraph.uri with
          | Xd_dgraph.Dgraph.Uri u ->
            let name =
              match Xd_dgraph.Dgraph.split_xrpc_uri u with
              | Some (_, n) -> n
              | None -> u
            in
            if not (List.mem name !acc) then acc := name :: !acc
          | Xd_dgraph.Dgraph.Wildcard | Xd_dgraph.Dgraph.Constr -> ())
        (Xd_dgraph.Dgraph.direct_uri_deps_of_vertex e);
      List.iter go (Ast.children e)
  in
  go body;
  List.rev !acc

(* The single catalogued owner of every document in [docs], if there is
   one. None when no doc is catalogued or the owners disagree — then the
   computed host stands as evaluated. *)
let catalog_owner cat docs =
  let owners =
    List.sort_uniq compare (List.filter_map (Xd_topo.Catalog.owner_of cat) docs)
  in
  match owners with [ o ] -> Some o | _ -> None

(* The catalog epoch when dynamic topology is in force. *)
let topo_epoch session =
  match session.net.Network.catalog with
  | Some cat when Network.topo_active session.net ->
    Some (Xd_topo.Catalog.epoch cat)
  | _ -> None

(* This peer's transaction journal — owned by the network so that every
   session serving the peer (and any later recovery session) shares it. *)
let journal session = Network.journal session.net (Peer.name session.self)

(* Cache a successful response under its request id, evicting the oldest
   entry once the cap is reached: the cache must not grow without bound
   over a long session (satellite of PR 3). An evicted id makes a very
   late retransmission re-evaluate — for updates that risk is closed by
   transactional staging, which dedups on (txn, request-id) in the
   journal instead. *)
let remember_reply session id resp =
  if not (Hashtbl.mem session.replied id) then begin
    Hashtbl.replace session.replied id resp;
    Queue.push id session.replied_order;
    if Queue.length session.replied_order > session.dedup_cap then begin
      let victim = Queue.pop session.replied_order in
      Hashtbl.remove session.replied victim;
      Stats.incr_dedup_evictions session.net.Network.stats
    end
  end

(* Parse one incoming message. With a codec installed, the streaming
   event parser shreds fragment/copy subtree content straight into
   pre-order stores *during* the parse — no intermediate message-tree
   copy — and hands the prebuilt documents to the shredders via the
   side table. Without one (ablation, or a codec-less build), the
   classic tree parse; either way the message document itself parses
   identically. *)
let parse_message session text =
  match session.codec with
  | None -> (X.Parser.parse_doc ~strip_ws:false text, None)
  | Some _ ->
    let mdoc, prebuilt = Codec.event_parse text in
    let n = Hashtbl.length prebuilt in
    if n > 0 then Stats.add_codec_event_shreds session.net.Network.stats n;
    (mdoc, Some prebuilt)

(* A reply that does not parse or holds the wrong content: a retryable
   transport fault. *)
let corrupt ~host reason =
  Message.Xrpc_fault { host; code = Message.Transport_corrupt; reason }

(* Raise the typed fault an <env:Fault> element carries, keeping its
   retry-after suggestion for the next backoff. A fault that does not
   itself parse is a corrupt reply. *)
let raise_fault session ~host f =
  match
    let code, reason = Message.parse_fault f in
    (code, reason, Message.parse_retry_after f)
  with
  | code, reason, hint ->
    session.retry_after_hint <- hint;
    raise (Message.Xrpc_fault { host; code; reason })
  | exception Message.Protocol_error m -> raise (corrupt ~host m)

(* Why the last attempt of an exchange failed. *)
type failure = [ `Timeout | `Fault of Message.fault_code * string ]

(* The server-side session object for calls from [session] to [host]:
   holds the server peer's endpoint (shredded parameters) and supports
   nested outgoing calls from that server. *)
let rec server_session session host =
  match Hashtbl.find_opt session.remote_sessions host with
  | Some s -> s
  | None ->
    if session.depth > 8 then
      Env.dynamic_error "XRPC: call nesting too deep at %s" host;
    let peer = Network.find_peer session.net host in
    let s =
      create ?record:session.record ~bulk:session.bulk ?schema:session.schema
        ~depth:(session.depth + 1) ~timeout_s:session.timeout_s
        ~retries:session.retries ~dedup_cap:session.dedup_cap
        ?retry_budget:session.retry_budget ?codec:session.codec
        ?tracer:session.tracer session.net peer session.passing
    in
    Hashtbl.replace session.remote_sessions host s;
    s

(* ---------------- data shipping (fn:doc on xrpc:// URIs) -------------- *)

and resolve_doc session env uri =
  match Xd_dgraph.Dgraph.split_xrpc_uri uri with
  | None -> Env.default_resolve_doc env uri
  | Some (host, doc_name) -> (
    if host = Peer.name session.self then
      match Peer.find_doc session.self doc_name with
      | Some d -> d
      | None -> Env.dynamic_error "document %S not found at %s" doc_name host
    else
      (* Replica shortcut (dynamic topology): when the catalog lists this
         peer as a replica of the named document and a local copy exists,
         serve it instead of shipping the whole document over the wire —
         replicas serve reads, which is what makes failover cheap. *)
      match
        match session.net.Network.catalog with
        | Some cat
          when Network.topo_active session.net
               && Xd_topo.Catalog.serves cat
                    ~peer:(Peer.name session.self)
                    ~doc:doc_name ->
          Peer.find_doc session.self doc_name
        | _ -> None
      with
      | Some d -> d
      | None -> (
      match Hashtbl.find_opt session.fetched uri with
      | Some d -> d
      | None ->
        traced session ~cat:"doc" ("fetch " ^ uri) @@ fun dsp ->
        Trace.add_attr dsp "uri" (Trace.S uri);
        let speer = Network.find_peer session.net host in
        let doc =
          match Peer.find_doc speer doc_name with
          | Some d -> d
          | None ->
            Env.dynamic_error "document %S not found at %s" doc_name host
        in
        let text =
          ser_traced ~peer:host session "document" (fun () ->
              X.Serializer.doc doc)
        in
        network_traced session ("ship " ^ doc_name) (fun _ ->
            Network.transfer ~kind:`Document session.net (String.length text));
        let d =
          shred_traced session "document" (fun () ->
              X.Parser.parse ~store:(Peer.store session.self) ~uri text)
        in
        Hashtbl.replace session.fetched uri d;
        d))

(* The endpoint used to marshal/shred one exchange: the session-wide one
   under bulk RPC (fragments cached across the calls of the session), or a
   fresh one per call when bulk is disabled (the ablation baseline — every
   call re-ships its nodes and responses arrive as fresh copies). *)
and call_endpoint session =
  if session.bulk then session.ep else Message.make_endpoint session.self

(* ---------------- request construction -------------------------------- *)

(* Used/returned node sets for the parameters of one call (by-projection).
   Parameters without projection information conservatively ship their full
   subtrees (by-fragment behaviour). *)
and param_node_sets (x : Ast.execute_at) args =
  let used = ref [] and returned = ref [] in
  List.iter
    (fun (v, value) ->
      let ctx =
        List.filter_map
          (function Value.N n -> Some n | Value.A _ -> None)
          value
      in
      if ctx <> [] then
        match
          List.find_opt (fun (pv, _, _) -> pv = v) x.Ast.param_paths
        with
        | Some (_, u_strs, r_strs) ->
          used := ctx @ !used;
          let eval p = Xd_projection.Path.(eval (of_string p) ctx) in
          List.iter (fun p -> used := eval p @ !used) u_strs;
          List.iter (fun p -> returned := eval p @ !returned) r_strs
        | None -> returned := ctx @ !returned)
    args;
  (!used, !returned)

(* The inner <request> element of one call — standalone inside its own
   envelope for a plain call, or stacked with its siblings inside one
   <batch> envelope by the scheduler. *)
and request_body session ~ep ~host ?req_id ?txn ?epoch ?(in_batch = false)
    (x : Ast.execute_at) ~args ~funcs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<request";
  Message.buf_attr buf "passing" (Message.passing_to_string session.passing);
  Message.buf_attr buf "caller" (Peer.name session.self);
  (* only stamped on a faulty wire, so fault-free traffic is byte-identical
     to a build without the fault layer *)
  (match req_id with
  | Some id -> Message.buf_attr buf "request-id" id
  | None -> ());
  (* only stamped inside a distributed transaction: the callee stages its
     PUL under this id instead of applying it *)
  (match txn with
  | Some t -> Message.buf_attr buf "txn" t
  | None -> ());
  (* only stamped under dynamic topology (non-trivial catalog): the
     caller's catalog version when it routed this call *)
  (match epoch with
  | Some e -> Message.buf_attr buf "epoch" (string_of_int e)
  | None -> ());
  (* only stamped when the query carries a deadline budget: the value is
     re-patched with the remaining budget at each send. The admission
     unit is the outermost element, so batch slots leave the budget to
     their envelope. *)
  (match remaining session with
  | Some r when not in_batch -> Message.buf_deadline buf r
  | _ -> ());
  Message.buf_attr buf "static-base-uri" "xdx://static/";
  Message.buf_attr buf "default-collation" "codepoint";
  Message.buf_attr buf "current-dateTime" "2009-03-29T00:00:00Z";
  Buffer.add_char buf '>';
  (* ship the module (user function definitions) once per host *)
  if funcs <> [] && not (Hashtbl.mem session.funcs_shipped host) then begin
    Hashtbl.replace session.funcs_shipped host ();
    Buffer.add_string buf "<module>";
    let text =
      String.concat "\n" (List.map (Format.asprintf "%a" Xd_lang.Pp.pp_func) funcs)
    in
    Message.buf_text buf text;
    Buffer.add_string buf "</module>"
  end;
  Buffer.add_string buf "<query>";
  Message.buf_text buf (Xd_lang.Pp.expr_to_string x.Ast.body);
  Buffer.add_string buf "</query>";
  (* Per the paper, the absence of <projection-paths> tells the callee to
     answer in the full (by-fragment-style) format; only emit it when the
     analysis actually produced result paths. *)
  (if
     session.passing = Message.By_projection
     && x.Ast.result_paths <> ([], [])
   then begin
     let u, r = x.Ast.result_paths in
     let paths tag =
       List.iter (fun p ->
           Buffer.add_string buf ("<" ^ tag ^ ">");
           Message.buf_text buf p;
           Buffer.add_string buf ("</" ^ tag ^ ">"))
     in
     Buffer.add_string buf "<projection-paths>";
     paths "used-path" u;
     paths "returned-path" r;
     Buffer.add_string buf "</projection-paths>"
   end);
  let values = List.map snd args in
  let frags =
    match session.passing with
    | Message.By_value -> []
    | Message.By_fragment ->
      Message.plan_by_fragment ep ~host (Message.value_nodes values)
    | Message.By_projection ->
      let used, returned = param_node_sets x args in
      Message.plan_by_projection ?schema:session.schema ep ~host ~used
        ~returned
  in
  Message.write_fragments buf frags;
  Buffer.add_string buf "<call>";
  List.iter
    (fun (v, value) ->
      Message.write_sequence ep ~host ~passing:session.passing ~frags buf
        ~param:v value)
    args;
  Buffer.add_string buf "</call>";
  Buffer.add_string buf "</request>";
  Buffer.contents buf

(* The compiled encoder for one call, when the wire-shape analysis
   produced one for this call site and nothing about the call needs the
   generic writer. Module shipping mutates per-host state inside the
   generic writer, so any call that still has to ship functions goes
   generic (not a bailout — the shape analysis never claimed to cover
   it). [None] from the encoder itself is a runtime shape mismatch and
   counts as one. The two writers are byte-identical by construction;
   the QCheck differential harness holds them to it. *)
and compiled_request session ~host ?req_id ?txn ?epoch (x : Ast.execute_at)
    ~args ~funcs =
  match session.codec with
  | None -> None
  | Some c ->
    if funcs <> [] && not (Hashtbl.mem session.funcs_shipped host) then None
    else (
      match Codec.find_call c x.Ast.body.Ast.id with
      | None -> None
      | Some cc -> (
        let stats = session.net.Network.stats in
        match
          Codec.encode_request cc
            ~caller:(Peer.name session.self)
            ?req_id ?txn ?epoch ?deadline:(remaining session) args
        with
        | Some text ->
          Stats.incr_codec_compiled stats;
          Some text
        | None ->
          Stats.incr_codec_bailouts stats;
          None))

(* ---------------- server side ----------------------------------------- *)

and find_path names node =
  List.fold_left
    (fun acc name ->
      match acc with
      | None -> None
      | Some n -> Message.find_child n name)
    (Some node) names

(* [session] here is the *server* session. Every failure below — a
   request that does not parse, ill-formed protocol content, or an error
   raised by the remote body — is answered with a proper <env:Fault>
   envelope carrying a code from the taxonomy, never a leaked native
   exception. Only asynchronous/implementation exceptions (Stack_overflow
   and friends) still propagate. *)
and handle_request session ~client_name request_text =
  (* A decodable <trace> header links this peer's spans under the
     caller's attempt span; without one (tracing off, or the header was
     lost to truncation / malformed) the call runs untraced. *)
  match (session.tracer, Message.peek_trace_header request_text) with
  | Some _, Some (trace_id, span_id) ->
    Trace.with_span session.tracer
      ~parent:(Trace.Remote { trace_id; span_id })
      ~peer:(Peer.name session.self) ~cat:"server" "handle"
      (fun sp ->
        Trace.add_attr sp "bytes" (Trace.I (String.length request_text));
        let resp =
          with_cur session sp (fun () ->
              handle_request_guarded session ~client_name request_text)
        in
        Trace.add_attr sp "resp_bytes" (Trace.I (String.length resp));
        resp)
  | _ -> handle_request_guarded session ~client_name request_text

(* Map an evaluation/parse failure to its protocol fault code and
   reason, counted as an application fault; asynchronous/implementation
   exceptions keep propagating. *)
and app_fault session e =
  let fault =
    match e with
    | Message.Protocol_error m -> (Message.Protocol_malformed, m)
    | X.Parser.Error (m, pos) ->
      ( Message.Transport_corrupt,
        Printf.sprintf "unparsable request: %s (byte %d)" m pos )
    | Xd_lang.Parser.Error (m, pos) | Xd_lang.Lexer.Error (m, pos) ->
      ( Message.Protocol_malformed,
        Printf.sprintf "unparsable query body: %s (offset %d)" m pos )
    | Env.Dynamic_error m -> (Message.App_dynamic, m)
    | Value.Type_error m -> (Message.App_type, m)
    | Message.Xrpc_fault { host; code; reason } ->
      (* a nested call of the body failed: relay the upstream fault *)
      (code, Printf.sprintf "relayed from %s: %s" host reason)
    | Message.Xrpc_timeout { host; attempts } ->
      ( Message.Transport_timeout,
        Printf.sprintf "upstream peer %s did not answer (%d attempts)" host
          attempts )
    | Failure m -> (Message.Protocol_malformed, m)
    | e -> raise e
  in
  Stats.incr_faults ~kind:"app" session.net.Network.stats;
  fault

and handle_request_guarded session ~client_name request_text =
  try handle_request_exn session ~client_name request_text
  with e ->
    let code, reason = app_fault session e in
    Trace.add_attr session.cur "fault"
      (Trace.S (Message.fault_code_to_string code));
    ser_traced session "fault" (fun () -> Message.write_fault ~code ~reason ())

(* The admission + deadline gate. Every unit of real work — a <request>,
   a whole <batch> (units = its call count) or a 2PC control message —
   passes here before anything else runs: work whose deadline budget is
   already spent is refused outright (the dedup cache is not even
   consulted), a full admission queue sheds with a server-suggested
   retry-after, and admitted work is charged its queueing delay on the
   simulated clock. Catalog pushes are exempt — membership maintenance
   must keep flowing on an overloaded peer. With no overload model
   installed only the hard expiry check runs, and with no deadline
   attribute either the gate costs one attribute probe. *)
and admission_gate session node ~units k =
  let stats = session.net.Network.stats in
  let now = Stats.network_s stats in
  let remaining = Message.parse_deadline node in
  let abs = Option.map (fun r -> now +. r) remaining in
  let refuse code ?retry_after reason =
    (match code with
    | Message.Server_overloaded ->
      Stats.incr_ov_shed stats;
      Stats.incr_faults ~kind:"overload" stats
    | _ ->
      Stats.incr_deadline_rejects stats;
      Stats.incr_faults ~kind:"deadline" stats);
    Trace.add_attr session.cur "fault"
      (Trace.S (Message.fault_code_to_string code));
    ser_traced session "fault" (fun () ->
        Message.write_fault ?retry_after ~code ~reason ())
  in
  let verdict =
    match session.net.Network.overload with
    | None -> (
      (* no admission model installed: only the hard expiry gate runs *)
      match remaining with
      | Some r when r <= 0. ->
        `Refused
          (refuse Message.Deadline_exceeded
             "deadline budget exhausted before evaluation began")
      | _ -> `Go)
    | Some ov -> (
      let peer = Peer.name session.self in
      match Overload.admit ov ~peer ~now ?deadline:remaining ~units () with
      | Overload.Hopeless { needed_s } ->
        `Refused
          (refuse Message.Deadline_exceeded
             (Printf.sprintf
                "remaining budget cannot cover queue wait + service \
                 (%.6fs needed)"
                needed_s))
      | Overload.Busy { retry_after_s } ->
        `Refused
          (refuse Message.Server_overloaded ~retry_after:retry_after_s
             (Printf.sprintf "admission queue full at %s" peer))
      | Overload.Admit { wait_s; depth; start = _; finish = _ } ->
        Stats.add_admitted stats ~wait_s;
        Stats.set_queue_depth ~peer stats depth;
        if wait_s > 0. then begin
          Stats.add_network_s stats wait_s;
          (* bill the queueing delay to the span handling this request,
             so profiles attribute it to the vertex that caused it *)
          Trace.add_attr session.cur "queue_wait_s" (Trace.F wait_s)
        end;
        `Go)
  in
  match verdict with
  | `Refused fault -> fault
  | `Go ->
    (* scope the request's absolute deadline onto this server session:
       nested outgoing calls see (and re-stamp) the shrinking budget *)
    let prev = session.deadline_at in
    Fun.protect
      ~finally:(fun () -> session.deadline_at <- prev)
      (fun () ->
        session.deadline_at <- abs;
        k ())

and handle_request_exn session ~client_name request_text =
  let stats = session.net.Network.stats in
  let body, prebuilt =
    shred_traced session "request" (fun () ->
        let mdoc, prebuilt = parse_message session request_text in
        let root = X.Node.doc_node mdoc in
        match find_path [ "env:Envelope"; "env:Body" ] root with
        | Some b -> (b, prebuilt)
        | None ->
          Message.protocol_error
            "XRPC message without <env:Envelope>/<env:Body>")
  in
  match
    List.find_map
      (fun (name, action) ->
        Option.map (fun n -> (action, n)) (Message.find_child body name))
      [
        ("prepare", Message.Prepare);
        ("commit", Message.Commit);
        ("abort", Message.Abort);
      ]
  with
  | Some (action, n) ->
    admission_gate session n ~units:1 (fun () ->
        handle_txn_control session action
          (Message.req_attr n "txn")
          ~epoch:(Message.attr_of n "epoch"))
  | None -> (
    match Message.find_child body "batch" with
    | Some batch ->
      admission_gate session batch
        ~units:(max 1 (List.length (Message.children_named batch "request")))
        (fun () -> handle_batch session ~client_name ?prebuilt batch)
    | None -> (
      (* a catalog push: validate it and ack with our view of its epoch —
         the in-process network already shares the authoritative catalog,
         so accepting is acking *)
      match Message.find_child body "catalog" with
      | Some c ->
        let cat = Message.parse_catalog c in
        Message.write_catalog_ack ~epoch:(Xd_topo.Catalog.epoch cat)
      | None ->
      (* a <forward> is a response-position envelope; one arriving as a
         request is ill-formed protocol content and answered with a typed
         fault like any other (satellite: message tolerance) *)
      if Message.find_child body "forward" <> None then
        Message.protocol_error
          "unexpected <forward> in request position (redirects are \
           responses)";
      let req =
        match Message.find_child body "request" with
        | Some r -> r
        | None ->
          Message.protocol_error
            "XRPC message without <env:Envelope>/<env:Body>/<request>"
      in
      admission_gate session req ~units:1 @@ fun () ->
      let ep = call_endpoint session in
      let req_id = Message.attr_of req "request-id" in
      match Option.bind req_id (Hashtbl.find_opt session.replied) with
      | Some cached ->
        (* a retransmission of a request we already answered: replay the
           response instead of re-evaluating (at-most-once updates) *)
        Stats.incr_dedup_hits stats;
        Trace.add_attr session.cur "dedup" (Trace.B true);
        cached
      | None ->
        let resp =
          Message.envelope
            (handle_parsed session ~client_name ~ep ?req_id ?prebuilt req)
        in
        (match req_id with
        | Some id -> remember_reply session id resp
        | None -> ());
        resp))

(* One <batch> of independent calls: each slot is handled exactly like a
   standalone request and answered in place — a <response> on success, an
   inner <env:Fault> on failure — so one failing call never poisons its
   batch mates. Batches only travel on a fault-free wire, so slots carry
   no request-ids and need no dedup. *)
and handle_batch session ~client_name ?prebuilt batch =
  let stats = session.net.Network.stats in
  let reqs = Message.children_named batch "request" in
  if reqs = [] then
    Message.protocol_error "XRPC <batch> without <request> calls";
  traced session ~cat:"server"
    (Printf.sprintf "batch (%d calls)" (List.length reqs))
  @@ fun bsp ->
  Trace.add_attr bsp "calls" (Trace.I (List.length reqs));
  let slot req =
    (* a nested call of an earlier slot may have burned the envelope's
       whole budget: remaining slots are answered late, not evaluated *)
    match deadline_now session with
    | Some d when Stats.network_s stats >= d ->
      Stats.incr_deadline_rejects stats;
      Message.fault_body ~code:Message.Deadline_exceeded
        ~reason:"batch slot reached past the deadline budget" ()
    | _ -> (
      let ep = call_endpoint session in
      match handle_parsed session ~client_name ~ep ?prebuilt req with
      | resp -> resp
      | exception e ->
        let code, reason = app_fault session e in
        Message.fault_body ~code ~reason ())
  in
  (* slots evaluate in request order — the order the sequential run would
     have issued the calls in *)
  let slots = List.map slot reqs in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<batch";
  Message.buf_attr buf "calls" (string_of_int (List.length reqs));
  Buffer.add_char buf '>';
  List.iter (Buffer.add_string buf) slots;
  Buffer.add_string buf "</batch>";
  Message.envelope (Buffer.contents buf)

(* Participant side of 2PC. All three actions are idempotent, so control
   messages need no dedup: a duplicated or retried prepare/commit/abort
   re-acks the same way. Unknown transactions vote no / ack aborted —
   presumed abort. *)
and handle_txn_control session action txn ~epoch =
  let stats = session.net.Network.stats in
  let j = journal session in
  traced session ~cat:"txn" (Message.txn_action_to_string action) @@ fun tsp ->
  Trace.add_attr tsp "txn" (Trace.S txn);
  let ack a =
    Trace.add_attr tsp "ack" (Trace.S (Message.txn_ack_to_string a));
    ser_traced session "ack" (fun () -> Message.write_txn_ack ~txn ~ack:a)
  in
  match action with
  | Message.Prepare ->
    (* Under dynamic topology <prepare> carries the coordinator's catalog
       epoch from when the transaction started; if ownership has moved
       since, some staged PUL may sit at a peer that no longer owns its
       target — vote abort, the staged state is released and every store
       stays untouched (presumed abort does the rest). *)
    let stale =
      match (epoch, session.net.Network.catalog) with
      | Some e, Some cat when Network.topo_active session.net -> (
        match int_of_string_opt e with
        | Some e -> e <> Xd_topo.Catalog.epoch cat
        | None -> Message.protocol_error "bad epoch %S on <prepare>" e)
      | _ -> false
    in
    if stale then begin
      Stats.incr_topo_epoch_aborts stats;
      Trace.add_attr tsp "stale-epoch" (Trace.B true);
      Journal.abort j ~txn;
      ack Message.Ack_aborted
    end
    else if Journal.prepare j ~txn then ack Message.Ack_prepared
    else ack Message.Ack_aborted
  | Message.Abort ->
    Journal.abort j ~txn;
    ack Message.Ack_aborted
  | Message.Commit -> (
    match Journal.commit j ~txn with
    | `Already -> ack Message.Ack_committed
    | `Unknown ->
      Message.protocol_error
        "commit for unknown or aborted transaction %s" txn
    | `Apply puls ->
      remote_traced session "apply staged" (fun () ->
          ignore (Xd_lang.Update.apply_staged (Peer.store session.self) puls));
      Journal.committed j ~txn;
      ack Message.Ack_committed)

and handle_parsed session ~client_name ~ep ?req_id ?prebuilt req =
  let passing = Message.passing_of_string (Message.req_attr req "passing") in
  let txn_attr = Message.attr_of req "txn" in
  shred_traced session "fragments" (fun () ->
      Message.shred_fragments ?prebuilt ep ~from_host:client_name
        (Message.find_child req "fragments"));
  (* module: parse and cache the caller's function definitions *)
  (match Message.find_child req "module" with
  | Some m ->
    let text = X.Node.string_value m in
    let q = Xd_lang.Parser.parse_query (text ^ "\n()") in
    Hashtbl.replace session.server_funcs client_name q.Ast.funcs
  | None -> ());
  let funcs =
    Option.value ~default:[] (Hashtbl.find_opt session.server_funcs client_name)
  in
  let body_text =
    match Message.find_child req "query" with
    | Some qn -> X.Node.string_value qn
    | None -> Message.protocol_error "XRPC request without <query>"
  in
  let args =
    match Message.find_child req "call" with
    | None -> Message.protocol_error "XRPC request without <call>"
    | Some call ->
      List.map
        (fun seq ->
          ( Message.req_attr seq "param",
            Message.shred_sequence ?prebuilt ep ~from_host:client_name seq ))
        (Message.children_named call "sequence")
  in
  (* Dynamic topology, callee side: before evaluating, check that this
     peer still serves every document the body touches — the owner for
     updates, owner-or-replica for reads. If ownership moved away, answer
     with a <forward> redirect instead of evaluating against data we no
     longer own; the caller re-resolves and retries (PROTOCOL.md,
     "Topology & forwarding"). Idempotent, so dedup replay is safe. *)
  let forward =
    match session.net.Network.catalog with
    | Some cat when Network.topo_active session.net ->
      let body = Xd_lang.Parser.parse_expr_string body_text in
      let updates = Ast.contains_update body in
      let self = Peer.name session.self in
      List.find_map
        (fun doc ->
          match Xd_topo.Catalog.resolve cat doc with
          | Some e
            when (if updates then e.Xd_topo.Catalog.owner <> self
                  else not (Xd_topo.Catalog.serves cat ~peer:self ~doc)) ->
            Some (doc, e.Xd_topo.Catalog.owner)
          | _ -> None)
        (body_doc_names body)
    | _ -> None
  in
  match forward with
  | Some (doc, owner) ->
    let epoch =
      match session.net.Network.catalog with
      | Some cat -> Xd_topo.Catalog.epoch cat
      | None -> 0
    in
    note session ~cat:"topo" "forward"
      [ ("doc", Trace.S doc); ("owner", Trace.S owner);
        ("epoch", Trace.I epoch) ];
    Message.forward_body ~doc ~owner ~epoch
  | None ->
  (* while a txn-tagged request evaluates, the transaction is in scope so
     nested outgoing calls propagate the id; its participants (this peer's
     own fan-out) are reported back in the response *)
  let tcoord =
    Option.map
      (fun t -> { txn_id = t; participants = []; epoch = None })
      txn_attr
  in
  let staged = ref 0 in
  let result =
    remote_traced session "evaluate" (fun () ->
        let body = Xd_lang.Parser.parse_expr_string body_text in
        let vars =
          List.fold_left
            (fun acc (v, value) -> Env.Smap.add v value acc)
            Env.Smap.empty args
        in
        let env =
          Env.create ~vars ~funcs
            ~resolve_doc:(fun env uri -> resolve_doc session env uri)
            ~execute_at:(fun env x ~host ~args ->
              execute_at session env x ~host ~args)
            ~builtins:(Xd_lang.Builtins.table ())
            ~static_base_uri:(Message.req_attr req "static-base-uri")
            ~default_collation:(Message.req_attr req "default-collation")
            ~current_datetime:(Message.req_attr req "current-dateTime")
            ~pul:(Xd_lang.Pul.create ())
            (Peer.store session.self)
        in
        let prev_txn = session.txn in
        Fun.protect
          ~finally:(fun () -> session.txn <- prev_txn)
          (fun () ->
            (match tcoord with
            | Some _ -> session.txn <- tcoord
            | None -> ());
            let v = Eval.eval env body in
            (match txn_attr with
            | None -> apply_updates session env
            | Some txn -> staged := stage_updates session env ~txn ~req_id);
            v))
  in
  (* response *)
  ser_traced session "response" (fun () ->
      let result_nodes =
        List.filter_map
          (function Value.N n -> Some n | Value.A _ -> None)
          result
      in
      (* The overflow fallback (a by-projection request whose path
         analysis produced nothing) answers with *by-fragment semantics*,
         and says so: a full-format by-projection message would not carry
         ancestors either, so labelling it by-projection only hid the
         demotion from the receiver (ROADMAP open item, resolved PR 3). *)
      let passing, frags =
        match passing with
        | Message.By_value -> (passing, [])
        | Message.By_fragment ->
          (passing, Message.plan_by_fragment ep ~host:client_name result_nodes)
        | Message.By_projection -> (
          match Message.find_child req "projection-paths" with
          | None ->
            ( Message.By_fragment,
              Message.plan_by_fragment ep ~host:client_name result_nodes )
          | Some p ->
            let path_of n = Xd_projection.Path.of_string (X.Node.string_value n) in
            let u_paths = List.map path_of (Message.children_named p "used-path") in
            let r_paths =
              List.map path_of (Message.children_named p "returned-path")
            in
            let used =
              result_nodes
              @ List.concat_map
                  (fun p -> Xd_projection.Path.eval p result_nodes)
                  u_paths
            in
            let returned =
              List.concat_map
                (fun p -> Xd_projection.Path.eval p result_nodes)
                r_paths
            in
            ( passing,
              Message.plan_by_projection ?schema:session.schema ep
                ~host:client_name ~used ~returned ))
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "<response";
      Message.buf_attr buf "passing" (Message.passing_to_string passing);
      (match txn_attr, tcoord with
      | Some t, Some c ->
        Message.buf_attr buf "txn" t;
        Message.buf_attr buf "staged" (string_of_int !staged);
        if c.participants <> [] then
          Message.buf_attr buf "txn-participants"
            (String.concat " " c.participants)
      | _ -> ());
      Buffer.add_char buf '>';
      Message.write_fragments buf frags;
      Message.write_sequence ep ~host:client_name ~passing ~frags buf result;
      Buffer.add_string buf "</response>";
      Buffer.contents buf)

(* Inside a transaction, a participant stages its PUL in the journal
   instead of applying it; the decision arrives later as a control
   message. Targets are validated now (same shipped-copy restriction as a
   direct apply), so prepare can only be voted on PULs that would apply
   cleanly. Returns the number of staged primitives — reported to the
   caller, which is how the coordinator learns who its participants
   are. *)
and stage_updates session (env : Env.t) ~txn ~req_id =
  match env.Env.pul with
  | None -> 0
  | Some pul when Xd_lang.Pul.is_empty pul -> 0
  | Some pul ->
    let pending = Xd_lang.Pul.list pul in
    validate_update_targets session pending;
    let n = List.length pending in
    if
      Journal.stage (journal session) ~txn
        ~req:(Option.value ~default:"" req_id)
        ~pul:(Xd_lang.Pul.to_xml pending)
    then begin
      Stats.add_txn_staged session.net.Network.stats n;
      note session ~cat:"txn" "stage" [ ("staged", Trace.I n) ]
    end;
    (* a deduplicated re-stage still reports its count: the answer must
       not depend on whether the first copy of the request got through *)
    n

(* ---------------- client side ------------------------------------------ *)

(* Shred a <response> element at the client. Alongside the value, returns
   the transaction acknowledgement (staged count + transitive
   participants) when the response carries one. *)
and shred_response_node ~ep ~host ?prebuilt resp :
    Value.t * (int * string list) option =
  let tinfo =
    match Message.attr_of resp "txn" with
    | None -> None
    | Some _ ->
      let staged = Option.value ~default:"0" (Message.attr_of resp "staged") in
      let staged =
        match int_of_string_opt staged with
        | Some n -> n
        | None ->
          raise (corrupt ~host (Printf.sprintf "bad staged count %S" staged))
      in
      let nested =
        match Message.attr_of resp "txn-participants" with
        | None -> []
        | Some s ->
          List.filter (fun h -> h <> "") (String.split_on_char ' ' s)
      in
      Some (staged, nested)
  in
  Message.shred_fragments ?prebuilt ep ~from_host:host
    (Message.find_child resp "fragments");
  let v =
    match Message.find_child resp "sequence" with
    | Some seq -> Message.shred_sequence ?prebuilt ep ~from_host:host seq
    | None -> []
  in
  (v, tinfo)

(* The one reply classifier: parse a reply envelope once and return its
   [expect] body element — <response>, <batch> or <txn-ack> — with the
   event shredder's prebuilt documents. Anything else raises: a
   <forward> redirect (only where a <response> was expected: redirects
   answer data calls) as Xrpc_forward, or as a non-retryable protocol
   fault when malformed; an <env:Fault> as the fault it carries; and a
   reply that does not parse (e.g. truncated in flight) or holds none of
   these as a retryable transport fault. *)
and open_reply session ~host ~expect text =
  let noun = if expect = "txn-ack" then "ack" else "response" in
  match parse_message session text with
  | exception X.Parser.Error (m, pos) ->
    raise
      (corrupt ~host (Printf.sprintf "unparsable %s: %s (byte %d)" noun m pos))
  | mdoc, prebuilt -> (
    let body =
      find_path [ "env:Envelope"; "env:Body" ] (X.Node.doc_node mdoc)
    in
    let child name = Option.bind body (fun b -> Message.find_child b name) in
    match child expect with
    | Some n -> (n, prebuilt)
    | None -> (
      match (child "forward", child "env:Fault") with
      | Some f, _ when expect = "response" -> (
        match Message.parse_forward f with
        | doc, owner, epoch ->
          raise (Message.Xrpc_forward { doc; owner; epoch })
        | exception Message.Protocol_error reason ->
          raise
            (Message.Xrpc_fault
               { host; code = Message.Protocol_malformed; reason }))
      | _, Some f -> raise_fault session ~host f
      | _, None ->
        raise
          (corrupt ~host
             (Printf.sprintf "%s is neither <%s> nor <env:Fault>" noun
                expect))))

(* Client-side response shredding. When the wire-shape analysis proved
   this call site's response atomic, the compiled decoder runs first: an
   exact prefix/suffix match around a flat <atomic> scan, agreeing with
   the generic parser on every byte string it accepts. Anything it did
   not predict — faults, forwards, txn attributes, trace headers,
   corruption — misses the prefix and falls back (codec.bailouts). *)
and shred_response session ?vertex ~ep ~host response_text :
    Value.t * (int * string list) option =
  let stats = session.net.Network.stats in
  let generic () =
    shred_traced session "response" (fun () ->
        let resp, prebuilt =
          open_reply session ~host ~expect:"response" response_text
        in
        shred_response_node ~ep ~host ?prebuilt resp)
  in
  match (session.codec, vertex) with
  | Some c, Some v -> (
    match Codec.find_resp c v with
    | None -> generic ()
    | Some rd -> (
      match
        shred_traced session "response" (fun () ->
            Codec.decode_response rd response_text)
      with
      | Some v ->
        Stats.incr_codec_decodes stats;
        (v, None)
      | None ->
        Stats.incr_codec_bailouts stats;
        generic ()))
  | _ -> generic ()

(* Shred a <batch> response: one value per slot, in request order. A
   faulted slot raises after its predecessors shredded — exactly the
   state a sequential run would have reached when that call failed. *)
and shred_batch_response session ~ep ~host ~calls response_text :
    Value.t list =
  shred_traced session "batch response" (fun () ->
      let b, prebuilt =
        open_reply session ~host ~expect:"batch" response_text
      in
      let slots =
        List.filter
          (fun n -> X.Node.kind n = X.Node.Element)
          (X.Node.children b)
      in
      let n = List.length slots in
      if n <> calls then
        raise
          (corrupt ~host
             (Printf.sprintf "batch answered %d of %d calls" n calls));
      List.map
        (fun slot ->
          match X.Node.name slot with
          | "response" -> fst (shred_response_node ~ep ~host ?prebuilt slot)
          | "env:Fault" -> raise_fault session ~host slot
          | other ->
            raise (corrupt ~host ("unexpected batch slot <" ^ other ^ ">")))
        slots)

(* A body is safe to degrade to local evaluation when it provably reads
   only: no updating expression and no user-function call (a user
   function could hide an update; builtins cannot). *)
and degradable (x : Ast.execute_at) =
  (not (Ast.contains_update x.Ast.body))
  && Ast.fold
       (fun acc e ->
         acc
         &&
         match e.Ast.desc with
         | Ast.Fun_call (f, _) -> Xd_lang.Builtin_names.is_builtin f
         | _ -> true)
       true x.Ast.body

(* Graceful degradation: the peer's query endpoint is unreachable, but
   its document store is served by a dumb replica that data shipping can
   still reach (DESIGN.md). Fetch the documents and evaluate the
   read-only body here; relative URIs in the body meant the peer's own
   store, so they resolve as xrpc://host/uri. *)
and degrade session env (x : Ast.execute_at) ~host ~args =
  Stats.incr_fallbacks session.net.Network.stats;
  traced session ~cat:"fallback" ("degrade " ^ host) @@ fun fsp ->
  Trace.add_attr fsp "host" (Trace.S host);
  let resolve e uri =
    match Xd_dgraph.Dgraph.split_xrpc_uri uri with
    | Some _ -> resolve_doc session e uri
    | None -> resolve_doc session e ("xrpc://" ^ host ^ "/" ^ uri)
  in
  Eval.local_execute_at { env with Env.resolve_doc = resolve } x ~host ~args

(* Put one message on the wire under a "network" span: wall-instant, but
   its simulated-clock interval captures the billed wire time. The
   optional [hdr_span] is the span whose ids ride in an injected
   <trace> header — the attempt span, so the receiving peer's spans
   parent under that exact attempt. *)
and send_on_wire session ~dst ?hdr_span text =
  network_traced session ("send " ^ dst) @@ fun nsp ->
  (* Re-stamp the remaining deadline budget as of *now*, pre-subtracting
     this message's own wire time: the receiver's budget then equals the
     sender's budget at the moment of receipt, so budgets are strictly
     monotone across hops. Fixed width, so patching never changes the
     message length (retries re-patch the same bytes in place). *)
  let text =
    match deadline_now session with
    | None -> text
    | Some d ->
      let remaining =
        d
        -. Stats.network_s session.net.Network.stats
        -. Network.wire_s session.net (String.length text)
      in
      fst (Message.patch_deadline text ~remaining)
  in
  (* deadline / retry-after attributes are billed but invisible to the
     fault schedule; only scan for them when the feature is in force.
     Ranges are computed on the final text — after any trace-header
     injection, which shifts offsets. *)
  let hidden t =
    if deadline_active session || Network.overload_active session.net then
      Message.overload_ranges t
    else []
  in
  let r =
    match (session.tracer, hdr_span) with
    | Some _, Some (s : Trace.span) ->
      let header =
        Message.trace_header ~trace_id:s.Trace.trace_id
          ~span_id:s.Trace.span_id
      in
      let text, at, len = Message.inject_trace_header text ~header in
      Network.send ~meta:(at, len) ~hidden:(hidden text) session.net ~dst text
    | _ -> Network.send ~hidden:(hidden text) session.net ~dst text
  in
  (match r with
  | Network.Dropped -> Trace.add_attr nsp "dropped" (Trace.B true)
  | Network.Delivered _ -> ());
  r

(* The one client exchange: every request this session sends — a data
   call, a <batch>, a 2PC control message — goes through here. It records
   both messages, carries the request across the simulated wire to
   [host]'s server session (a duplicated delivery reaches the server
   twice; the second copy is answered from the dedup cache, or
   idempotently, and its reply ignored), carries the reply back and hands
   it to [classify]. A lost message in either direction waits out the
   timeout.

   [retry] = [(key, expiry)] makes the exchange retry: up to
   [retries + 1] attempts, each its own span — a sibling of its
   predecessors, never nested — whose id rides in the request's trace
   header, so server-side spans attach to the attempt that delivered.
   Every re-send draws on the shared retry budget and is charged a
   jittered backoff keyed on [key]; every attempt first checks the
   deadline and raises the typed expiry fault with reason [expiry n]. A
   retryable fault raised by [classify] fails the attempt. Without
   [retry] it is one attempt under the caller's span with no expiry
   check: a <batch>, which only forms on a fault-free wire.

   Returns [`Done] with the classified reply, or [`Down last] once the
   attempts ran out on retryable failures (non-retryable faults raise). *)
and exchange :
      'a. t -> host:string -> ?retry:string * (int -> string) -> string ->
      (string -> 'a) -> [ `Done of 'a | `Down of failure ] =
 fun session ~host ?retry req_text classify ->
  let stats = session.net.Network.stats in
  let record dir text =
    Option.iter (fun r -> r := { dir; text } :: !r) session.record
  in
  record (`Request host) req_text;
  let srv = server_session session host in
  let self_name = Peer.name session.self in
  let timed_out () =
    Stats.incr_timeouts stats;
    Stats.add_network_s stats session.timeout_s;
    Trace.add_attr session.cur "timeout" (Trace.B true);
    `Down `Timeout
  in
  let deliver hdr_span =
    match send_on_wire session ~dst:host ?hdr_span req_text with
    | Network.Dropped -> timed_out ()
    | Network.Delivered { text; duplicated } -> (
      let resp_text = handle_request srv ~client_name:self_name text in
      if duplicated then
        ignore (handle_request srv ~client_name:self_name text);
      record (`Response host) resp_text;
      match send_on_wire session ~dst:self_name resp_text with
      | Network.Dropped -> timed_out ()
      | Network.Delivered { text; duplicated = _ } -> `Done (classify text))
  in
  match retry with
  | None -> deliver session.cur
  | Some (key, expiry) ->
    session.retry_after_hint <- None;
    let attempts = session.retries + 1 in
    let rec attempt n last =
      (* a spent shared retry pool stops retrying everywhere *)
      if n > attempts || (n > 1 && not (retry_allowed session)) then
        `Down last
      else begin
        if n > 1 then begin
          Stats.incr_retries stats;
          (* a server-suggested retry-after can stretch the backoff *)
          charge_backoff session ~key ~attempt:n
        end;
        (* the budget may have run out while backing off: the exchange
           can never complete in time, so nothing more goes on the wire *)
        (match deadline_now session with
        | Some d when Stats.network_s stats >= d ->
          raise_expired session ~host (expiry n)
        | _ -> ());
        match
          traced session ~cat:"attempt" (Printf.sprintf "attempt %d" n)
          @@ fun asp ->
          Trace.add_attr asp "retry" (Trace.I (n - 1));
          match deliver asp with
          | r -> r
          | exception Message.Xrpc_fault { host = _; code; reason }
            when Message.retryable code ->
            Trace.add_attr asp "fault"
              (Trace.S (Message.fault_code_to_string code));
            `Down (`Fault (code, reason))
        with
        | `Done v -> `Done v
        | `Down last -> attempt (n + 1) last
      end
    in
    attempt 1 `Timeout

(* One data call to [host]: build the request, exchange it, shred the
   reply. Returns the value, a <forward> redirect, or `Down after the
   attempts are exhausted on retryable failures (non-retryable faults
   raise immediately). *)
and call_host session env (x : Ast.execute_at) ~host ~args =
  let stats = session.net.Network.stats in
  traced session ~cat:"call" ("call " ^ host) @@ fun call_sp ->
  Trace.add_attr call_sp "host" (Trace.S host);
  (* the d-graph vertex (execute-at body id) this call materializes —
     the join key between Cost's per-vertex estimates and the profile *)
  Trace.add_attr call_sp "vertex" (Trace.I x.Ast.body.Ast.id);
  Stats.incr_call ~peer:host stats;
  let funcs = Env.func_list env in
  let ep = call_endpoint session in
  let req_id =
    (* only on a faulty wire: fault-free traffic stays byte-identical *)
    if Network.faulty session.net then begin
      session.next_req <- session.next_req + 1;
      Some (Printf.sprintf "%s:%d" (Peer.name session.self) session.next_req)
    end
    else None
  in
  let txn = Option.map (fun c -> c.txn_id) session.txn in
  (* only under dynamic topology: the catalog version this call was
     routed with *)
  let epoch = topo_epoch session in
  let req_text =
    ser_traced session "request" (fun () ->
        match
          compiled_request session ~host ?req_id ?txn ?epoch x ~args ~funcs
        with
        | Some text -> text
        | None ->
          Message.envelope
            (request_body session ~ep ~host ?req_id ?txn ?epoch x ~args
               ~funcs))
  in
  (* Jitter key: (request id, destination host) when there is an id
     (faulty wire — the only place retries can happen), else the host.
     The host must be part of the key: the same logical request can be
     re-driven at a different peer after a forward or failover, and
     keying on the id alone would replay the identical jitter fractions
     at the new hop instead of re-randomizing them per (id, hop). *)
  let key = match req_id with Some id -> id ^ "@" ^ host | None -> host in
  exchange session ~host
    ~retry:
      (key, Printf.sprintf "deadline budget exhausted before attempt %d")
    req_text
  @@ fun text ->
  match shred_response session ~vertex:x.Ast.body.Ast.id ~ep ~host text with
  | v, tinfo ->
    (* collect transaction participants: the callee (if it staged
       anything) plus whatever its own fan-out staged *)
    (match (session.txn, tinfo) with
    | Some c, Some (staged, nested) ->
      let addp h =
        if h <> "" && not (List.mem h c.participants) then
          c.participants <- c.participants @ [ h ]
      in
      if staged > 0 then addp host;
      List.iter addp nested
    | _ -> ());
    `Value v
  | exception Message.Xrpc_forward { doc; owner; epoch } ->
    Trace.add_attr session.cur "forwarded" (Trace.B true);
    `Forward (doc, owner, epoch)

(* A live replacement peer for a call whose owner is down: some live,
   not-yet-tried peer that serves (owns or replicates) *every* document
   the body touches. None when any touched document is uncatalogued, the
   body touches no documents, or no such peer remains. *)
and failover_target session (x : Ast.execute_at) ~visited down_host =
  match session.net.Network.catalog with
  | Some cat when Network.topo_active session.net -> (
    let docs = body_doc_names x.Ast.body in
    let entries = List.filter_map (Xd_topo.Catalog.resolve cat) docs in
    if entries = [] || List.length entries < List.length docs then None
    else
      let serving (e : Xd_topo.Catalog.entry) = e.owner :: e.replicas in
      let candidates =
        List.fold_left
          (fun acc e -> List.filter (fun p -> List.mem p (serving e)) acc)
          (serving (List.hd entries))
          (List.tl entries)
      in
      let dead p =
        p = down_host || p = Peer.name session.self || List.mem p visited
        || not (Xd_topo.Catalog.is_up cat p)
      in
      List.sort_uniq compare candidates
      |> List.find_opt (fun p -> not (dead p)))
  | _ -> None

and execute_at session env (x : Ast.execute_at) ~host ~args =
  if host = "" || host = Peer.name session.self then
    (* local execution: plain evaluation, full fidelity *)
    Eval.local_execute_at env x ~host ~args
  else begin
    let stats = session.net.Network.stats in
    let catalog = session.net.Network.catalog in
    let topo = Network.topo_active session.net in
    (* Runtime host resolution: a *computed* host is checked against the
       catalog at call time — when every document the body touches has
       one catalogued owner, the call is routed there, whatever the host
       expression evaluated to. Literal hosts route as written (the
       verifier vouched for them statically). *)
    let host =
      match catalog with
      | Some cat
        when topo
             && not
                  (match x.Ast.host.Ast.desc with
                  | Ast.Literal (Ast.A_string _) -> true
                  | _ -> false) -> (
        match catalog_owner cat (body_doc_names x.Ast.body) with
        | Some owner ->
          Stats.incr_topo_resolutions stats;
          if owner <> host then
            note session ~cat:"topo" "resolve"
              [ ("computed", Trace.S host); ("owner", Trace.S owner) ];
          owner
        | None -> host)
      | _ -> host
    in
    (* The forwarding/failover loop: follow <forward> redirects (bounded
       hops, loop detection via the visited set), re-resolving each one
       against the catalog; when a peer stays down, fail over to a live
       replica for read-only bodies, else degrade/raise exactly as the
       static build would. *)
    (* Per-peer circuit breaker (overload model only). An open breaker
       sheds the call locally — it never touches the wire — and the shed
       call falls through the same ladder a down peer uses: replica
       failover, local degradation, or a typed overload fault. Half-open
       breakers let one deterministic probe through. *)
    let breaker_verdict host =
      match session.net.Network.overload with
      | None -> `Proceed
      | Some ov -> (
        match
          Overload.breaker_check ov ~peer:host ~now:(Stats.network_s stats)
        with
        | Overload.Proceed -> `Proceed
        | Overload.Probe ->
          Stats.incr_breaker_probes stats;
          `Proceed
        | Overload.Shed { until } ->
          Stats.incr_breaker_shed stats;
          `Shed until)
    in
    let breaker_failure host =
      match session.net.Network.overload with
      | None -> ()
      | Some ov ->
        let before = Overload.breaker_opens ov in
        Overload.breaker_failure ov ~peer:host ~now:(Stats.network_s stats);
        if Overload.breaker_opens ov > before then
          Stats.incr_breaker_opens stats
    in
    let rec drive ~hops ~visited host =
      (* [host] cannot serve the call: a live replica takes a read-only
         body, else it degrades to local evaluation, else [failure]
         raises *)
      let fall_back ?(noted = false) failure =
        match failover_target session x ~visited host with
        | Some replica when degradable x ->
          Stats.incr_topo_failovers stats;
          if noted then
            note session ~cat:"topo" "failover"
              [ ("down", Trace.S host); ("replica", Trace.S replica) ];
          drive ~hops ~visited:(host :: visited) replica
        | _ ->
          if degradable x then degrade session env x ~host ~args
          else raise failure
      in
      match breaker_verdict host with
      | `Shed until ->
        note session ~cat:"overload" "breaker shed" [ ("host", Trace.S host) ];
        fall_back
          (Message.Xrpc_fault
             {
               host;
               code = Message.Server_overloaded;
               reason =
                 Printf.sprintf "circuit breaker open for %s until t=%.3fs"
                   host until;
             })
      | `Proceed -> (
      match call_host session env x ~host ~args with
      | `Done (`Value v) ->
        Stats.set_peer_up ~peer:host stats true;
        Option.iter
          (fun ov -> Overload.breaker_success ov ~peer:host)
          session.net.Network.overload;
        v
      | `Done (`Forward (doc, fwd_owner, fwd_epoch)) ->
        Stats.incr_forwarded stats;
        note session ~cat:"topo" "forward"
          [ ("from", Trace.S host); ("doc", Trace.S doc);
            ("owner", Trace.S fwd_owner); ("epoch", Trace.I fwd_epoch) ];
        (* re-resolve against our catalog; the redirect's claimed owner
           is the fallback when the document is not (or no longer)
           catalogued here *)
        let owner =
          match catalog with
          | Some cat ->
            Option.value ~default:fwd_owner (Xd_topo.Catalog.owner_of cat doc)
          | None -> fwd_owner
        in
        let unroutable reason =
          raise
            (Message.Xrpc_fault
               { host; code = Message.Topo_unroutable; reason })
        in
        if hops <= 0 then
          unroutable
            (Printf.sprintf
               "forward hop limit (%d) exhausted chasing %s" max_forward_hops
               doc)
        else if List.mem owner (host :: visited) then
          unroutable
            (Printf.sprintf "forward loop: %s already answered for %s" owner
               doc)
        else drive ~hops:(hops - 1) ~visited:(host :: visited) owner
      | `Down last ->
        (* out of attempts on retryable failures only — non-retryable
           faults raised inside the exchange *)
        Stats.set_peer_up ~peer:host stats false;
        breaker_failure host;
        Option.iter (fun cat -> Xd_topo.Catalog.mark_down cat host) catalog;
        fall_back ~noted:true
          (match last with
          | `Fault (code, reason) -> Message.Xrpc_fault { host; code; reason }
          | `Timeout ->
            Message.Xrpc_timeout { host; attempts = session.retries + 1 }))
    in
    drive ~hops:max_forward_hops ~visited:[] host
  end

(* ---------------- dependency-aware scheduler --------------------------- *)

(* One coalesced round trip: every member's <request> body rides in a
   single <batch> envelope to [host], answered slot-by-slot in one
   response envelope (PROTOCOL.md, "Batched calls"). Only reachable on a
   fault-free wire, so there are no request-ids, retries or timeouts. *)
and batch_call session env ~host
    (items : (Ast.execute_at * (Ast.var * Value.t) list) list) : Value.t list
    =
  let stats = session.net.Network.stats in
  let n = List.length items in
  traced session ~cat:"call" (Printf.sprintf "batch %s (%d calls)" host n)
  @@ fun bsp ->
  Trace.add_attr bsp "host" (Trace.S host);
  Trace.add_attr bsp "calls" (Trace.I n);
  (* a batch materializes several vertices in one envelope; its shared
     costs are attributed to the first member's vertex, and the full
     membership rides along for the profile's benefit *)
  (match items with
  | (x, _) :: _ -> Trace.add_attr bsp "vertex" (Trace.I x.Ast.body.Ast.id)
  | [] -> ());
  Trace.add_attr bsp "vertices"
    (Trace.S
       (String.concat ","
          (List.map
             (fun ((x : Ast.execute_at), _) -> string_of_int x.Ast.body.Ast.id)
             items)));
  let funcs = Env.func_list env in
  let ep = call_endpoint session in
  let txn = Option.map (fun c -> c.txn_id) session.txn in
  List.iter (fun _ -> Stats.incr_call ~peer:host stats) items;
  let req_text =
    ser_traced session "batch request" (fun () ->
        let buf = Buffer.create 1024 in
        Buffer.add_string buf "<batch";
        Message.buf_attr buf "caller" (Peer.name session.self);
        Message.buf_attr buf "calls" (string_of_int n);
        (* the envelope is the admission unit: it carries the budget for
           all its slots (re-patched at send), and the slots carry none *)
        Option.iter (Message.buf_deadline buf) (remaining session);
        Buffer.add_char buf '>';
        List.iter
          (fun (x, args) ->
            Buffer.add_string buf
              (request_body session ~ep ~host ?txn ~in_batch:true x ~args
                 ~funcs))
          items;
        Buffer.add_string buf "</batch>";
        Message.envelope (Buffer.contents buf))
  in
  Stats.add_batch stats ~calls:n;
  match
    exchange session ~host req_text
      (shred_batch_response session ~ep ~host ~calls:n)
  with
  | `Done vs -> vs
  | `Down _ ->
    (* unreachable: batches only form on a fault-free wire *)
    raise (Message.Xrpc_timeout { host; attempts = 1 })

(* Execute one overlap group. Members are provably pure and pairwise
   non-interfering (the effect analysis only groups read-only calls), so
   they may run in any interleaving; the simulated clock bills the group
   by its longest member (critical path) instead of the sum. On a faulty
   wire members still travel as individual messages in sequential order —
   the wire stays byte-identical to the sequential run under any fault
   schedule — and only the clock overlaps; on a fault-free wire,
   same-peer members additionally coalesce into one <batch> envelope per
   peer. *)
and run_group session (units : (Env.t * Ast.expr) list) : Value.t list =
  let stats = session.net.Network.stats in
  let n = List.length units in
  traced session ~cat:"sched" (Printf.sprintf "overlap (%d calls)" n)
  @@ fun gsp ->
  Trace.add_attr gsp "calls" (Trace.I n);
  let t0 = Stats.network_s stats in
  let deltas = ref [] in
  let maxd () = List.fold_left Float.max 0. !deltas in
  (* each wire unit restarts the clock at the group's start; the group
     finishes when its longest unit does *)
  let unit f =
    Stats.set_network_s stats t0;
    match f () with
    | v ->
      deltas := (Stats.network_s stats -. t0) :: !deltas;
      v
    | exception e ->
      (* settle the clock before the failure propagates: everything that
         ran (including the failed member) overlapped *)
      deltas := (Stats.network_s stats -. t0) :: !deltas;
      Stats.set_network_s stats (t0 +. maxd ());
      raise e
  in
  let finish vs =
    let sum = List.fold_left ( +. ) 0. !deltas and m = maxd () in
    Stats.set_network_s stats (t0 +. m);
    Stats.add_sched_group stats ~overlapped:n ~saved_s:(sum -. m);
    vs
  in
  if
    Network.faulty session.net
    || Network.topo_active session.net
    || Network.overload_active session.net
  then
    (* Sequential wire units (still overlapped on the clock): the retry
       machinery needs each call to own its round trip, under dynamic
       topology each call must be free to chase forwards and fail over on
       its own, and under admission control each call must own its
       retry-after/backoff loop when shed — a <batch> envelope can do
       none of these. *)
    finish (List.map (fun (env, e) -> unit (fun () -> Eval.eval env e)) units)
  else begin
    (* pre-evaluate hosts and arguments in sequential order, then bucket
       the remote calls by destination peer *)
    let prepared =
      List.map
        (fun (env, e) ->
          match e.Ast.desc with
          | Ast.Execute_at x ->
            let host = Value.string_value (Eval.eval env x.Ast.host) in
            let args =
              List.map (fun (v, pe) -> (v, Eval.eval env pe)) x.Ast.params
            in
            if host = "" || host = Peer.name session.self then
              `Local (env, x, host, args)
            else `Remote (env, x, host, args)
          | _ -> `Plain (env, e))
        units
    in
    let results = Array.make n [] in
    let order = ref [] and byhost = Hashtbl.create 4 in
    List.iteri
      (fun i u ->
        match u with
        | `Remote (env, x, host, args) -> (
          match Hashtbl.find_opt byhost host with
          | Some l -> l := (i, env, x, args) :: !l
          | None ->
            Hashtbl.add byhost host (ref [ (i, env, x, args) ]);
            order := host :: !order)
        | `Local _ | `Plain _ -> ())
      prepared;
    List.iter
      (fun host ->
        match List.rev !(Hashtbl.find byhost host) with
        | [ (i, env, x, args) ] ->
          (* a lone call to this peer coalesces nothing: plain round trip *)
          results.(i) <- unit (fun () -> execute_at session env x ~host ~args)
        | (_, env0, _, _) :: _ as items ->
          let vs =
            unit (fun () ->
                batch_call session env0 ~host
                  (List.map (fun (_, _, x, args) -> (x, args)) items))
          in
          List.iter2 (fun (i, _, _, _) v -> results.(i) <- v) items vs
        | [] -> ())
      (List.rev !order);
    List.iteri
      (fun i u ->
        match u with
        | `Local (env, x, host, args) ->
          results.(i) <- unit (fun () -> execute_at session env x ~host ~args)
        | `Plain (env, e) -> results.(i) <- unit (fun () -> Eval.eval env e)
        | `Remote _ -> ())
      prepared;
    finish (Array.to_list results)
  end

(* The Env.schedule hook: fires at the Seq/Let/For vertices named as
   group anchors, replacing sequential evaluation of the member calls
   with an overlap group. Any shape mismatch — the expression under this
   vertex does not carry the expected member ids, e.g. a schedule derived
   from a different query — falls back to plain sequential evaluation via
   [None]. *)
and run_scheduled session env (e : Ast.expr) : Value.t option =
  match Hashtbl.find_opt session.sched e.Ast.id with
  | None -> None
  | Some groups -> (
    match e.Ast.desc with
    | Ast.Seq es -> sched_seq session env groups es
    | Ast.Let _ -> (
      match groups with
      | [ members ] -> sched_let session env members e
      | _ -> None)
    | Ast.For (v, src, body) -> (
      match groups with
      | [ [ m ] ] when m = body.Ast.id -> sched_for session env v src body
      | _ -> None)
    | _ -> None)

(* A Seq anchor: each group is a run of consecutive children. Matched
   runs execute as overlap groups; everything else (and any group that no
   longer matches) evaluates sequentially in place. *)
and sched_seq session env groups es =
  let rec prefix ms l =
    match (ms, l) with
    | [], _ -> true
    | m :: ms', (x : Ast.expr) :: l' -> m = x.Ast.id && prefix ms' l'
    | _ :: _, [] -> false
  in
  let rec go acc gs (cs : Ast.expr list) =
    match cs with
    | [] -> List.rev acc
    | c :: tl -> (
      match List.find_opt (fun ms -> prefix ms cs) gs with
      | Some members ->
        let k = List.length members in
        let run = List.filteri (fun i _ -> i < k) cs in
        let rest = List.filteri (fun i _ -> i >= k) cs in
        let vs = run_group session (List.map (fun m -> (env, m)) run) in
        go (List.rev_append vs acc) (List.filter (fun g -> g != members) gs)
          rest
      | None -> go (Eval.eval env c :: acc) gs tl)
  in
  Some (List.concat (go [] groups es))

(* A Let-chain anchor: the member ids name the bound values along the
   spine, whose continuation then evaluates under all the bindings. *)
and sched_let session env members e =
  let rec collect acc remaining (cur : Ast.expr) =
    match (remaining, cur.Ast.desc) with
    | [], _ -> Some (List.rev acc, cur)
    | m :: ms, Ast.Let (v, value, rest) when value.Ast.id = m ->
      collect ((v, value) :: acc) ms rest
    | _ -> None
  in
  match collect [] members e with
  | None -> None
  | Some (binds, k) ->
    let vs =
      run_group session (List.map (fun (_, value) -> (env, value)) binds)
    in
    let env' =
      List.fold_left2
        (fun env (v, _) value -> Env.bind env v value)
        env binds vs
    in
    Some (Eval.eval env' k)

(* A For anchor whose body is a pure call: every iteration issues an
   independent member — per-iteration fan-out. *)
and sched_for session env v src body =
  let seq = Eval.eval env src in
  match seq with
  | [] | [ _ ] ->
    (* nothing to overlap *)
    Some
      (List.concat_map
         (fun item -> Eval.eval (Env.bind env v [ item ]) body)
         seq)
  | _ ->
    let units = List.map (fun item -> (Env.bind env v [ item ], body)) seq in
    Some (List.concat (run_group session units))

(* Refuse updates whose targets live in documents this peer obtained by
   shipping (data-shipped fetches or shredded message fragments):
   updating a copy would silently diverge from the source peer. This is
   the runtime half of the paper's Section IX restriction, enforced both
   on direct application and on transactional staging. *)
and validate_update_targets session pending =
  let fetched_dids =
    Hashtbl.fold (fun _ d acc -> d.X.Doc.did :: acc) session.fetched []
  in
  List.iter
    (fun p ->
      let d = (Xd_lang.Pul.target_of p).X.Node.doc in
      if
        List.mem d.X.Doc.did fetched_dids
        || Hashtbl.mem session.ep.Message.foreign_docs d.X.Doc.did
      then
        Env.dynamic_error
          "update at %s targets a shipped copy of a remote document; \
re-run under a function-shipping strategy so the update executes at its \
source peer"
          (Peer.name session.self))
    pending

and apply_updates session (env : Env.t) =
  match env.Env.pul with
  | None -> ()
  | Some pul when Xd_lang.Pul.is_empty pul -> ()
  | Some pul ->
    let pending = Xd_lang.Pul.list pul in
    validate_update_targets session pending;
    ignore (Xd_lang.Update.apply (Peer.store session.self) pending)

(* ---------------- coordinator (2PC driver) ----------------------------- *)

(* Read a control-message reply: the ack, or the non-retryable fault
   that answered instead, as a value. Retryable failures raise for the
   exchange to retry, but only once outside the shred span: 2PC replies
   never fail the span that parsed them. *)
let read_ack session ~host text : (Message.txn_ack, exn) result =
  match
    shred_traced session "ack" (fun () ->
        match open_reply session ~host ~expect:"txn-ack" text with
        | ack, _ -> (
          match Message.parse_txn_ack ack with
          | _, a -> Ok a
          | exception Message.Protocol_error m -> Error (corrupt ~host m))
        | exception (Message.Xrpc_fault _ as e) -> Error e)
  with
  | Error (Message.Xrpc_fault { code; _ } as e) when Message.retryable code ->
    raise e
  | r -> r

(* One 2PC control exchange with [host], under the same timeout/backoff
   regime as a data call. Control messages are idempotent, so they carry
   no request-id and never consult the dedup cache: a duplicated commit
   simply re-acks. Every failure, deadline expiry included, comes back as
   [Error]. *)
let txn_rpc session ~host ?epoch action txn : (Message.txn_ack, exn) result =
  let name = Message.txn_action_to_string action in
  traced session ~cat:"txn.rpc" (name ^ " " ^ host) @@ fun csp ->
  Trace.add_attr csp "txn" (Trace.S txn);
  Trace.add_attr csp "host" (Trace.S host);
  (* 2PC control consumes deadline budget like any other hop: the value
     here is a placeholder, re-patched with the remaining budget at each
     send *)
  let req_text =
    ser_traced session "control" (fun () ->
        Message.write_txn_control ?epoch ?deadline:(remaining session) ~action
          ~txn ())
  in
  match
    exchange session ~host
      ~retry:
        ( txn ^ "/" ^ name ^ "@" ^ host,
          Printf.sprintf "deadline budget exhausted before 2PC %s attempt %d"
            name )
      req_text (read_ack session ~host)
  with
  | `Done r -> r
  | `Down `Timeout ->
    Error (Message.Xrpc_timeout { host; attempts = session.retries + 1 })
  | `Down (`Fault (code, reason)) ->
    Error (Message.Xrpc_fault { host; code; reason })
  | exception (Message.Xrpc_fault { code = Message.Deadline_exceeded; _ } as e)
    ->
    Error e

(* Apply this peer's own staged PULs for [txn], if any: the coordinator
   is its own participant. *)
let commit_local session txn =
  let j = journal session in
  match Journal.commit j ~txn with
  | `Apply puls ->
    ignore (Xd_lang.Update.apply_staged (Peer.store session.self) puls);
    Journal.committed j ~txn
  | `Already | `Unknown -> ()

(* Send [action] for [txn] to every participant; once all of them
   acknowledged, journal the transaction resolved. *)
let settle session action txn participants =
  let acks =
    List.map (fun host -> txn_rpc session ~host action txn) participants
  in
  if List.for_all Result.is_ok acks then
    Journal.append (journal session) (Journal.Resolved { txn })

(* Drive [action] through the participants in turn; the first one that
   fails or does not answer [want] stops the round, as the failure to
   raise. *)
let first_refusal session ?epoch action txn ~want ~reason participants =
  List.find_map
    (fun host ->
      match txn_rpc session ~host ?epoch action txn with
      | Ok a when a = want -> None
      | Ok _ ->
        Some (Message.Xrpc_fault { host; code = Message.Txn_aborted; reason })
      | Error e -> Some e)
    participants

(* Drive 2PC to completion. With no remote participants the transaction
   never left this peer: apply the local PUL directly and resolve the
   transaction {!execute_txn} journaled as begun — the single-peer fast
   path costs zero extra messages.

   Otherwise: journal the participants, stage + prepare our own PUL (the
   coordinator is its own participant, which is what lets recovery finish
   the local half after a coordinator restart), collect prepare votes,
   then either journal the commit decision and propagate it, or abort
   with nothing journaled but the (optional) resolution marker — presumed
   abort. A commit decision that could not reach every participant raises
   the propagation failure, and {!recover} re-drives it from the journal:
   the decision, once journaled, stands. *)
let commit_txn session (env : Env.t) (c : coord) =
  let stats = session.net.Network.stats in
  let j = journal session in
  let txn = c.txn_id in
  if c.participants = [] then begin
    apply_updates session env;
    Journal.append j (Journal.Resolved { txn })
  end
  else begin
    traced session ~cat:"txn" "2pc" @@ fun tsp ->
    Trace.add_attr tsp "txn" (Trace.S txn);
    Trace.add_attr tsp "participants" (Trace.I (List.length c.participants));
    List.iter
      (fun host -> Journal.append j (Journal.Participant { txn; host }))
      c.participants;
    let local_vote =
      match env.Env.pul with
      | Some pul when not (Xd_lang.Pul.is_empty pul) -> (
        let pending = Xd_lang.Pul.list pul in
        match validate_update_targets session pending with
        | () ->
          ignore (Journal.stage j ~txn ~req:"" ~pul:(Xd_lang.Pul.to_xml pending));
          ignore (Journal.prepare j ~txn);
          None
        | exception (Env.Dynamic_error _ as e) -> Some e)
      | _ -> None
    in
    let failure =
      match local_vote with
      | Some e -> Some e
      | None ->
        first_refusal session ?epoch:c.epoch Message.Prepare txn
          ~want:Message.Ack_prepared ~reason:"participant voted to abort"
          c.participants
    in
    match failure with
    | None -> (
      Journal.append j (Journal.Decided { txn });
      Stats.incr_txn_commits stats;
      Trace.add_attr tsp "decision" (Trace.S "commit");
      commit_local session txn;
      match
        first_refusal session Message.Commit txn ~want:Message.Ack_committed
          ~reason:"participant could not confirm the commit" c.participants
      with
      | None -> Journal.append j (Journal.Resolved { txn })
      | Some e -> raise e)
    | Some e ->
      Stats.incr_txn_aborts stats;
      Trace.add_attr tsp "decision" (Trace.S "abort");
      Journal.abort j ~txn;
      (* journaling the resolution of an abort is an optimization, not a
         requirement: presumed abort means an unresolved undecided txn is
         re-aborted harmlessly by recovery *)
      settle session Message.Abort txn c.participants;
      raise e
  end

(* ---------------- public API ------------------------------------------- *)

let env_for session ~funcs =
  let schedule =
    if Hashtbl.length session.sched = 0 then None
    else Some (fun env e -> run_scheduled session env e)
  in
  Env.create ?schedule ~funcs
    ~resolve_doc:(fun env uri -> resolve_doc session env uri)
    ~execute_at:(fun env x ~host ~args -> execute_at session env x ~host ~args)
    ~builtins:(Xd_lang.Builtins.table ())
    ~pul:(Xd_lang.Pul.create ())
    (Peer.store session.self)

let execute session (q : Ast.query) =
  let env = env_for session ~funcs:q.Ast.funcs in
  let v = Eval.eval env q.Ast.body in
  apply_updates session env;
  v

(* Execute one query as a distributed transaction: update-carrying calls
   stage at their peers, and the accumulated PUL (local + staged) commits
   atomically through 2PC when evaluation completes. *)
let execute_txn session (q : Ast.query) =
  let env = env_for session ~funcs:q.Ast.funcs in
  (* Under dynamic topology, pin the catalog epoch at transaction start:
     <prepare> carries it, so any ownership movement during evaluation
     makes every participant vote abort — updates refuse to commit across
     an epoch change. *)
  let epoch = topo_epoch session in
  (* the id comes from the journal, so it never repeats for this peer *)
  let c =
    { txn_id = Journal.begin_txn (journal session); participants = []; epoch }
  in
  session.txn <- Some c;
  Fun.protect
    ~finally:(fun () -> session.txn <- None)
    (fun () ->
      match Eval.eval env q.Ast.body with
      | v ->
        commit_txn session env c;
        v
      | exception e ->
        (* evaluation failed mid-flight: nothing is prepared anywhere, so
           presumed abort already guarantees no participant will apply;
           eagerly release staged state where the wire allows *)
        if c.participants <> [] then
          Stats.incr_txn_aborts session.net.Network.stats;
        settle session Message.Abort c.txn_id c.participants;
        raise e)

(* Crash recovery, run by a fresh session for the same peer (same journal
   via the network registry): finish every transaction this coordinator
   began but never resolved. A journaled decision is re-driven to commit
   — including the coordinator's own staged half — and anything undecided
   is presumed aborted. Idempotent; safe to run at any time. *)
let recover session =
  let j = journal session in
  List.iter
    (fun (txn, participants, decision) ->
      let action =
        match decision with
        | `Commit ->
          commit_local session txn;
          Message.Commit
        | `Abort ->
          Journal.abort j ~txn;
          Message.Abort
      in
      settle session action txn participants)
    (Journal.unresolved j)
