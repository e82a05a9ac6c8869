(* A peer: a named XQuery engine owning a document store. Peers host the
   documents addressed as xrpc://<name>/<doc> and execute the function
   bodies shipped to them. The peer's name is also the key every
   cross-cutting layer files it under: the fault schedule, the topology
   catalog, and the overload model's admission slots and circuit
   breakers are all per-peer-name state held elsewhere — a peer object
   itself stays just engine + store. *)

module X = Xd_xml

type t = { name : string; store : X.Store.t }

let create ?ids name = { name; store = X.Store.create ?ids () }
let name t = t.name
let store t = t.store

let load_xml t ~doc_name xml =
  X.Parser.parse ~store:t.store ~uri:doc_name xml

let load_tree t ~doc_name tree = X.Store.of_tree t.store ~uri:doc_name tree

let find_doc t doc_name = X.Store.find_uri t.store doc_name

let xrpc_uri t doc_name = Printf.sprintf "xrpc://%s/%s" t.name doc_name
