(** The XCore evaluator.

    A standard environment-passing interpreter with two load-bearing
    choices: path steps ({!Step.eval}) always return their result in
    document order without duplicates (the property whose loss
    pass-by-value causes — the paper's Problems 1-4), and [Execute_at]
    delegates to the environment's RPC hook. *)

val max_recursion : int

val matches_sequence_type : Value.t -> Ast.sequence_type -> bool
(** Typeswitch case matching (occurrence + item kinds). *)

val eval : Env.t -> Ast.expr -> Value.t
(** Evaluate an expression.
    @raise Env.Dynamic_error on unbound variables, unknown functions, …
    @raise Value.Type_error on typing violations. *)

val local_execute_at :
  Env.t -> Ast.execute_at -> host:string -> args:(Ast.var * Value.t) list ->
  Value.t
(** Reference handler: evaluates the body in place, sharing the store —
    full node-identity fidelity. Any decomposition must reproduce this
    semantics. *)

val default_env :
  ?vars:Value.t Env.Smap.t ->
  ?funcs:Ast.func list ->
  ?resolve_doc:(Env.t -> string -> Xd_xml.Doc.t) ->
  ?execute_at:
    (Env.t -> Ast.execute_at -> host:string ->
     args:(Ast.var * Value.t) list -> Value.t) ->
  ?pul:Pul.t ->
  Xd_xml.Store.t ->
  Env.t
(** Environment with the full builtin library; [execute_at] defaults to
    {!local_execute_at}. Without [pul], updating expressions raise. *)

val eval_and_apply : Env.t -> Ast.expr -> Value.t
(** Evaluate, then apply the environment's pending update list (snapshot
    semantics: the result reflects the pre-update state). *)

val run :
  ?resolve_doc:(Env.t -> string -> Xd_xml.Doc.t) ->
  ?execute_at:
    (Env.t -> Ast.execute_at -> host:string ->
     args:(Ast.var * Value.t) list -> Value.t) ->
  Xd_xml.Store.t ->
  string ->
  Value.t
(** Parse and evaluate a query text against a store. *)

val run_query :
  ?resolve_doc:(Env.t -> string -> Xd_xml.Doc.t) ->
  ?execute_at:
    (Env.t -> Ast.execute_at -> host:string ->
     args:(Ast.var * Value.t) list -> Value.t) ->
  Xd_xml.Store.t ->
  Ast.query ->
  Value.t
