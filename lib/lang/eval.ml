(* The XCore evaluator. Standard environment-passing interpreter; the only
   unusual pieces are (a) path steps always return their result in
   document order without duplicates (Step's kernels) — the property whose
   loss under pass-by-value the paper's Problems 1-4 describe — and (b)
   Execute_at delegates to the environment's RPC hook. *)

module X = Xd_xml

let max_recursion = 4096

let matches_sequence_type (v : Value.t) = function
  | Ast.St_empty -> v = []
  | Ast.St_items (it, occ) ->
    let count_ok =
      match occ with
      | Ast.Occ_one -> List.length v = 1
      | Ast.Occ_opt -> List.length v <= 1
      | Ast.Occ_star -> true
      | Ast.Occ_plus -> v <> []
    in
    let item_ok item =
      match (it, item) with
      | Ast.It_item, _ -> true
      | Ast.It_node, Value.N _ -> true
      | Ast.It_element nm, Value.N n ->
        X.Node.kind n = X.Node.Element
        && (match nm with None -> true | Some x -> X.Node.name n = x)
      | Ast.It_attribute nm, Value.N n ->
        X.Node.kind n = X.Node.Attribute
        && (match nm with None -> true | Some x -> X.Node.name n = x)
      | Ast.It_text, Value.N n -> X.Node.kind n = X.Node.Text
      | Ast.It_document, Value.N n -> X.Node.kind n = X.Node.Document
      | Ast.It_atomic ty, Value.A a -> (
        match (ty, a) with
        | ("xs:string" | "string"), Value.String _ -> true
        | ("xs:integer" | "integer" | "xs:int"), Value.Integer _ -> true
        | ("xs:double" | "xs:decimal" | "double" | "decimal"), Value.Double _
          ->
          true
        | ("xs:boolean" | "boolean"), Value.Boolean _ -> true
        | ("xs:untypedAtomic" | "untypedAtomic"), Value.Untyped _ -> true
        | ("xs:anyAtomicType" | "anyAtomicType"), _ -> true
        | _ -> false)
      | _, _ -> false
    in
    count_ok && List.for_all item_ok v

let rec eval (env : Env.t) (e : Ast.expr) : Value.t =
  (* the scheduling hook gets first refusal on the vertices that can
     anchor an overlap group; [None] means "no schedule here" and falls
     through to plain sequential evaluation *)
  match (env.Env.schedule, e.desc) with
  | Some f, (Ast.Seq _ | Ast.Let _ | Ast.For _) -> (
    match f env e with Some v -> v | None -> eval_desc env e)
  | _ -> eval_desc env e

and eval_desc (env : Env.t) (e : Ast.expr) : Value.t =
  match e.desc with
  | Ast.Literal (Ast.A_string s) -> Value.of_string s
  | Ast.Literal (Ast.A_int i) -> Value.of_int i
  | Ast.Literal (Ast.A_float f) -> Value.of_float f
  | Ast.Literal (Ast.A_bool b) -> Value.of_bool b
  | Ast.Var_ref v -> Env.lookup env v
  | Ast.Seq es -> List.concat_map (eval env) es
  | Ast.For (v, e1, e2) ->
    let seq = eval env e1 in
    List.concat_map (fun item -> eval (Env.bind env v [ item ]) e2) seq
  | Ast.Let (v, e1, e2) -> eval (Env.bind env v (eval env e1)) e2
  | Ast.If (c, t, f) ->
    if Value.effective_boolean_value (eval env c) then eval env t
    else eval env f
  | Ast.Typeswitch (e0, cases, dv, dflt) ->
    let v0 = eval env e0 in
    let rec try_cases = function
      | [] -> eval (Env.bind env dv v0) dflt
      | (v, st, body) :: rest ->
        if matches_sequence_type v0 st then eval (Env.bind env v v0) body
        else try_cases rest
    in
    try_cases cases
  | Ast.Value_cmp (op, a, b) ->
    Value.of_bool (Value.general_compare op (eval env a) (eval env b))
  | Ast.Node_cmp (op, a, b) -> (
    let get name v =
      match v with
      | [] -> None
      | [ Value.N n ] -> Some n
      | _ -> Env.dynamic_error "operand of %s must be a single node" name
    in
    let na = get (Pp.node_comp_name op) (eval env a) in
    let nb = get (Pp.node_comp_name op) (eval env b) in
    match (na, nb) with
    | None, _ | _, None -> []
    | Some x, Some y ->
      Value.of_bool
        (match op with
        | Ast.Is -> X.Node.same x y
        | Ast.Precedes -> X.Node.compare_order x y < 0
        | Ast.Follows -> X.Node.compare_order x y > 0))
  | Ast.Arith (op, a, b) -> Value.arith op (eval env a) (eval env b)
  | Ast.And (a, b) ->
    Value.of_bool
      (Value.effective_boolean_value (eval env a)
      && Value.effective_boolean_value (eval env b))
  | Ast.Or (a, b) ->
    Value.of_bool
      (Value.effective_boolean_value (eval env a)
      || Value.effective_boolean_value (eval env b))
  | Ast.Order_by (v, e1, specs, body) ->
    let items = eval env e1 in
    let keyed =
      List.map
        (fun item ->
          let ienv = Env.bind env v [ item ] in
          let keys =
            List.map
              (fun (spec, asc) ->
                let k =
                  match Value.atomize (eval ienv spec) with
                  | [] -> None
                  | [ a ] -> Some a
                  | _ ->
                    Env.dynamic_error
                      "order by key must be zero or one atomic value"
                in
                (k, asc))
              specs
          in
          (keys, item))
        items
    in
    let compare_keys (ka, _) (kb, _) =
      let rec go ka kb =
        match (ka, kb) with
        | [], [] -> 0
        | (a, asc) :: ra, (b, _) :: rb ->
          let c = Value.order_compare a b in
          let c = if asc then c else -c in
          if c <> 0 then c else go ra rb
        | _ -> 0
      in
      go ka kb
    in
    let sorted = List.stable_sort compare_keys keyed in
    List.concat_map (fun (_, item) -> eval (Env.bind env v [ item ]) body) sorted
  | Ast.Node_set (op, a, b) ->
    let na = Value.nodes_of (eval env a) in
    let nb = Value.nodes_of (eval env b) in
    let res =
      match op with
      | Ast.Union -> X.Seq_ops.union na nb
      | Ast.Intersect -> X.Seq_ops.intersect na nb
      | Ast.Except -> X.Seq_ops.except na nb
    in
    List.map (fun n -> Value.N n) res
  | Ast.Doc_constr e1 ->
    [ Value.N (Construct.document env.Env.store (eval env e1)) ]
  | Ast.Text_constr e1 -> (
    let s =
      String.concat "" (List.map Value.atom_to_string (Value.atomize (eval env e1)))
    in
    if s = "" then [] else [ Value.N (Construct.text env.Env.store s) ])
  | Ast.Elem_constr (ns, e1) ->
    let name = eval_name env ns in
    [ Value.N (Construct.element env.Env.store name (eval env e1)) ]
  | Ast.Attr_constr (ns, e1) ->
    let name = eval_name env ns in
    let value =
      String.concat " " (List.map Value.atom_to_string (Value.atomize (eval env e1)))
    in
    [ Value.N (Construct.attribute env.Env.store name value) ]
  | Ast.Step (e1, axis, test) ->
    let ctx = eval env e1 in
    let nodes = Value.nodes_of ctx in
    let res = Step.eval axis test nodes in
    (match env.Env.observe with
    | None -> ()
    | Some f -> List.iter f res);
    List.map (fun n -> Value.N n) res
  | Ast.Fun_call (name, args) -> eval_fun_call env name args
  | Ast.Execute_at x ->
    let host = Value.string_value (eval env x.host) in
    let args = List.map (fun (v, pe) -> (v, eval env pe)) x.params in
    env.Env.execute_at env x ~host ~args
  | Ast.Insert_node (src, pos, tgt) ->
    let content = Update.content_of_value (eval env src) in
    let target = update_target env "insert" tgt in
    add_pending env (Pul.P_insert (target, pos, content))
  | Ast.Delete_node tgt ->
    (* delete accepts a whole sequence of targets *)
    let targets = Value.nodes_of (eval env tgt) in
    List.iter (fun n -> ignore (add_pending env (Pul.P_delete n))) targets;
    []
  | Ast.Replace_value (tgt, v) ->
    let target = update_target env "replace value of" tgt in
    let s =
      String.concat " "
        (List.map Value.atom_to_string (Value.atomize (eval env v)))
    in
    add_pending env (Pul.P_replace_value (target, s))
  | Ast.Rename_node (tgt, n) ->
    let target = update_target env "rename" tgt in
    add_pending env (Pul.P_rename (target, Value.string_value (eval env n)))

and update_target env what tgt =
  match eval env tgt with
  | [ Value.N n ] -> n
  | _ ->
    Env.dynamic_error "%s: target must evaluate to exactly one node" what

and add_pending env p =
  match env.Env.pul with
  | Some pul ->
    Pul.add pul p;
    []
  | None ->
    Env.dynamic_error "updating expression in a read-only context"

and eval_name env = function

  | Ast.Fixed_name n -> n
  | Ast.Computed_name e -> Value.string_value (eval env e)

and eval_fun_call env name args =
  match Env.lookup_func env name with
  | Some f ->
    if List.length args <> List.length f.Ast.f_params then
      Env.dynamic_error "function %s expects %d argument(s), got %d" name
        (List.length f.Ast.f_params)
        (List.length args);
    if env.Env.recursion_depth > max_recursion then
      Env.dynamic_error "recursion limit exceeded in %s" name;
    let bound =
      List.fold_left2
        (fun acc (v, _ty) arg -> Env.Smap.add v (eval env arg) acc)
        Env.Smap.empty f.Ast.f_params args
    in
    let call_env = { env with Env.vars = bound } in
    call_env.Env.recursion_depth <- env.Env.recursion_depth + 1;
    let r = eval call_env f.Ast.f_body in
    call_env.Env.recursion_depth <- env.Env.recursion_depth;
    r
  | None -> (
    match Hashtbl.find_opt env.Env.builtins name with
    | Some f -> f env (List.map (eval env) args)
    | None -> Env.dynamic_error "unknown function %s()" name)

(* Local (non-distributed) execute-at handler: evaluates the body in place,
   sharing the store, so node identity is fully preserved. This is the
   reference semantics that a decomposed query must reproduce. *)
let local_execute_at env (x : Ast.execute_at) ~host:_ ~args =
  let vars =
    List.fold_left
      (fun acc (v, value) -> Env.Smap.add v value acc)
      Env.Smap.empty args
  in
  eval { env with Env.vars = vars } x.Ast.body

let default_env ?vars ?funcs ?resolve_doc ?execute_at ?pul store =
  let execute_at =
    match execute_at with Some h -> h | None -> local_execute_at
  in
  Env.create ?vars ?funcs ?resolve_doc ~execute_at ~builtins:(Builtins.table ())
    ?pul store

(* Evaluate and then apply the pending update list (snapshot semantics:
   the result is computed against the pre-update state). *)
let eval_and_apply env e =
  let v = eval env e in
  (match env.Env.pul with
  | Some pul when not (Pul.is_empty pul) ->
    ignore (Update.apply env.Env.store (Pul.list pul))
  | _ -> ());
  v

(* Convenience: parse and run a full query against a store. *)
let run ?resolve_doc ?execute_at store src =
  let q = Parser.parse_query src in
  let env =
    default_env ~funcs:q.Ast.funcs ?resolve_doc ?execute_at
      ~pul:(Pul.create ()) store
  in
  eval_and_apply env q.Ast.body

let run_query ?resolve_doc ?execute_at store (q : Ast.query) =
  let env =
    default_env ~funcs:q.Ast.funcs ?resolve_doc ?execute_at
      ~pul:(Pul.create ()) store
  in
  eval_and_apply env q.Ast.body
