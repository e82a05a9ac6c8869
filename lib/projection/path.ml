(* Projection paths (Table V): forward, reverse and horizontal axis steps
   plus the root()/id()/idref() pseudo-steps. A path here is a *relative*
   suffix — the form shipped inside XRPC messages and evaluated at runtime
   against a materialized context sequence. The empty path (printed ".")
   denotes the context itself. *)

module Ast = Xd_lang.Ast
module X = Xd_xml

type pstep =
  | Axis of Ast.axis * Ast.node_test
  | Root_fn
  | Id_fn
  | Idref_fn

type t = pstep list

let empty : t = []

exception Parse_error of string

(* ---- printing ----------------------------------------------------------- *)

let step_to_string = function
  | Axis (axis, test) ->
    Printf.sprintf "%s::%s" (Xd_lang.Pp.axis_name axis)
      (Xd_lang.Pp.node_test_name test)
  | Root_fn -> "root()"
  | Id_fn -> "id()"
  | Idref_fn -> "idref()"

let to_string = function
  | [] -> "."
  | steps -> String.concat "/" (List.map step_to_string steps)

(* ---- parsing ------------------------------------------------------------ *)

let axis_of_string s =
  match s with
  | "child" -> Ast.Child
  | "descendant" -> Ast.Descendant
  | "descendant-or-self" -> Ast.Descendant_or_self
  | "self" -> Ast.Self
  | "attribute" -> Ast.Attribute
  | "parent" -> Ast.Parent
  | "ancestor" -> Ast.Ancestor
  | "ancestor-or-self" -> Ast.Ancestor_or_self
  | "following" -> Ast.Following
  | "following-sibling" -> Ast.Following_sibling
  | "preceding" -> Ast.Preceding
  | "preceding-sibling" -> Ast.Preceding_sibling
  | _ -> raise (Parse_error ("unknown axis " ^ s))

let test_of_string s =
  match s with
  | "*" -> Ast.Wildcard
  | "node()" -> Ast.Kind_node
  | "text()" -> Ast.Kind_text
  | "comment()" -> Ast.Kind_comment
  | "element()" -> Ast.Kind_element None
  | "attribute()" -> Ast.Kind_attribute None
  | s -> Ast.Name_test s

let step_of_string s =
  match s with
  | "root()" -> Root_fn
  | "id()" -> Id_fn
  | "idref()" -> Idref_fn
  | _ -> (
    match String.index_opt s ':' with
    | Some i
      when i + 1 < String.length s && s.[i + 1] = ':' ->
      let axis = String.sub s 0 i in
      let test = String.sub s (i + 2) (String.length s - i - 2) in
      Axis (axis_of_string axis, test_of_string test)
    | _ -> raise (Parse_error ("malformed projection step " ^ s)))

let of_string s =
  if s = "." || s = "" then []
  else List.map step_of_string (String.split_on_char '/' s)

(* ---- evaluation ----------------------------------------------------------

   Relative paths are evaluated with the plain axis machinery; the
   pseudo-steps root()/id()/idref() follow Section VI-B: id()/idref()
   conservatively select all elements carrying an ID/IDREF attribute in the
   context documents (the value argument is unknown to the path
   abstraction). *)

let id_like_elements names n =
  let root = X.Node.root n in
  List.filter
    (fun e ->
      X.Node.kind e = X.Node.Element
      && List.exists (fun a -> List.mem (X.Node.name a) names) (X.Node.attributes e))
    (X.Node.descendant_or_self root)

let eval_step_on ctx = function
  | Axis (axis, test) -> Xd_lang.Step.eval axis test ctx
  | Root_fn -> X.Seq_ops.sort_dedup (List.map X.Node.root ctx)
  | Id_fn ->
    X.Seq_ops.sort_dedup
      (List.concat_map (id_like_elements [ "id"; "xml:id" ]) ctx)
  | Idref_fn ->
    X.Seq_ops.sort_dedup
      (List.concat_map (id_like_elements [ "idref"; "idrefs" ]) ctx)

let eval (path : t) (ctx : X.Node.t list) : X.Node.t list =
  List.fold_left eval_step_on (X.Seq_ops.sort_dedup ctx) path
