(** Path-step kernels: staircase joins over the pre/size encoding.

    [eval axis test ctx] is the step [ctx/axis::test]: its result is in
    document order without duplicates, whatever the order and
    duplicates of [ctx]. The node test uses the axis's principal node
    kind (attribute on the attribute axis, element elsewhere). No step
    sorts nodes; see DESIGN.md "Step kernels" for each axis's pruning
    rule and cost. *)

val eval :
  Ast.axis -> Ast.node_test -> Xd_xml.Node.t list -> Xd_xml.Node.t list
