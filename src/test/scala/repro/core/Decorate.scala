package repro.core

/** Every decoration of `po` over its probed stores' partitioning candidates
  * in `workload`, through the calls `MqoProblem.build` makes: the batch
  * `partitionCandidates`, `partOptions` and `decorations`.
  */
object Decorate {
  def apply(po: ProbeOrder, workload: Seq[Query]): Vector[Decorated] =
    ProbeOrders.decorations(po, ProbeOrders.partitionCandidates(po.elems.tail, workload).map(ProbeOrders.partOptions))
      .map(_._1)
}
