package repro.core

/** Algorithm 1: the candidate probe orders of `sub` from `start` over the
  * usable MIRs of `mirs`, through the call `MqoProblem.build` makes
  * (`Usable.ordersFrom`). Each appended MIR is joined with the covered
  * relations by at least one predicate of `sub`, so no cross product forms.
  */
object Candidates {
  def apply(sub: Subquery, mirs: Set[Mir], start: String): Vector[ProbeOrder] =
    new Usable(sub, mirs).ordersFrom(start).map(_._1)
}
