package repro.core

/** A candidate's (step key, cost) pairs as its problem's step table holds
  * them, in `stepIds` order.
  */
object Costed {
  def apply(p: MqoProblem, c: Cand): Vector[(StepKey, Double)] =
    c.stepIds.toVector.map(i => p.stepKey(i) -> p.stepCosts(i))
}
