package repro.core

/** Probe cost model (Equation 1) and the MIR insert cost.
  *
  * Step t of a probe order sends the partial join of the first t elements —
  * restricted to combinations where the start tuple arrived last, which is a
  * 1/|covered relations| fraction of the full join — to the store of element
  * t+1. If the target store's partitioning attribute cannot be derived from
  * the prefix tuple, it must be broadcast to all partitions (factor χ).
  *
  * A maintenance order of an MIR pays one more step: inserting the subresult
  * it produces into the MIR's store (Section IV: an MIR store pays off when
  * the intermediate result is small). This object is the only place that
  * prices either kind of step.
  */
object CostModel {

  /** Broadcast factor χ for routing a prefix tuple to `target` partitioned by
    * `part`: 1 when the partitioning value is derivable from the prefix via
    * the subquery's attribute-equality classes, else the store's parallelism.
    */
  def chi(step: Step, catalog: Catalog): Double =
    if (step.routed) 1.0 else catalog.parallelism(step.target).toDouble

  /** Number of tuples sent by a step per window of input:
    * |⋈ prefix| · (1 / #covered relations) · χ(target).
    */
  def stepCost(step: Step, stats: Stats, catalog: Catalog): Double =
    stepCost(step, lastArrived(step, stats), catalog)

  /** |⋈ prefix| · (1 / #covered relations): the tuples of the step's prefix
    * join whose start tuple arrived last, before the broadcast factor.
    */
  def lastArrived(step: Step, stats: Stats): Double = {
    val covered = step.coveredRels
    stats.joinCard(covered, step.sub.inducedPreds(covered)) / covered.size
  }

  /** `stepCost` of a step whose prefix sends `lastArrived` tuples per window. */
  def stepCost(step: Step, lastArrived: Double, catalog: Catalog): Double =
    lastArrived * chi(step, catalog)

  /** Key of the step that inserts the results of the maintenance orders of
    * MIR `mirKey` starting at `start` into the MIR's store.
    */
  def insertKey(mirKey: String, start: String): StepKey =
    StepKey(Vector(start), s"insert:$mirKey", "", routed = true)

  /** Tuples inserted per window by one maintenance order of `sub`:
    * |⋈ sub| · (1 / #relations), the results whose start tuple arrived last.
    */
  def insertCost(sub: Subquery, stats: Stats): Double =
    stats.joinCard(sub.relations, sub.predicates) / sub.relations.size
}
