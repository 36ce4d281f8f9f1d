package repro.core

import scala.collection.mutable

/** A decision slot of the optimization problem: exactly one probe order must
  * be selected per (query, starting relation); one probe order per
  * (maintained MIR, starting relation) must be selected iff some selected
  * probe order uses that MIR's store.
  */
sealed trait SlotId {
  def key: String
  def start: String
}
final case class QuerySlot(query: String, start: String) extends SlotId {
  def key: String = s"q:$query:$start"
}
final case class MirSlot(mirKey: String, start: String) extends SlotId {
  def key: String = s"m:$mirKey:$start"
}

/** A candidate probe order for a slot.
  *
  * @param steps  the physical probe steps (drive the topology)
  * @param costed (step key, cost) pairs the ILP accounts for, as
  *               `CostModel.costed` prices them: the probe steps plus, for
  *               maintenance orders, the insert step that ships the produced
  *               subresult into the MIR store
  */
final case class Cand(d: Decorated, steps: Vector[Step], costed: Vector[(StepKey, Double)],
                      mirsUsed: Vector[String]) {
  def cost: Double = costed.map(_._2).sum
  override def toString: String = d.toString
}

/** The multi-query optimization problem of Section V: slots, candidates,
  * shared step costs, and the MIR maintenance structure.
  */
final case class MqoProblem(
    queries: Vector[Query],
    catalog: Catalog,
    stats: Stats,
    querySlots: Vector[SlotId],
    mirSlots: Map[String, Vector[SlotId]], // mirKey -> maintenance slots
    slotCands: Map[SlotId, Vector[Cand]],
    stepCost: Map[StepKey, Double],
    mirByKey: Map[String, Mir],
) {
  /** ILP x-variables: one per (slot, candidate). */
  def numXVars: Int = slotCands.values.map(_.size).sum

  /** ILP y-variables: one per distinct step. */
  def numYVars: Int = stepCost.size

  def numVars: Int = numXVars + numYVars

  /** Total number of (decorated) candidate probe orders. */
  def numProbeOrders: Int = numXVars
}

object MqoProblem {

  /** Build the problem: enumerate MIRs per query (Section V), candidate probe
    * orders (Algorithm 1), apply partitioning candidates, generate maintenance
    * probe orders for every non-base MIR, and collect shared step costs.
    */
  def build(queries: Seq[Query], catalog: Catalog, stats: Stats): MqoProblem = {
    val qs = queries.toVector.sortBy(_.name)
    require(qs.map(_.name).distinct.size == qs.size, "query names must be unique")

    // Global MIR pool and the window each MIR store must retain.
    val perQueryMirs: Map[String, Set[Mir]] = qs.map(q => q.name -> Mir.enumerate(q)).toMap
    val mirWindow = mutable.Map[String, Double]()
    val mirByKey = mutable.Map[String, Mir]()
    for (q <- qs; m <- perQueryMirs(q.name)) {
      mirByKey(m.key) = m
      mirWindow(m.key) = math.max(mirWindow.getOrElse(m.key, 0.0), q.window)
    }

    val partsCache = mutable.Map[String, Vector[Attr]]()
    def partsOf(m: Mir): Vector[Attr] =
      partsCache.getOrElseUpdate(m.key, ProbeOrders.partitionCandidates(m, qs))

    val slotCands = mutable.LinkedHashMap[SlotId, Vector[Cand]]()
    val mirSlots = mutable.LinkedHashMap[String, Vector[SlotId]]()

    def mkCands(sub: Subquery, usableMirs: Set[Mir], slot: SlotId): Vector[Cand] =
      ProbeOrders
        .candidatesFrom(sub, usableMirs, slot.start)
        .flatMap(po => ProbeOrders.decorate(po, partsOf))
        .map { d =>
          val steps = d.steps
          Cand(d, steps, CostModel.costed(slot, sub, steps, stats, catalog),
               d.mirsUsed.map(_.key).toVector.sorted)
        }

    // Maintenance slots for a non-base MIR (recursively for MIRs its own
    // candidates use). Candidates of the MIR's subquery may themselves use
    // smaller MIRs of the pool with matching induced predicates.
    val mirDone = mutable.Set[String]()
    def ensureMirSlots(mirKey: String): Unit = {
      if (mirDone(mirKey)) return
      mirDone += mirKey
      val m = mirByKey(mirKey)
      val sub = Subquery.ofMir(m, mirWindow(mirKey))
      val pool = mirByKey.values.toSet
      val slots = m.relations.map { start =>
        val sid: SlotId = MirSlot(mirKey, start)
        val cands = mkCands(sub, pool, sid)
        slotCands(sid) = cands
        cands.foreach(_.mirsUsed.foreach(ensureMirSlots))
        sid
      }
      mirSlots(mirKey) = slots
    }

    val querySlots: Vector[SlotId] = for {
      q <- qs
      start <- q.relations.toVector.sorted
    } yield {
      val sid: SlotId = QuerySlot(q.name, start)
      val cands = mkCands(Subquery.ofQuery(q), perQueryMirs(q.name), sid)
      require(cands.nonEmpty, s"no probe order candidates for ${q.name} from $start — disconnected query?")
      slotCands(sid) = cands
      cands.foreach(_.mirsUsed.foreach(ensureMirSlots))
      sid
    }

    // Shared step cost table. Step cost must be identical wherever the same
    // step key appears (it is a function of the key's content).
    val stepCost = mutable.Map[StepKey, Double]()
    for (cands <- slotCands.values; c <- cands; (k, cost) <- c.costed) {
      stepCost.get(k).foreach { prev =>
        require(math.abs(prev - cost) <= 1e-6 * math.max(1.0, math.abs(prev)),
                s"inconsistent cost for shared step $k: $prev vs $cost")
      }
      stepCost(k) = cost
    }

    MqoProblem(
      queries = qs,
      catalog = catalog,
      stats = stats,
      querySlots = querySlots,
      mirSlots = mirSlots.toMap,
      slotCands = slotCands.toMap,
      stepCost = stepCost.toMap,
      mirByKey = mirByKey.toMap,
    )
  }
}
