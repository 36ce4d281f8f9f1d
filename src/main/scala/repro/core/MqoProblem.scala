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
  * @param steps    the physical probe steps (drive the topology)
  * @param mirsUsed the keys of the MIRs whose stores the order probes, sorted
  * @param stepIds  the ids in the problem's step table of its probe steps
  *                 and, for a maintenance order, of the insert step that
  *                 ships the produced subresult into the MIR store
  * @param mirIds   the ids of the `mirsUsed` MIRs in the problem's MIR table
  */
final case class Cand(d: Decorated, steps: Vector[Step], mirsUsed: Vector[String])(val stepIds: Array[Int],
                                                                                   val mirIds: Array[Int]) {
  override def toString: String = d.toString
}

/** The multi-query optimization problem of Section V: slots, candidates,
  * shared step costs, and the MIR maintenance structure.
  *
  * The problem is numbered, so the solver searches ints, not keys:
  *  - slot id `s` is `slots(s)` with candidates `cands(s)`; the query slots
  *    are `0 until numQuerySlots`, the maintenance slots follow in the order
  *    `build` reached them;
  *  - MIR id `m` is the MIR `mirKeys(m)`, maintained by the slots
  *    `mirSlotIds(m)` (in `Mir.relations` order); only MIRs some candidate
  *    uses have an id;
  *  - step id `i` has key `stepKeys(i)` and cost `stepCosts(i)`, priced from
  *    `stepReps(i)`: the first step to reach the key, or an insert step's
  *    maintenance subquery. Only `stats` and `stepCosts` depend on the
  *    statistics; `repriced` prices the same tables under new ones.
  * Each candidate carries its step and MIR ids. `querySlots`, `slotCands`,
  * `mirSlots` and `stepCost` are keyed views of these tables.
  */
final case class MqoProblem(
    queries: Vector[Query],
    catalog: Catalog,
    stats: Stats,
    slots: Array[SlotId],
    numQuerySlots: Int,
    cands: Array[Vector[Cand]], // shared with `slotCands`
    mirKeys: Array[String],
    mirSlotIds: Array[Array[Int]],
    stepKeys: Array[StepKey],
    stepReps: Array[Either[Step, Subquery]],
    stepCosts: Array[Double],
    mirByKey: Map[String, Mir],
) {
  /** The query slots, in id order. */
  lazy val querySlots: Vector[SlotId] = slots.take(numQuerySlots).toVector

  /** Each slot's candidates, keyed by slot. */
  lazy val slotCands: Map[SlotId, Vector[Cand]] = slots.indices.map(s => slots(s) -> cands(s)).toMap

  /** Each maintained MIR's maintenance slots, keyed by MIR key. */
  lazy val mirSlots: Map[String, Vector[SlotId]] =
    mirKeys.indices.map(m => mirKeys(m) -> mirSlotIds(m).toVector.map(slots(_))).toMap

  /** The pricing pass: the same problem with each step id priced under `st`, from its representative. */
  def repriced(st: Stats): MqoProblem =
    copy(stats = st, stepCosts = stepReps.map(_.fold(CostModel.stepCost(_, st, catalog), CostModel.insertCost(_, st))))

  /** Sum of the costs of the steps `ids`, left to right from the first, as
    * `Seq.sum` adds them; a candidate's cost is `cost(c.stepIds)`.
    */
  def cost(ids: Array[Int]): Double = if (ids.isEmpty) 0.0 else ids.iterator.map(stepCosts).reduce(_ + _)

  /** Shared step cost table, keyed by step. */
  lazy val stepCost: Map[StepKey, Double] = stepKeys.indices.map(i => stepKeys(i) -> stepCosts(i)).toMap

  /** ILP x-variables: one per (slot, candidate). */
  lazy val numXVars: Int = cands.iterator.map(_.size).sum

  /** ILP y-variables: one per distinct step. */
  def numYVars: Int = stepKeys.length

  def numVars: Int = numXVars + numYVars

  /** Total number of (decorated) candidate probe orders. */
  def numProbeOrders: Int = numXVars
}

object MqoProblem {

  /** Build the problem in two passes. The enumeration pass reads only the
    * queries and the catalog: it enumerates MIRs per query (Section V),
    * candidate probe orders (Algorithm 1), applies partitioning candidates,
    * generates maintenance probe orders for every non-base MIR, and numbers
    * the slots, the MIRs and the shared steps where they are created. The
    * pricing pass, `repriced`, then costs each step id once under `stats`.
    *
    * A slot's decorated orders are walked as a prefix tree: a step shared by
    * several decorations (same probed elements and partitionings up to it)
    * is built, keyed and interned once, at its tree node, and each step
    * extends the step before it.
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

    // Step table. A step's cost is a function of its key's content, so the
    // first step (or insert subquery) to reach a key represents it.
    val stepIds = mutable.HashMap[StepKey, Int]()
    val stepKeys = mutable.ArrayBuffer[StepKey]()
    val stepReps = mutable.ArrayBuffer[Either[Step, Subquery]]()
    def intern(k: StepKey, rep: => Either[Step, Subquery]): Int = stepIds.getOrElseUpdate(k, {
      stepKeys += k
      stepReps += rep
      stepKeys.size - 1
    })

    /** A node of a slot's prefix tree: one step, keyed and interned. */
    final class Node(val step: Step) {
      val id: Int = intern(step.key, Left(step))
      val children = mutable.ArrayBuffer[Node]()
    }
    /** The node among `siblings` probing `m` partitioned by `part`; `make` builds its step if new. */
    def child(siblings: mutable.ArrayBuffer[Node], m: Mir, part: Option[Attr], make: => Step): Node =
      siblings.find(n => n.step.target == m && n.step.targetPart == part).getOrElse {
        val n = new Node(make)
        siblings += n
        n
      }

    // Slot table: query slot ids are fixed in advance, maintenance slots are
    // appended as build reaches them. MIR table: an MIR gets its id when a
    // candidate first uses it, and its slot ids when build reaches it.
    val numQuerySlots = qs.iterator.map(_.relations.size).sum
    val slots = mutable.ArrayBuffer.fill[SlotId](numQuerySlots)(null)
    val cands = mutable.ArrayBuffer.fill[Vector[Cand]](numQuerySlots)(null)
    val mirIds = mutable.HashMap[String, Int]()
    val mirKeys = mutable.ArrayBuffer[String]()
    val mirSlotIds = mutable.ArrayBuffer[Array[Int]]() // null until build reaches the MIR
    def mirId(mk: String): Int = mirIds.getOrElseUpdate(mk, {
      mirKeys += mk
      mirSlotIds += null
      mirKeys.size - 1
    })

    def mkCands(sub: Subquery, usableMirs: Set[Mir], slot: SlotId): Vector[Cand] = {
      val roots = mutable.ArrayBuffer[Node]()
      lazy val insert: Option[Int] = slot match {
        case MirSlot(mk, start) => Some(intern(CostModel.insertKey(mk, start), Right(sub)))
        case _: QuerySlot       => None
      }
      ProbeOrders.candidatesFrom(sub, usableMirs, slot.start).flatMap { po =>
        val mirsUsed = po.mirsUsed.map(_.key).toVector.sorted
        val ids = mirsUsed.map(mirId).toArray
        ProbeOrders.decorate(po, partsOf).map { d =>
          val path = (1 until po.elems.size).foldLeft(Vector.empty[Node]) { (path, t) =>
            val (m, part) = (po.elems(t), d.parts(t - 1))
            path :+ (path.lastOption match {
              case None       => child(roots, m, part, Step.first(sub, po.elems.head, m, part))
              case Some(prev) => child(prev.children, m, part, prev.step.next(m, part))
            })
          }
          Cand(d, path.map(_.step), mirsUsed)((path.map(_.id) ++ insert).toArray, ids)
        }
      }
    }

    // Maintenance slots for a non-base MIR (recursively for MIRs its own
    // candidates use). Candidates of the MIR's subquery may themselves use
    // smaller MIRs of the pool with matching induced predicates.
    val pool = mirByKey.values.toSet
    def ensureMirSlots(id: Int): Unit = {
      if (mirSlotIds(id) != null) return
      mirSlotIds(id) = Array.emptyIntArray
      val m = mirByKey(mirKeys(id))
      val sub = Subquery.ofMir(m, mirWindow(m.key))
      mirSlotIds(id) = m.relations.map { start =>
        val sid: SlotId = MirSlot(m.key, start)
        val cs = mkCands(sub, pool, sid)
        slots += sid
        cands += cs
        val s = slots.size - 1
        cs.foreach(_.mirIds.foreach(ensureMirSlots))
        s
      }.toArray
    }

    var next = 0
    for (q <- qs) {
      val sub = Subquery.ofQuery(q)
      q.relations.toVector.sorted.foreach { start =>
        val sid: SlotId = QuerySlot(q.name, start)
        val cs = mkCands(sub, perQueryMirs(q.name), sid)
        require(cs.nonEmpty, s"no probe order candidates for ${q.name} from $start — disconnected query?")
        slots(next) = sid
        cands(next) = cs
        next += 1
        cs.foreach(_.mirIds.foreach(ensureMirSlots))
      }
    }

    MqoProblem(
      queries = qs,
      catalog = catalog,
      stats = stats,
      slots = slots.toArray,
      numQuerySlots = numQuerySlots,
      cands = cands.toArray,
      mirKeys = mirKeys.toArray,
      mirSlotIds = mirSlotIds.toArray,
      stepKeys = stepKeys.toArray,
      stepReps = stepReps.toArray,
      stepCosts = null, // filled by the pricing pass
      mirByKey = mirByKey.toMap,
    ).repriced(stats)
  }
}
