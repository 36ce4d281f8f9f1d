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

/** The step that inserts the results of maintenance slot `slot`'s orders,
  * which compute `sub`, into the MIR's store.
  */
final case class InsertStep(slot: MirSlot, sub: Subquery) {
  def key: StepKey = CostModel.insertKey(slot.mirKey, slot.start)
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
  *  - step id `i` has cost `stepCosts(i)`, priced from `stepReps(i)`: the
  *    first step to reach the id, or a maintenance slot's insert. A probe
  *    step takes its prefix join from step `cardReps(i)`, a sibling in the
  *    same slot's prefix tree (itself when first). Its key, `stepKey(i)`, is
  *    built only when asked for. Only `stats` and `stepCosts` depend on the
  *    statistics; `repriced` prices the same tables under new ones.
  * Each candidate carries its step and MIR ids. `querySlots`, `slotCands`,
  * `mirSlots` and `stepCost` are views of these tables.
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
    stepReps: Array[Either[Step, InsertStep]],
    cardReps: Array[Int],
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

  /** The key of step id `i`. */
  def stepKey(i: Int): StepKey = stepReps(i).fold(_.key, _.key)

  /** The pricing pass: the same problem with each step id priced under `st`,
    * from its representative. A probe step's prefix join is evaluated once
    * per `cardReps` representative and shared by its siblings, which would
    * evaluate the same relation and predicate sets in the same order.
    */
  def repriced(st: Stats): MqoProblem = {
    val costs = new Array[Double](stepReps.length)
    val arrived = new Array[Double](stepReps.length)
    var i = 0
    while (i < costs.length) {
      costs(i) = stepReps(i) match {
        case Left(s) =>
          arrived(i) = if (cardReps(i) == i) CostModel.lastArrived(s, st) else arrived(cardReps(i))
          CostModel.stepCost(s, arrived(i), catalog)
        case Right(ins) => CostModel.insertCost(ins.sub, st)
      }
      i += 1
    }
    copy(stats = st, stepCosts = costs)
  }

  /** Sum of the costs of the steps `ids`, left to right from the first, as
    * `Seq.sum` adds them; a candidate's cost is `cost(c.stepIds)`.
    */
  def cost(ids: Array[Int]): Double = {
    if (ids.isEmpty) return 0.0
    var sum = stepCosts(ids(0))
    var j = 1
    while (j < ids.length) {
      sum += stepCosts(ids(j))
      j += 1
    }
    sum
  }

  /** Shared step cost table, keyed by step. */
  lazy val stepCost: Map[StepKey, Double] = stepCosts.indices.map(i => stepKey(i) -> stepCosts(i)).toMap

  /** ILP x-variables: one per (slot, candidate). */
  lazy val numXVars: Int = cands.iterator.map(_.size).sum

  /** ILP y-variables: one per distinct step. */
  def numYVars: Int = stepCosts.length

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
    * is built and interned once, at its tree node, and each step extends the
    * step before it. A node's children are told apart by MIR number and
    * partitioning option. Steps are interned by ints that make up their key:
    *  - a prefix id: the start relation's, then one per (prefix id, store id);
    *  - a store id per (MIR, partitioning option);
    *  - a predicate-set id for the predicates the subquery induces on the
    *    step's result relations, memoized per subquery by their bitmask;
    *  - the routed flag.
    * The prefix id is not the parent step's id: a key's prefix holds no
    * predicates and no routed flag, so parents with different keys can share
    * a child key.
    */
  def build(queries: Seq[Query], catalog: Catalog, stats: Stats): MqoProblem = {
    val qs = queries.toVector.sortBy(_.name)
    require(qs.map(_.name).distinct.size == qs.size, "query names must be unique")

    // Global MIR pool: one instance per key, numbered in order of first
    // appearance, with the window its store must retain.
    val mirByKey = mutable.LinkedHashMap[String, Mir]()
    val mirWindow = mutable.Map[String, Double]()
    val perQueryMirs: Map[String, Vector[Mir]] = qs.map { q =>
      q.name -> Mir.enumerate(q).toVector.map { m =>
        mirWindow(m.key) = math.max(mirWindow.getOrElse(m.key, 0.0), q.window)
        mirByKey.getOrElseUpdate(m.key, m)
      }
    }.toMap
    val pool = mirByKey.values.toVector
    val mirNum: Map[String, Int] = pool.indices.map(i => pool(i).key -> i).toMap
    val poolByFirst = pool.groupBy(_.relations.head)

    // Partitioning options per MIR number; store id `storeBase(n) + o` is
    // MIR n partitioned by its option o.
    val partOpts = ProbeOrders.partitionCandidates(pool, qs).map(ProbeOrders.partOptions)
    val storeBase = partOpts.scanLeft(0)(_ + _.size)

    // Predicate-set ids, shared by all subqueries.
    val predSetIds = mutable.HashMap[Set[Pred], Int]()

    /** A subquery's usable MIRs with their numbers, and its memo of
      * predicate-set ids by relation mask.
      */
    final class Sub(val usable: Usable) {
      val sub: Subquery = usable.sub
      val nums: Array[Int] = usable.mirs.iterator.map(m => mirNum(m.key)).toArray
      private val predSets = new Array[Int](1 << usable.rels.size) // id + 1, 0 until known
      def predSetId(mask: Int): Int = {
        if (predSets(mask) == 0) {
          val preds = sub.predicates.filter(p => ((usable.bit(p.x.rel) | usable.bit(p.y.rel)) & ~mask) == 0)
          predSets(mask) = predSetIds.getOrElseUpdate(preds, predSetIds.size) + 1
        }
        predSets(mask) - 1
      }
      // the relations of each attribute's equality class, as a mask
      private val classMask: Map[Attr, Int] = sub.attrClasses.map { case (a, as) => a -> usable.mask(as.map(_.rel)) }
      /** `Step.routed` of a step partitioned by `part` from the relations `covered`. */
      def routed(part: Option[Attr], covered: Int): Boolean =
        part.exists(p => (classMask.getOrElse(p, 0) & covered) != 0)
    }

    // Prefix table: a start relation's prefix id, then one per (prefix id, store id).
    val startPrefix = mutable.HashMap[String, Int]()
    val prefixIds = new LongIntTable
    var numPrefixes = 0
    def newPrefix(): Int = { numPrefixes += 1; numPrefixes - 1 }
    def prefixId(k: Long): Int = {
      val p = prefixIds.getOrPut(k, numPrefixes)
      if (p == numPrefixes) newPrefix() else p
    }

    // Step table, interned by one packed long: the prefix id of the step's
    // prefix extended by its target store, its predicate-set id and its
    // routed flag. A step's cost is a function of its key's content, so the
    // first step (or insert) to reach an id represents it.
    val stepIds = new LongIntTable
    val stepReps = mutable.ArrayBuffer[Either[Step, InsertStep]]()
    val cardReps = mutable.ArrayBuffer[Int]()

    /** A node of a slot's prefix tree: the start, or one interned step.
      * `prefix` is the prefix id of the node's children and `covered` the
      * mask of their covered relations; `cardRep` is the first step id
      * created among its children, whose prefix join they all reuse.
      */
    final class Node(val step: Step, val num: Int, val opt: Int, val prefix: Int, val covered: Int, val id: Int) {
      val children = mutable.ArrayBuffer[Node]()
      var cardRep: Int = -1
    }
    /** The child of `parent` probing usable MIR `u` of `sub` with option `opt`, built if new. */
    def child(parent: Node, sub: Sub, head: Mir, u: Int, opt: Int): Node = {
      val num = sub.nums(u)
      val cs = parent.children
      var i = 0
      while (i < cs.size) {
        if (cs(i).num == num && cs(i).opt == opt) return cs(i)
        i += 1
      }
      val (m, part) = (sub.usable.mirs(u), partOpts(num)(opt))
      val step = if (parent.step == null) Step.first(sub.sub, head, m, part) else parent.step.next(m, part)
      val prefix = prefixId((parent.prefix.toLong << 32) | (storeBase(num) + opt))
      val covered = parent.covered | sub.usable.masks(u)
      val key = (prefix.toLong << 32) | (sub.predSetId(covered).toLong << 1) |
        (if (sub.routed(part, parent.covered)) 1L else 0L)
      val id = stepIds.getOrPut(key, stepReps.size)
      if (id == stepReps.size) {
        if (parent.cardRep < 0) parent.cardRep = id
        stepReps += Left(step)
        cardReps += parent.cardRep
      }
      val n = new Node(step, num, opt, prefix, covered, id)
      cs += n
      n
    }

    // Slot table: query slot ids are fixed in advance, maintenance slots are
    // appended as build reaches them. MIR table: an MIR gets its id when a
    // candidate first uses it, and its slot ids when build reaches it.
    val numQuerySlots = qs.iterator.map(_.relations.size).sum
    val slots = mutable.ArrayBuffer.fill[SlotId](numQuerySlots)(null)
    val cands = mutable.ArrayBuffer.fill[Vector[Cand]](numQuerySlots)(null)
    val mirIdOfNum = Array.fill(pool.size)(-1)
    val mirKeys = mutable.ArrayBuffer[String]()
    val mirSlotIds = mutable.ArrayBuffer[Array[Int]]() // null until build reaches the MIR
    def mirId(num: Int): Int = {
      if (mirIdOfNum(num) < 0) {
        mirIdOfNum(num) = mirKeys.size
        mirKeys += pool(num).key
        mirSlotIds += null
      }
      mirIdOfNum(num)
    }

    def mkCands(sub: Sub, slot: SlotId): Vector[Cand] = {
      val root = new Node(null, -1, -1, startPrefix.getOrElseUpdate(slot.start, newPrefix()),
                          sub.usable.bit(slot.start), -1)
      lazy val insert: Array[Int] = slot match {
        case ms: MirSlot =>
          stepReps += Right(InsertStep(ms, sub.sub))
          cardReps += -1
          Array(stepReps.size - 1)
        case _: QuerySlot => Array.emptyIntArray
      }
      sub.usable.ordersFrom(slot.start).flatMap { case (po, ix) =>
        // usable MIRs are sorted by key, so sorted indices are sorted keys
        val used = ix.filterNot(sub.usable.mirs(_).isBase).sorted
        val mirsUsed = used.toVector.map(sub.usable.mirs(_).key)
        val ids = used.map(u => mirId(sub.nums(u)))
        ProbeOrders.decorations(po, Vector.tabulate(ix.length)(t => partOpts(sub.nums(ix(t))))).map { case (d, opts) =>
          val path = new Array[Node](ix.length)
          var node = root
          var t = 0
          while (t < ix.length) {
            node = child(node, sub, po.elems.head, ix(t), opts(t))
            path(t) = node
            t += 1
          }
          Cand(d, Vector.tabulate(path.length)(path(_).step), mirsUsed)(path.map(_.id) ++ insert, ids)
        }
      }
    }

    // Maintenance slots for a non-base MIR (recursively for MIRs its own
    // candidates use). Candidates of the MIR's subquery may themselves use
    // smaller MIRs of the pool with matching induced predicates.
    def ensureMirSlots(id: Int): Unit = {
      if (mirSlotIds(id) != null) return
      mirSlotIds(id) = Array.emptyIntArray
      val m = mirByKey(mirKeys(id))
      val sub = new Sub(new Usable(Subquery.ofMir(m, mirWindow(m.key)),
                                   m.relations.flatMap(r => poolByFirst.getOrElse(r, Vector.empty))))
      mirSlotIds(id) = m.relations.map { start =>
        val sid: SlotId = MirSlot(m.key, start)
        val cs = mkCands(sub, sid)
        slots += sid
        cands += cs
        val s = slots.size - 1
        cs.foreach(_.mirIds.foreach(ensureMirSlots))
        s
      }.toArray
    }

    var next = 0
    for (q <- qs) {
      val sub = new Sub(new Usable(Subquery.ofQuery(q), perQueryMirs(q.name)))
      q.relations.toVector.sorted.foreach { start =>
        val sid: SlotId = QuerySlot(q.name, start)
        val cs = mkCands(sub, sid)
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
      stepReps = stepReps.toArray,
      cardReps = cardReps.toArray,
      stepCosts = null, // filled by the pricing pass
      mirByKey = mirByKey.toMap,
    ).repriced(stats)
  }
}

/** An open-addressing table from non-negative longs to ints, over primitive
  * arrays with linear probing; -1 marks an empty slot.
  */
private final class LongIntTable {
  private var keys = empty(64)
  private var values = new Array[Int](64)
  private var size = 0

  private def empty(n: Int): Array[Long] = {
    val a = new Array[Long](n)
    java.util.Arrays.fill(a, -1L)
    a
  }

  private def slot(k: Long, n: Int): Int = {
    val h = k * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32)).toInt & (n - 1)
  }

  /** The value of `k`, or `v` once stored as the value of `k`. */
  def getOrPut(k: Long, v: Int): Int = {
    var i = slot(k, keys.length)
    while (keys(i) != -1L) {
      if (keys(i) == k) return values(i)
      i = (i + 1) & (keys.length - 1)
    }
    keys(i) = k
    values(i) = v
    size += 1
    if (2 * size > keys.length) grow()
    v
  }

  private def grow(): Unit = {
    val (oldKeys, oldValues) = (keys, values)
    keys = empty(2 * oldKeys.length)
    values = new Array[Int](2 * oldKeys.length)
    var j = 0
    while (j < oldKeys.length) {
      if (oldKeys(j) != -1L) {
        var i = slot(oldKeys(j), keys.length)
        while (keys(i) != -1L) i = (i + 1) & (keys.length - 1)
        keys(i) = oldKeys(j)
        values(i) = oldValues(j)
      }
      j += 1
    }
  }
}
