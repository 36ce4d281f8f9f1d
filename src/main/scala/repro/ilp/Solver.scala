package repro.ilp

import repro.core._
import scala.collection.mutable

/** Exact branch-and-bound solver for the MQO selection problem.
  *
  * The ILP of Algorithm 2 has a pure selection structure: pick exactly one
  * candidate per active slot; a candidate activates the maintenance slots of
  * the MIRs it uses; the objective is the cost of the union of selected
  * steps. The solver searches that structure directly:
  *
  *  - greedy passes (cheapest candidate per slot, from four query-slot
  *    orders) seed the incumbent; coordinate descent improves it;
  *  - depth-first branch and bound, candidates ordered by marginal cost
  *    against the currently selected steps plus a rough estimate of the
  *    maintenance cost of the MIRs they would activate;
  *  - step costs are monotone (a step never gets cheaper by selecting more),
  *    so `currentCost >= incumbent` prunes safely;
  *  - an optional node budget makes the solver anytime: when exhausted the
  *    incumbent is returned with `optimal = false` (like a MIP gap).
  *
  * The search runs on an int-indexed form of the problem ([[Space]]), built
  * once per call. `MqoProblem.build` already interned the steps: each
  * candidate carries arrays of its step ids and costs (in `costed` order),
  * which `Space` uses as they are, and the problem's `stepKeys` maps ids back
  * to keys. `Space` numbers only the slots and MIRs, and gives each candidate
  * an array of MIR ids (in `mirsUsed` order). The search state is arrays
  * too: step reference counts, active MIRs, the current choice and a memo of
  * maintenance estimates. Only the returned [[Solution]] is built from maps.
  *
  * The compiled search is the same search, floating-point operation for
  * operation: candidates are ordered by `java.lang.Double.compare` on their
  * score with ties broken by candidate index (what a stable `sortBy` gives);
  * sums run left to right starting from their first term (what `Seq.sum`
  * does on a non-empty sequence); the running cost is updated by the same
  * `+=`/`-=` sequence across the greedy, descent and B&B phases; and nodes
  * are counted as before. So the choice, steps, cost bits, optimality flag
  * and node count of every solve are those of a search over the problem's
  * own maps.
  *
  * Validated against brute-force enumeration of the selection problem and
  * against brute-force minimization of the Algorithm 2 encoding (see tests).
  */
object Solver {

  final case class Solution(
      choice: Map[SlotId, Int],
      steps: Set[StepKey],
      cost: Double,
      optimal: Boolean,
      nodes: Long,
  ) {
    /** The selected candidates, resolved against the problem. */
    def selected(p: MqoProblem): Vector[(SlotId, Cand)] =
      choice.toVector.sortBy(_._1.key).map { case (sid, i) => sid -> p.slotCands(sid)(i) }
  }

  private val Eps = 1e-9

  /** Solve for all queries of the problem. */
  def solve(p: MqoProblem, nodeBudget: Long = 500000L): Solution = {
    require(p.querySlots.forall(s => p.slotCands(s).nonEmpty), "empty query slot")
    new Search(Space(p), nodeBudget).run()
  }

  /** The problem indexed by ints. Slots are numbered query slots first (in
    * `querySlots` order), then maintenance slots as the MIRs are reached.
    * Candidates are numbered globally; slot `s` owns the candidates
    * `first(s) until first(s) + count(s)`, in `slotCands` order, so a local
    * candidate index is a global id minus `first(s)`. Step ids and costs are
    * the candidates' own (`Cand.stepIds`, `Cand.stepCosts`).
    */
  private final class Space(
      val slots: Array[SlotId],
      val numQuerySlots: Int,
      val first: Array[Int],
      val count: Array[Int],
      val candSteps: Array[Array[Int]],   // step ids, in `costed` order
      val candCosts: Array[Array[Double]], // their costs, in `costed` order
      val candCost: Array[Double],        // `Cand.cost`
      val candMirs: Array[Array[Int]],    // MIR ids, in `mirsUsed` order
      val mirSlots: Array[Array[Int]],
      val stepKeys: Array[StepKey],
  ) {
    def numSlots: Int = slots.length
    def numCands: Int = candCost.length
    def numMirs: Int = mirSlots.length
    /** Slots ordered by `SlotId.key`. */
    val byKey: Array[Int] = slots.indices.sortBy(slots(_).key).toArray
  }

  private object Space {
    def apply(p: MqoProblem): Space = {
      val slots = mutable.ArrayBuffer[SlotId](p.querySlots: _*)
      val mirIds = mutable.HashMap[String, Int]()
      val mirSlots = mutable.ArrayBuffer[Array[Int]]()
      val first, count = mutable.ArrayBuilder.make[Int]
      val candSteps = mutable.ArrayBuilder.make[Array[Int]]
      val candCosts = mutable.ArrayBuilder.make[Array[Double]]
      val candCost = mutable.ArrayBuilder.make[Double]
      val candMirs = mutable.ArrayBuilder.make[Array[Int]]

      def mirId(mk: String): Int = mirIds.getOrElse(mk, {
        val id = mirSlots.size
        mirIds(mk) = id
        val ss = p.mirSlots(mk)
        mirSlots += Array.tabulate(ss.size)(j => slots.size + j)
        slots ++= ss
        id
      })

      var s = 0
      var nCands = 0
      while (s < slots.size) { // grows as MIRs are reached
        val cands = p.slotCands(slots(s))
        first += nCands
        count += cands.size
        cands.foreach { c =>
          candSteps += c.stepIds
          candCosts += c.stepCosts
          candCost += c.cost
          candMirs += c.mirsUsed.map(mirId).toArray
        }
        nCands += cands.size
        s += 1
      }
      new Space(slots.toArray, p.querySlots.size, first.result(), count.result(), candSteps.result(),
                candCosts.result(), candCost.result(), candMirs.result(),
                mirSlots.toArray, p.stepKeys)
    }
  }

  /** Depth-first search state over a [[Space]]. */
  private final class Search(sp: Space, nodeBudget: Long) {
    private val stepRef = new Array[Int](sp.stepKeys.length)
    private var curCost = 0.0
    private val choice = Array.fill(sp.numSlots)(-1) // local candidate index, -1 when unassigned
    private var nodes = 0L
    private var exhausted = true
    private var bestCost = Double.PositiveInfinity
    private var bestChoice: Array[Int] = null

    // Pending slots: a path's pending list is `pending(head until tail)`;
    // a node appends the slots of the MIRs it activates at `tail`.
    private val pending = new Array[Int](sp.numSlots)
    private val active = new Array[Boolean](sp.numMirs)
    private val activated = new Array[Int](sp.numMirs) // stack of MIRs to deactivate on backtrack
    private var numActivated = 0

    // Candidate orders of the nodes on the current path, stacked.
    private val order = new Array[Int](sp.numCands)
    private var orderTop = 0
    private val score = new Array[Double](if (sp.count.isEmpty) 0 else sp.count.max)

    private def add(c: Int): Unit = {
      val ks = sp.candSteps(c)
      val cs = sp.candCosts(c)
      var j = 0
      while (j < ks.length) {
        val r = stepRef(ks(j))
        if (r == 0) curCost += cs(j)
        stepRef(ks(j)) = r + 1
        j += 1
      }
    }

    private def remove(c: Int): Unit = {
      val ks = sp.candSteps(c)
      val cs = sp.candCosts(c)
      var j = 0
      while (j < ks.length) {
        val r = stepRef(ks(j)) - 1
        if (r == 0) curCost -= cs(j)
        stepRef(ks(j)) = r
        j += 1
      }
    }

    private def marginal(c: Int): Double = {
      val ks = sp.candSteps(c)
      val cs = sp.candCosts(c)
      if (ks.isEmpty) return 0.0
      var sum = if (stepRef(ks(0)) > 0) 0.0 else cs(0)
      var j = 1
      while (j < ks.length) {
        sum += (if (stepRef(ks(j)) > 0) 0.0 else cs(j))
        j += 1
      }
      sum
    }

    // Rough (non-admissible, ordering-only) estimate of what activating an
    // MIR adds in maintenance cost: per maintenance slot, the cheapest
    // candidate plus the estimates of the MIRs it uses.
    private val maintEst = new Array[Double](sp.numMirs)
    private val maintKnown = new Array[Boolean](sp.numMirs)

    private def maintenanceEstimate(m: Int): Double = {
      if (maintKnown(m)) return maintEst(m)
      maintKnown(m) = true // break recursion on (impossible) cycles
      val ss = sp.mirSlots(m)
      var est = 0.0
      var j = 0
      while (j < ss.length) {
        val s = ss(j)
        var slotEst = 0.0
        var k = 0
        while (k < sp.count(s)) {
          val c = sp.first(s) + k
          val v = sp.candCost(c) + sumEstimates(c, skipActive = false)
          if (k == 0 || java.lang.Double.compare(slotEst, v) > 0) slotEst = v
          k += 1
        }
        est = if (j == 0) slotEst else est + slotEst
        j += 1
      }
      maintEst(m) = est
      est
    }

    /** Sum of the maintenance estimates of candidate `c`'s MIRs (only the
      * inactive ones when `skipActive`).
      */
    private def sumEstimates(c: Int, skipActive: Boolean): Double = {
      val ms = sp.candMirs(c)
      var sum = 0.0
      var any = false
      var j = 0
      while (j < ms.length) {
        if (!(skipActive && active(ms(j)))) {
          val e = maintenanceEstimate(ms(j))
          sum = if (any) sum + e else e
          any = true
        }
        j += 1
      }
      sum
    }

    private def orderingScore(c: Int): Double = marginal(c) + sumEstimates(c, skipActive = true)

    private def record(): Unit =
      if (curCost < bestCost - Eps) {
        bestCost = curCost
        bestChoice = choice.clone()
      }

    /** Order slot `s`'s candidates by score, ties by index, into
      * `order(base until base + n)` (stable insertion sort).
      */
    private def sortCandidates(s: Int, base: Int): Unit = {
      val f = sp.first(s)
      var k = 0
      while (k < sp.count(s)) {
        val sc = orderingScore(f + k)
        score(k) = sc
        var j = base + k
        while (j > base && java.lang.Double.compare(score(order(j - 1)), sc) > 0) {
          order(j) = order(j - 1)
          j -= 1
        }
        order(j) = k
        k += 1
      }
    }

    private def rec(head: Int, tail: Int, greedyOnly: Boolean): Unit = {
      if (!greedyOnly && nodes > nodeBudget) { exhausted = false; return }
      if (head == tail) { record(); return }
      val s = pending(head)
      val n = sp.count(s)
      val base = orderTop
      sortCandidates(s, base)
      orderTop += n
      val toTry = if (greedyOnly) math.min(n, 1) else n
      var t = 0
      while (t < toTry) {
        val i = order(base + t)
        val c = sp.first(s) + i
        nodes += 1
        if (!greedyOnly && nodes > nodeBudget) { exhausted = false; t = toTry }
        else {
          add(c)
          if (curCost < bestCost - Eps) {
            val mark = numActivated
            var newTail = tail
            val ms = sp.candMirs(c)
            var j = 0
            while (j < ms.length) {
              val m = ms(j)
              if (!active(m)) {
                active(m) = true
                activated(numActivated) = m
                numActivated += 1
                val ss = sp.mirSlots(m)
                System.arraycopy(ss, 0, pending, newTail, ss.length)
                newTail += ss.length
              }
              j += 1
            }
            choice(s) = i
            rec(head + 1, newTail, greedyOnly)
            choice(s) = -1
            while (numActivated > mark) { numActivated -= 1; active(activated(numActivated)) = false }
          }
          remove(c)
          t += 1
        }
      }
      orderTop = base
    }

    private def solveFrom(slotOrder: Iterable[Int], greedyOnly: Boolean): Unit = {
      var tail = 0
      slotOrder.foreach { s => pending(tail) = s; tail += 1 }
      rec(0, tail, greedyOnly)
    }

    // Coordinate descent on the incumbent: re-pick each slot's candidate to
    // the cheapest marginal, restricted to moves that keep the candidate's
    // MIR usage (so the active slot set stays valid). Captures cross-query
    // sharing far better than a single greedy pass.
    private def descend(): Unit = {
      if (!bestCost.isFinite) return
      val assign = bestChoice.clone()
      val assigned = sp.byKey.filter(assign(_) >= 0)
      assigned.foreach(s => add(sp.first(s) + assign(s)))
      var sweeps = 0
      var improvedAny = true
      while (improvedAny && sweeps < 25) {
        improvedAny = false
        sweeps += 1
        assigned.foreach { s =>
          val f = sp.first(s)
          val curIdx = assign(s)
          val cur = f + curIdx
          remove(cur)
          var bestIdx = curIdx
          var bestMarg = marginal(cur)
          var i = 0
          while (i < sp.count(s)) {
            // equal MIR id arrays iff equal `mirsUsed`
            if (i != curIdx && java.util.Arrays.equals(sp.candMirs(f + i), sp.candMirs(cur))) {
              val mg = marginal(f + i)
              if (mg < bestMarg - Eps) { bestMarg = mg; bestIdx = i }
            }
            i += 1
          }
          add(f + bestIdx)
          if (bestIdx != curIdx) { assign(s) = bestIdx; improvedAny = true }
        }
      }
      if (curCost < bestCost - Eps) {
        bestCost = curCost
        bestChoice = assign
      }
      assigned.foreach(s => remove(sp.first(s) + assign(s)))
    }

    def run(): Solution = {
      // Multi-start greedy incumbents (cheap), improved by coordinate descent,
      // then exact branch-and-bound within the node budget.
      val roots = Vector.range(0, sp.numQuerySlots)
      val shuffles = Vector(roots, roots.reverse) ++
        Seq(7L, 23L).map(seed => new scala.util.Random(seed).shuffle(roots))
      shuffles.foreach(o => solveFrom(o, greedyOnly = true))
      descend()
      solveFrom(roots, greedyOnly = false)

      require(bestCost.isFinite, "no feasible selection found")
      val chosen = bestChoice.indices.filter(bestChoice(_) >= 0)
      Solution(
        choice = chosen.map(s => sp.slots(s) -> bestChoice(s)).toMap,
        steps = chosen.flatMap(s => sp.candSteps(sp.first(s) + bestChoice(s))).map(sp.stepKeys).toSet,
        cost = bestCost,
        optimal = exhausted,
        nodes = nodes,
      )
    }
  }
}
