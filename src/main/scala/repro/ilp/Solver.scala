package repro.ilp

import repro.core._

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
  * The search runs on the problem's own ids: slots, MIRs and steps are
  * numbered by `MqoProblem.build`, each candidate carries arrays of its step
  * ids and of its MIR ids, and a step's cost is read from the problem's one
  * table, `stepCosts`. The search state is arrays indexed by those ids: step
  * reference counts, active MIRs, the current choice and a memo of
  * maintenance estimates. Only the returned [[Solution]] is built from maps.
  *
  * Candidates are ordered by `java.lang.Double.compare` on their score, ties
  * broken by candidate index (a stable sort); sums run left to right from
  * their first term (as `Seq.sum` does); and the running cost sees one
  * `+=`/`-=` sequence across the greedy, descent and B&B phases. No decision
  * depends on how build numbered the slots and MIRs: the roots are the query
  * slots in order, an activated MIR's slots are pending in `Mir.relations`
  * order, descent walks slots in `SlotId.key` order, and MIR ids only index
  * arrays.
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
    require((0 until p.numQuerySlots).forall(p.cands(_).nonEmpty), "empty query slot")
    new Search(p, nodeBudget).run()
  }

  /** Depth-first search state over the numbered problem. */
  private final class Search(p: MqoProblem, nodeBudget: Long) {
    private val stepRef = new Array[Int](p.stepCosts.length)
    private var curCost = 0.0
    private val choice = Array.fill(p.slots.length)(-1) // candidate index, -1 when unassigned
    private var nodes = 0L
    private var exhausted = true
    private var bestCost = Double.PositiveInfinity
    private var bestChoice: Array[Int] = null

    // Pending slots: a path's pending list is `pending(head until tail)`;
    // a node appends the slots of the MIRs it activates at `tail`.
    private val pending = new Array[Int](p.slots.length)
    private val active = new Array[Boolean](p.mirKeys.length)
    private val activated = new Array[Int](p.mirKeys.length) // stack of MIRs to deactivate on backtrack
    private var numActivated = 0

    // Candidate orders of the nodes on the current path, stacked.
    private val order = new Array[Int](p.numXVars)
    private var orderTop = 0
    private val score = new Array[Double](if (p.cands.isEmpty) 0 else p.cands.iterator.map(_.size).max)

    private def add(c: Cand): Unit = {
      val ks = c.stepIds
      var j = 0
      while (j < ks.length) {
        val r = stepRef(ks(j))
        if (r == 0) curCost += p.stepCosts(ks(j))
        stepRef(ks(j)) = r + 1
        j += 1
      }
    }

    private def remove(c: Cand): Unit = {
      val ks = c.stepIds
      var j = 0
      while (j < ks.length) {
        val r = stepRef(ks(j)) - 1
        if (r == 0) curCost -= p.stepCosts(ks(j))
        stepRef(ks(j)) = r
        j += 1
      }
    }

    private def marginal(c: Cand): Double = {
      val ks = c.stepIds
      if (ks.isEmpty) return 0.0
      var sum = if (stepRef(ks(0)) > 0) 0.0 else p.stepCosts(ks(0))
      var j = 1
      while (j < ks.length) {
        sum += (if (stepRef(ks(j)) > 0) 0.0 else p.stepCosts(ks(j)))
        j += 1
      }
      sum
    }

    // Rough (non-admissible, ordering-only) estimate of what activating an
    // MIR adds in maintenance cost: per maintenance slot, the cheapest
    // candidate plus the estimates of the MIRs it uses.
    private val maintEst = new Array[Double](p.mirKeys.length)
    private val maintKnown = new Array[Boolean](p.mirKeys.length)

    private def maintenanceEstimate(m: Int): Double = {
      if (maintKnown(m)) return maintEst(m)
      maintKnown(m) = true // break recursion on (impossible) cycles
      val ss = p.mirSlotIds(m)
      var est = 0.0
      var j = 0
      while (j < ss.length) {
        val cs = p.cands(ss(j))
        var slotEst = 0.0
        var k = 0
        while (k < cs.size) {
          val v = p.cost(cs(k).stepIds) + sumEstimates(cs(k), skipActive = false)
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
    private def sumEstimates(c: Cand, skipActive: Boolean): Double = {
      val ms = c.mirIds
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

    private def orderingScore(c: Cand): Double = marginal(c) + sumEstimates(c, skipActive = true)

    private def record(): Unit =
      if (curCost < bestCost - Eps) {
        bestCost = curCost
        bestChoice = choice.clone()
      }

    /** Order the candidates `cs` by score, ties by index, into
      * `order(base until base + cs.size)` (stable insertion sort).
      */
    private def sortCandidates(cs: Vector[Cand], base: Int): Unit = {
      var k = 0
      while (k < cs.size) {
        val sc = orderingScore(cs(k))
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
      val cs = p.cands(s)
      val n = cs.size
      val base = orderTop
      sortCandidates(cs, base)
      orderTop += n
      val toTry = if (greedyOnly) math.min(n, 1) else n
      var t = 0
      while (t < toTry) {
        val i = order(base + t)
        val c = cs(i)
        nodes += 1
        if (!greedyOnly && nodes > nodeBudget) { exhausted = false; t = toTry }
        else {
          add(c)
          if (curCost < bestCost - Eps) {
            val mark = numActivated
            var newTail = tail
            val ms = c.mirIds
            var j = 0
            while (j < ms.length) {
              val m = ms(j)
              if (!active(m)) {
                active(m) = true
                activated(numActivated) = m
                numActivated += 1
                val ss = p.mirSlotIds(m)
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
    // sharing far better than a single greedy pass. Slots are walked in
    // `SlotId.key` order.
    private def descend(): Unit = {
      if (!bestCost.isFinite) return
      val assign = bestChoice.clone()
      val assigned = assign.indices.filter(assign(_) >= 0).sortBy(p.slots(_).key)
      assigned.foreach(s => add(p.cands(s)(assign(s))))
      var sweeps = 0
      var improvedAny = true
      while (improvedAny && sweeps < 25) {
        improvedAny = false
        sweeps += 1
        assigned.foreach { s =>
          val cs = p.cands(s)
          val curIdx = assign(s)
          val cur = cs(curIdx)
          remove(cur)
          var bestIdx = curIdx
          var bestMarg = marginal(cur)
          var i = 0
          while (i < cs.size) {
            // equal MIR id arrays iff equal `mirsUsed`
            if (i != curIdx && java.util.Arrays.equals(cs(i).mirIds, cur.mirIds)) {
              val mg = marginal(cs(i))
              if (mg < bestMarg - Eps) { bestMarg = mg; bestIdx = i }
            }
            i += 1
          }
          add(cs(bestIdx))
          if (bestIdx != curIdx) { assign(s) = bestIdx; improvedAny = true }
        }
      }
      if (curCost < bestCost - Eps) {
        bestCost = curCost
        bestChoice = assign
      }
      assigned.foreach(s => remove(p.cands(s)(assign(s))))
    }

    def run(): Solution = {
      // Multi-start greedy incumbents (cheap), improved by coordinate descent,
      // then exact branch-and-bound within the node budget.
      val roots = Vector.range(0, p.numQuerySlots)
      val shuffles = Vector(roots, roots.reverse) ++
        Seq(7L, 23L).map(seed => new scala.util.Random(seed).shuffle(roots))
      shuffles.foreach(o => solveFrom(o, greedyOnly = true))
      descend()
      solveFrom(roots, greedyOnly = false)

      require(bestCost.isFinite, "no feasible selection found")
      val chosen = bestChoice.indices.filter(bestChoice(_) >= 0)
      Solution(
        choice = chosen.map(s => p.slots(s) -> bestChoice(s)).toMap,
        steps = chosen.flatMap(s => p.cands(s)(bestChoice(s)).stepIds).map(p.stepKey).toSet,
        cost = bestCost,
        optimal = exhausted,
        nodes = nodes,
      )
    }
  }
}
