package repro.ilp

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Exactness of the branch-and-bound solver, cross-validated against
  *  (a) an independent exhaustive enumerator of the selection problem, and
  *  (b) brute-force 0/1 assignment of the explicit Algorithm 2 ILP encoding.
  */
class SolverSpec extends AnyFunSuite {

  /** Independent exhaustive reference (no pruning, no shared code paths). */
  private def bruteForce(p: MqoProblem): Double = {
    def rec(pending: List[SlotId], chosen: List[Cand], active: Set[String]): Double =
      pending match {
        case Nil => chosen.flatMap(Costed(p, _)).toMap.values.sum
        case sid :: rest =>
          p.slotCands(sid).map { c =>
            val newMirs = c.mirsUsed.filterNot(active)
            rec(rest ++ newMirs.flatMap(p.mirSlots(_)), c :: chosen, active ++ newMirs.toSet)
          }.min
      }
    rec(p.querySlots.toList, Nil, Set.empty)
  }

  /** Tiny random environment: `nRels` relations with `nAttrs` attributes. */
  private def randomInstance(nRels: Int, nAttrs: Int, nQ: Int, size: Int, seed: Long)
      : (Vector[Query], Catalog, Stats) = {
    val rng = new java.util.Random(seed)
    val rels = (0 until nRels).map(i => s"E$i").toVector
    val attrs = (0 until nAttrs).map(i => s"a$i").toVector
    val catalog = Catalog(rels.map(r => r -> RelDef(r, attrs, 1 + rng.nextInt(4))).toMap,
                          mirParallelism = 1 + rng.nextInt(4))
    val queries = (0 until nQ).flatMap { qi =>
      var qRels = Vector(rels(rng.nextInt(nRels)))
      var preds = Set.empty[Pred]
      var ok = true
      while (qRels.size < size && ok) {
        val from = qRels(rng.nextInt(qRels.size))
        val remaining = rels.filterNot(qRels.contains)
        if (remaining.isEmpty) ok = false
        else {
          val to = remaining(rng.nextInt(remaining.size))
          preds += Pred(Attr(from, attrs(rng.nextInt(nAttrs))),
                        Attr(to, attrs(rng.nextInt(nAttrs))))
          qRels :+= to
        }
      }
      if (ok) Some(Query(s"q$qi", qRels.toSet, preds)) else None
    }.toVector
    val card = rels.map(r => r -> (10.0 + rng.nextInt(90))).toMap
    (queries, catalog, Stats(card, Map.empty, defaultSel = 0.02 + rng.nextDouble() * 0.1))
  }

  test("B&B matches exhaustive enumeration on 40 random instances") {
    var tested = 0
    for (seed <- 1 to 40) {
      val (qs, cat, st) = randomInstance(
        nRels = 3 + seed % 2, nAttrs = 1 + seed % 2, nQ = 1 + seed % 2,
        size = 2 + seed % 2, seed = seed * 977L)
      if (qs.nonEmpty && qs.map(_.name).distinct.size == qs.size) {
        val p = MqoProblem.build(qs, cat, st)
        val searchSpace = p.slotCands.values.map(_.size.toLong).product
        if (searchSpace <= 200000L) {
          val expected = bruteForce(p)
          val sol = Solver.solve(p)
          assert(sol.optimal, s"seed $seed should be solved exactly")
          assert(math.abs(sol.cost - expected) < 1e-6 * math.max(1.0, expected),
                 s"seed $seed: B&B ${sol.cost} vs brute force $expected")
          tested += 1
        }
      }
    }
    assert(tested >= 20, s"only $tested instances were exercised")
  }

  test("B&B matches ILP brute force on small encodings") {
    var tested = 0
    for (seed <- 1 to 60 if tested < 8) {
      val (qs, cat, st) = randomInstance(3, 1, 1, 2, seed * 31L)
      if (qs.nonEmpty) {
        val p = MqoProblem.build(qs, cat, st)
        val enc = IlpBuilder.encode(p)
        if (enc.ilp.numVars <= 18) {
          val best = enc.ilp.bruteForceMin()
          assert(best.isDefined, s"seed $seed: ILP infeasible?")
          val sol = Solver.solve(p)
          assert(math.abs(best.get._2 - sol.cost) < 1e-6,
                 s"seed $seed: ILP optimum ${best.get._2} vs solver ${sol.cost}")
          tested += 1
        }
      }
    }
    assert(tested >= 3, s"only $tested encodings were small enough")
  }

  test("solution assigns exactly one candidate per query slot") {
    val (qs, cat, st) = randomInstance(4, 2, 2, 3, 4242L)
    val p = MqoProblem.build(qs, cat, st)
    val sol = Solver.solve(p)
    p.querySlots.foreach { sid =>
      assert(sol.choice.contains(sid))
      assert(p.slotCands(sid).indices.contains(sol.choice(sid)))
    }
  }

  test("using an MIR activates its maintenance slots") {
    val (qs, cat, st) = randomInstance(4, 2, 2, 3, 777L)
    val p = MqoProblem.build(qs, cat, st)
    val sol = Solver.solve(p)
    val usedMirs = sol.choice.flatMap { case (sid, i) => p.slotCands(sid)(i).mirsUsed }.toSet
    usedMirs.foreach { mk =>
      p.mirSlots(mk).foreach(msid => assert(sol.choice.contains(msid), s"missing maintenance $msid"))
    }
  }

  test("selected solution's steps match the reported cost") {
    val (qs, cat, st) = randomInstance(4, 2, 2, 3, 999L)
    val p = MqoProblem.build(qs, cat, st)
    val sol = Solver.solve(p)
    val cost = sol.choice.toVector
      .flatMap { case (sid, i) => Costed(p, p.slotCands(sid)(i)) }
      .toMap.values.sum
    assert(math.abs(cost - sol.cost) < 1e-9)
  }

  test("tight node budget still returns a feasible (greedy) solution") {
    val (qs, cat, st) = randomInstance(5, 2, 3, 3, 123L)
    val p = MqoProblem.build(qs, cat, st)
    val sol = Solver.solve(p, nodeBudget = 1L)
    assert(!sol.optimal)
    p.querySlots.foreach(sid => assert(sol.choice.contains(sid)))
    val exact = Solver.solve(p)
    assert(sol.cost >= exact.cost - 1e-9)
  }

  test("greedy incumbent never beats the exact optimum") {
    for (seed <- 1 to 10) {
      val (qs, cat, st) = randomInstance(4, 2, 2, 3, seed * 555L)
      val p = MqoProblem.build(qs, cat, st)
      val greedy = Solver.solve(p, nodeBudget = 1L)
      val exact = Solver.solve(p)
      assert(greedy.cost >= exact.cost - 1e-9, s"seed $seed")
    }
  }
}
