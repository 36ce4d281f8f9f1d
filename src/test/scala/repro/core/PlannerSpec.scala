package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{TestData}
import repro.data.{Artificial, Fig9Env}
import repro.sim.{EventSim, SimParams}

/** The three planning strategies (Independent / Shared / CMQO) must all be
  * correct — identical results on the same input — and ordered in cost.
  */
class PlannerSpec extends AnyFunSuite {

  // two overlapping queries over the artificial relations
  private val q1 = Query("q1", Set("R", "S", "T"),
                         Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "b", "T", "b")), 5.0)
  private val q2 = Query("q2", Set("S", "T", "U"),
                         Set(Pred.of("S", "b", "T", "b"), Pred.of("T", "c", "U", "c")), 5.0)
  private val catalog = Artificial.catalog(parallelism = 2)
  private val stats = Stats(
    Map("R" -> 50.0, "S" -> 50.0, "T" -> 50.0, "U" -> 50.0),
    Map(Pred.of("R", "a", "S", "a") -> 0.02,
        Pred.of("S", "b", "T", "b") -> 0.03,
        Pred.of("T", "c", "U", "c") -> 0.02))
  private val input = Artificial.tiny(30)
  private val det = SimParams(deterministic = true)

  private def simulate(sel: Selection, rels: Set[String]) = {
    val sim = new EventSim(catalog, det, recordResults = true)
    sim.installConfig(0L, Topology.build(sel, catalog))
    sim.run(input.filter(t => rels(t.rel)))
  }

  test("shared selection contains both queries' orders with deduped slots") {
    val shared = Planner.sharedFromIndividual(Planner.individual(Seq(q1, q2), catalog, stats))
    val slotKeys = shared.orders.map(_._1.key)
    assert(slotKeys.distinct.size == slotKeys.size)
    assert(shared.orders.exists(_._1 == QuerySlot("q1", "R")))
    assert(shared.orders.exists(_._1 == QuerySlot("q2", "U")))
  }

  test("CMQO shared cost <= Shared cost <= Independent total") {
    val indep = Planner.individual(Seq(q1, q2), catalog, stats)
    val indepTotal = indep.map(_.solution.cost).sum
    val shared = Planner.sharedFromIndividual(indep)
    // each order is priced in the problem it came from
    def problemOf(c: Cand) = indep.map(_.problem).find(_.cands.exists(_.exists(_ eq c))).get
    val sharedCost = shared.orders.flatMap(o => Costed(problemOf(o._2), o._2)).toMap.values.sum
    val mqo = Planner.mqo(Seq(q1, q2), catalog, stats)
    assert(sharedCost <= indepTotal + 1e-9)
    assert(mqo.solution.cost <= sharedCost + 1e-9)
  }

  test("all strategies produce identical results per query") {
    val expected1 = TestData.naiveJoin(q1, input)
    val expected2 = TestData.naiveJoin(q2, input)
    assert(expected1.nonEmpty && expected2.nonEmpty)

    def keysOf(m: repro.sim.Metrics, q: Query) =
      m.results.collect { case (qn, t) if qn == q.name => TestData.simResultKey(q.relations, t) }.toSet

    // Independent: one deployment per query
    val indep = Planner.individual(Seq(q1, q2), catalog, stats)
    val m1 = simulate(indep(0).selection, q1.relations)
    val m2 = simulate(indep(1).selection, q2.relations)
    assert(keysOf(m1, q1) == expected1)
    assert(keysOf(m2, q2) == expected2)

    // Shared
    val ms = simulate(Planner.sharedFromIndividual(indep), Set("R", "S", "T", "U"))
    assert(keysOf(ms, q1) == expected1)
    assert(keysOf(ms, q2) == expected2)

    // CMQO
    val mg = simulate(Planner.mqo(Seq(q1, q2), catalog, stats).selection, Set("R", "S", "T", "U"))
    assert(keysOf(mg, q1) == expected1)
    assert(keysOf(mg, q2) == expected2)
  }

  test("shared deployment stores base relations once — less memory than independent") {
    val indep = Planner.individual(Seq(q1, q2), catalog, stats)
    val m1 = simulate(indep(0).selection, q1.relations)
    val m2 = simulate(indep(1).selection, q2.relations)
    val ms = simulate(Planner.sharedFromIndividual(indep), Set("R", "S", "T", "U"))
    assert(ms.peakStored < m1.peakStored + m2.peakStored)
  }

  test("individual planning uses only the query's own partitioning candidates") {
    val alone = Planner.individual(Seq(q1), catalog, stats).head
    val parts = alone.problem.slotCands.values.flatten
      .flatMap(_.d.parts.flatten)
      .toSet
    // q2's attributes (T.c, U.c) must not appear as partitionings for q1 alone
    assert(!parts.contains(Attr("T", "c")))
    assert(!parts.contains(Attr("U", "c")))
  }

  test("global planning offers foreign partitionings (fig 3: T[d] for q1)") {
    val global = Planner.mqo(Seq(q1, q2), catalog, stats)
    val q1Parts = global.problem.slotCands.collect {
      case (QuerySlot("q1", _), cs) => cs.flatMap(_.d.parts.flatten)
    }.flatten.toSet
    assert(q1Parts.contains(Attr("T", "c"))) // q2's join attribute offered to q1
  }

  test("re-costing a plan under its own statistics reproduces the solver's cost") {
    // re-costing prices the plan's steps by its problem's step table, as the
    // adaptive hysteresis re-prices the installed plan
    val window = 5.0
    val card = 200.0 * window
    val fig8b = (Vector(Artificial.query(window)), Artificial.catalog(), Stats(
      Map("R" -> 2000.0 * window, "S" -> card, "T" -> card, "U" -> card),
      Map(Pred.of("R", "a", "S", "a") -> 1.0 / card,
          Pred.of("S", "b", "T", "b") -> 1.0 / card,
          Pred.of("T", "c", "U", "c") -> 25.0 / card)))
    // Fig 9 queries with selective joins: small intermediate results, so the
    // plans maintain MIRs
    val selective = Stats((0 until 10).map(Fig9Env.relName(_) -> 100.0).toMap, Map.empty, defaultSel = 0.001)
    val fig9 = Seq((5, 2L), (5, 4L), (10, 2L)).map { case (nQ, seed) =>
      (Fig9Env.randomQueries(10, nQ, 4, seed), Fig9Env.catalog(10), selective)
    }
    for ((queries, cat, st) <- fig8b +: fig9) {
      val planned = Planner.mqo(queries, cat, st)
      assert(planned.selection.orders.exists(_._1.isInstanceOf[MirSlot]))
      val cost = planned.solution.cost
      val priced = planned.solution.steps.iterator.map(planned.problem.stepCost).sum
      assert(math.abs(priced - cost) <= 1e-9 * cost)
      planned.problem.slotCands.foreach {
        case (MirSlot(mk, start), cands) =>
          cands.foreach(c => assert(planned.problem.stepKey(c.stepIds.last) == CostModel.insertKey(mk, start)))
        case _ =>
      }
    }
  }
}
