package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Equation 1 and the multi-query optimization example of Section V.2:
  * q1 = R(a), S(a,b), T(b) and q2 = S(b), T(b,c), U(c), each relation at 100
  * tuples per time unit, |S⋈T| = 150 and the other joins 100. The paper's
  * numbers: first steps cost 100, S⋈T steps 75, other joins 50; individually
  * optimized queries send 475 tuples each (950 total); the global optimum
  * shares ⟨S,T⟩ and ⟨T,S⟩ prefixes and saves 150.
  */
class CostModelSpec extends AnyFunSuite {

  private val q1 = Query("q1", Set("R", "S", "T"),
                         Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "b", "T", "b")))
  private val q2 = Query("q2", Set("S", "T", "U"),
                         Set(Pred.of("S", "b", "T", "b"), Pred.of("T", "c", "U", "c")))
  // parallelism 1 -> χ = 1 everywhere ("ignore additional cost for broadcasting")
  private val catalog = Catalog(
    Map("R" -> RelDef("R", Vector("a"), 1), "S" -> RelDef("S", Vector("a", "b"), 1),
        "T" -> RelDef("T", Vector("b", "c"), 1), "U" -> RelDef("U", Vector("c"), 1)),
    mirParallelism = 1)
  private val stats = Stats(
    Map("R" -> 100.0, "S" -> 100.0, "T" -> 100.0, "U" -> 100.0),
    Map(Pred.of("R", "a", "S", "a") -> 0.01,
        Pred.of("S", "b", "T", "b") -> 0.015,
        Pred.of("T", "c", "U", "c") -> 0.01))

  private def order(q: Query, rels: String*): Decorated = {
    val sub = Subquery.ofQuery(q)
    val po = ProbeOrder(sub, rels.head, rels.toVector.map(Mir.base))
    Decorate(po, Vector(q1, q2)).head
  }

  test("first step costs the arrival rate") {
    val d = order(q1, "S", "R", "T")
    assert(CostModel.stepCost(d.steps(0), stats, catalog) === 100.0)
  }

  test("S⋈R step costs 50 (|S⋈R| = 100, fraction 1/2)") {
    val d = order(q1, "S", "R", "T")
    assert(CostModel.stepCost(d.steps(1), stats, catalog) === 50.0)
  }

  test("S⋈T step costs 75 (|S⋈T| = 150, fraction 1/2)") {
    val d = order(q1, "S", "T", "R")
    assert(CostModel.stepCost(d.steps(1), stats, catalog) === 75.0)
  }

  test("paper order costs: <S,R,T> = 150, <S,T,R> = 175") {
    def orderCost(d: Decorated) = d.steps.map(CostModel.stepCost(_, stats, catalog)).sum
    assert(orderCost(order(q1, "S", "R", "T")) === 150.0)
    assert(orderCost(order(q1, "S", "T", "R")) === 175.0)
  }

  test("three-step order: fraction is 1/#covered relations") {
    val q = Query("q4", Set("R", "S", "T", "U"),
                  Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "b", "T", "b"),
                      Pred.of("T", "c", "U", "c")))
    val sub = Subquery.ofQuery(q)
    val po = ProbeOrder(sub, "R", Vector("R", "S", "T", "U").map(Mir.base))
    val d = Decorate(po, Vector(q)).head
    // |R⋈S⋈T| = 100³ * 0.01 * 0.015 = 150; step 3 sends 150/3 = 50
    assert(CostModel.stepCost(d.steps(2), stats, catalog) === 50.0)
  }

  test("broadcast multiplies by the target parallelism") {
    val cat5 = Catalog(catalog.rels.map { case (k, v) => k -> v.copy(parallelism = 5) }, 5)
    val ds = {
      val sub = Subquery.ofQuery(q1)
      val po = ProbeOrder(sub, "R", Vector("R", "S", "T").map(Mir.base))
      Decorate(po, Vector(q1, q2))
    }
    // S partitioned by S.a: R.a routes it (χ=1); by S.b: broadcast (χ=5)
    val routed = ds.find(_.parts(0).contains(Attr("S", "a"))).get
    val bcast = ds.find(_.parts(0).contains(Attr("S", "b"))).get
    assert(CostModel.stepCost(routed.steps(0), stats, cat5) === 100.0)
    assert(CostModel.stepCost(bcast.steps(0), stats, cat5) === 500.0)
  }

  test("individually optimized q1 sends 475 tuples") {
    val pl = Planner.individual(Seq(q1), catalog, stats).head
    assert(math.abs(pl.solution.cost - 475.0) < 1e-6)
  }

  test("individually optimized q2 sends 475 tuples") {
    val pl = Planner.individual(Seq(q2), catalog, stats).head
    assert(math.abs(pl.solution.cost - 475.0) < 1e-6)
  }

  test("independent total is 950; global MQO optimum is 800") {
    val indep = Planner.individual(Seq(q1, q2), catalog, stats)
    assert(math.abs(indep.map(_.solution.cost).sum - 950.0) < 1e-6)
    val mqo = Planner.mqo(Seq(q1, q2), catalog, stats)
    assert(mqo.solution.optimal)
    assert(math.abs(mqo.solution.cost - 800.0) < 1e-6)
  }

  test("MQO picks the locally suboptimal <S,T,R> for q1 (shared with q2)") {
    val mqo = Planner.mqo(Seq(q1, q2), catalog, stats)
    val sel = mqo.selection
    val q1FromS = sel.orders.collectFirst {
      case (QuerySlot("q1", "S"), c) => c.d.po.elems.map(_.label)
    }.get
    assert(q1FromS == Vector("S", "T", "R"))
    val q2FromT = sel.orders.collectFirst {
      case (QuerySlot("q2", "T"), c) => c.d.po.elems.map(_.label)
    }.get
    assert(q2FromT == Vector("T", "S", "U"))
  }

  test("selection cost accounting: shared vs unshared") {
    val mqo = Planner.mqo(Seq(q1, q2), catalog, stats)
    val sel = mqo.selection
    val sharedCost = sel.orders.flatMap(o => Costed(mqo.problem, o._2)).toMap.values.sum
    assert(math.abs(sharedCost - 800.0) < 1e-6)
    val unshared = sel.orders.flatMap(o => Costed(mqo.problem, o._2).map(_._2)).sum
    assert(unshared > sharedCost) // S→T / T→S counted twice unshared
  }

  test("maintenance insert step is costed at |subresult| / #relations") {
    val p = MqoProblem.build(Seq(q1), catalog, stats)
    val st = Mir.of(q1, Set("S", "T")).key
    val cands = p.slotCands(MirSlot(st, "S"))
    val insert = Costed(p, cands.head).last
    assert(insert._1 == CostModel.insertKey(st, "S"))
    assert(insert._2 === 150.0 / 2) // |S⋈T| = 150, start-latest fraction 1/2
  }
}
