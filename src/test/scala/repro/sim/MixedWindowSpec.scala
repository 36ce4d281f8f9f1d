package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core._
import repro.data.Artificial

/** Queries with different windows deployed together: each query's results
  * must respect its own window, while shared stores retain the max window.
  */
class MixedWindowSpec extends AnyFunSuite {

  private val catalog = Artificial.catalog(parallelism = 2)
  private val qNarrow = Query("narrow", Set("R", "S", "T"),
    Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "b", "T", "b")), window = 1.0)
  private val qWide = Query("wide", Set("S", "T", "U"),
    Set(Pred.of("S", "b", "T", "b"), Pred.of("T", "c", "U", "c")), window = 6.0)
  private val stats = Stats(
    Map("R" -> 50.0, "S" -> 50.0, "T" -> 50.0, "U" -> 50.0),
    Map.empty, defaultSel = 0.02)

  private def run(sel: Selection): Metrics = {
    val sim = new EventSim(catalog, SimParams(deterministic = true), recordResults = true)
    sim.installConfig(0L, Topology.build(sel, catalog))
    sim.run(Artificial.tiny(40))
  }

  test("each query's results respect its own window") {
    val input = Artificial.tiny(40)
    val m = run(Planner.mqo(Seq(qNarrow, qWide), catalog, stats).selection)
    def keys(q: Query) = m.results.collect {
      case (qn, t) if qn == q.name => TestData.simResultKey(q.relations, t)
    }.toSet
    assert(keys(qNarrow) == TestData.naiveJoin(qNarrow, input))
    assert(keys(qWide) == TestData.naiveJoin(qWide, input))
    // the narrow query must not see wide-window combinations
    keys(qNarrow).foreach { c =>
      assert(c.values.max - c.values.min <= 1.0)
    }
  }

  test("shared store windows retain the maximum query window") {
    val sel = Planner.mqo(Seq(qNarrow, qWide), catalog, stats).selection
    val topo = Topology.build(sel, catalog)
    assert(topo.stores.nonEmpty && topo.maxWindow == 6.0) // every store retains the topology's window
    assert(topo.queryWindows == Map("narrow" -> 1.0, "wide" -> 6.0))
  }

  test("results of a shared deployment equal per-query deployments") {
    val input = Artificial.tiny(40)
    val joint = run(Planner.mqo(Seq(qNarrow, qWide), catalog, stats).selection)
    val aloneN = run(Planner.mqo(Seq(qNarrow), catalog, stats).selection)
    val aloneW = run(Planner.mqo(Seq(qWide), catalog, stats).selection)
    assert(joint.resultCount("narrow") == aloneN.resultCount("narrow"))
    assert(joint.resultCount("wide") == aloneW.resultCount("wide"))
    assert(joint.resultCount("narrow") > 0 && joint.resultCount("wide") > 0)
    val _ = input
  }

  test("a wider query added over shared stores sees the rows stored before it") {
    val preds = Set(Pred.of("R", "a", "S", "a"))
    val narrow = Query("rs-narrow", Set("R", "S"), preds, window = 1.0)
    val wide = Query("rs-wide", Set("R", "S"), preds, window = 5.0)
    def topo(qs: Query*) = Topology.build(Planner.mqo(qs, catalog, stats).selection, catalog)
    val (before, after) = (topo(narrow), topo(narrow, wide))
    assert(before.storeKeys == after.storeKeys, "test needs both plans over the same stores")
    val input = Vector(InTuple("R", Map("R.a" -> 1L), 10.0), InTuple("S", Map("S.a" -> 1L, "S.b" -> 2L), 14.5))
    val sim = new EventSim(catalog, SimParams(deterministic = true), recordResults = true)
    sim.installConfig(0L, before)
    sim.installConfig(3L, after)
    val m = sim.run(input)
    val got = m.results.collect { case (q, t) if q == wide.name => TestData.simResultKey(wide.relations, t) }.toSet
    val expected = TestData.naiveJoin(wide, input)
    assert(expected.size == 1)
    assert(got == expected)
  }
}
