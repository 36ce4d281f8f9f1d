package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.MqoProblem
import repro.data.Fig9Env
import repro.ilp.Solver

/** Smoke tests for the experiment drivers at miniature scale — the full
  * sweeps run in bench/ (one suite per evaluation figure).
  */
class Fig9ExperimentSpec extends AnyFunSuite {

  test("fig9 row: MQO never exceeds individual cost") {
    val r = Fig9Experiment.run(nRels = 10, nQ = 8, size = 3, seed = 1)
    assert(r.mqoCost <= r.individualCost + 1e-6)
    assert(r.savings >= 0.0)
    assert(r.vars > 0 && r.probeOrders > 0)
  }

  test("fig9 row: sharing savings grow with query density") {
    val sparse = Fig9Experiment.run(nRels = 100, nQ = 8, size = 3, seed = 2)
    val dense = Fig9Experiment.run(nRels = 6, nQ = 8, size = 3, seed = 2)
    assert(dense.savings >= sparse.savings - 0.05,
           s"dense ${dense.savings} vs sparse ${sparse.savings}")
  }

  test("fig9 row is deterministic in the seed") {
    val a = Fig9Experiment.run(10, 5, 3, seed = 9)
    val b = Fig9Experiment.run(10, 5, 3, seed = 9)
    assert(a.mqoCost == b.mqoCost && a.individualCost == b.individualCost && a.vars == b.vars)
  }

  test("fig9: larger queries blow up the problem size") {
    val s3 = Fig9Experiment.run(20, 4, 3, seed = 3)
    val s4 = Fig9Experiment.run(20, 4, 4, seed = 3)
    assert(s4.vars > s3.vars)
    assert(s4.probeOrders > s3.probeOrders)
  }

  test("fig9 row reports the global solve's own cost (9f, 100 rels, 10 queries, size 5)") {
    val r = Fig9Experiment.run(100, 10, 5, seed = 65)
    val problem = MqoProblem.build(Fig9Env.randomQueries(100, 10, 5, 65), Fig9Env.catalog(100), Fig9Env.stats(100))
    val sol = Solver.solve(problem, 300000L)
    assert(r.mqoCost == sol.cost)
    assert(r.optimal == sol.optimal)
  }
}

class Fig8ExperimentSpec extends AnyFunSuite {

  test("fig8a timeline (miniature): static fails, adaptive survives") {
    val t = Fig8Experiment.fig8a(rate = 800.0, duration = 26.0, shiftAt = 10.0,
                                 window = 4.0, memLimit = 200000.0)
    assert(t.staticFailedAt.isDefined && t.staticFailedAt.get > 10.0)
    assert(t.adaptiveFailedAt.isEmpty)
    assert(t.adaptiveInstalls >= 2)
    assert(t.adaptiveResults > 0)
    assert(t.seconds.nonEmpty && t.rows.nonEmpty)
  }

  test("fig8b timeline (miniature): adaptive latency declines after the shift") {
    val t = Fig8Experiment.fig8b(rateR = 1000.0, rateOthers = 100.0,
                                 duration = 24.0, shiftAt = 12.0)
    assert(t.staticFailedAt.isEmpty && t.adaptiveFailedAt.isEmpty)
    assert(t.adaptiveInstalls >= 2, s"installs=${t.adaptiveInstalls}")
    def avg(m: Map[Long, Double], r: Range) = {
      val vs = r.flatMap(s => m.get(s.toLong)); vs.sum / math.max(1, vs.size)
    }
    val pre = avg(t.adaptiveLatMs, 6 to 11)
    val post = avg(t.adaptiveLatMs, 18 to 23)
    assert(post < pre, f"adaptive latency should drop: pre=$pre%.1f post=$post%.1f")
  }
}

class Fig7ExperimentSpec extends SparkSpec {

  test("fig7 miniature workload: strategies agree and ordering holds") {
    val w = Fig7Experiment.workload(spark, sf = 0.002, horizon = 300.0, window = 30.0,
                                    nQueries = 3, seed = 77)
    assert(w.queries.size == 3)
    val Vector(indep, shared, mqo) = Fig7Experiment.run(w)
    assert(indep.resultCounts == shared.resultCounts)
    assert(indep.resultCounts == mqo.resultCounts)
    assert(shared.peakStored <= indep.peakStored)
    // CMQO minimizes *estimated* probe cost; measured tuples may deviate a bit
    assert(mqo.tuplesSent <= shared.tuplesSent * 1.25)
  }
}
