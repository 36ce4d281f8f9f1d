package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core._
import repro.data.Artificial

/** Epoch-based adaptive re-optimization (Section VI): statistics gathering,
  * delayed activation (epoch i stats -> config at i+2), plan switching on
  * data-characteristic changes, and query arrival/expiry.
  */
class AdaptiveSpec extends AnyFunSuite {

  private val catalog = Artificial.catalog(parallelism = 2)
  private val query = Artificial.query(window = 5.0)

  private def initialStats(selST: Double = 2e-4) = Stats(
    Map("R" -> 5000.0, "S" -> 5000.0, "T" -> 5000.0, "U" -> 5000.0),
    Map(Pred.of("R", "a", "S", "a") -> 1e-4,
        Pred.of("S", "b", "T", "b") -> selST,
        Pred.of("T", "c", "U", "c") -> 1e-4))

  test("epoch samples: counts and reservoirs per epoch") {
    val es = new EpochSamples(1.0, sampleSize = 8)
    (0 until 100).foreach(i => es.observe(0, InTuple("R", Map("R.a" -> i.toLong), i / 100.0)))
    assert(es.count(0, "R") == 100)
    assert(es.count(1, "R") == 0)
  }

  test("epoch samples estimate selectivity from samples") {
    val es = new EpochSamples(1.0, sampleSize = 64)
    // R.a uniform over 10 values, S.a uniform over the same 10 -> sel = 0.1
    (0 until 200).foreach { i =>
      es.observe(0, InTuple("R", Map("R.a" -> (i % 10).toLong), i * 0.001))
      es.observe(0, InTuple("S", Map("S.a" -> (i % 10).toLong, "S.b" -> 0L), i * 0.001 + 1e-7))
    }
    val q = Query("q", Set("R", "S"), Set(Pred.of("R", "a", "S", "a")), 1.0)
    val st = es.estimate(0, Seq(q), window = 1.0).get
    assert(st.cardOf("R") === 200.0)
    assert(math.abs(st.selOf(Pred.of("R", "a", "S", "a")) - 0.1) < 0.05)
  }

  test("estimate is None for epochs without data") {
    val es = new EpochSamples(1.0)
    val q = Query("q", Set("R", "S"), Set(Pred.of("R", "a", "S", "a")), 1.0)
    assert(es.estimate(5, Seq(q), 1.0).isEmpty)
  }

  test("adaptive controller installs the initial config at epoch 0") {
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    val ctrl = new AdaptiveController(_ => Vector(query), catalog, initialStats())
    sim.run(Artificial.tiny(20), controller = Some(ctrl))
    assert(ctrl.installs >= 1)
    assert(sim.configFor(0L).isDefined)
  }

  test("no reconfiguration while statistics are stable") {
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    val ctrl = new AdaptiveController(_ => Vector(query), catalog, initialStats())
    val m = sim.run(Artificial.tiny(200), controller = Some(ctrl)) // 20 s of stable data
    assert(ctrl.reoptimizations >= 15)
    // at this miniature scale (10 tuples/relation/epoch) the estimates are
    // noisy; hysteresis must still keep reconfigurations far below one per epoch
    assert(ctrl.installs <= 6, s"plan thrashing: ${ctrl.installs} installs")
    assert(m.resultCount(query.name) > 0)
  }

  test("the query set is enumerated once while it stays value-equal") {
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    // a new but value-equal query every epoch, redefined at 8 s
    val ctrl = new AdaptiveController(
      t => Vector(Artificial.query(if (t < 8.0) 5.0 else 3.0)), catalog, initialStats())
    sim.run(Artificial.tiny(200), controller = Some(ctrl)) // 20 s
    assert(ctrl.reoptimizations >= 15)
    assert(ctrl.enumerations == 2)
  }

  test("fig8a mechanics (scaled down): static fails, adaptive survives and recovers") {
    val rate = 400.0
    val window = 4.0
    val q = Artificial.query(window)
    val input = Artificial.fig8a(rate, duration = 32.0, shiftAt = 8.0)
    val card = rate * window
    val init = Stats(
      Map("R" -> card, "S" -> card, "T" -> card, "U" -> card),
      Map(Pred.of("R", "a", "S", "a") -> 1 / card,
          Pred.of("S", "b", "T", "b") -> 1.5 / card,
          Pred.of("T", "c", "U", "c") -> 1 / card))
    val params = SimParams(netDelay = 0.01, svcStore = 2e-5, svcProbe = 2.5e-4,
                           svcPerMatch = 1e-5, memLimit = 250000.0)

    val staticSim = new EventSim(catalog, params)
    StaticPlan.install(staticSim, Vector(q), catalog, init)
    val sm = staticSim.run(input, tEnd = 40.0)

    val adaptiveSim = new EventSim(catalog, params)
    val ctrl = new AdaptiveController(_ => Vector(q), catalog, init)
    val am = adaptiveSim.run(input, tEnd = 40.0, Some(ctrl))

    assert(sm.failedAt.isDefined, "static plan should overload and fail")
    assert(sm.failedAt.get > 8.0, "failure should follow the shift")
    assert(am.failedAt.isEmpty, s"adaptive plan should survive (peakMem=${am.peakMem})")
    assert(ctrl.installs >= 2, "adaptive should have re-planned after the shift")
  }

  test("query expiry: stores are dropped after the query is removed") {
    val input = Artificial.tiny(300) // 30 s
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    val ctrl = new AdaptiveController(
      t => if (t < 10.0) Vector(query) else Vector.empty,
      catalog, initialStats())
    val m = sim.run(input, controller = Some(ctrl))
    assert(m.resultCount(query.name) > 0)
    assert(m.storedNow == 0, s"stores survive expiry: ${m.storedNow}")
    assert(sim.activeStoreKeys.isEmpty)
  }

  test("query arrival: results reported once the new config is installed") {
    val input = Artificial.tiny(200)
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    val ctrl = new AdaptiveController(
      t => if (t >= 5.0) Vector(query) else Vector.empty,
      catalog, initialStats())
    val m = sim.run(input, controller = Some(ctrl))
    assert(m.resultCount(query.name) > 0)
    // results cannot predate the query's arrival
    val firstBucket = m.latencyBuckets.keys.collect { case (q, s) if q == query.name => s }.min
    assert(firstBucket >= 5)
  }

  test("query redefinition: a new window under the same name is installed") {
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    val ctrl = new AdaptiveController(
      t => Vector(if (t < 8.0) Artificial.query(1.0) else Artificial.query(3.0)),
      catalog, initialStats())
    sim.run(Artificial.tiny(200), controller = Some(ctrl))
    assert(sim.configFor(15L).map(_.queryWindows).contains(Map(query.name -> 3.0)))
  }

  test("query re-arrival: the empty configuration, then the returning plan") {
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    val ctrl = new AdaptiveController(
      t => if (t < 10.0 || t >= 20.0) Vector(query) else Vector.empty,
      catalog, initialStats())
    // the sim collects configurations older than a window, so record each
    // epoch's active query windows as the run passes it
    val active = scala.collection.mutable.Map[Long, Map[String, Double]]()
    val recorder = new Controller {
      def onEpoch(epoch: Long, sim: EventSim): Unit = {
        ctrl.onEpoch(epoch, sim)
        sim.configFor(epoch).foreach(topo => active(epoch) = topo.queryWindows)
      }
    }
    val m = sim.run(Artificial.tiny(300), controller = Some(recorder)) // 30 s
    assert(active.get(15L).contains(Map.empty[String, Double]))
    assert(active.get(25L).contains(Map(query.name -> query.window)))
    // results resume once the returning plan is installed
    assert(m.latencyBuckets.keys.exists { case (q, s) => q == query.name && s >= 20 })
  }

  test("a query redefined to a wider window joins rows stored under the narrower one") {
    def rs(window: Double) = Query("rs", Set("R", "S"), Set(Pred.of("R", "a", "S", "a")), window)
    // each S arrives 4.5 s after the R with its key: inside 5 s, outside 1 s
    val input = (0 until 6).flatMap { i =>
      Vector(InTuple("R", Map("R.a" -> i.toLong), 12.0 + i),
             InTuple("S", Map("S.a" -> i.toLong, "S.b" -> 0L), 16.5 + i))
    }.sortBy(_.ts)
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    val ctrl = new AdaptiveController(t => Vector(rs(if (t < 8.0) 1.0 else 5.0)), catalog, initialStats(),
                                      useEstimates = false)
    val m = sim.run(input, controller = Some(ctrl))
    val expected = TestData.naiveJoin(rs(5.0), input).size
    assert(expected == 6)
    assert(m.resultCount("rs") == expected)
  }
}
