package repro.exp

import repro.core._
import repro.data.Artificial
import repro.sim._

/** Driver for the adaptive-execution experiments (Section VII.B, Fig. 8a/8b):
  * static vs adaptive processing of the artificial R,S,T,U workload with a
  * mid-run change of data characteristics.
  */
object Fig8Experiment {

  final case class Timeline(
      scenario: String,
      staticLatMs: Map[Long, Double],  // second -> mean latency (ms)
      adaptiveLatMs: Map[Long, Double],
      staticFailedAt: Option[Double],
      adaptiveFailedAt: Option[Double],
      adaptiveInstalls: Int,
      staticResults: Long,
      adaptiveResults: Long,
  ) {
    def seconds: Vector[Long] =
      (staticLatMs.keySet ++ adaptiveLatMs.keySet).toVector.sorted
    def rows: Vector[String] = seconds.map { s =>
      def f(m: Map[Long, Double]) = m.get(s).map(v => f"$v%8.1f").getOrElse("       -")
      f"$s%4d\t${f(staticLatMs)}\t${f(adaptiveLatMs)}"
    }
  }

  val header = " sec\t  static\tadaptive   (mean tuple-completion latency ms per second)"

  // Paper's latency: a tuple is assigned a timestamp on arrival and another
  // when all join results with it are computed — i.e. per-input-tuple
  // completion latency, bucketed by arrival second.
  private def latencyTimeline(m: Metrics): Map[Long, Double] =
    m.tupleLatencyBuckets.collect {
      case (sec, (sum, n)) if n > 0 => sec -> 1000.0 * sum / n
    }.toMap

  private def runPair(scenario: String, input: Vector[InTuple], query: Query,
                      catalog: Catalog, initialStats: Stats, params: SimParams,
                      tEnd: Double): Timeline = {
    val qs = Vector(query)

    val staticSim = new EventSim(catalog, params)
    StaticPlan.install(staticSim, qs, catalog, initialStats)
    val sm = staticSim.run(input, tEnd)

    val adaptiveSim = new EventSim(catalog, params)
    val ctrl = new AdaptiveController(_ => qs, catalog, initialStats)
    val am = adaptiveSim.run(input, tEnd, Some(ctrl))

    Timeline(
      scenario,
      latencyTimeline(sm),
      latencyTimeline(am),
      sm.failedAt,
      am.failedAt,
      ctrl.installs,
      sm.resultCount.values.sum,
      am.resultCount.values.sum,
    )
  }

  /** Fig 8a: equal rates; at t=15s the S⋈R selectivity explodes while S⋈T
    * drops to zero. The static plan (probing R before T) overloads and fails
    * on memory; the adaptive run does not fail (its configurations are all
    * installed before the shift, see EXPERIMENTS.md §8a).
    */
  def fig8a(rate: Double = 1000.0, duration: Double = 32.0, shiftAt: Double = 15.0,
            window: Double = 5.0, memLimit: Double = 250000.0): Timeline = {
    val catalog = Artificial.catalog()
    val query = Artificial.query(window)
    val input = Artificial.fig8a(rate, duration, shiftAt)
    val card = rate * window
    val sel = 1.0 / card
    // Paper: optimizer initialized with slightly higher S⋈T selectivity so the
    // probe orders ⟨S,R,T,U⟩ and ⟨T,U,R,S⟩ are selected.
    val initialStats = Stats(
      Map("R" -> card, "S" -> card, "T" -> card, "U" -> card),
      Map(
        Pred.of("R", "a", "S", "a") -> sel,
        Pred.of("S", "b", "T", "b") -> 1.5 * sel,
        Pred.of("T", "c", "U", "c") -> sel,
      ),
    )
    val params = SimParams(netDelay = 0.012, svcStore = 2e-5, svcProbe = 2.5e-4,
                           svcPerMatch = 1e-5, epochLen = 1.0, memLimit = memLimit)
    runPair("fig8a", input, query, catalog, initialStats, params, duration + 8)
  }

  /** Fig 8b: R is 10× faster than S, T, U; at t=15s the S⋈T⋈U intermediate
    * result collapses, the adaptive optimizer materializes the STU store and
    * R's probe path shortens — average latency drops.
    */
  def fig8b(rateR: Double = 2000.0, rateOthers: Double = 200.0, duration: Double = 30.0,
            shiftAt: Double = 15.0, window: Double = 5.0): Timeline = {
    val catalog = Artificial.catalog()
    val query = Artificial.query(window)
    val input = Artificial.fig8b(rateR, rateOthers, duration, shiftAt, g = 25)
    val cardR = rateR * window
    val card = rateOthers * window
    val initialStats = Stats(
      Map("R" -> cardR, "S" -> card, "T" -> card, "U" -> card),
      Map(
        Pred.of("R", "a", "S", "a") -> 1.0 / card,
        Pred.of("S", "b", "T", "b") -> 1.0 / card,
        Pred.of("T", "c", "U", "c") -> 25.0 / card, // pre-shift: large T⋈U
      ),
    )
    val params = SimParams(netDelay = 0.012, svcStore = 1e-5, svcProbe = 5e-5,
                           svcPerMatch = 1.5e-6, epochLen = 1.0)
    runPair("fig8b", input, query, catalog, initialStats, params, duration + 5)
  }
}
