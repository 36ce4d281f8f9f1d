package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.StreamData
import repro.sim.{EventSim, InTuple, Metrics, SimParams}

/** Driver for the multi-query performance experiment (Section VII.A,
  * Fig. 7b–7d): TPC-H-lite stream workloads executed on the topology
  * simulator under the three strategies.
  *
  *  - Independent (FI/SI): one isolated deployment per query;
  *  - Shared (FS/SS): individually optimal plans, common steps/stores merged;
  *  - CMQO: globally ILP-optimized plans.
  *
  * Throughput is reported as tuples per worker-busy-second (the paper's fixed
  * cluster makes throughput inverse to per-tuple work); memory is the peak of
  * stored tuples; latency is the mean end-to-end result latency.
  */
object Fig7Experiment {

  final case class StrategyResult(
      strategy: String,
      nQueries: Int,
      tuplesSent: Long,
      totalBusy: Double,
      throughputProxy: Double, // input tuples per worker-busy-second
      peakStored: Long,
      meanLatencyMs: Double,
      resultCounts: Map[String, Long],
  ) {
    def tsv: String =
      f"$strategy%-12s\t$nQueries%3d\t$tuplesSent%12d\t$totalBusy%10.3f\t$throughputProxy%12.0f\t$peakStored%10d\t$meanLatencyMs%10.2f"
  }

  val header: String =
    "strategy    \t  q\t  tuplesSent\t busy(s)\t  throughput\t peakStore\t  lat(ms)"

  final case class Workload(
      queries: Vector[Query],
      catalog: Catalog,
      stats: Stats,
      streams: Map[String, Vector[InTuple]],
  )

  /** `nQueries` random join queries over TPC-H-lite with its catalog and
    * analytic statistics: what the simulator and the Spark counts both plan.
    */
  private def setup(sf: Double, horizon: Double, window: Double,
                    nQueries: Int, seed: Long): (Vector[Query], Catalog, Stats) = {
    val queries = StreamData.randomTpchQueries(nQueries, Seq(3, 3, 4), window, seed)
    require(queries.size == nQueries, s"only ${queries.size} distinct queries generated")
    (queries, StreamData.tpchCatalog(), StreamData.tpchStats(sf, window, horizon))
  }

  /** Build a TPC-H-lite stream workload with `nQueries` random join queries. */
  def workload(spark: SparkSession, sf: Double, horizon: Double, window: Double,
               nQueries: Int, seed: Long): Workload = {
    val (queries, catalog, stats) = setup(sf, horizon, window, nQueries, seed)
    val rels = queries.flatMap(_.relations).toSet
    val dfs = StreamData.tpchStreams(spark, sf, horizon)
    val streams = rels.map { r =>
      r -> StreamData.collect(r, dfs(r), StreamData.tpchAttrs(r))
    }.toMap
    Workload(queries, catalog, stats, streams)
  }

  private val NodeBudget = 200000L

  /** The three strategies, each as the deployments it runs: Independent one
    * per query, Shared the individually optimal plans merged, CMQO the
    * global optimum.
    */
  private def lineUp(queries: Vector[Query], catalog: Catalog, stats: Stats): Vector[(String, Vector[Selection])] = {
    val perQuery = Planner.individual(queries, catalog, stats, NodeBudget)
    Vector(
      "Independent" -> perQuery.map(_.selection),
      "Shared" -> Vector(Planner.sharedFromIndividual(perQuery)),
      "CMQO" -> Vector(Planner.mqo(queries, catalog, stats, NodeBudget).selection),
    )
  }

  /** Simulate one deployment over the streams of its queries' relations. */
  private def runSim(w: Workload, sel: Selection): Metrics = {
    val sim = new EventSim(w.catalog, SimParams())
    sim.installConfig(0L, Topology.build(sel, w.catalog))
    val rels = sel.queries.flatMap(_.relations).toSet
    sim.run(StreamData.merged(w.streams.view.filterKeys(rels).toMap))
  }

  def run(w: Workload): Vector[StrategyResult] = {
    val usedRels = w.queries.flatMap(_.relations).toSet
    // The workload's distinct input volume — the same for every strategy, so
    // throughput ∝ 1 / total work (the paper's fixed cluster).
    val inputSize = w.streams.view.filterKeys(usedRels).values.map(_.size.toLong).sum
    lineUp(w.queries, w.catalog, w.stats).map { case (name, sels) =>
      result(name, w.queries.size, inputSize, sels.map(runSim(w, _)))
    }
  }

  /** Probe work at Spark scale: the exact number of probe tuples each
    * strategy sends, computed per distinct step as a Catalyst join count over
    * the full streams (no driver-side collection — usable at SF≈0.1).
    * Shared/CMQO count every distinct step once; Independent pays each
    * query's steps separately.
    */
  final case class SparkWork(strategy: String, probeTuples: Long, distinctSteps: Int) {
    def tsv: String = f"$strategy%-12s\t$probeTuples%14d\t$distinctSteps%6d"
  }

  val sparkHeader: String = "strategy    \t   probeTuples\t steps"

  def sparkProbeWork(spark: SparkSession, sf: Double, horizon: Double, window: Double,
                     nQueries: Int, seed: Long): Vector[SparkWork] = {
    import repro.runtime.StreamJoinExec
    val (queries, catalog, stats) = setup(sf, horizon, window, nQueries, seed)
    val dfs = StreamData.tpchStreams(spark, sf, horizon)

    val memo = scala.collection.mutable.Map[StepKey, Long]()
    def countStep(s: Step): Long =
      memo.getOrElseUpdate(s.key, StreamJoinExec.stepSentCount(s, dfs, catalog))

    lineUp(queries, catalog, stats).map { case (name, sels) =>
      // One topology node per distinct step of a deployment.
      val steps = sels.map(Topology.build(_, catalog).nodes.values.map(_.step))
      SparkWork(name, steps.map(_.map(countStep).sum).sum, steps.map(_.size).sum)
    }
  }

  /** One strategy's row, summed over its deployments. */
  private def result(name: String, n: Int, inputSize: Long, ms: Vector[Metrics]): StrategyResult = {
    val busy = ms.map(_.totalBusy).sum
    StrategyResult(
      name, n, ms.map(_.tuplesSent).sum, busy,
      inputSize / math.max(1e-9, busy),
      ms.map(_.peakStored).sum,
      1000.0 * ms.map(_.latencySum.values.sum).sum / math.max(1, ms.map(_.resultCount.values.sum).sum),
      ms.flatMap(_.resultCount).groupMapReduce(_._1)(_._2)(_ + _),
    )
  }
}
