package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.StreamData
import repro.sim.{EventSim, InTuple, SimParams}

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

  /** Build a TPC-H-lite stream workload with `nQueries` random join queries. */
  def workload(spark: SparkSession, sf: Double, horizon: Double, window: Double,
               nQueries: Int, seed: Long): Workload = {
    val queries = StreamData.randomTpchQueries(nQueries, Seq(3, 3, 4), window, seed)
    require(queries.size == nQueries, s"only ${queries.size} distinct queries generated")
    val rels = queries.flatMap(_.relations).toSet
    val dfs = StreamData.tpchStreams(spark, sf, horizon)
    val streams = rels.map { r =>
      r -> StreamData.collect(r, dfs(r), StreamData.tpchAttrs(r))
    }.toMap
    Workload(queries, StreamData.tpchCatalog(), StreamData.tpchStats(sf, window, horizon), streams)
  }

  private def runSim(w: Workload, sel: Selection, rels: Set[String], params: SimParams) = {
    val sim = new EventSim(w.catalog, params)
    sim.installConfig(0L, Topology.build(sel, w.catalog))
    val input = StreamData.merged(w.streams.view.filterKeys(rels).toMap)
    sim.run(input)
  }

  def run(w: Workload, params: SimParams = SimParams(), nodeBudget: Long = 200000L): Vector[StrategyResult] = {
    val n = w.queries.size
    val usedRels = w.queries.flatMap(_.relations).toSet
    // The workload's distinct input volume — the same for every strategy, so
    // throughput ∝ 1 / total work (the paper's fixed cluster).
    val inputSize = w.streams.view.filterKeys(usedRels).values.map(_.size.toLong).sum

    // Independent: one deployment per query over that query's streams.
    val perQuery = Planner.individual(w.queries, w.catalog, w.stats, nodeBudget)
    val indepMetrics = perQuery.map { pl =>
      runSim(w, pl.selection, pl.problem.queries.flatMap(_.relations).toSet, params)
    }
    val indep = StrategyResult(
      "Independent", n,
      indepMetrics.map(_.tuplesSent).sum,
      indepMetrics.map(_.totalBusy).sum,
      inputSize / math.max(1e-9, indepMetrics.map(_.totalBusy).sum),
      indepMetrics.map(_.peakStored).sum,
      1000.0 * indepMetrics.map(m => m.latencySum.values.sum).sum /
        math.max(1, indepMetrics.map(_.resultCount.values.sum).sum),
      indepMetrics.flatMap(_.resultCount).groupMapReduce(_._1)(_._2)(_ + _),
    )

    // Shared: merge the individually optimal plans into one deployment.
    val sharedSel = Planner.sharedFromIndividual(perQuery)
    val sharedM = runSim(w, sharedSel, usedRels, params)
    val shared = result("Shared", n, inputSize, sharedM)

    // CMQO: global optimization.
    val mqoSel = Planner.mqo(w.queries, w.catalog, w.stats, nodeBudget).selection
    val mqoM = runSim(w, mqoSel, usedRels, params)
    val mqo = result("CMQO", n, inputSize, mqoM)

    Vector(indep, shared, mqo)
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
                     nQueries: Int, seed: Long, nodeBudget: Long = 200000L): Vector[SparkWork] = {
    import repro.runtime.StreamJoinExec
    val queries = StreamData.randomTpchQueries(nQueries, Seq(3, 3, 4), window, seed)
    val catalog = StreamData.tpchCatalog()
    val stats = StreamData.tpchStats(sf, window, horizon)
    val dfs = StreamData.tpchStreams(spark, sf, horizon)

    val memo = scala.collection.mutable.Map[StepKey, Long]()
    def countStep(s: Step): Long =
      memo.getOrElseUpdate(s.key, StreamJoinExec.stepSentCount(s, dfs, catalog))

    val perQuery = Planner.individual(queries, catalog, stats, nodeBudget)
    val indep = perQuery.map { pl =>
      pl.selection.distinctSteps.values.map(countStep).sum
    }.sum
    val indepSteps = perQuery.map(_.selection.distinctSteps.size).sum

    val sharedSteps = Planner.sharedFromIndividual(perQuery).distinctSteps
    val shared = sharedSteps.values.map(countStep).sum

    val mqoSteps = Planner.mqo(queries, catalog, stats, nodeBudget).selection.distinctSteps
    val mqo = mqoSteps.values.map(countStep).sum

    Vector(
      SparkWork("Independent", indep, indepSteps),
      SparkWork("Shared", shared, sharedSteps.size),
      SparkWork("CMQO", mqo, mqoSteps.size),
    )
  }

  private def result(name: String, n: Int, inputSize: Long, m: repro.sim.Metrics): StrategyResult =
    StrategyResult(
      name, n, m.tuplesSent, m.totalBusy,
      inputSize / math.max(1e-9, m.totalBusy),
      m.peakStored,
      1000.0 * m.latencySum.values.sum / math.max(1, m.resultCount.values.sum),
      m.resultCount.toMap,
    )
}
