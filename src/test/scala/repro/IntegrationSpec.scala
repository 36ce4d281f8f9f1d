package repro

import org.apache.spark.sql.functions._
import repro.core._
import repro.data.StreamData
import repro.runtime.{SparkResults, StreamJoinExec}
import repro.sim.{EventSim, SimParams}

/** Full-stack integration: TPC-H-lite streams planned by the optimizer,
  * executed on the event simulator, cross-checked against the Spark runtime
  * and the DuckDB oracle.
  */
class IntegrationSpec extends SparkSpec {

  private val window = 30.0
  private val horizon = 300.0

  private lazy val dfs = {
    val all = StreamData.tpchStreams(spark, sf = 0.002, horizon = horizon, seed = 99)
    // keep the inputs small enough for exact cross-checks
    Map(
      "lineitem" -> all("lineitem").limit(600).cache(),
      "orders"   -> all("orders").cache(),
      "customer" -> all("customer").cache(),
    )
  }

  private val q = Query(
    "loc",
    Set("lineitem", "orders", "customer"),
    Set(Pred.of("lineitem", "l_orderkey", "orders", "o_orderkey"),
        Pred.of("orders", "o_custkey", "customer", "c_custkey")),
    window)

  private val catalog = StreamData.tpchCatalog()
  private val stats = StreamData.tpchStats(0.002, window, horizon)

  test("TPC-H 3-way stream join: Spark runtime equals DuckDB") {
    val result = SparkResults.queryResult(q, dfs)
      .select(col("lineitem__l_orderkey"), col("lineitem__ts"),
              col("orders__o_orderkey"), col("orders__ts"),
              col("customer__c_custkey"), col("customer__ts"))
    val sql =
      s"""SELECT l.l_orderkey AS lineitem__l_orderkey, CAST(l.ts AS DOUBLE) AS lineitem__ts,
         |       o.o_orderkey AS orders__o_orderkey, CAST(o.ts AS DOUBLE) AS orders__ts,
         |       c.c_custkey AS customer__c_custkey, CAST(c.ts AS DOUBLE) AS customer__ts
         |FROM lineitem l, orders o, customer c
         |WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey
         |  AND greatest(CAST(l.ts AS DOUBLE), CAST(o.ts AS DOUBLE), CAST(c.ts AS DOUBLE))
         |    - least(CAST(l.ts AS DOUBLE), CAST(o.ts AS DOUBLE), CAST(c.ts AS DOUBLE)) <= $window
         |""".stripMargin
    Oracle.assertEquivalent(
      result, sql,
      "lineitem" -> dfs("lineitem").select(col("l_orderkey"), col("ts")),
      "orders" -> dfs("orders").select(col("o_orderkey"), col("o_custkey"), col("ts")),
      "customer" -> dfs("customer").select(col("c_custkey"), col("ts")))
  }

  test("TPC-H 3-way stream join: simulator result count equals Spark") {
    val sparkCount = SparkResults.queryResult(q, dfs).count()
    val streams = dfs.map { case (r, df) => r -> StreamData.collect(r, df, StreamData.tpchAttrs(r)) }
    val sel = Planner.mqo(Seq(q), catalog, stats).selection
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    sim.installConfig(0L, Topology.build(sel, catalog))
    val m = sim.run(StreamData.merged(streams))
    assert(m.resultCount(q.name) == sparkCount)
  }

  test("TPC-H: simulator per-step probe counts equal Spark ground truth") {
    val streams = dfs.map { case (r, df) => r -> StreamData.collect(r, df, StreamData.tpchAttrs(r)) }
    val sel = Planner.mqo(Seq(q), catalog, stats).selection
    val topo = Topology.build(sel, catalog)
    val sim = new EventSim(catalog, SimParams(deterministic = true))
    sim.installConfig(0L, topo)
    val m = sim.run(StreamData.merged(streams))
    topo.nodes.values.foreach { n =>
      val expected = StreamJoinExec.stepSentCount(n.step, dfs, catalog)
      assert(m.sentByNode(n.id) == expected, s"node ${n.id}")
    }
  }

  test("TPC-H: cost-model estimate is within an order of magnitude of reality") {
    // per-window cards from the *actual* (truncated) streams
    val actualStats = stats.copy(card = dfs.map { case (r, df) => r -> df.count() * window / horizon })
    val sel = Planner.mqo(Seq(q), catalog, actualStats).selection
    val topo = Topology.build(sel, catalog)
    // scale: stats are per window; the streams cover horizon/window windows
    val scale = horizon / window
    topo.nodes.values.foreach { n =>
      val measured = StreamJoinExec.stepSentCount(n.step, dfs, catalog).toDouble
      val predicted = CostModel.stepCost(n.step, actualStats, catalog) * scale
      if (measured > 100)
        assert(predicted > measured / 20 && predicted < measured * 20,
               s"node ${n.id}: predicted=$predicted measured=$measured")
    }
  }

  test("high-selectivity status predicate combined with key join stays bounded") {
    val qs = Query(
      "lo-status",
      Set("lineitem", "orders"),
      Set(Pred.of("lineitem", "l_orderkey", "orders", "o_orderkey"),
          StreamData.tpchStatusPred),
      window)
    val keysOnly = SparkResults.queryResult(q.copy(relations = qs.relations,
      predicates = Set(Pred.of("lineitem", "l_orderkey", "orders", "o_orderkey"))), dfs).count()
    val both = SparkResults.queryResult(qs, dfs).count()
    assert(both <= keysOnly)
    assert(both > 0)
  }
}
