package repro.sim

import repro.{SparkSpec, TestData}
import repro.core._
import repro.data.Artificial
import repro.runtime.{SparkResults, StreamJoinExec}

/** Correctness of the event simulator: emitted results must equal the
  * brute-force windowed join and the Spark runtime on the same data, and
  * probe-message counts must equal the Spark-computed exact step counts.
  */
class EventSimSpec extends SparkSpec {

  private val catalog = Artificial.catalog(parallelism = 3)
  private val query = Artificial.query(window = 5.0)
  private def input = Artificial.tiny(40)

  private val det = SimParams(deterministic = true, epochLen = 1.0)

  private def stats(selST: Double = 0.01) = Stats(
    Map("R" -> 50.0, "S" -> 50.0, "T" -> 50.0, "U" -> 50.0),
    Map(Pred.of("R", "a", "S", "a") -> 0.02,
        Pred.of("S", "b", "T", "b") -> selST,
        Pred.of("T", "c", "U", "c") -> 0.02))

  // skewed so the optimizer materializes an intermediate store
  private val mirStats = Stats(
    Map("R" -> 10000.0, "S" -> 10.0, "T" -> 10.0, "U" -> 10.0),
    Map(Pred.of("R", "a", "S", "a") -> 0.1,
        Pred.of("S", "b", "T", "b") -> 0.001,
        Pred.of("T", "c", "U", "c") -> 0.001))

  private def runOnce(sel: Selection): Metrics = {
    val sim = new EventSim(catalog, det, recordResults = true)
    sim.installConfig(0L, Topology.build(sel, catalog))
    sim.run(input)
  }

  private def resultKeys(m: Metrics): Set[Map[String, Double]] =
    m.results.map { case (_, t) => TestData.simResultKey(query.relations, t) }.toSet

  test("tiny RSTU: one result per index, matching the brute-force join") {
    val expected = TestData.naiveJoin(query, input)
    assert(expected.nonEmpty)
    val m = runOnce(Planner.mqo(Seq(query), catalog, stats()).selection)
    assert(m.resultCount(query.name) == expected.size)
    assert(resultKeys(m) == expected)
  }

  test("results are identical across optimizer choices (different stats)") {
    val expected = TestData.naiveJoin(query, input)
    for (selST <- Seq(1e-6, 0.01, 0.9)) {
      val m = runOnce(Planner.mqo(Seq(query), catalog, stats(selST)).selection)
      assert(resultKeys(m) == expected, s"selST=$selST")
    }
  }

  test("results are identical with an MIR-based plan") {
    val sel = Planner.mqo(Seq(query), catalog, mirStats).selection
    assert(Topology.build(sel, catalog).stores.values.exists(!_.ref.mir.isBase), "expected an MIR store in the plan")
    val m = runOnce(sel)
    assert(resultKeys(m) == TestData.naiveJoin(query, input))
  }

  test("counters are the same whether or not results are recorded (MIR-based plan, races)") {
    // the sub-query's emitting node also forwards its matches to the full
    // query's probe or inserts them into the STU store, so one pass builds
    // some rows and only counts others
    val stu = Query("stu", Set("S", "T", "U"),
      Set(Pred.of("S", "b", "T", "b"), Pred.of("T", "c", "U", "c")), window = 1.0)
    val topo = Topology.build(Planner.mqo(Seq(query, stu), catalog, mirStats).selection, catalog)
    assert(topo.stores.values.exists(!_.ref.mir.isBase), "expected an MIR store in the plan")
    assert(topo.nodes.values.exists(n => n.emits.nonEmpty && (n.children.nonEmpty || n.storeInto.nonEmpty)),
           "expected an emitting node whose matches travel on")
    val rewired = Topology.build(Planner.mqo(Seq(query, stu), catalog, stats()).selection, catalog)
    // keys from a small domain, so windows and (after the rewiring) epoch
    // ownership decide which matches are results
    val rng = new java.util.Random(7)
    val rels = Vector("R" -> Vector("a"), "S" -> Vector("a", "b"), "T" -> Vector("b", "c"), "U" -> Vector("c"))
    val input = rels.zipWithIndex.flatMap { case ((rel, attrs), i) =>
      (0 until 200).map { k =>
        InTuple(rel, attrs.map(a => s"$rel.$a" -> rng.nextInt(10).toLong).toMap,
                k / 10.0 + i * 1e-7 + rng.nextInt(1000) / 20000.0)
      }
    }.sortBy(_.ts)
    def run(record: Boolean): Metrics = {
      val sim = new EventSim(catalog, SimParams(), recordResults = record)
      sim.installConfig(0L, topo)
      sim.installConfig(8L, rewired)
      sim.run(input)
    }
    val (a, b) = (run(record = false), run(record = true))
    assert(a.results.isEmpty && b.results.size.toLong == b.resultCount.values.sum)
    assert(a.resultCount(query.name) > 0 && a.resultCount(stu.name) > 0)
    assert(Seq(a.matches, a.probeMsgs, a.storeMsgs, a.tuplesSent) ==
           Seq(b.matches, b.probeMsgs, b.storeMsgs, b.tuplesSent))
    assert(a.resultCount == b.resultCount)
    assert(a.sentByNode == b.sentByNode)
    assert(a.latencyBuckets == b.latencyBuckets)
    assert(a.latencyBuckets.groupMapReduce(_._1._1)(_._2._2)(_ + _) == a.resultCount)
    def bits(m: Metrics) = (
      m.latencySum.toVector.sortBy(_._1).map(kv => kv._1 -> java.lang.Double.doubleToLongBits(kv._2)),
      java.lang.Double.doubleToLongBits(m.tupleLatencyBuckets.toVector.sortBy(_._1).map(_._2._1).sum))
    assert(bits(a) == bits(b))
  }

  test("sim equals the Spark runtime result for the same input") {
    val dfs = TestData.toDfs(spark, catalog, input)
    val sparkRows = SparkResults.queryResult(query, dfs)
      .select(query.relations.toSeq.sorted.map(r =>
        org.apache.spark.sql.functions.col(StreamJoinExec.tsCol(r))): _*)
      .collect()
      .map(r => query.relations.toSeq.sorted.zipWithIndex.map { case (rel, i) =>
        s"ts:$rel" -> r.getDouble(i)
      }.toMap)
      .toSet
    val m = runOnce(Planner.mqo(Seq(query), catalog, stats()).selection)
    assert(resultKeys(m) == sparkRows)
  }

  test("probe-message counts equal Spark-computed exact step counts") {
    val sel = Planner.mqo(Seq(query), catalog, stats()).selection
    val topo = Topology.build(sel, catalog)
    val m = runOnce(sel)
    val dfs = TestData.toDfs(spark, catalog, input)
    topo.nodes.values.foreach { n =>
      val expected = StreamJoinExec.stepSentCount(n.step, dfs, catalog)
      assert(m.sentByNode(n.id) == expected,
             s"node ${n.id}: sim=${m.sentByNode(n.id)} spark=$expected")
    }
    assert(m.tuplesSent == topo.nodes.keys.toSeq.map(m.sentByNode).sum)
  }

  test("broadcast steps send parallelism times the tuples") {
    val sel = Planner.mqo(Seq(query), catalog, stats()).selection
    val topo = Topology.build(sel, catalog)
    topo.nodes.values.find(!_.step.routed).foreach { n =>
      val m = runOnce(sel)
      assert(m.sentByNode(n.id) % catalog.parallelism(n.step.target) == 0)
    }
  }

  test("rewiring mid-stream loses no results (epoch-scoped configs)") {
    val expected = TestData.naiveJoin(query, input)
    val selA = Planner.mqo(Seq(query), catalog, stats(0.9)).selection
    val selB = Planner.mqo(Seq(query), catalog, stats(1e-6)).selection
    assert(Topology.build(selA, catalog).nodes.keySet !=
           Topology.build(selB, catalog).nodes.keySet,
           "test needs two genuinely different configurations")
    val sim = new EventSim(catalog, det, recordResults = true)
    sim.installConfig(0L, Topology.build(selA, catalog))
    sim.installConfig(2L, Topology.build(selB, catalog))
    val m = sim.run(input)
    assert(m.results.map { case (_, t) => TestData.simResultKey(query.relations, t) }.toSet
           == expected)
  }

  test("a later install supersedes configurations starting at or after its epoch") {
    def topo(st: Stats) = Topology.build(Planner.mqo(Seq(query), catalog, st).selection, catalog)
    val (a, b, c) = (topo(stats(0.9)), topo(stats(1e-6)), topo(mirStats))
    assert(a.storeKeys != c.storeKeys, "test needs configurations with different stores")
    val sim = new EventSim(catalog, det)
    sim.installConfig(0L, a)
    sim.installConfig(5L, b)
    sim.installConfig(3L, c)
    assert(sim.configFor(2L).exists(_ eq a))
    assert(sim.configFor(4L).exists(_ eq c))
    assert(sim.configFor(7L).exists(_ eq c), "B should be superseded by C")
    assert(sim.coveredStoreKeys(1L, 4L) == a.storeKeys.intersect(c.storeKeys))
  }

  test("per-epoch containers: no duplicate results across epochs") {
    val m = runOnce(Planner.mqo(Seq(query), catalog, stats()).selection)
    val keys = m.results.map { case (_, t) => TestData.simResultKey(query.relations, t) }
    assert(keys.size == keys.toSet.size, "duplicated results")
  }

  test("window eviction bounds store size") {
    val longInput = Artificial.tiny(400) // 40s of data, window 5s
    val sim = new EventSim(catalog, det)
    sim.installConfig(0L, Topology.build(Planner.mqo(Seq(query), catalog, stats()).selection, catalog))
    val m = sim.run(longInput)
    // stores hold ~4 relations × (window+slack) × 10/s ≈ well below the total
    assert(m.peakStored < longInput.size)
    // eviction happened: far more store operations than tuples retained
    assert(m.storeMsgs > m.peakStored)
    assert(sim.samples.count(0, "R") == 0)
  }

  test("stores of dropped configurations are garbage collected") {
    val selA = Planner.mqo(Seq(query), catalog, stats()).selection
    val sim = new EventSim(catalog, det)
    sim.installConfig(0L, Topology.build(selA, catalog))
    // install an empty config (query removed) from epoch 10 on
    sim.installConfig(10L, Topology.build(Selection(Vector.empty, Vector.empty), catalog))
    val m = sim.run(Artificial.tiny(400)) // runs until t=40 ≫ epoch 10 + window
    assert(m.storedNow == 0, s"stores not collected: ${m.storedNow}")
    assert(sim.activeStoreKeys.isEmpty)
  }

  test("failure is reported when memory exceeds the limit") {
    val sim = new EventSim(catalog, det.copy(memLimit = 10))
    sim.installConfig(0L, Topology.build(Planner.mqo(Seq(query), catalog, stats()).selection, catalog))
    val m = sim.run(input)
    assert(m.failedAt.isDefined)
  }

  test("latency buckets aggregate to the total result count") {
    val m = runOnce(Planner.mqo(Seq(query), catalog, stats()).selection)
    val bucketed = m.latencyBuckets.collect { case ((q, _), (_, n)) if q == query.name => n }.sum
    assert(bucketed == m.resultCount(query.name))
    // a probe that waited for a busy worker completes after later ones, so a
    // bucket can lie below the first one counted
    val counted = new Metrics
    Seq(5.5 -> 1, 3.2 -> 2, 40.0 -> 1, 3.9 -> 1).foreach { case (fin, k) => counted.queryCounter("q").add(fin, 0.5, k) }
    assert(counted.latencyBuckets == Map(("q", 3L) -> (1.5, 3L), ("q", 5L) -> (0.5, 1L), ("q", 40L) -> (0.5, 1L)))
  }

  private def counters(m: Metrics) = (m.storeMsgs, m.probeMsgs, m.matches, m.tuplesSent, m.resultCount)

  test("a topology installed from epoch 5 acts as if the input began at 5 s") {
    val topo = Topology.build(Planner.mqo(Seq(query), catalog, stats()).selection, catalog)
    val longInput = Artificial.tiny(200)
    def run(from: Long, input: Vector[InTuple]): Metrics = {
      val sim = new EventSim(catalog, det)
      sim.installConfig(from, topo)
      sim.run(input)
    }
    val late = run(5L, longInput)
    assert(late.resultCount(query.name) > 0)
    // tuples of the epochs before the first configuration store and probe nothing
    assert(counters(late) == counters(run(0L, longInput.filter(_.ts >= 5.0))))
  }

  test("installing the installed topology again continues its run") {
    val topo = Topology.build(Planner.mqo(Seq(query), catalog, mirStats).selection, catalog)
    def run(froms: Long*): (Metrics, Seq[(String, Map[String, Double])]) = {
      val sim = new EventSim(catalog, SimParams(), recordResults = true)
      froms.foreach(sim.installConfig(_, topo))
      val m = sim.run(Artificial.tiny(200))
      (m, m.results.toSeq.map { case (q, t) => q -> TestData.simResultKey(query.relations, t) })
    }
    val ((once, onceResults), (twice, twiceResults)) = (run(0L), run(0L, 4L))
    assert(once.resultCount(query.name) > 0)
    assert(counters(twice) == counters(once))
    assert(twiceResults == onceResults)
  }
}
