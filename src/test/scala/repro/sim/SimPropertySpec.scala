package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core._
import repro.data.Artificial

/** Property-style end-to-end checks: for randomized inputs and randomized
  * statistics (hence randomized plans), the simulator's deterministic-mode
  * output must equal the brute-force windowed join, under single and rewired
  * configurations.
  */
class SimPropertySpec extends AnyFunSuite {

  private val catalog = Artificial.catalog(parallelism = 3)
  private val query = Artificial.query(window = 3.0)

  /** Random RSTU input with random (sparse) keys, deterministic in the seed. */
  private def genInput(seed: Long, n: Int): Vector[InTuple] = {
    val rng = new java.util.Random(seed)
    val rate = 10.0
    def mk(rel: String, i: Int, f: Long => Map[String, Long]) =
      (0 until n).map { k =>
        val ts = k / rate + i * 1e-7 + rng.nextInt(1000) / 10000.0
        InTuple(rel, f(k), ts)
      }.toVector
    val dom = 1 + n / 3 // small domain -> multiple partners
    (mk("R", 0, k => Map("R.a" -> (k % dom))) ++
      mk("S", 1, k => Map("S.a" -> ((k + 1) % dom), "S.b" -> (k % dom))) ++
      mk("T", 2, k => Map("T.b" -> ((k + 2) % dom), "T.c" -> (k % dom))) ++
      mk("U", 3, k => Map("U.c" -> ((k + 1) % dom)))).sortBy(_.ts)
  }

  private def randomStats(seed: Long): Stats = {
    val rng = new java.util.Random(seed)
    def s() = math.pow(10.0, -1 - 3 * rng.nextDouble())
    Stats(
      Map("R" -> (10 + rng.nextInt(500)).toDouble, "S" -> (10 + rng.nextInt(500)).toDouble,
          "T" -> (10 + rng.nextInt(500)).toDouble, "U" -> (10 + rng.nextInt(500)).toDouble),
      Map(Pred.of("R", "a", "S", "a") -> s(),
          Pred.of("S", "b", "T", "b") -> s(),
          Pred.of("T", "c", "U", "c") -> s()))
  }

  private def runWith(input: Vector[InTuple], topos: Seq[(Long, Topology)]): Set[Map[String, Double]] = {
    val sim = new EventSim(catalog, SimParams(deterministic = true), recordResults = true)
    topos.foreach { case (e, t) => sim.installConfig(e, t) }
    val m = sim.run(input)
    m.results.map { case (_, t) => TestData.simResultKey(query.relations, t) }.toSet
  }

  test("property: sim equals brute force for random inputs and random plans") {
    var nonEmpty = 0
    for (seed <- 1 to 12) {
      val input = genInput(seed * 31L, 25)
      val expected = TestData.naiveJoin(query, input)
      if (expected.nonEmpty) nonEmpty += 1
      val sel = Planner.mqo(Seq(query), catalog, randomStats(seed * 77L)).selection
      val got = runWith(input, Seq(0L -> Topology.build(sel, catalog)))
      assert(got == expected, s"seed $seed, plan $sel")
    }
    assert(nonEmpty >= 6, "inputs too sparse to be meaningful")
  }

  test("property: rewiring between random plans never loses or duplicates results") {
    for (seed <- 1 to 8) {
      val input = genInput(seed * 131L, 25)
      val expected = TestData.naiveJoin(query, input)
      val selA = Planner.mqo(Seq(query), catalog, randomStats(seed * 7L)).selection
      val selB = Planner.mqo(Seq(query), catalog, randomStats(seed * 13L)).selection
      val got = runWith(input,
        Seq(0L -> Topology.build(selA, catalog), 2L -> Topology.build(selB, catalog)))
      assert(got == expected, s"seed $seed: A=$selA B=$selB")
    }
  }

  test("property: triple rewiring still exact") {
    for (seed <- 1 to 5) {
      val input = genInput(seed * 211L, 30)
      val expected = TestData.naiveJoin(query, input)
      val topos = Seq(0L, 1L, 3L).zipWithIndex.map { case (e, i) =>
        e -> Topology.build(Planner.mqo(Seq(query), catalog, randomStats(seed * 19L + i)).selection,
                            catalog)
      }
      assert(runWith(input, topos) == expected, s"seed $seed")
    }
  }

  test("property: total busy time is the service time of every processed message") {
    val params = SimParams()
    def check(input: Vector[InTuple], topos: Seq[(Long, Topology)], what: String): Unit = {
      val sim = new EventSim(catalog, params)
      topos.foreach { case (e, t) => sim.installConfig(e, t) }
      val m = sim.run(input)
      assert(m.failedAt.isEmpty && m.inFlight == 0, s"$what: run did not drain")
      assert(m.matches > 0 && m.storeMsgs > 0, s"$what: no work")
      val expected = params.svcStore * m.storeMsgs + params.svcProbe * m.tuplesSent +
        params.svcPerMatch * m.matches
      assert(math.abs(m.totalBusy - expected) <= 1e-9 * expected, s"$what: ${m.totalBusy} vs $expected")
    }
    def topo(seed: Long) = Topology.build(Planner.mqo(Seq(query), catalog, randomStats(seed)).selection, catalog)
    for (seed <- 1 to 4) {
      val input = genInput(seed * 97L, 40)
      check(input, Seq(0L -> topo(seed * 5L)), s"static, seed $seed")
      check(input, Seq(0L, 1L, 3L).zipWithIndex.map { case (e, i) => e -> topo(seed * 23L + i) },
            s"rewired, seed $seed")
    }
  }

  test("property: probe counts match Spark ground truth only through shared nodes") {
    // structural invariant without Spark: every dispatched node id exists in
    // some installed topology and totals are consistent
    for (seed <- 1 to 6) {
      val input = genInput(seed * 41L, 20)
      val sel = Planner.mqo(Seq(query), catalog, randomStats(seed * 3L)).selection
      val topo = Topology.build(sel, catalog)
      val sim = new EventSim(catalog, SimParams(deterministic = true))
      sim.installConfig(0L, topo)
      val m = sim.run(input)
      m.sentByNode.keys.foreach(id => assert(topo.nodes.contains(id)))
      assert(m.tuplesSent == m.sentByNode.values.sum)
      assert(m.matches >= m.resultCount.values.sum)
    }
  }
}
