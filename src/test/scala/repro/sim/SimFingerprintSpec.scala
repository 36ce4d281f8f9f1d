package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{Artificial, Fig9Env}
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** Golden fingerprint of the event simulator: exact counters, per-node sends
  * and latency sums (as IEEE bit patterns) of fixed runs. Simulated-time ties
  * are broken by enqueue order, so any change in routing, matching, or the
  * order in which messages are created shows up here.
  */
class SimFingerprintSpec extends AnyFunSuite {
  import SimFingerprintSpec._

  private def check(label: String, m: Metrics, installs: Int, expected: Print): Unit = {
    val got = Print(m, installs)
    assert(got == expected, s"$label; sentByNode = ${m.sentByNode.toVector.sortBy(_._1)}")
  }

  test("Fig 8b static and adaptive runs reproduce their fingerprints") {
    // Fig8Experiment.fig8b settings
    val window = 5.0
    val catalog = Artificial.catalog()
    val qs = Vector(Artificial.query(window))
    val input = Artificial.fig8b(2000.0, 200.0, duration = 30.0, shiftAt = 15.0, g = 25)
    val card = 200.0 * window
    val stats = Stats(
      Map("R" -> 2000.0 * window, "S" -> card, "T" -> card, "U" -> card),
      Map(Pred.of("R", "a", "S", "a") -> 1.0 / card,
          Pred.of("S", "b", "T", "b") -> 1.0 / card,
          Pred.of("T", "c", "U", "c") -> 25.0 / card))
    val params = SimParams(netDelay = 0.012, svcStore = 1e-5, svcProbe = 5e-5,
                           svcPerMatch = 1.5e-6, epochLen = 1.0)

    val static = new EventSim(catalog, params)
    StaticPlan.install(static, qs, catalog, stats)
    check("static", static.run(input, 35.0), 1, Fig8bStatic)

    val adaptive = new EventSim(catalog, params)
    val ctrl = new AdaptiveController(_ => qs, catalog, stats)
    check("adaptive", adaptive.run(input, 35.0, Some(ctrl)), ctrl.installs, Fig8bAdaptive)
  }

  test("random multi-query workloads reproduce their fingerprints under races") {
    // Ten size-3 queries over six relations; r000 arrives 4× faster (and is
    // planned as 20× the others), so the optimizer materializes MIRs.
    val nRels = 6
    val queries = Fig9Env.randomQueries(nRels, nQ = 10, size = 3, seed = 3L)
    assert(queries.size == 10)
    val catalog = Fig9Env.catalog(nRels, parallelism = 3)
    val uniform = Fig9Env.stats(nRels)
    val stats = uniform.copy(card = uniform.card.updated("r000", 2000.0))

    val rng = new java.util.Random(11L)
    val input = (for {
      r <- 0 until nRels
      rel = Fig9Env.relName(r)
      rate = if (r == 0) 160.0 else 40.0
      k <- 0 until (rate * 5).toInt
    } yield InTuple(rel, Fig9Env.attrs.map(a => s"$rel.$a" -> rng.nextInt(8).toLong).toMap,
                    (k + rng.nextDouble()) / rate)).sortBy(_.ts).toVector
    assert(input.map(_.ts).distinct.size == input.size, "timestamps must be unique")

    def simulate(sel: Selection): Metrics = {
      val sim = new EventSim(catalog, SimParams())
      sim.installConfig(0L, Topology.build(sel, catalog))
      sim.run(input)
    }

    // The optimizer's plan: shared nodes and MIR inserts.
    val planned = Planner.mqo(queries, catalog, stats)
    val mqo = Topology.build(planned.selection, catalog)
    assert(mqo.nodes.size < planned.selection.orders.map(_._2.steps.size).sum, "no shared nodes")
    assert(mqo.nodes.values.exists(_.storeInto.nonEmpty), "no MIR inserts")
    check("mqo", simulate(planned.selection), 1, MqoPlan)

    // A hand-picked plan: per slot, the candidate with the most broadcast
    // steps and MIRs (with the MIRs' maintenance orders).
    val problem = planned.problem
    val chosen = mutable.LinkedHashMap[SlotId, Cand]()
    def pick(sid: SlotId): Unit = if (!chosen.contains(sid)) {
      val c = problem.slotCands(sid).maxBy(c => c.steps.count(!_.routed) + c.mirsUsed.size)
      chosen(sid) = c
      c.mirsUsed.foreach(mk => problem.mirSlots(mk).foreach(pick))
    }
    problem.querySlots.foreach(pick)
    val broadcast = Selection(problem.queries, chosen.toVector)
    assert(Topology.build(broadcast, catalog).nodes.values.exists(!_.step.routed), "no broadcast steps")
    check("broadcast", simulate(broadcast), 1, BroadcastPlan)
  }
}

object SimFingerprintSpec {

  /** What a run must reproduce exactly. `sentByNode` is pinned by its size
    * and a digest of its (node id, count) pairs in id order.
    */
  final case class Print(
      counters: Seq[Long], // input tuples, probe msgs, store msgs, matches, tuples sent, results
      peakStored: Long,
      peakBacklog: Long,
      tuplesCompleted: Long,
      resultCount: Map[String, Long],
      nodes: Int,
      sentByNodeDigest: Int,
      latencySumBits: Long,
      tupleLatencyBits: Long,
      installs: Int,
  )

  object Print {
    def apply(m: Metrics, installs: Int): Print = Print(
      Seq(m.inputTuples, m.probeMsgs, m.storeMsgs, m.matches, m.tuplesSent, m.resultCount.values.sum),
      m.peakStored,
      m.peakBacklog,
      m.tuplesCompleted,
      m.resultCount.toMap,
      m.sentByNode.size,
      MurmurHash3.orderedHash(m.sentByNode.toVector.sortBy(_._1)),
      java.lang.Double.doubleToLongBits(m.latencySum.toVector.sortBy(_._1).map(_._2).sum),
      java.lang.Double.doubleToLongBits(m.tupleLatencyBuckets.toVector.sortBy(_._1).map(_._2._1).sum),
      installs,
    )
  }

  // Recorded from the map-based simulator that preceded the slot-indexed plan.
  val Fig8bStatic: Print = Print(
    Seq(78000, 117947, 90000, 830089, 165474, 742615), peakStored = 23899, peakBacklog = 40,
    tuplesCompleted = 78000, Map("rstu" -> 742615L), nodes = 10, sentByNodeDigest = -996896526,
    latencySumBits = 4672009291252370611L, tupleLatencyBits = 4653656556536504639L, installs = 1)

  val Fig8bAdaptive: Print = Print(
    Seq(78000, 173272, 135176, 1342057, 246610, 743904), peakStored = 67139, peakBacklog = 67,
    tuplesCompleted = 78000, Map("rstu" -> 743904L), nodes = 25, sentByNodeDigest = -53959236,
    latencySumBits = 4671962043073586605L, tupleLatencyBits = 4653632873160715807L, installs = 4)

  val MqoPlan: Print = Print(
    Seq(1800, 15131, 13282, 343111, 37560, 320741), peakStored = 10405, peakBacklog = 122,
    tuplesCompleted = 1800,
    Map("q001" -> 52230L, "q002" -> 12765L, "q003" -> 51350L, "q004" -> 12208L, "q005" -> 49625L,
        "q006" -> 51468L, "q007" -> 12450L, "q008" -> 12872L, "q009" -> 13333L, "q010" -> 52440L),
    nodes = 46, sentByNodeDigest = 1624257565,
    latencySumBits = 4652935087016162667L, tupleLatencyBits = 4619849079261489257L, installs = 1)

  val BroadcastPlan: Print = Print(
    Seq(1800, 56442, 59152, 363276, 104256, 320125), peakStored = 45962, peakBacklog = 66,
    tuplesCompleted = 1800,
    Map("q001" -> 52052L, "q002" -> 12712L, "q003" -> 51274L, "q004" -> 12171L, "q005" -> 49525L,
        "q006" -> 51426L, "q007" -> 12416L, "q008" -> 12829L, "q009" -> 13319L, "q010" -> 52401L),
    nodes = 54, sentByNodeDigest = -2027527907,
    latencySumBits = 4650940405694312306L, tupleLatencyBits = 4619829415305542057L, installs = 1)
}
