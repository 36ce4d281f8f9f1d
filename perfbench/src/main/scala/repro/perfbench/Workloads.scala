package repro.perfbench

import repro.core._
import repro.data.{Artificial, Fig9Env}
import repro.ilp.Solver
import repro.sim._

/** One planning call: MqoProblem.build, Solver.solve and Topology.build. */
final case class PlanOut(problem: MqoProblem, solution: Solver.Solution, budget: Long, topology: Topology,
                         selection: Selection) {
  /** Steps of the selected probe orders, counted once per order. */
  def orderSteps: Int = selection.orders.map(_._2.steps.size).sum
  /** What repeats exactly when the program is deterministic. */
  def fingerprint: Seq[Any] =
    Seq(solution.cost, solution.optimal, solution.nodes, topology.nodes.size, topology.stores.size)
}

/** One EventSim.run and the counts it must reproduce. */
final case class SimOut(label: String, metrics: Metrics, allocBytes: Long, reference: Map[String, Long],
                        controller: Option[AdaptiveController]) {
  def results: Long = metrics.resultCount.values.sum
  def referenceResults: Long = reference.values.sum
  def fingerprint: Seq[Any] = {
    val m = metrics
    Seq(m.inputTuples, m.probeMsgs, m.storeMsgs, m.matches, m.tuplesSent, m.peakStored, m.peakBacklog,
        m.resultCount.toMap, m.tuplesCompleted) ++
      controller.map(c => (c.reoptimizations, c.installs, c.bootstraps))
  }
}

final case class PassOut(plans: Vector[PlanOut], sims: Vector[SimOut])

/** A benchmark workload: inputs made from a seed, reference result counts,
  * and one pass through the program's public entry points.
  */
trait Workload {
  def name: String
  /** Make the inputs from the seed. Timed as set-up. */
  def generate(seed: Long): Unit
  /** Count the reference results per simulated query (untimed). */
  def reference(): Unit
  def pass(tr: Tracer, deterministic: Boolean): PassOut
}

object Workload {
  val names: Vector[String] = Vector("fig8b_pair", "mq_shared", "fig9_plan")

  def apply(name: String): Workload = name match {
    case "fig8b_pair" => new Fig8bPair
    case "mq_shared"  => new MqShared
    case "fig9_plan"  => new Fig9Plan
    case other        => throw new IllegalArgumentException(s"unknown workload $other; one of ${names.mkString(", ")}")
  }

  /** Plan `qs` from `stats`, as StaticPlan does, with each layer timed. */
  def plan(tr: Tracer, qs: Seq[Query], catalog: Catalog, stats: Stats, budget: Long): PlanOut =
    tr("plan") {
      val problem = tr("core.build")(MqoProblem.build(qs, catalog, stats))
      val sol = tr("ilp.solve")(Solver.solve(problem, budget))
      val sel = Selection(problem.queries, sol.selected(problem))
      PlanOut(problem, sol, budget, tr("core.topology")(Topology.build(sel, catalog)), sel)
    }

  /** Run one simulation: either a static topology installed from epoch 0, or
    * an adaptive controller whose `onEpoch` calls are timed.
    */
  def simulate(tr: Tracer, label: String, catalog: Catalog, params: SimParams, input: IndexedSeq[InTuple],
               tEnd: Double, static: Option[Topology], adaptive: Option[AdaptiveController],
               reference: Map[String, Long]): SimOut = {
    val sim = new EventSim(catalog, params)
    static.foreach(t => tr("sim.install")(sim.installConfig(0L, t)))
    val timed = adaptive.map { c =>
      new Controller {
        def onEpoch(epoch: Long, s: EventSim): Unit = tr("sim.ctrl.epoch")(c.onEpoch(epoch, s))
      }
    }
    val a0 = Tracer.allocatedBytes()
    val m = tr(s"sim.run.$label")(sim.run(input, tEnd, timed))
    SimOut(label, m, Tracer.allocatedBytes() - a0, reference, adaptive)
  }
}

/** Fig 8b input through the static plan and the adaptive controller, as
  * Fig8Experiment.fig8b does. The input has no seed, so the workload is the
  * same for every seed.
  */
final class Fig8bPair extends Workload {
  val name = "fig8b_pair"
  private val window = 5.0
  private val rateR = 2000.0
  private val rateOthers = 200.0
  private val catalog = Artificial.catalog()
  private val queries = Vector(Artificial.query(window))
  private val initialStats = {
    val card = rateOthers * window
    Stats(
      Map("R" -> rateR * window, "S" -> card, "T" -> card, "U" -> card),
      Map(
        Pred.of("R", "a", "S", "a") -> 1.0 / card,
        Pred.of("S", "b", "T", "b") -> 1.0 / card,
        Pred.of("T", "c", "U", "c") -> 25.0 / card,
      ),
    )
  }
  private val params = SimParams(netDelay = 0.012, svcStore = 1e-5, svcProbe = 5e-5,
                                 svcPerMatch = 1.5e-6, epochLen = 1.0)
  private val duration = 30.0
  private var input: Vector[InTuple] = Vector.empty
  private var ref: Map[String, Long] = Map.empty

  def generate(seed: Long): Unit =
    input = Artificial.fig8b(rateR, rateOthers, duration, shiftAt = 15.0, g = 25)

  def reference(): Unit = ref = queries.map(q => q.name -> RefJoin.count(q, input)).toMap

  def pass(tr: Tracer, deterministic: Boolean): PassOut = {
    val prm = params.copy(deterministic = deterministic)
    val plan = Workload.plan(tr, queries, catalog, initialStats, budget = 200000L)
    val static = Workload.simulate(tr, "static", catalog, prm, input, duration + 5, Some(plan.topology), None, ref)
    val ctrl = new AdaptiveController(_ => queries, catalog, initialStats)
    val adaptive = Workload.simulate(tr, "adaptive", catalog, prm, input, duration + 5, None, Some(ctrl), ref)
    PassOut(Vector(plan), Vector(static, adaptive))
  }
}

/** Thirty random size-3 queries over ten relations, planned once globally
  * and simulated on one shared topology.
  */
final class MqShared extends Workload {
  val name = "mq_shared"
  private val nRels = 10
  private val catalog = Fig9Env.catalog(nRels)
  private val stats = Fig9Env.stats(nRels)
  private var queries: Vector[Query] = Vector.empty
  private var input: Vector[InTuple] = Vector.empty
  private var ref: Map[String, Long] = Map.empty

  def generate(seed: Long): Unit = {
    queries = Shapes.relabel(Fig9Env.randomQueries(nRels, nQ = 30, size = 3, Shapes.seed), nRels, seed)
    require(queries.size == 30, s"only ${queries.size} distinct queries")
    input = Streams.uniform(nRels, rate = 100.0, duration = 30.0, keys = 100, seed)
  }

  def reference(): Unit = ref = queries.map(q => q.name -> RefJoin.count(q, input)).toMap

  def pass(tr: Tracer, deterministic: Boolean): PassOut = {
    val plan = Workload.plan(tr, queries, catalog, stats, budget = 300000L)
    val sim = Workload.simulate(tr, "static", catalog, SimParams(deterministic = deterministic), input,
                                Double.MaxValue, Some(plan.topology), None, ref)
    PassOut(Vector(plan), Vector(sim))
  }
}

/** The optimizer alone on five Fig 9 instances; no simulation. */
final class Fig9Plan extends Workload {
  val name = "fig9_plan"
  /** (relations, queries, query size) */
  private val shapes = Vector((100, 10, 3), (100, 10, 4), (100, 10, 5), (10, 50, 3), (10, 100, 3))
  private var instances: Vector[(Vector[Query], Catalog, Stats)] = Vector.empty

  def generate(seed: Long): Unit = {
    val rng = new java.util.Random(seed)
    instances = shapes.zipWithIndex.map { case ((nRels, nQ, size), i) =>
      val qs = Shapes.relabel(Fig9Env.randomQueries(nRels, nQ, size, Shapes.seed + i), nRels, rng.nextLong())
      require(qs.size == nQ, s"only ${qs.size} distinct queries for ($nRels, $nQ, $size)")
      (qs, Fig9Env.catalog(nRels), Fig9Env.stats(nRels))
    }
  }

  def reference(): Unit = ()

  def pass(tr: Tracer, deterministic: Boolean): PassOut =
    PassOut(instances.map { case (qs, catalog, stats) => Workload.plan(tr, qs, catalog, stats, budget = 300000L) },
            Vector.empty)
}

/** Random Fig9Env queries whose relations are renamed per benchmark seed.
  *
  * The query shapes (sizes, join graphs, join attributes) are drawn once with
  * a fixed seed; the benchmark seed draws a permutation of the relation names.
  * Each seed therefore plans different queries that need the same amount of
  * enumeration, so run-to-run differences measure the program, not the draw.
  */
object Shapes {
  val seed = 2021L

  def relabel(queries: Vector[Query], nRels: Int, seed: Long): Vector[Query] = {
    val perm = new scala.util.Random(seed).shuffle((0 until nRels).toVector)
    val names = (0 until nRels).map(i => Fig9Env.relName(i) -> Fig9Env.relName(perm(i))).toMap
    def attr(a: Attr) = Attr(names(a.rel), a.name)
    queries.map(q => q.copy(relations = q.relations.map(names),
                            predicates = q.predicates.map(p => Pred(attr(p.x), attr(p.y)))))
  }
}

/** Input streams for Fig9Env relations: `rate` tuples per second each, with
  * attribute values uniform over `keys` values — the data Fig9Env.stats
  * describes (cardinality `rate` per 1 s window, selectivity 1/`keys`).
  */
object Streams {
  def uniform(nRels: Int, rate: Double, duration: Double, keys: Int, seed: Long): Vector[InTuple] = {
    val rng = new java.util.Random(seed ^ 0x5DEECE66DL)
    val n = (rate * duration).toInt
    val out = for (r <- 0 until nRels; k <- 0 until n) yield {
      val rel = Fig9Env.relName(r)
      // one tuple per 1/rate slot, at a random offset inside it
      val ts = (k + rng.nextDouble()) / rate
      InTuple(rel, Fig9Env.attrs.map(a => s"$rel.$a" -> rng.nextInt(keys).toLong).toMap, ts)
    }
    val sorted = out.sortBy(_.ts).toVector
    require(sorted.map(_.ts).distinct.size == sorted.size, "timestamps must be unique")
    sorted
  }
}
