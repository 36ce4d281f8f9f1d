package repro.sim

import repro.core._
import repro.ilp.Solver

/** Epoch-driven adaptive re-optimization (Section VI): at the start of epoch
  * e the statistics of epoch e-1 are evaluated; if the optimizer's plan
  * changed (or the query set did), a new configuration is installed for epoch
  * e+1. The first configuration (from `initialStats`) activates immediately.
  *
  * `queriesAt` models query arrival/expiry (Section VI.B): it returns the
  * query set active at a point in time; removed queries drop out of the
  * optimizer input and their stores are reference-count-collected by the sim.
  *
  * The problem is enumerated once per query set (compared by value) and
  * re-priced under each epoch's statistics. Every plan is solved with
  * `AdaptiveController.NodeBudget` nodes. A plan for an unchanged query set
  * is installed only when its cost is below `AdaptiveController.Hysteresis`
  * times the installed plan's step ids summed in the re-priced step table.
  */
final class AdaptiveController(
    queriesAt: Double => Vector[Query],
    catalog: Catalog,
    initialStats: Stats,
    useEstimates: Boolean = true, // false: plan from initialStats only (query changes still apply)
) extends Controller {
  import AdaptiveController._

  /** The installed plan: its queries and its distinct step ids in `problem`,
    * ascending. The empty configuration, like the state before the first
    * install, is (∅, ∅).
    */
  private var installed: (Set[Query], Vector[Int]) = Empty
  /** The enumeration of the current query set, priced as last planned. */
  private var problem: MqoProblem = null
  var enumerations = 0
  var reoptimizations = 0
  var installs = 0
  var bootstraps = 0

  override def onEpoch(epoch: Long, sim: EventSim): Unit = {
    val now = epoch * sim.params.epochLen
    val qs = queriesAt(now)
    if (qs.isEmpty) {
      // All queries expired: install an empty configuration once so stores
      // can be reference-count-collected after their windows pass.
      if (installed != Empty) {
        sim.installConfig(if (epoch == 0) 0L else epoch + 1,
                          Topology.build(Selection(Vector.empty, Vector.empty), catalog))
        installed = Empty
        installs += 1
      }
      return
    }
    val window = qs.map(_.window).max
    val windowEpochs = math.ceil(window / sim.params.epochLen).toLong

    val stats =
      if (epoch == 0 || !useEstimates) Some(initialStats)
      else sim.samples.estimate(epoch - 1, qs, window)

    stats.foreach { st =>
      reoptimizations += 1
      problem =
        if (problem != null && problem.queries.toSet == qs.toSet) problem.repriced(st)
        else { enumerations += 1; MqoProblem.build(qs, catalog, st) }
      val planned = Planner.Planned(problem, Solver.solve(problem, NodeBudget))
      val plan = (qs.toSet, planned.selection.orders.flatMap(_._2.stepIds).distinct.sorted)
      val queriesChanged = installed._1 != plan._1
      // read only when the queries are unchanged, so the installed ids are `problem`'s
      def clearlyBetter = planned.solution.cost < Hysteresis * problem.cost(installed._2.toArray)
      if (plan != installed && (queriesChanged || clearlyBetter)) {
        val topo = Topology.build(planned.selection, catalog)
        // Section VI.B bootstrap: when the new configuration only uses store
        // instances that every configuration over the last window already
        // maintained — e.g. a new query over relations other queries already
        // registered — install it retroactively for all epochs overlapping
        // the current window: the new query then answers over the existing
        // history instead of waiting a full window for complete answers.
        val retro = math.max(0L, epoch + 1 - windowEpochs)
        val target =
          if (epoch == 0) 0L
          else if (queriesChanged &&
                   topo.storeKeys.subsetOf(sim.coveredStoreKeys(retro, epoch))) {
            bootstraps += 1
            retro
          } else epoch + 1
        sim.installConfig(target, topo)
        installed = plan
        installs += 1
      }
    }
  }
}

object AdaptiveController {
  private val Empty: (Set[Query], Vector[Int]) = (Set.empty, Vector.empty)

  /** Solver node budget of every Fig 8 plan, static and adaptive, so the two
    * strategies differ only in when they re-plan.
    */
  val NodeBudget = 200000L
  /** Rewire only for an estimated improvement of at least 10%. */
  val Hysteresis = 0.9
}

/** Static strategy: one configuration from the initial statistics, never
  * re-optimized (the paper's "S" baseline in Fig. 8), solved with the
  * adaptive plans' budget, `AdaptiveController.NodeBudget`.
  */
object StaticPlan {
  def install(sim: EventSim, queries: Vector[Query], catalog: Catalog, stats: Stats): Topology = {
    val planned = Planner.mqo(queries, catalog, stats, AdaptiveController.NodeBudget)
    val topo = Topology.build(planned.selection, catalog)
    sim.installConfig(0L, topo)
    topo
  }
}
