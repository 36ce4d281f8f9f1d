package repro.core

import repro.ilp.Solver

/** The set of probe orders actually installed (query orders + MIR maintenance
  * orders), produced by one of the planning strategies.
  */
final case class Selection(
    queries: Vector[Query],
    orders: Vector[(SlotId, Cand)],
)

/** Planning strategies of Section VII.A:
  *  - `mqo`: global ILP over all queries (CLASH-MQO);
  *  - `individual`: each query optimized in isolation (FI/SI baselines);
  *  - `sharedFromIndividual`: individually optimal plans with common steps
  *    and stores deduplicated afterwards (FS/SS baselines).
  */
object Planner {

  final case class Planned(problem: MqoProblem, solution: Solver.Solution) {
    def selection: Selection =
      Selection(problem.queries, solution.selected(problem))
  }

  /** Global multi-query optimization: one ILP over the whole workload. */
  def mqo(queries: Seq[Query], catalog: Catalog, stats: Stats, nodeBudget: Long = 500000L): Planned = {
    val p = MqoProblem.build(queries, catalog, stats)
    Planned(p, Solver.solve(p, nodeBudget))
  }

  /** Per-query optimization in isolation (own problem, own partitioning
    * candidates — the query does not know about the rest of the workload).
    */
  def individual(queries: Seq[Query], catalog: Catalog, stats: Stats, nodeBudget: Long = 500000L): Vector[Planned] =
    queries.toVector.map { q =>
      val p = MqoProblem.build(Seq(q), catalog, stats)
      Planned(p, Solver.solve(p, nodeBudget))
    }

  /** Merge individually optimal plans into one shared selection: stores and
    * identical steps are deduplicated, but plan *choice* stays locally optimal.
    */
  def sharedFromIndividual(planned: Seq[Planned]): Selection = {
    // One order per slot: a maintenance slot selected by several queries for
    // the same MIR is kept once, as `Topology.build` expects.
    val orders = planned.toVector.flatMap(_.selection.orders).distinctBy(_._1)
    Selection(planned.toVector.flatMap(_.problem.queries), orders)
  }
}
