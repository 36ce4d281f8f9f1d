package repro.exp

import repro.core._
import repro.data.Fig9Env
import repro.ilp.Solver

/** Driver for the ILP experiments (Section VII.C, Fig. 9a–9f): random queries
  * over a simulated environment; compares probe cost with and without
  * cross-query sharing and reports problem sizes and optimization runtimes.
  */
object Fig9Experiment {

  final case class Row(
      nRels: Int,
      nQ: Int,
      size: Int,
      individualCost: Double,
      mqoCost: Double,
      vars: Int,
      probeOrders: Int,
      buildMs: Double,
      solveMs: Double,
      totalMs: Double,
      optimal: Boolean,
  ) {
    def savings: Double = 1.0 - mqoCost / individualCost
    def tsv: String =
      f"$nRels%4d\t$nQ%4d\t$size%2d\t$individualCost%14.1f\t$mqoCost%12.1f\t${savings * 100}%6.1f%%" +
        f"\t$vars%7d\t$probeOrders%7d\t$buildMs%9.1f\t$solveMs%9.1f\t$totalMs%9.1f\t$optimal%s"
  }

  val header: String =
    "rels\t  nQ\tsz\tindividualCost\t     mqoCost\t  save\t   vars\t orders\t  buildMs\t  solveMs\t  totalMs\toptimal"

  /** Solver node budget of the global problem; the individual problems share it. */
  private val NodeBudget = 300000L

  def run(nRels: Int, nQ: Int, size: Int, seed: Long): Row = {
    val catalog = Fig9Env.catalog(nRels)
    val stats = Fig9Env.stats(nRels)
    val queries = Fig9Env.randomQueries(nRels, nQ, size, seed)

    val t0 = System.nanoTime()
    val problem = MqoProblem.build(queries, catalog, stats)
    val t1 = System.nanoTime()
    val sol = Solver.solve(problem, NodeBudget)
    val t2 = System.nanoTime()

    // Individual optimization: each query solved on its own problem, no
    // sharing across queries — total cost is the plain sum.
    val perQuery = Planner.individual(queries, catalog, stats,
                                      math.max(10000L, NodeBudget / math.max(1, queries.size)))
    val individual = perQuery.map(_.solution.cost).sum

    Row(
      nRels = nRels,
      nQ = nQ,
      size = size,
      individualCost = individual,
      mqoCost = sol.cost,
      vars = problem.numVars,
      probeOrders = problem.numProbeOrders,
      buildMs = (t1 - t0) / 1e6,
      solveMs = (t2 - t1) / 1e6,
      totalMs = (t2 - t0) / 1e6,
      optimal = sol.optimal,
    )
  }
}
