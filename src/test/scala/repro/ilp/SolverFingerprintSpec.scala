package repro.ilp

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{Artificial, Fig9Env}
import scala.util.hashing.MurmurHash3

/** Golden fingerprint of the branch-and-bound solver: the exact cost bits,
  * node count, optimality flag, choice and step set of fixed solves. The
  * search is deterministic, so any change in candidate order, pruning or
  * floating-point summation order shows up here.
  */
class SolverFingerprintSpec extends AnyFunSuite {
  import SolverFingerprintSpec._

  private def check(label: String, p: MqoProblem, budget: Long, expected: Print): Unit = {
    val got = Print(Solver.solve(p, budget))
    assert(got == expected, label)
  }

  /** The `fig9_plan` shapes: (relations, queries, query size). */
  private val shapes = Vector((100, 10, 3), (100, 10, 4), (100, 10, 5), (10, 50, 3), (10, 100, 3))

  private def fig9(i: Int): MqoProblem = {
    val (nRels, nQ, size) = shapes(i)
    val qs = Fig9Env.randomQueries(nRels, nQ, size, 2021L + i)
    assert(qs.size == nQ)
    MqoProblem.build(qs, Fig9Env.catalog(nRels), Fig9Env.stats(nRels))
  }

  test("Fig 9 instances reproduce their solutions at a 300k-node budget") {
    shapes.indices.foreach(i => check(s"shape ${shapes(i)}", fig9(i), 300000L, Fig9(i)))
  }

  test("the anytime search stops at the same incumbent for small budgets") {
    // (100, 10, 5): branch and bound improves on the incumbent only after
    // 20k nodes, so these budgets stop before the 300k-node solution
    val p = fig9(2)
    Budgets.foreach { case (budget, expected) => check(s"budget $budget", p, budget, expected) }
  }

  test("the Fig 8b initial plan reproduces its solution") {
    // Fig8Experiment.fig8b initial statistics, planned as StaticPlan does
    val window = 5.0
    val card = 200.0 * window
    val stats = Stats(
      Map("R" -> 2000.0 * window, "S" -> card, "T" -> card, "U" -> card),
      Map(Pred.of("R", "a", "S", "a") -> 1.0 / card,
          Pred.of("S", "b", "T", "b") -> 1.0 / card,
          Pred.of("T", "c", "U", "c") -> 25.0 / card))
    val p = MqoProblem.build(Vector(Artificial.query(window)), Artificial.catalog(), stats)
    check("fig8b", p, 200000L, Fig8b)
  }
}

object SolverFingerprintSpec {

  /** What a solve must reproduce exactly. The choice is digested as
    * (slot key, candidate index) pairs in slot-key order, the steps as their
    * sorted string forms.
    */
  final case class Print(costBits: Long, nodes: Long, optimal: Boolean, choiceDigest: Int, stepsDigest: Int)

  object Print {
    def apply(s: Solver.Solution): Print = Print(
      java.lang.Double.doubleToLongBits(s.cost),
      s.nodes,
      s.optimal,
      MurmurHash3.orderedHash(s.choice.toVector.map { case (sid, i) => (sid.key, i) }.sortBy(_._1)),
      MurmurHash3.orderedHash(s.steps.toVector.map(_.toString).sorted),
    )
  }

  // Recorded from the map-based solver that preceded the compiled search space.
  val Fig9: Vector[Print] = Vector(
    Print(4661669817026084864L, 300027L, optimal = false, -313441845, 234875569),
    Print(4664785099971450193L, 300041L, optimal = false, -731621435, -1275352577),
    Print(4666929330897551362L, 300053L, optimal = false, 280875326, -1559881431),
    Print(4669032146885672960L, 300147L, optimal = false, -249640464, 220806756),
    Print(4672161356978323456L, 300297L, optimal = false, -1370242162, 1842205602),
  )

  val Budgets: Vector[(Long, Print)] = Vector(
    1L -> Print(4666952237389796695L, 200L, optimal = false, 517989200, -1522399132),
    1000L -> Print(4666952237389796695L, 1052L, optimal = false, 517989200, -1522399132),
    20000L -> Print(4666952237389796695L, 20053L, optimal = false, 517989200, -1522399132),
  )

  val Fig8b: Print = Print(4674814112032271019L, 1648L, optimal = true, -497876346, 567074830)
}
