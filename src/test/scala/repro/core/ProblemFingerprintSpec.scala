package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Artificial, Fig9Env, StreamData}
import scala.util.hashing.MurmurHash3

/** Golden fingerprint of `MqoProblem.build`: the variable and probe-order
  * counts, the number of distinct steps, the order of slots and candidates,
  * each candidate's step keys (in `stepIds` order) and MIR usage, and the
  * exact bits of every step cost and of the candidate's cost. Any change in
  * enumeration order, step identity or floating-point evaluation order of
  * the cost model shows up here.
  */
class ProblemFingerprintSpec extends AnyFunSuite {
  import ProblemFingerprintSpec._

  /** The `fig9_plan` shapes: (relations, queries, query size). */
  private val shapes = Vector((100, 10, 3), (100, 10, 4), (100, 10, 5), (10, 50, 3), (10, 100, 3))

  test("Fig 9 instances build the same problem") {
    val got = shapes.zipWithIndex.map { case ((nRels, nQ, size), i) =>
      val qs = Fig9Env.randomQueries(nRels, nQ, size, 2021L + i)
      assert(qs.size == nQ)
      Print(MqoProblem.build(qs, Fig9Env.catalog(nRels), Fig9Env.stats(nRels)))
    }
    shapes.indices.foreach(i => assert(got(i) == Fig9(i), s"shape ${shapes(i)}: got ${got(i)}"))
  }

  test("the mq_shared shape builds the same problem") {
    val qs = Fig9Env.randomQueries(10, 30, 3, 2021L)
    assert(qs.size == 30)
    val got = Print(MqoProblem.build(qs, Fig9Env.catalog(10), Fig9Env.stats(10)))
    assert(got == MqShared, s"mq_shared: got $got")
  }

  test("the Fig 7 TPC-H-lite workload builds the same problem") {
    // Fig 7's relations have different cardinalities, so the bits of each
    // cost also pin the order of the `joinCard` product.
    val qs = StreamData.randomTpchQueries(10, Seq(3, 3, 4), window = 60.0, seed = 4242L)
    assert(qs.size == 10)
    val got = Print(MqoProblem.build(qs, StreamData.tpchCatalog(), StreamData.tpchStats(0.005, 60.0, 600.0)))
    assert(got == Fig7, s"fig7: got $got")
  }

  test("the Fig 8b initial statistics build the same problem") {
    // Fig8Experiment.fig8b initial statistics, planned as StaticPlan does
    val window = 5.0
    val card = 200.0 * window
    val stats = Stats(
      Map("R" -> 2000.0 * window, "S" -> card, "T" -> card, "U" -> card),
      Map(Pred.of("R", "a", "S", "a") -> 1.0 / card,
          Pred.of("S", "b", "T", "b") -> 1.0 / card,
          Pred.of("T", "c", "U", "c") -> 25.0 / card))
    val p = MqoProblem.build(Vector(Artificial.query(window)), Artificial.catalog(), stats)
    val got = Print(p)
    assert(got == Fig8b, s"fig8b: got $got")
  }
}

object ProblemFingerprintSpec {

  /** What a build must reproduce exactly. Slots are visited query slots
    * first (in `querySlots` order), then the maintenance slots of each MIR
    * in MIR-key order. `slotsDigest` combines, per slot, its key and a digest
    * of its candidates' step keys and `mirsUsed`, in candidate order;
    * `costsDigest` combines the `doubleToLongBits` of every candidate's step
    * costs followed by that of its cost, `p.cost(c.stepIds)`, in the same
    * order.
    */
  final case class Print(numVars: Int, numProbeOrders: Int, numSteps: Int, numSlots: Int,
                         slotsDigest: Int, costsDigest: Int)

  object Print {
    def apply(p: MqoProblem): Print = {
      val slots = p.querySlots ++ p.mirSlots.keys.toVector.sorted.flatMap(p.mirSlots)
      def bits(d: Double): Long = java.lang.Double.doubleToLongBits(d)
      val slotDigests = slots.map { s =>
        val cands = p.slotCands(s).map { c =>
          MurmurHash3.orderedHash(Costed(p, c).map(_._1.toString) ++ c.mirsUsed.map("mir " + _))
        }
        (s.key, MurmurHash3.orderedHash(cands))
      }
      val costBits =
        slots.flatMap(p.slotCands).flatMap(c => Costed(p, c).map(kc => bits(kc._2)) :+ bits(p.cost(c.stepIds)))
      Print(p.numVars, p.numProbeOrders, p.stepCost.size, slots.size,
            MurmurHash3.orderedHash(slotDigests), MurmurHash3.orderedHash(costBits))
    }
  }

  // Recorded from the build that computed step keys and costs per candidate.
  val Fig9: Vector[Print] = Vector(
    Print(344, 152, 192, 70, -64194931, 1675397905),
    Print(2135, 1006, 1129, 163, -986161634, 93992114),
    Print(15995, 7843, 8152, 359, 1114759074, -1353051825),
    Print(5352, 2636, 2716, 230, 633672193, 70628571),
    Print(10220, 5065, 5155, 390, 600599842, -299160915),
  )

  val Fig8b: Print = Print(152, 70, 82, 16, -1424276579, 1470081033)

  // Recorded from the build that interned steps by their string keys.
  val MqShared: Print = Print(3362, 1645, 1717, 162, -1082172918, 1764604116)

  val Fig7: Print = Print(1834, 939, 895, 77, 1603727918, -1506366527)
}
