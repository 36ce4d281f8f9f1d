package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** `EpochSamples` reaches the current epoch's samples through a cache; the
  * order in which epochs are observed, and a `prune` between observations,
  * must not change any count or estimate.
  */
class EpochSamplesSpec extends AnyFunSuite {

  private val q = Query("q", Set("R", "S"), Set(Pred.of("R", "a", "S", "a")), 3.0)

  private def tuple(rel: String, epoch: Long, i: Int, v: Long) =
    InTuple(rel, Map(s"$rel.a" -> v), epoch + i * 1e-3 + (if (rel == "S") 1e-4 else 0.0))

  /** Per epoch, its tuples in arrival order: enough that the 4-slot
    * reservoirs replace samples.
    */
  private def arrivals(epoch: Long): Vector[InTuple] = {
    val rnd = new java.util.Random(epoch)
    Vector.tabulate(60)(i => tuple(if (i % 3 == 0) "S" else "R", epoch, i, rnd.nextInt(5).toLong))
  }

  private def bits(st: Option[Stats]) =
    st.map(s => (s.card.view.mapValues(java.lang.Double.doubleToLongBits).toMap,
                 s.sel.view.mapValues(java.lang.Double.doubleToLongBits).toMap))

  private def assertSame(got: EpochSamples, want: EpochSamples, epochs: Seq[Long]): Unit =
    epochs.foreach { e =>
      Seq("R", "S").foreach(r => assert(got.count(e, r) == want.count(e, r), s"count($e, $r)"))
      assert(bits(got.estimate(e, Seq(q), 3.0)) == bits(want.estimate(e, Seq(q), 3.0)), s"estimate($e)")
    }

  test("counts and estimates do not depend on the order epochs are observed in, or on a prune between") {
    val feed = (1L to 4L).map(e => e -> arrivals(e)).toMap
    // epochs interleaved out of order, returning to earlier ones: each
    // epoch's own tuples keep their order
    val order = Seq(3L -> (0, 20), 1L -> (0, 30), 4L -> (0, 60), 1L -> (30, 60), 2L -> (0, 25),
                    3L -> (20, 60), 2L -> (25, 60))
    val mixed = new EpochSamples(1.0, sampleSize = 4)
    order.foreach { case (e, (a, b)) => feed(e).slice(a, b).foreach(mixed.observe(e, _)) }
    val inOrder = new EpochSamples(1.0, sampleSize = 4)
    (1L to 4L).foreach(e => feed(e).foreach(inOrder.observe(e, _)))
    assertSame(mixed, inOrder, 0L to 5L)

    // after a prune, an epoch observed again (here the last one observed
    // before the prune) starts from nothing
    mixed.observe(2L, tuple("R", 2L, 90, 1L))
    mixed.prune(3L)
    val again = arrivals(2L).take(10)
    again.foreach(mixed.observe(2L, _))
    feed(4L).take(5).foreach(mixed.observe(4L, _))
    val pruned = new EpochSamples(1.0, sampleSize = 4)
    again.foreach(pruned.observe(2L, _))
    (3L to 4L).foreach(e => feed(e).foreach(pruned.observe(e, _)))
    feed(4L).take(5).foreach(pruned.observe(4L, _))
    assert(mixed.count(2L, "R") == again.count(_.rel == "R"))
    assertSame(mixed, pruned, 0L to 5L)
  }
}
