package repro.sim

import repro.core._
import scala.collection.mutable

/** Per-epoch statistics gathering (Section VI.A): arrival counts and a
  * deterministic reservoir sample per relation, turned into cardinality and
  * per-predicate selectivity estimates for the optimizer at epoch boundaries.
  */
final class EpochSamples(epochLen: Double, sampleSize: Int = 512) {

  /** One relation's arrivals in one epoch: their count, the reservoir, and
    * the reservoir's random source, created at its first replacement.
    */
  private final class RelSample {
    var count = 0L
    val reservoir = mutable.ArrayBuffer[InTuple]()
    var rng: java.util.Random = null
  }

  private val epochs = mutable.LongMap[mutable.HashMap[String, RelSample]]()
  // the epoch `observe` last wrote to and its samples; null after `prune`
  private var curEpoch = 0L
  private var cur: mutable.HashMap[String, RelSample] = null

  def observe(epoch: Long, t: InTuple): Unit = {
    if (cur == null || epoch != curEpoch) {
      cur = epochs.getOrElseUpdate(epoch, mutable.HashMap())
      curEpoch = epoch
    }
    var r = cur.getOrElse(t.rel, null)
    if (r == null) {
      r = new RelSample
      cur(t.rel) = r
    }
    val n = r.count
    r.count = n + 1
    if (r.reservoir.size < sampleSize) r.reservoir += t
    else {
      if (r.rng == null) r.rng = new java.util.Random(epoch * 31 + t.rel.hashCode)
      val j = (r.rng.nextDouble() * (n + 1)).toLong
      if (j < sampleSize) r.reservoir(j.toInt) = t
    }
  }

  private def sample(epoch: Long, rel: String): Option[RelSample] = epochs.get(epoch).flatMap(_.get(rel))

  def count(epoch: Long, rel: String): Long = sample(epoch, rel).fold(0L)(_.count)

  /** Estimate Stats from epoch data: per-window cardinality = rate × window,
    * and per-predicate selectivity as the match rate between the epoch's
    * sample and the union of samples over the last W = ⌈window / epochLen⌉
    * epochs. Matching against the window-wide union (instead of epoch-local
    * pairs) avoids overestimating selectivity for time-correlated keys, but
    * only once the samples span the window, from epoch e ≥ W − 1 on. Before
    * that the union holds only e + 1 epochs' samples, so for a time-local
    * join the same matches are divided by a smaller sample and the estimate
    * runs about W / (e + 1) times too high. Returns None when a referenced
    * relation has no sample in the epoch.
    */
  def estimate(epoch: Long, queries: Seq[Query], window: Double): Option[Stats] = {
    val d = epochs.get(epoch).getOrElse(return None)
    val rels = queries.flatMap(_.relations).toSet
    if (!rels.forall(d.contains)) return None // a relation's record exists from its first arrival

    val card = rels.map(r => r -> d(r).count.toDouble / epochLen * window).toMap

    val windowEpochs = math.max(1L, math.ceil(window / epochLen).toLong)
    def windowSample(rel: String): Vector[InTuple] =
      (math.max(0L, epoch - windowEpochs + 1) to epoch).flatMap(e =>
        sample(e, rel).fold[Iterable[InTuple]](Nil)(_.reservoir)).toVector

    val preds = queries.flatMap(_.predicates).toSet
    val sel = preds.map { p =>
      val sa = d(p.x.rel).reservoir
      val sb = windowSample(p.y.rel)
      val byVal = mutable.Map[Long, Long]().withDefaultValue(0L)
      sa.foreach(t => byVal(t.vals(p.x.full)) += 1)
      var m = 0L
      sb.foreach(t => m += byVal(t.vals(p.y.full)))
      p -> m.toDouble / (sa.size.toLong * sb.size.toLong)
    }.toMap

    Some(Stats(card, sel))
  }

  /** Drop epochs older than `beforeEpoch` to bound memory. */
  def prune(beforeEpoch: Long): Unit = {
    epochs.keys.filter(_ < beforeEpoch).toVector.foreach(epochs.remove)
    cur = null
  }
}
