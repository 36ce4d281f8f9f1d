package repro.sim

/** The rows one store partition holds for one epoch, in insertion order, with
  * their min/max timestamps in parallel columns so that a probe reads a row
  * only when it matches on more than one slot pair or builds a result.
  * Each value slot gets an index the first time it is probed.
  */
private[sim] final class Container(nSlots: Int) {
  private var rows = new Array[Row](8)
  private var mins = new Array[Double](8)
  private var maxs = new Array[Double](8)
  private var n = 0
  private val idx = new Array[SlotIndex](nSlots)

  def size: Int = n
  def row(i: Int): Row = rows(i)
  def minTs(i: Int): Double = mins(i)
  def maxTs(i: Int): Double = maxs(i)

  def add(r: Row): Unit = {
    if (n == rows.length) {
      rows = java.util.Arrays.copyOf(rows, 2 * n)
      mins = java.util.Arrays.copyOf(mins, 2 * n)
      maxs = java.util.Arrays.copyOf(maxs, 2 * n)
    }
    rows(n) = r
    mins(n) = r.minTs
    maxs(n) = r.maxTs
    var s = 0
    while (s < nSlots) {
      if (idx(s) != null) idx(s).add(r.vals(s), n)
      s += 1
    }
    n += 1
  }

  /** The index of value slot `slot`, built over the rows so far on first use. */
  def index(slot: Int): SlotIndex = {
    var ix = idx(slot)
    if (ix == null) {
      ix = new SlotIndex(math.max(n, 8))
      var i = 0
      while (i < n) { ix.add(rows(i).vals(slot), i); i += 1 }
      idx(slot) = ix
    }
    ix
  }
}

/** Row indices chained by value: an open-addressing table from a value to the
  * first and last row holding it, and `next(i)`, the next row after row `i`
  * with the same value, or -1. Rows are appended at the tail of their chain,
  * so `first(v)`, `next`, `next`, … visits them in insertion order.
  */
private[sim] final class SlotIndex(rowCapacity: Int) {
  // Table slot p is two longs, so that a lookup reads one cache line: the
  // value at 2p, and at 2p + 1 the chain's (first + 1) << 32 | (last + 1),
  // which is 0 for a free slot.
  // at most half of the slots are used
  private var table = new Array[Long](32)
  private var used = 0
  private var nextRow = new Array[Int](rowCapacity)

  /** The table slot of `v`, or the free slot where it would go. */
  private def find(v: Long): Int = {
    val mask = (table.length >> 1) - 1
    val h = v * 0x9e3779b97f4a7c15L
    var p = (h ^ (h >>> 32)).toInt & mask
    while (table(2 * p + 1) != 0 && table(2 * p) != v) p = (p + 1) & mask
    p
  }

  /** The first row holding `v`, or -1. */
  def first(v: Long): Int = (table(2 * find(v) + 1) >>> 32).toInt - 1

  /** The row after row `i` holding the same value, or -1. */
  def next(i: Int): Int = nextRow(i)

  /** Append row `i`, which holds `v`; rows are added in ascending order. */
  def add(v: Long, i: Int): Unit = {
    if (i >= nextRow.length) nextRow = java.util.Arrays.copyOf(nextRow, math.max(i + 1, 2 * nextRow.length))
    nextRow(i) = -1
    val p = find(v)
    val chain = table(2 * p + 1)
    if (chain == 0) {
      table(2 * p) = v
      table(2 * p + 1) = (i + 1).toLong << 32 | (i + 1)
      used += 1
      if (4 * used > table.length) rehash()
    } else {
      nextRow(chain.toInt - 1) = i
      table(2 * p + 1) = (chain & 0xffffffff00000000L) | (i + 1)
    }
  }

  private def rehash(): Unit = {
    val old = table
    table = new Array[Long](2 * old.length)
    var j = 0
    while (j < old.length) {
      if (old(j + 1) != 0) {
        val p = find(old(j))
        table(2 * p) = old(j)
        table(2 * p + 1) = old(j + 1)
      }
      j += 2
    }
  }
}

/** A partition's containers by epoch, in a ring indexed by
  * `epoch & (length - 1)`. Live epochs are usually a contiguous window, but
  * MIR inserts land in the epoch of a combination's earliest component, which
  * can be older than the ring's newest epoch; when two live epochs would share
  * a ring slot, the ring doubles until none do.
  */
private[sim] final class EpochRing(nSlots: Int) {
  private var epochs = new Array[Long](8)
  private var conts = new Array[Container](8)

  /** The container of epoch `e`, or null. */
  def get(e: Long): Container = {
    val i = (e & (conts.length - 1)).toInt
    val c = conts(i)
    if (c != null && epochs(i) == e) c else null
  }

  def getOrCreate(e: Long): Container = {
    var i = (e & (conts.length - 1)).toInt
    while (conts(i) != null && epochs(i) != e) {
      grow()
      i = (e & (conts.length - 1)).toInt
    }
    if (conts(i) == null) {
      conts(i) = new Container(nSlots)
      epochs(i) = e
    }
    conts(i)
  }

  /** Drop the containers of every epoch `e` with `(e + 1) * epochLen < cut`;
    * return the number of rows dropped.
    */
  def evict(epochLen: Double, cut: Double): Long = {
    var dropped = 0L
    var i = 0
    while (i < conts.length) {
      if (conts(i) != null && (epochs(i) + 1) * epochLen < cut) {
        dropped += conts(i).size
        conts(i) = null
      }
      i += 1
    }
    dropped
  }

  // Distinct epochs keep distinct slots when the length doubles, since the
  // slot under the old length is the low bits of the slot under the new one.
  private def grow(): Unit = {
    val (es, cs) = (epochs, conts)
    epochs = new Array[Long](2 * es.length)
    conts = new Array[Container](2 * cs.length)
    var j = 0
    while (j < cs.length) {
      if (cs(j) != null) {
        val i = (es(j) & (conts.length - 1)).toInt
        epochs(i) = es(j)
        conts(i) = cs(j)
      }
      j += 1
    }
  }
}
