package repro.sim

/** A binary min-heap of events over parallel arrays, ordered by time and then
  * by a key. Times compare with `java.lang.Double.compare`. Keys must be
  * unique, so the order is strict and the sequence of polls is fully
  * determined by the events added.
  */
private[sim] final class EventQueue[A <: AnyRef] {
  private var time = new Array[Double](64)
  private var key = new Array[Long](64)
  private var item = new Array[AnyRef](64)
  private var n = 0

  def isEmpty: Boolean = n == 0

  /** Time of the first event; the queue must not be empty. */
  def headTime: Double = time(0)

  private def before(t: Double, k: Long, j: Int): Boolean = {
    val c = java.lang.Double.compare(t, time(j))
    c < 0 || (c == 0 && k < key(j))
  }

  private def put(i: Int, t: Double, k: Long, a: AnyRef): Unit = { time(i) = t; key(i) = k; item(i) = a }

  def add(t: Double, k: Long, a: A): Unit = {
    if (n == time.length) {
      time = java.util.Arrays.copyOf(time, 2 * n)
      key = java.util.Arrays.copyOf(key, 2 * n)
      item = java.util.Arrays.copyOf(item, 2 * n)
    }
    var i = n
    n += 1
    var up = true
    while (up && i > 0) {
      val p = (i - 1) >>> 1
      if (before(t, k, p)) { put(i, time(p), key(p), item(p)); i = p }
      else up = false
    }
    put(i, t, k, a)
  }

  /** Remove and return the first event; the queue must not be empty. */
  def poll(): A = {
    val head = item(0).asInstanceOf[A]
    n -= 1
    val t = time(n)
    val k = key(n)
    val a = item(n)
    item(n) = null
    if (n > 0) {
      var i = 0
      var down = true
      while (down) {
        val l = 2 * i + 1
        if (l >= n) down = false
        else {
          val c = if (l + 1 < n && before(time(l + 1), key(l + 1), l)) l + 1 else l
          if (!before(t, k, c)) { put(i, time(c), key(c), item(c)); i = c }
          else down = false
        }
      }
      put(i, t, k, a)
    }
    head
  }
}
