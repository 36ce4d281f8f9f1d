package repro.perfbench

/** A fixed reference kernel, timed between timed passes.
  *
  * The host this benchmark runs on is shared: for minutes at a time the same
  * pass can run 20-30% slower or faster while neighbours load the machine.
  * The yardstick is benchmark code, not program code, so it does the same work
  * on every commit and its time measures only how fast the machine is at that
  * moment. Dividing a pass's CPU time by the yardstick's CPU time next to it
  * cancels most of that drift.
  *
  * The kernel has the program's profile, a chained hash table of small heap
  * nodes with random inserts and lookups and a steady stream of short-lived
  * allocation, but it uses only its own classes and arrays. No JIT profile is
  * shared with the program, so the program cannot change how the yardstick
  * compiles.
  */
object Yardstick {
  private final class Node(val key: Long, var count: Int, val next: Node)

  private val rounds = 4
  private val buckets = 1 << 17
  private val distinctKeys = 1 << 18
  private val inserts = 1 << 20

  /** Run the kernel once and return its checksum, which never varies. */
  def run(): Long = {
    val rng = new java.util.SplittableRandom(7L)
    var acc = 0L
    var r = 0
    while (r < rounds) {
      val table = new Array[Node](buckets)
      var i = 0
      while (i < inserts) {
        val k = rng.nextInt(distinctKeys).toLong * 0x9E3779B97F4A7C15L
        val b = ((k >>> 40) & (buckets - 1)).toInt
        var n = table(b)
        while (n != null && n.key != k) n = n.next
        if (n == null) table(b) = new Node(k, 1, table(b)) else n.count += 1
        i += 1
      }
      var b = 0
      while (b < buckets) {
        var n = table(b)
        while (n != null) { acc += n.count.toLong * (b + 1); n = n.next }
        b += 1
      }
      r += 1
    }
    acc
  }

  /** CPU seconds of one run; throws if the checksum ever changes. */
  def time(): Double = {
    val t0 = Tracer.cpuNs()
    val sum = run()
    val s = (Tracer.cpuNs() - t0) / 1e9
    if (sum != checksum) throw new IllegalStateException(s"yardstick checksum $sum != $checksum")
    s
  }

  private lazy val checksum = run()
}
