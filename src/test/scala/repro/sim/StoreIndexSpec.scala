package repro.sim

import org.scalatest.funsuite.AnyFunSuite

/** The per-epoch store containers: the value-slot index must return exactly
  * the rows a filter would, in insertion order, however many rows were added
  * before and after its first use; the epoch ring must keep every live
  * epoch's container retrievable and evict exactly the rows of a cut.
  */
class StoreIndexSpec extends AnyFunSuite {

  private def row(vals: Array[Long], ts: Double) = new Row(vals, Array(ts), ts, ts)

  /** The rows of `c` that `index(slot)` chains for `v`, first to last. */
  private def chain(c: Container, slot: Int, v: Long): Vector[Int] = {
    val ix = c.index(slot)
    Iterator.iterate(ix.first(v))(ix.next).takeWhile(_ >= 0).toVector
  }

  test("a slot index lists the rows holding a value in insertion order, whenever it is first used") {
    val nSlots = 3
    for (seed <- 1 to 20; k <- Seq(0, 1, 5, 17, 40)) {
      val rnd = new java.util.Random(seed)
      val nRows = 40 + rnd.nextInt(100)
      // few distinct values, some of them negative or far apart
      val domain = Array(0L, 1L, 2L, -7L, 1L << 40, 33L)
      val rows = Vector.tabulate(nRows)(i =>
        row(Array.fill(nSlots)(domain(rnd.nextInt(domain.length))), i * 0.01))
      val c = new Container(nSlots)
      rows.take(k).foreach(c.add)
      // first use after k rows builds the indexes over them; later rows extend them
      (0 until nSlots).foreach(c.index)
      rows.drop(k).foreach(c.add)
      assert(c.size == nRows)
      for (s <- 0 until nSlots; v <- domain :+ 99L) {
        val want = rows.indices.filter(i => rows(i).vals(s) == v).toVector
        assert(chain(c, s, v) == want, s"seed $seed, k $k, slot $s, value $v")
      }
      rows.indices.foreach { i =>
        assert(c.row(i) eq rows(i))
        assert(c.minTs(i) == rows(i).minTs && c.maxTs(i) == rows(i).maxTs)
      }
    }
  }

  test("a slot index stays exact over many distinct values") {
    val c = new Container(1)
    val vals = Vector.tabulate(5000)(i => (i % 1700).toLong * 1000003L)
    vals.zipWithIndex.foreach { case (v, i) =>
      c.add(row(Array(v), i.toDouble))
      if (i == 10) c.index(0)
    }
    vals.distinct.foreach(v => assert(chain(c, 0, v) == vals.indices.filter(vals(_) == v).toVector))
    assert(chain(c, 0, 1L) == Vector.empty)
  }

  test("the epoch ring keeps every live epoch's container and evicts exactly a cut's rows") {
    val ring = new EpochRing(1)
    // 3 is older than 7; 40 and 8 share a slot in rings of 8, 16 and 32
    val epochs = Vector(7L, 3L, 40L, 8L, 11L)
    val rowsOf = epochs.zipWithIndex.map { case (e, i) => e -> (i + 2) }.toMap
    val conts = epochs.map { e =>
      val c = ring.getOrCreate(e)
      (0 until rowsOf(e)).foreach(j => c.add(row(Array(j.toLong), e + j * 0.1)))
      e -> c
    }.toMap
    epochs.foreach { e =>
      assert(ring.get(e) eq conts(e))
      assert(ring.getOrCreate(e) eq conts(e))
      assert(ring.get(e).size == rowsOf(e))
    }
    Seq(0L, 4L, 9L, 24L, 39L, 72L, 104L).foreach(e => assert(ring.get(e) == null, s"epoch $e"))

    // epochs e with (e + 1) * 1.0 < 9.0: 3 and 7
    assert(ring.evict(1.0, 9.0) == rowsOf(3L) + rowsOf(7L))
    assert(ring.get(3L) == null && ring.get(7L) == null)
    Seq(8L, 11L, 40L).foreach(e => assert(ring.get(e) eq conts(e)))
    assert(ring.evict(1.0, 9.0) == 0)
    assert(ring.evict(1.0, 41.5) == rowsOf(8L) + rowsOf(11L) + rowsOf(40L))
    epochs.foreach(e => assert(ring.get(e) == null))
  }
}
