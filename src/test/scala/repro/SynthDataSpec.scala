package repro

import org.apache.spark.sql.functions._
import repro.data.StreamData

class SynthDataSpec extends SparkSpec {

  test("row counts scale with the scale factor") {
    val c = SynthData.counts(0.01)
    assert(c("lineitem") == 60000L)
    assert(c("orders") == 15000L)
    assert(c("customer") == 1500L)
    assert(c("part") == 2000L)
    assert(c("supplier") == 100L)
    assert(c("nation") == 25L)
    assert(SynthData.lineitem(spark, 0.001).count() == 6000L)
    assert(SynthData.orders(spark, 0.001).count() == 1500L)
  }

  test("generators are deterministic in (sf, seed)") {
    val a = SynthData.orders(spark, 0.001).agg(sum("o_custkey")).head.getLong(0)
    val b = SynthData.orders(spark, 0.001).agg(sum("o_custkey")).head.getLong(0)
    assert(a == b)
  }

  test("lineitem foreign keys stay within their domains") {
    val sf = 0.002
    val mm = SynthData.lineitem(spark, sf)
      .agg(min("l_orderkey"), max("l_orderkey"), min("l_partkey"), max("l_partkey"),
           min("l_suppkey"), max("l_suppkey"))
      .head
    val c = SynthData.counts(sf)
    assert(mm.getLong(0) >= 1 && mm.getLong(1) <= c("orders"))
    assert(mm.getLong(2) >= 1 && mm.getLong(3) <= c("part"))
    assert(mm.getLong(4) >= 1 && mm.getLong(5) <= c("supplier"))
  }

  test("orders primary keys are dense and unique") {
    val o = SynthData.orders(spark, 0.001)
    assert(o.select("o_orderkey").distinct().count() == o.count())
  }

  test("supplier and nation join domains line up") {
    val s = SynthData.supplier(spark, 0.01)
    val n = SynthData.nation(spark)
    assert(n.count() == 25)
    val joined = s.join(n, s("s_nationkey") === n("n_nationkey")).count()
    assert(joined == s.count(), "every supplier has a nation")
  }

  test("each table has exactly the catalogued columns, in order") {
    val tables = Map(
      "lineitem" -> SynthData.lineitem(spark, 0.001),
      "orders"   -> SynthData.orders(spark, 0.001),
      "customer" -> SynthData.customer(spark, 0.001),
      "part"     -> SynthData.part(spark, 0.001),
      "supplier" -> SynthData.supplier(spark, 0.001),
      "nation"   -> SynthData.nation(spark),
    )
    assert(tables.keySet == StreamData.tpchAttrs.keySet)
    tables.foreach { case (rel, df) => assert(df.columns.toVector == StreamData.tpchAttrs(rel), rel) }
  }

  test("status domains match the paper's example (O/F vs O/F/P)") {
    val li = SynthData.lineitem(spark, 0.001).select("l_linestatus").distinct()
      .collect().map(_.getString(0)).toSet
    val o = SynthData.orders(spark, 0.001).select("o_orderstatus").distinct()
      .collect().map(_.getString(0)).toSet
    assert(li.subsetOf(Set("O", "F")))
    assert(o.subsetOf(Set("O", "F", "P")))
    assert(li.intersect(o).nonEmpty, "high-selectivity join must produce matches")
  }

}
