package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.core._
import scala.util.hashing.MurmurHash3

class StreamDataSpec extends SparkSpec {
  import StreamDataSpec._

  test("withTs assigns unique timestamps within a relation") {
    val df = StreamData.withTs(spark.range(500).toDF("v"), seed = 1, horizon = 100.0, relIdx = 0)
    assert(df.select("ts").distinct().count() == 500)
  }

  test("withTs timestamps are unique across relations") {
    val a = StreamData.withTs(spark.range(300).toDF("v"), 1, 100.0, relIdx = 0)
    val b = StreamData.withTs(spark.range(700).toDF("v"), 2, 100.0, relIdx = 1)
    val all = a.select("ts").union(b.select("ts"))
    assert(all.distinct().count() == 1000)
  }

  test("withTs spans the horizon at the expected rate") {
    val df = StreamData.withTs(spark.range(1000).toDF("v"), 3, horizon = 50.0, relIdx = 2)
    val mm = df.agg(min("ts"), max("ts")).head()
    assert(mm.getDouble(0) >= 0.0 && mm.getDouble(0) < 1.0)
    assert(mm.getDouble(1) < 50.0 && mm.getDouble(1) > 45.0)
  }

  test("withTs is deterministic in the seed") {
    def sig = StreamData.withTs(spark.range(100).toDF("v"), 9, 10.0, 0)
      .orderBy("v").select("ts").collect().map(_.getDouble(0)).toVector
    assert(sig == sig)
    val other = StreamData.withTs(spark.range(100).toDF("v"), 10, 10.0, 0)
      .orderBy("v").select("ts").collect().map(_.getDouble(0)).toVector
    assert(sig != other)
  }

  test("collect keeps join attributes, encodes to Long, sorts by ts") {
    val df = StreamData.withTs(
      spark.range(50).toDF("k").withColumn("flag", lit("F")), 5, 10.0, 0)
    val ts = StreamData.collect("x", df, Seq("k", "flag"))
    assert(ts.size == 50)
    assert(ts.sliding(2).forall(p => p.size < 2 || p(0).ts < p(1).ts))
    assert(ts.head.vals.keySet == Set("x.k", "x.flag"))
    assert(ts.head.vals("x.flag") == "F".hashCode.toLong)
  }

  test("enc is stable for keys, strings, dates") {
    assert(StreamData.enc(java.lang.Long.valueOf(7L)) == 7L)
    assert(StreamData.enc(java.lang.Integer.valueOf(7)) == 7L)
    assert(StreamData.enc("F") == StreamData.enc("F"))
    assert(StreamData.enc("F") != StreamData.enc("O"))
    assert(StreamData.enc(java.sql.Date.valueOf("1992-01-02")) ==
           java.time.LocalDate.parse("1992-01-02").toEpochDay)
  }

  test("tpch stream bundle covers the catalogued relations and attributes") {
    val dfs = StreamData.tpchStreams(spark, sf = 0.001, horizon = 100.0)
    StreamData.tpchAttrs.foreach { case (rel, attrs) =>
      assert(dfs.contains(rel))
      assert(dfs(rel).columns.toSet == attrs.toSet + "ts")
    }
  }

  test("tpch streams keep their golden fingerprint") {
    val parts = spark.sparkContext.defaultParallelism
    val golden = TpchFingerprint.getOrElse(parts,
      fail(s"no fingerprint recorded for $parts partitions; set SPARK_MASTER to local[1], local[2], local[4] or local[8]"))
    val dfs = StreamData.tpchStreams(spark, sf = 0.001, horizon = 100.0)
    val got = dfs.map { case (rel, df) => rel -> fingerprint(df) }
    assert(got.keySet == golden.keySet)
    golden.keys.toSeq.sorted.foreach(rel => assert(got(rel) == golden(rel), s"$rel: got ${got(rel)}"))
  }

  test("tpch predicates connect catalogued attributes") {
    val cat = StreamData.tpchCatalog()
    (StreamData.tpchPkFkPreds :+ StreamData.tpchStatusPred).foreach { p =>
      assert(cat(p.x.rel).attrs.contains(p.x.name), p.toString)
      assert(cat(p.y.rel).attrs.contains(p.y.name), p.toString)
    }
  }

  test("tpchStats: window-scaled cards and key selectivities") {
    val st = StreamData.tpchStats(sf = 0.01, window = 60.0, horizon = 600.0)
    assert(st.cardOf("lineitem") === 60000.0 * 60 / 600)
    assert(st.selOf(Pred.of("lineitem", "l_orderkey", "orders", "o_orderkey")) === 1.0 / 15000)
    assert(st.selOf(StreamData.tpchStatusPred) === 1.0 / 3.0)
  }

  test("random TPC-H queries: connected, requested sizes, exact duplicates removed") {
    val qs = StreamData.randomTpchQueries(10, Seq(3, 4), window = 60.0, seed = 11)
    assert(qs.size == 10)
    assert(qs.map(q => (q.relations, q.predicates)).distinct.size == 10)
    qs.foreach { q =>
      assert(Seq(3, 4).contains(q.size))
      assert(AttrEq.connectedRels(q.relations, q.predicates), q.toString)
    }
  }

  test("random TPC-H queries are deterministic in the seed") {
    val a = StreamData.randomTpchQueries(5, Seq(3), 60.0, seed = 3)
    val b = StreamData.randomTpchQueries(5, Seq(3), 60.0, seed = 3)
    assert(a == b)
  }

  test("status predicate only ever appears alongside a connecting edge") {
    val qs = StreamData.randomTpchQueries(20, Seq(3, 4), 60.0, seed = 5)
    qs.filter(_.predicates.contains(StreamData.tpchStatusPred)).foreach { q =>
      assert(q.relations.contains("lineitem") && q.relations.contains("orders"))
      assert(q.predicates.exists(p => p != StreamData.tpchStatusPred &&
                                      p.rels == Set("lineitem", "orders")) ||
             AttrEq.connectedRels(q.relations, q.predicates))
    }
  }

  test("artificial fig8a input: one result per index before the shift") {
    val in = Artificial.fig8a(rate = 50, duration = 4.0, shiftAt = 100.0)
    assert(in.size == 4 * 200)
    val q = Artificial.query(5.0)
    val results = repro.TestData.naiveJoin(q, in)
    // every index k joins across all four relations exactly once (windowed)
    assert(results.size > 150 && results.size <= 200)
  }

  test("artificial fig8a post-shift: S finds ~100 partners in R, none in T") {
    val in = Artificial.fig8a(rate = 1000, duration = 2.0, shiftAt = 0.0)
    val rVals = in.filter(_.rel == "R").map(_.vals("R.a"))
    val sTuples = in.filter(_.rel == "S")
    val rCounts = rVals.groupBy(identity).view.mapValues(_.size)
    sTuples.take(50).foreach { s =>
      assert(rCounts.getOrElse(s.vals("S.a"), 0) == 100)
    }
    val tVals = in.filter(_.rel == "T").map(_.vals("T.b")).toSet
    assert(sTuples.forall(s => !tVals.contains(s.vals("S.b"))))
  }

  test("artificial fig8b: T⋈U collapses after the shift") {
    val in = Artificial.fig8b(rateR = 100, rateOthers = 100, duration = 4.0, shiftAt = 2.0, g = 10)
    val pre = (t: repro.sim.InTuple) => t.ts < 2.0
    val tPre = in.filter(t => t.rel == "T" && pre(t)).map(_.vals("T.c"))
    val uPre = in.filter(t => t.rel == "U" && pre(t)).map(_.vals("U.c"))
    val preMatches = tPre.map(v => uPre.count(_ == v)).sum
    val tPost = in.filter(t => t.rel == "T" && !pre(t)).map(_.vals("T.c"))
    val uPost = in.filter(t => t.rel == "U" && !pre(t)).map(_.vals("U.c"))
    val postMatches = tPost.map(v => uPost.count(_ == v)).sum
    assert(preMatches > 5 * postMatches, s"pre=$preMatches post=$postMatches")
  }

  test("fig9 environment: queries are connected and deduplicated") {
    val qs = Fig9Env.randomQueries(nRels = 10, nQ = 50, size = 3, seed = 17)
    assert(qs.size == 50)
    assert(qs.map(q => (q.relations, q.predicates)).distinct.size == 50)
    qs.foreach(q => assert(q.size == 3 && AttrEq.connectedRels(q.relations, q.predicates)))
  }

  test("fig9 environment: selectivity defaults to rate⁻¹") {
    val st = Fig9Env.stats(10, rate = 100.0)
    assert(st.selOf(Pred.of(Fig9Env.relName(0), "a", Fig9Env.relName(1), "b")) === 0.01)
    assert(st.cardOf(Fig9Env.relName(3)) === 100.0)
  }
}

object StreamDataSpec {

  /** A stream's row count, an ordered hash of its rows, the sum of each key
    * column, an ordered hash of each string column and the bits of the `ts`
    * sum; the hashes and the sum follow `ts` order.
    */
  def fingerprint(df: DataFrame): String = {
    val rows = df.orderBy("ts").collect()
    df.schema.fields.zipWithIndex.map { case (f, i) =>
      f.dataType match {
        case LongType | IntegerType => s"${f.name} sum=${rows.map(_.getAs[Number](i).longValue).sum}"
        case StringType => s"${f.name} hash=${MurmurHash3.orderedHash(rows.map(_.getString(i)))}"
        case DoubleType =>
          s"${f.name} sumBits=${java.lang.Double.doubleToLongBits(rows.map(_.getDouble(i)).sum)}"
        case t => throw new IllegalArgumentException(s"no fingerprint for ${f.name}: $t")
      }
    }.mkString(s"${rows.length} rows hash=${MurmurHash3.orderedHash(rows.map(_.toString))}; ", "; ", "")
  }

  /** `tpchStreams(spark, sf = 0.001, horizon = 100.0)`, per relation, by the
    * session's default parallelism: `spark.range` splits a table into that
    * many partitions, and Spark seeds each `rand` per partition, so the
    * generated values depend on the partition count as well as on the seeds.
    */
  val TpchFingerprint: Map[Int, Map[String, String]] = Map(
    1 -> Map(
      "customer" -> "150 rows hash=-1509427212; c_custkey sum=11325; c_nationkey sum=1691; ts sumBits=4664913376273048480",
      "lineitem" -> "6000 rows hash=615037505; l_orderkey sum=4529496; l_partkey sum=602326; l_suppkey sum=33166; l_linestatus hash=-1196511542; ts sumBits=4688896714197009080",
      "nation" -> "25 rows hash=895472032; n_nationkey sum=300; ts sumBits=4652992471273420568",
      "orders" -> "1500 rows hash=2139772099; o_orderkey sum=1125750; o_custkey sum=111867; o_orderstatus hash=2097548869; ts sumBits=4679886937974981522",
      "part" -> "200 rows hash=220303660; p_partkey sum=20100; ts sumBits=4666695684704136756",
      "supplier" -> "10 rows hash=-390500133; s_suppkey sum=55; s_nationkey sum=141; ts sumBits=4646624099966573661",
    ),
    2 -> Map(
      "customer" -> "150 rows hash=-1321936940; c_custkey sum=11325; c_nationkey sum=1901; ts sumBits=4664913376273048480",
      "lineitem" -> "6000 rows hash=-1100018493; l_orderkey sum=4525903; l_partkey sum=600927; l_suppkey sum=32989; l_linestatus hash=1303246339; ts sumBits=4688896714197009080",
      "nation" -> "25 rows hash=229971162; n_nationkey sum=300; ts sumBits=4652992471273420568",
      "orders" -> "1500 rows hash=1118953079; o_orderkey sum=1125750; o_custkey sum=112443; o_orderstatus hash=1801606503; ts sumBits=4679886937974981522",
      "part" -> "200 rows hash=-1128378808; p_partkey sum=20100; ts sumBits=4666695684704136756",
      "supplier" -> "10 rows hash=1385722363; s_suppkey sum=55; s_nationkey sum=142; ts sumBits=4646624099966573661",
    ),
    4 -> Map(
      "customer" -> "150 rows hash=1143561280; c_custkey sum=11325; c_nationkey sum=1799; ts sumBits=4664913376273048480",
      "lineitem" -> "6000 rows hash=916200494; l_orderkey sum=4541125; l_partkey sum=605852; l_suppkey sum=32989; l_linestatus hash=253049674; ts sumBits=4688896714197009080",
      "nation" -> "25 rows hash=380424294; n_nationkey sum=300; ts sumBits=4652992471273420568",
      "orders" -> "1500 rows hash=-1399729415; o_orderkey sum=1125750; o_custkey sum=114019; o_orderstatus hash=1186950541; ts sumBits=4679886937974981522",
      "part" -> "200 rows hash=1660931206; p_partkey sum=20100; ts sumBits=4666695684704136756",
      "supplier" -> "10 rows hash=2001263694; s_suppkey sum=55; s_nationkey sum=114; ts sumBits=4646624099966573661",
    ),
    8 -> Map(
      "customer" -> "150 rows hash=1456474228; c_custkey sum=11325; c_nationkey sum=1793; ts sumBits=4664913376273048480",
      "lineitem" -> "6000 rows hash=1021617680; l_orderkey sum=4527568; l_partkey sum=605898; l_suppkey sum=33377; l_linestatus hash=1756212997; ts sumBits=4688896714197009080",
      "nation" -> "25 rows hash=1798233325; n_nationkey sum=300; ts sumBits=4652992471273420568",
      "orders" -> "1500 rows hash=-114361713; o_orderkey sum=1125750; o_custkey sum=111334; o_orderstatus hash=-1727148789; ts sumBits=4679886937974981522",
      "part" -> "200 rows hash=-264651517; p_partkey sum=20100; ts sumBits=4666695684704136756",
      "supplier" -> "10 rows hash=-1593854207; s_suppkey sum=55; s_nationkey sum=95; ts sumBits=4646624099966573661",
    ),
  )
}
