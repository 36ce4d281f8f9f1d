package repro.runtime

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.core._
import repro.data.{Artificial, StreamData}

/** The Spark runtime checked against the DuckDB oracle: full windowed joins,
  * per-probe-order partitions (start tuple latest), and completeness of the
  * union over starting relations.
  */
class StreamJoinExecSpec extends SparkSpec {

  private val catalog = Artificial.catalog()
  private val query = Artificial.query(window = 5.0)
  private lazy val dfs = TestData.toDfs(spark, catalog, Artificial.tiny(40)).view.mapValues(_.cache()).toMap

  private def oracleSql(latestOf: Option[String]): String = {
    val rels = query.relations.toSeq.sorted
    val cols = rels.flatMap { r =>
      catalog(r).attrs.map(a => s"$r.$a AS ${r}__$a") :+ s"CAST($r.ts AS DOUBLE) AS ${r}__ts"
    }
    val preds = query.predicates.map(p => s"${p.x.rel}.${p.x.name} = ${p.y.rel}.${p.y.name}")
    val ts = rels.map(r => s"CAST($r.ts AS DOUBLE)")
    val window = s"greatest(${ts.mkString(",")}) - least(${ts.mkString(",")}) <= ${query.window}"
    val latest = latestOf.toSeq.flatMap { s =>
      rels.filter(_ != s).map(o => s"CAST($s.ts AS DOUBLE) > CAST($o.ts AS DOUBLE)")
    }
    s"SELECT ${cols.mkString(", ")} FROM ${rels.mkString(", ")} " +
      s"WHERE ${(preds ++ Seq(window) ++ latest).mkString(" AND ")}"
  }

  private def tables = query.relations.toSeq.sorted.map(r => r -> dfs(r))

  test("full windowed join equals DuckDB") {
    val result = SparkResults.queryResult(query, dfs)
    Oracle.assertEquivalent(result, oracleSql(None), tables: _*)
  }

  test("probe order result = combinations where the start tuple is latest") {
    val sub = Subquery.ofQuery(query)
    for (start <- query.relations.toSeq.sorted) {
      val po = Candidates(sub, Mir.enumerate(query), start).head
      val result = SparkResults.probeOrderResult(po, dfs)
      Oracle.assertEquivalent(result, oracleSql(Some(start)), tables: _*)
    }
  }

  test("union over starting relations is the complete result") {
    val full = SparkResults.queryResult(query, dfs)
    val union = SparkResults.unionOverStarts(query, Mir.enumerate(query), dfs)
    assert(union.count() == full.count())
    assert(union.except(full).isEmpty && full.except(union).isEmpty)
  }

  test("probe-order partitions are disjoint (unique timestamps)") {
    val full = SparkResults.queryResult(query, dfs).count()
    val sub = Subquery.ofQuery(query)
    val parts = query.relations.toSeq.sorted.map { start =>
      val po = Candidates(sub, Mir.enumerate(query), start).head
      SparkResults.probeOrderResult(po, dfs).count()
    }
    assert(parts.sum == full)
  }

  test("probe order via an MIR yields the same result as iterative") {
    val sub = Subquery.ofQuery(query)
    val cands = Candidates(sub, Mir.enumerate(query), "R")
    val viaMir = cands.find(_.elems.exists(!_.isBase)).get
    val iterative = cands.find(_.elems.forall(_.isBase)).get
    val a = SparkResults.probeOrderResult(viaMir, dfs)
    val b = SparkResults.probeOrderResult(iterative, dfs)
    assert(a.count() == b.count())
    assert(a.except(b).isEmpty && b.except(a).isEmpty)
  }

  test("window filter excludes distant tuples") {
    // matching tuples of tiny() lie within 3e-7 s of each other
    val narrow = query.copy(window = 1e-7)
    val wide = query.copy(window = 1e9)
    assert(SparkResults.queryResult(narrow, dfs).count() <
           SparkResults.queryResult(wide, dfs).count())
  }

  test("step sent counts: first step = |start| × χ") {
    val sub = Subquery.ofQuery(query)
    val d = Candidates(sub, Mir.enumerate(query), "R")
      .filter(_.elems.forall(_.isBase))
      .flatMap(Decorate(_, Vector(query)))
      .head
    val chi = CostModel.chi(d.steps(0), catalog).toLong
    assert(StreamJoinExec.stepSentCount(d.steps(0), dfs, catalog) == dfs("R").count() * chi)
  }

  test("step sent counts decrease along a selective chain") {
    val sub = Subquery.ofQuery(query)
    val d = Candidates(sub, Mir.enumerate(query), "R")
      .filter(_.elems.forall(_.isBase))
      .flatMap(Decorate(_, Vector(query)))
      .filter(x => x.steps.forall(_.routed))
      .head
    val counts = d.steps.map(StreamJoinExec.stepSentCount(_, dfs, catalog))
    // joins are 1:1 and "start latest" halves each extension
    assert(counts.head >= counts.last)
  }

  test("TPC-H-lite: lineitem ⋈ orders windowed join equals DuckDB") {
    val horizon = 200.0
    val sfDfs = StreamData.tpchStreams(spark, sf = 0.002, horizon = horizon, seed = 7)
    val li = sfDfs("lineitem").limit(400).cache()
    val ord = sfDfs("orders").cache()
    val q = Query("lo", Set("lineitem", "orders"),
                  Set(Pred.of("lineitem", "l_orderkey", "orders", "o_orderkey")), window = 50.0)
    val result = SparkResults.queryResult(q, Map("lineitem" -> li, "orders" -> ord))
      .select(col("lineitem__l_orderkey"), col("lineitem__ts") as "lineitem__ts",
              col("orders__o_orderkey"), col("orders__ts") as "orders__ts")
    val sql =
      """SELECT l.l_orderkey AS lineitem__l_orderkey, CAST(l.ts AS DOUBLE) AS lineitem__ts,
        |       o.o_orderkey AS orders__o_orderkey, CAST(o.ts AS DOUBLE) AS orders__ts
        |FROM lineitem l, orders o
        |WHERE l.l_orderkey = o.o_orderkey
        |  AND abs(CAST(l.ts AS DOUBLE) - CAST(o.ts AS DOUBLE)) <= 50.0""".stripMargin
    Oracle.assertEquivalent(
      result, sql,
      "lineitem" -> li.select(col("l_orderkey"), col("ts")),
      "orders" -> ord.select(col("o_orderkey"), col("ts")))
  }

  test("connectedOrder visits relations along join edges") {
    val order = StreamJoinExec.connectedOrder(query.relations, query.predicates)
    assert(order.toSet == query.relations)
    for (i <- 1 until order.size)
      assert(query.predicates.exists(_.connects(order.take(i).toSet, Set(order(i)))),
             s"$order breaks at $i")
  }

  test("connectedOrder rejects relations the predicates do not connect") {
    // R joins only S, so neither T nor U can follow R without a cross product
    val e = intercept[IllegalArgumentException](
      StreamJoinExec.connectedOrder(Set("R", "T", "U"), query.predicates))
    assert(e.getMessage.contains("relations T, U are not joined to R"), e.getMessage)
  }
}
