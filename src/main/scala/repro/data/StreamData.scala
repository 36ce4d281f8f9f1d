package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core._
import repro.sim.InTuple

/** Timestamped stream construction shared by the Spark runtime and the event
  * simulator. Timestamps are Double seconds, unique across all relations of a
  * bundle (sub-microsecond per-relation offsets on an exact integer grid).
  */
object StreamData {

  /** Spread a DataFrame's rows uniformly over `[0, horizon)` in a
    * deterministic shuffled order, assigning a unique `ts` column.
    * `relIdx < 16` disambiguates timestamps across relations.
    */
  def withTs(df: DataFrame, seed: Long, horizon: Double, relIdx: Int): DataFrame = {
    require(relIdx >= 0 && relIdx < 16, "relIdx must be in [0, 16)")
    val nRows = math.max(df.count(), 1L)
    require(horizon / nRows >= 2e-6, s"horizon too short for $nRows rows")
    val w = Window.orderBy(rand(seed), monotonically_increasing_id())
    df.withColumn("__rk", row_number().over(w).cast("long") - 1)
      .withColumn("ts",
        (floor(col("__rk") * lit(horizon / nRows) * 1e6) * 16 + relIdx) / lit(16e6))
      .drop("__rk")
  }

  /** Encode an attribute value as a Long for the simulator. Keys are exact;
    * small string domains (status flags) use the stable JVM string hash.
    */
  def enc(v: Any): Long = v match {
    case null                 => Long.MinValue
    case l: java.lang.Long    => l
    case i: java.lang.Integer => i.toLong
    case s: String            => s.hashCode.toLong
    case d: java.sql.Date     => d.toLocalDate.toEpochDay
    case other                => throw new IllegalArgumentException(s"cannot encode $other")
  }

  /** Collect a timestamped relation into simulator tuples (sorted by ts),
    * keeping only the catalogued join attributes.
    */
  def collect(rel: String, df: DataFrame, attrs: Seq[String]): Vector[InTuple] = {
    val cols = attrs :+ "ts"
    df.select(cols.map(col): _*)
      .collect()
      .map { r: Row =>
        InTuple(rel,
                attrs.zipWithIndex.map { case (a, i) => s"$rel.$a" -> enc(r.get(i)) }.toMap,
                r.getDouble(attrs.size))
      }
      .toVector
      .sortBy(_.ts)
  }

  /** Merge several relations' tuples into one time-ordered input stream. */
  def merged(streams: Map[String, Vector[InTuple]]): Vector[InTuple] =
    streams.values.toVector.flatten.sortBy(_.ts)

  // -------------------------------------------------------------------------
  // TPC-H-lite streams (Section VII.A substitute for TPC-H SF10 over Kafka)
  // -------------------------------------------------------------------------

  /** The TPC-H-lite schema: the columns `SynthData` generates per relation,
    * all of them join attributes.
    */
  val tpchAttrs: Map[String, Vector[String]] = Map(
    "lineitem" -> Vector("l_orderkey", "l_partkey", "l_suppkey", "l_linestatus"),
    "orders"   -> Vector("o_orderkey", "o_custkey", "o_orderstatus"),
    "customer" -> Vector("c_custkey", "c_nationkey"),
    "part"     -> Vector("p_partkey"),
    "supplier" -> Vector("s_suppkey", "s_nationkey"),
    "nation"   -> Vector("n_nationkey"),
  )

  /** The TPC-H-lite relations, each over 5 workers, as are their MIR stores. */
  def tpchCatalog(): Catalog = Catalog(tpchAttrs.map { case (r, as) => r -> RelDef(r, as) })

  /** The joinable-column graph of Section VII.A: PK/FK edges plus the
    * type-compatible high-selectivity `linestatus = orderstatus` edge.
    */
  val tpchPkFkPreds: Vector[Pred] = Vector(
    Pred.of("lineitem", "l_orderkey", "orders", "o_orderkey"),
    Pred.of("orders", "o_custkey", "customer", "c_custkey"),
    Pred.of("lineitem", "l_partkey", "part", "p_partkey"),
    Pred.of("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    Pred.of("customer", "c_nationkey", "nation", "n_nationkey"),
    Pred.of("supplier", "s_nationkey", "nation", "n_nationkey"),
    Pred.of("customer", "c_nationkey", "supplier", "s_nationkey"),
  )
  val tpchStatusPred: Pred = Pred.of("lineitem", "l_linestatus", "orders", "o_orderstatus")

  /** Timestamped TPC-H-lite streams over one horizon. */
  def tpchStreams(spark: SparkSession, sf: Double, horizon: Double, seed: Long = 42): Map[String, DataFrame] = {
    val base = Map(
      "lineitem" -> SynthData.lineitem(spark, sf),
      "orders"   -> SynthData.orders(spark, sf),
      "customer" -> SynthData.customer(spark, sf),
      "part"     -> SynthData.part(spark, sf),
      "supplier" -> SynthData.supplier(spark, sf),
      "nation"   -> SynthData.nation(spark),
    )
    base.toVector.sortBy(_._1).zipWithIndex.map { case ((r, df), i) =>
      r -> withTs(df, seed + i, horizon, i).cache()
    }.toMap
  }

  /** Analytic statistics for the TPC-H-lite streams: per-window cardinality
    * = rows × window / horizon; selectivities from the generators' domains.
    */
  def tpchStats(sf: Double, window: Double, horizon: Double): Stats = {
    val c = SynthData.counts(sf)
    val card = c.map { case (r, n) => r -> math.max(1.0, n.toDouble * window / horizon) }
    val sel = Map(
      tpchPkFkPreds(0) -> 1.0 / c("orders"),
      tpchPkFkPreds(1) -> 1.0 / c("customer"),
      tpchPkFkPreds(2) -> 1.0 / c("part"),
      tpchPkFkPreds(3) -> 1.0 / c("supplier"),
      tpchPkFkPreds(4) -> 1.0 / 25.0,
      tpchPkFkPreds(5) -> 1.0 / 25.0,
      tpchPkFkPreds(6) -> 1.0 / 25.0,
      tpchStatusPred   -> 1.0 / 3.0,
    )
    Stats(card, sel)
  }

  /** Random query workload per Section VII.A: pick a random relation, then
    * randomly add PK/FK joins until the desired size; occasionally add the
    * high-selectivity status predicate as an extra conjunct when both its
    * relations are present. Exact duplicates are eliminated.
    */
  def randomTpchQueries(nQ: Int, sizes: Seq[Int], window: Double, seed: Long): Vector[Query] = {
    val rng = new java.util.Random(seed)
    val rels = tpchPkFkPreds.flatMap(p => Seq(p.x.rel, p.y.rel)).distinct.sorted
    val out = Vector.newBuilder[Query]
    val seen = scala.collection.mutable.Set[(Set[String], Set[Pred])]()
    var made = 0
    var attempts = 0
    while (made < nQ && attempts < nQ * 50) {
      attempts += 1
      val size = sizes(rng.nextInt(sizes.size))
      var qRels = Set(rels(rng.nextInt(rels.size)))
      var qPreds = Set.empty[Pred]
      var stuck = false
      while (qRels.size < size && !stuck) {
        val candidates = tpchPkFkPreds.filter(p =>
          p.rels.exists(qRels) && p.rels.exists(r => !qRels(r)))
        if (candidates.isEmpty) stuck = true
        else {
          val p = candidates(rng.nextInt(candidates.size))
          qPreds += p
          qRels ++= p.rels
        }
      }
      if (!stuck) {
        if (tpchStatusPred.rels.subsetOf(qRels) && rng.nextDouble() < 0.3) qPreds += tpchStatusPred
        if (!seen((qRels, qPreds))) {
          seen += ((qRels, qPreds))
          made += 1
          out += Query(f"q$made%02d", qRels, qPreds, window)
        }
      }
    }
    out.result()
  }
}
