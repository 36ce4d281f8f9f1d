package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic TPC-H-lite tables at a scale factor: the join columns only,
  * each table with exactly the columns `StreamData.tpchAttrs` names for it.
  * Row counts follow TPC-H's per-SF counts; tests use SF<=0.01 and the Fig 7
  * benches SF 0.005 and 0.1. Foreign keys and status flags come from fixed
  * `rand` seeds, which Spark applies per partition: the values depend on the
  * seeds and on the session's default parallelism, which splits `range`.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L
  private val NSupplierPerSf =    10_000L
  private val NNation        =        25L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  /** Row counts at a scale factor — used to derive join selectivities. */
  def counts(sf: Double): Map[String, Long] = Map(
    "lineitem" -> n(NLineitemPerSf, sf),
    "orders"   -> n(NOrdersPerSf, sf),
    "customer" -> n(NCustomerPerSf, sf),
    "part"     -> n(NPartPerSf, sf),
    "supplier" -> n(NSupplierPerSf, sf),
    "nation"   -> NNation,
  )

  def lineitem(spark: SparkSession, sf: Double): DataFrame = {
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    val nSupp = n(NSupplierPerSf, sf)
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(0)  * nOrders + 1).cast(LongType)          as "l_orderkey",
      (rand(1)  * nPart   + 1).cast(LongType)          as "l_partkey",
      (rand(10) * nSupp   + 1).cast(LongType)          as "l_suppkey",
      element_at(array(lit("O"), lit("F")),
                 (rand(8) * 2 + 1).cast("int"))        as "l_linestatus",
    )
  }

  def orders(spark: SparkSession, sf: Double): DataFrame = {
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1).select(
      col("id")                                        as "o_orderkey",
      (rand(1) * nCust + 1).cast(LongType)             as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(2) * 3 + 1).cast("int"))        as "o_orderstatus",
    )
  }

  def customer(spark: SparkSession, sf: Double): DataFrame =
    spark.range(1, n(NCustomerPerSf, sf) + 1).select(
      col("id")                                        as "c_custkey",
      (rand(2) * 25).cast(IntegerType)                 as "c_nationkey",
    )

  def part(spark: SparkSession, sf: Double): DataFrame =
    spark.range(1, n(NPartPerSf, sf) + 1).select(col("id") as "p_partkey")

  def supplier(spark: SparkSession, sf: Double): DataFrame =
    spark.range(1, n(NSupplierPerSf, sf) + 1).select(
      col("id")                                        as "s_suppkey",
      (rand(6) * NNation).cast(IntegerType)            as "s_nationkey",
    )

  def nation(spark: SparkSession): DataFrame =
    spark.range(NNation).select(col("id").cast(IntegerType) as "n_nationkey")
}
