package repro.runtime

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core._

/** Spark (Catalyst) execution of the optimizer's steps over timestamped
  * DataFrames: the exact number of tuples each step sends, at Spark scale.
  *
  * Conventions: each input relation is a DataFrame whose columns are the
  * relation's attributes plus a unique `ts` (Double, seconds — the same unit
  * the event simulator uses). Joined rows use columns named `<rel>__<attr>`
  * and `<rel>__ts` so columns from different relations never collide and can
  * be compared with the DuckDB oracle.
  *
  * Semantics (Section I.A): a combination (s_1, …, s_m) is a result iff all
  * equi-predicates hold and the pairwise timestamp distance is at most the
  * query window. A probe order from a start relation computes the subset
  * where the start relation's tuple arrived last.
  */
object StreamJoinExec {

  def col2(rel: String, attr: String): String = s"${rel}__$attr"
  def tsCol(rel: String): String = s"${rel}__ts"

  /** Prefix every column of a relation's DataFrame with `<rel>__`. */
  def prefixed(df: DataFrame, rel: String): DataFrame =
    df.select(df.columns.map(c => df(c).as(s"${rel}__$c")).toIndexedSeq: _*)

  private def predCond(p: Pred): Column =
    col(col2(p.x.rel, p.x.name)) === col(col2(p.y.rel, p.y.name))

  private def pairwiseWindow(rels: Seq[String], windowMs: Double): Column = {
    val ts = rels.map(r => col(tsCol(r)))
    val maxTs = ts.reduce((a, b) => greatest(a, b))
    val minTs = ts.reduce((a, b) => least(a, b))
    maxTs - minTs <= lit(windowMs)
  }

  /** Full content of a (sub)query: all combinations satisfying the predicates
    * and the window, regardless of arrival order. Relations are joined in a
    * connected order so no cross product is formed.
    */
  def subqueryJoin(rels: Set[String], preds: Set[Pred], windowMs: Double,
                   inputs: Map[String, DataFrame]): DataFrame = {
    val order = connectedOrder(rels, preds)
    var joined = prefixed(inputs(order.head), order.head)
    var covered = Set(order.head)
    order.tail.foreach { r =>
      val right = prefixed(inputs(r), r)
      val joinPreds = preds.filter(_.connects(covered, Set(r)))
      require(joinPreds.nonEmpty, s"cross product joining $r to $covered")
      val cond = joinPreds.map(predCond).reduce(_ && _)
      joined = joined.join(right, cond)
      covered += r
    }
    joined.where(pairwiseWindow(order, windowMs))
  }

  /** The rows of a join over `rels` where `start`'s tuple arrived last. */
  def startLatest(start: String, rels: Set[String]): Column =
    (rels - start).toSeq
      .map(r => col(tsCol(start)) > col(tsCol(r)))
      .reduceOption(_ && _)
      .getOrElse(lit(true))

  /** Exact number of tuples sent by `step` (step t of a decorated probe order
    * is `Decorated.steps(t - 1)`, t = 1..k-1) on this data: the count of
    * partial results after joining the first t elements — restricted to
    * start-latest-within-prefix and pairwise window — times the broadcast
    * factor χ. This is the ground truth the cost
    * model (Eq. 1) estimates and the event simulator must match exactly.
    */
  def stepSentCount(step: Step, inputs: Map[String, DataFrame], catalog: Catalog): Long = {
    val covered = step.coveredRels
    val start = step.start
    val chi = CostModel.chi(step, catalog).toLong
    if (covered == Set(start)) {
      inputs(start).count() * chi
    } else {
      val prefix = subqueryJoin(covered, step.sub.inducedPreds(covered), step.sub.window, inputs)
      prefix.where(startLatest(start, covered)).count() * chi
    }
  }

  /** A connected join order over the relations (see `AttrEq.joinOrder`).
    * A relation set the predicates do not connect has no such order: it is
    * rejected, since joining it would need a cross product.
    */
  def connectedOrder(rels: Set[String], preds: Set[Pred]): Vector[String] = {
    val order = AttrEq.joinOrder(rels, preds)
    require(order.size == rels.size,
            s"relations ${(rels -- order).toVector.sorted.mkString(", ")} are not joined to ${order.mkString(", ")}")
    order
  }
}
