package repro.runtime

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core._

/** Spark (Catalyst) execution of windowed multi-way stream joins and of the
  * optimizer's probe orders over timestamped DataFrames.
  *
  * Conventions: each input relation is a DataFrame whose columns are the
  * relation's attributes plus a unique `ts` (Double, seconds — the same unit
  * the event simulator uses). All outputs use columns named `<rel>__<attr>`
  * and `<rel>__ts` so results from different relations never collide and can
  * be compared with the DuckDB oracle.
  *
  * Semantics (Section I.A): a combination (s_1, …, s_m) is a result iff all
  * equi-predicates hold and the pairwise timestamp distance is at most the
  * query window. The result of one probe order is the subset where the start
  * relation's tuple arrived last; the union over all starting relations is
  * the full result (timestamps are unique).
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

  /** Full windowed result of a query. */
  def queryResult(q: Query, inputs: Map[String, DataFrame]): DataFrame =
    subqueryJoin(q.relations, q.predicates, q.window, inputs)

  /** Result of one probe order: the combinations where the start relation's
    * tuple is the latest arrival.
    */
  def probeOrderResult(po: ProbeOrder, inputs: Map[String, DataFrame]): DataFrame = {
    val full = subqueryJoin(po.sub.relations, po.sub.predicates, po.sub.window, inputs)
    val others = (po.sub.relations - po.start).toSeq
    val startLatest = others
      .map(r => col(tsCol(po.start)) > col(tsCol(r)))
      .reduceOption(_ && _)
      .getOrElse(lit(true))
    full.where(startLatest)
  }

  /** Union over all starting relations of per-probe-order results — must equal
    * `queryResult` (completeness of the probe-order decomposition).
    */
  def unionOverStarts(q: Query, mirs: Set[Mir], inputs: Map[String, DataFrame]): DataFrame = {
    val sub = Subquery.ofQuery(q)
    val cols = q.relations.toSeq.sorted.flatMap { r =>
      inputs(r).columns.map(c => col(col2(r, c)))
    }
    q.relations.toSeq.sorted
      .map { start =>
        val po = ProbeOrders.candidatesFrom(sub, mirs, start).head
        probeOrderResult(po, inputs).select(cols: _*)
      }
      .reduce(_ union _)
  }

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
      val others = (covered - start).toSeq
      val startLatest = others.map(r => col(tsCol(start)) > col(tsCol(r))).reduce(_ && _)
      prefix.where(startLatest).count() * chi
    }
  }

  /** A connected join order over the relations (BFS over the predicate graph).
    * A relation set the predicates do not connect has no such order: it is
    * rejected, since joining it would need a cross product.
    */
  def connectedOrder(rels: Set[String], preds: Set[Pred]): Vector[String] = {
    val sorted = rels.toVector.sorted
    var order = Vector(sorted.head)
    var remaining = rels - sorted.head
    while (remaining.nonEmpty) {
      val next = remaining.toVector.sorted.find(r => preds.exists(_.connects(order.toSet, Set(r))))
      require(next.isDefined,
              s"relations ${remaining.toVector.sorted.mkString(", ")} are not joined to ${order.mkString(", ")}")
      order :+= next.get
      remaining -= next.get
    }
    order
  }
}
