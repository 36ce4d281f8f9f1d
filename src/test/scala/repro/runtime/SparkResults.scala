package repro.runtime

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._
import StreamJoinExec.{col2, startLatest, subqueryJoin}

/** The Spark executor's whole-query and per-probe-order results, checked
  * against the DuckDB oracle and the event simulator. The result of one probe
  * order is the subset of the query result where the start relation's tuple
  * arrived last; the union over all starting relations is the full result
  * (timestamps are unique).
  */
object SparkResults {

  /** Full windowed result of a query. */
  def queryResult(q: Query, inputs: Map[String, DataFrame]): DataFrame =
    subqueryJoin(q.relations, q.predicates, q.window, inputs)

  /** Result of one probe order: the combinations where the start relation's
    * tuple is the latest arrival.
    */
  def probeOrderResult(po: ProbeOrder, inputs: Map[String, DataFrame]): DataFrame =
    subqueryJoin(po.sub.relations, po.sub.predicates, po.sub.window, inputs)
      .where(startLatest(po.start, po.sub.relations))

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
        val po = Candidates(sub, mirs, start).head
        probeOrderResult(po, inputs).select(cols: _*)
      }
      .reduce(_ union _)
  }
}
