package repro.core

import scala.collection.mutable

/** A deployed store: an MIR store instance with a partitioning. It retains
  * its topology's `maxWindow`.
  */
final case class StoreDef(ref: StoreRef, parallelism: Int) {
  def key: String = ref.key
}

/** A node of a probe tree (Section V.B): the probing behaviour registered for
  * one dataflow edge. A tuple arriving over this edge probes the target store
  * with `step.probePreds`; results are forwarded to `children`, emitted as
  * results of `emits`, and inserted into the MIR stores `storeInto`.
  *
  * `probeWindow` is the max window of the probe orders sharing this node —
  * matching uses it as a safe superset; each query's exact window is enforced
  * when its results are emitted.
  */
final case class TopoNode(
    id: String,
    step: Step,
    children: Vector[String],
    emits: Vector[String],
    storeInto: Vector[StoreRef],
    probeWindow: Double,
)

/** The executable operator topology: stores, per-relation ingestion targets,
  * probe-tree roots, and the edge ruleset (Section V.B, Algorithm 3).
  */
final case class Topology(
    stores: Map[String, StoreDef],
    ingest: Map[String, Vector[String]],
    roots: Map[String, Vector[String]],
    nodes: Map[String, TopoNode],
    queryWindows: Map[String, Double],
) {
  /** The largest query window (0 for an empty selection): the window every
    * store retains and the reach of the probe range.
    */
  val maxWindow: Double = if (queryWindows.isEmpty) 0.0 else queryWindows.values.max
  def storeKeys: Set[String] = stores.keySet
}

object Topology {

  /** Stable node id of a step (its decorated probe-order prefix). */
  def nodeId(k: StepKey): String =
    k.prefix.mkString(";") + "→" + k.target + "|" + k.preds + "|" + (if (k.routed) "r" else "b")

  /** Merge the selected probe orders into probe trees and build the topology.
    * Orders with equal decorated prefixes (equal step keys) share nodes —
    * shared computation is performed once (Fig. 4).
    */
  def build(sel: Selection, catalog: Catalog): Topology = {
    val children = mutable.Map[String, mutable.LinkedHashSet[String]]()
    val emits = mutable.Map[String, mutable.LinkedHashSet[String]]()
    val stepOf = mutable.LinkedHashMap[String, Step]()
    val windowOf = mutable.Map[String, Double]()
    val roots = mutable.Map[String, mutable.LinkedHashSet[String]]()
    // (last node id, MIR key) of each maintenance order, in selection order.
    val maintained = Vector.newBuilder[(String, String)]

    for ((sid, cand) <- sel.orders) {
      val steps = cand.steps
      val ids = steps.map(s => nodeId(s.key))
      steps.zip(ids).foreach { case (s, id) =>
        stepOf.getOrElseUpdate(id, s)
        windowOf(id) = math.max(windowOf.getOrElse(id, 0.0), s.sub.window)
      }
      roots.getOrElseUpdate(cand.d.po.start, mutable.LinkedHashSet.empty) += ids.head
      for (t <- 0 until ids.size - 1)
        children.getOrElseUpdate(ids(t), mutable.LinkedHashSet.empty) += ids(t + 1)
      sid match {
        case QuerySlot(q, _) =>
          emits.getOrElseUpdate(ids.last, mutable.LinkedHashSet.empty) += q
        case MirSlot(mk, _) => maintained += ids.last -> mk
      }
    }

    // Store instances probed by some step, one per distinct node.
    val probed = stepOf.values.map(_.targetRef).toVector.distinct.sortBy(_.key)
    // Maintenance results are inserted into every probed instance of their MIR.
    val probedByMir = probed.groupBy(_.mir.key)
    val storeInto = mutable.Map[String, mutable.LinkedHashSet[StoreRef]]()
    for ((id, mk) <- maintained.result())
      storeInto.getOrElseUpdate(id, mutable.LinkedHashSet.empty) ++= probedByMir.getOrElse(mk, Vector.empty)

    val nodes = stepOf.map { case (id, s) =>
      id -> TopoNode(
        id,
        s,
        children.get(id).map(_.toVector).getOrElse(Vector.empty),
        emits.get(id).map(_.toVector).getOrElse(Vector.empty),
        storeInto.get(id).map(_.toVector).getOrElse(Vector.empty),
        windowOf(id),
      )
    }.toMap

    val stores = probed.map(ref => ref.key -> StoreDef(ref, catalog.parallelism(ref.mir))).toMap

    // Input tuples of a relation are stored in every probed base-store
    // instance of that relation.
    val ingest = stores.values
      .filter(_.ref.mir.isBase)
      .toVector
      .groupBy(_.ref.mir.relations.head)
      .view
      .mapValues(_.map(_.key).sorted)
      .toMap

    Topology(
      stores = stores,
      ingest = ingest,
      roots = roots.view.mapValues(_.toVector).toMap,
      nodes = nodes,
      queryWindows = sel.queries.map(q => q.name -> q.window).toMap,
    )
  }
}
