package repro.sim

import repro.core._
import scala.collection.immutable.BitSet

/** Slot layout of a row over a sorted relation set: one value slot per
  * catalog attribute of each relation (relations in order, attributes in
  * catalog order), and one timestamp slot per relation. The layout depends
  * only on the relation set, so a row stored by one configuration is readable
  * by every later configuration that probes the same store.
  */
private[sim] final class Layout(val rels: Vector[String], catalog: Catalog) {
  val attrs: Vector[Attr] = rels.flatMap(r => catalog(r).attrs.map(Attr(r, _)))
  /** Fully qualified attribute names (`"S.b"`), the keys of `InTuple.vals`. */
  val names: Array[String] = attrs.map(_.full).toArray
  private val slotOf: Map[Attr, Int] = attrs.zipWithIndex.toMap

  def slot(a: Attr): Int =
    slotOf.getOrElse(a, throw new IllegalArgumentException(s"attribute $a is not in the catalog"))
  def tsSlot(rel: String): Int = rels.indexOf(rel)

  /** The row of an input tuple (a layout over its single relation). */
  def row(t: InTuple): Row = {
    val vals = new Array[Long](names.length)
    var i = 0
    while (i < vals.length) { vals(i) = t.vals(names(i)); i += 1 }
    new Row(vals, Array(t.ts), t.ts, t.ts)
  }

  /** The map form of a row, as handed out in `Metrics.results`. */
  def tuple(r: Row): ITuple =
    new ITuple(names.iterator.zip(r.vals.iterator).toMap, rels.iterator.zip(r.tss.iterator).toMap,
               r.minTs, r.maxTs)
}

/** A (partial) join result in the simulator: values and per-relation
  * timestamps in the slots of the layout of its relation set.
  */
private[sim] final class Row(val vals: Array[Long], val tss: Array[Double], val minTs: Double, val maxTs: Double)

/** A compiled probe-tree node. A batch of prefix rows arriving here is routed
  * to the partition `hash(prefix(routeSlot))` of store `target`, or broadcast
  * to all its partitions when `routeSlot < 0`. Each prefix row is matched
  * with candidates on the slot pairs `target(probeTarget(i)) =
  * prefix(probePrefix(i))`; there is at least one pair, and the store is
  * indexed on the first. A match is gathered into the output layout:
  * output value slot `i` is `prefix.vals(valSrc(i))` when `valSrc(i) >= 0`
  * and `cand.vals(~valSrc(i))` otherwise; timestamps likewise via `tsSrc`.
  * `sentSlot` is the node's slot in `Metrics`' sent counters, and `emits` are
  * the counters of the queries it emits, with their windows in `emitWindows`.
  */
private[sim] final class PlanNode(
    val id: String,
    val sentSlot: Int,
    val target: Int,
    val routeSlot: Int,
    val probeTarget: Array[Int],
    val probePrefix: Array[Int],
    val window: Double,
    valSrc: Array[Int],
    tsSrc: Array[Int],
    val out: Layout,
    val emits: Array[QueryCounter],
    val emitWindows: Array[Double],
    val storeInto: Array[Int],
) {
  var children: Array[PlanNode] = Array.empty

  def merge(prefix: Row, cand: Row): Row = {
    val vals = new Array[Long](valSrc.length)
    var i = 0
    while (i < vals.length) {
      val s = valSrc(i)
      vals(i) = if (s >= 0) prefix.vals(s) else cand.vals(~s)
      i += 1
    }
    val tss = new Array[Double](tsSrc.length)
    i = 0
    while (i < tss.length) {
      val s = tsSrc(i)
      tss(i) = if (s >= 0) prefix.tss(s) else cand.tss(~s)
      i += 1
    }
    new Row(vals, tss, math.min(prefix.minTs, cand.minTs), math.max(prefix.maxTs, cand.maxTs))
  }
}

/** A `Topology` compiled against the simulator's store registry: probe-tree
  * roots and base-store ingestion targets indexed by relation id, plus the
  * store ids the topology maintains and the MIR stores its nodes insert into.
  */
private[sim] final class PhysicalPlan(
    val topo: Topology,
    val roots: Array[Array[PlanNode]],
    val ingest: Array[Array[Int]],
    val storeIds: BitSet,
    val storeIntoIds: BitSet,
)

private[sim] object PhysicalPlan {

  /** Compile `topo`. `relIds` numbers the catalog's relations, `layout` gives
    * the (shared) layout of a sorted relation set, `storeId` the registry id
    * of a store key, and `metrics` the counters of node ids and queries.
    */
  def compile(topo: Topology, relIds: Map[String, Int], layout: Vector[String] => Layout,
              storeId: String => Int, metrics: Metrics): PhysicalPlan = {
    def sorted(rs: Set[String]) = layout(rs.toVector.sorted)

    val nodes: Map[String, PlanNode] = topo.nodes.map { case (id, n) =>
      val step = n.step
      val prefix = sorted(step.coveredRels)
      val target = layout(step.target.relations)
      val out = sorted(step.resultRels)
      val pairs = step.probePreds.toVector.map { p =>
        if (step.target.relSet(p.x.rel)) (p.x, p.y) else (p.y, p.x)
      }
      require(pairs.nonEmpty, s"cross-product probe at node $id")
      // ≥ 0: a prefix slot; < 0: the complement of a target slot
      def valSrc(a: Attr) = if (prefix.rels.contains(a.rel)) prefix.slot(a) else ~target.slot(a)
      def tsSrc(r: String) = if (prefix.rels.contains(r)) prefix.tsSlot(r) else ~target.tsSlot(r)
      id -> new PlanNode(
        id = id,
        sentSlot = metrics.nodeSlot(id),
        target = storeId(step.targetRef.key),
        routeSlot = step.routeAttr.map(prefix.slot).getOrElse(-1),
        probeTarget = pairs.map(p => target.slot(p._1)).toArray,
        probePrefix = pairs.map(p => prefix.slot(p._2)).toArray,
        window = n.probeWindow,
        valSrc = out.attrs.map(valSrc).toArray,
        tsSrc = out.rels.map(tsSrc).toArray,
        out = out,
        emits = n.emits.map(metrics.queryCounter).toArray,
        emitWindows = n.emits.map(q => topo.queryWindows.getOrElse(q, Double.MaxValue)).toArray,
        storeInto = n.storeInto.map { ref =>
          require(ref.mir.relations == out.rels, s"node $id inserts ${out.rels} rows into store ${ref.key}")
          storeId(ref.key)
        }.toArray,
      )
    }
    topo.nodes.foreach { case (id, n) => nodes(id).children = n.children.map(nodes).toArray }

    val nRels = relIds.size
    val roots = Array.fill(nRels)(Array.empty[PlanNode])
    topo.roots.foreach { case (r, ids) => roots(relIds(r)) = ids.map(nodes).toArray }
    val ingest = Array.fill(nRels)(Array.empty[Int])
    topo.ingest.foreach { case (r, keys) => ingest(relIds(r)) = keys.map(storeId).toArray }

    new PhysicalPlan(topo, roots, ingest, BitSet.fromSpecific(topo.storeKeys.map(storeId)),
                     BitSet.fromSpecific(nodes.valuesIterator.flatMap(_.storeInto)))
  }
}
