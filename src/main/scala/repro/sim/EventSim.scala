package repro.sim

import repro.core._
import scala.collection.immutable.BitSet
import scala.collection.mutable

/** A tuple of an input stream: values keyed by fully qualified attribute name
  * (`"S.b"`), one for every catalog attribute of the relation, plus the event
  * timestamp in seconds. Timestamps must be unique across the whole input so
  * "arrived earlier" is a strict total order.
  */
final case class InTuple(rel: String, vals: Map[String, Long], ts: Double)

/** A join result as reported in `Metrics.results`: values keyed by fully
  * qualified attribute name, timestamps keyed by relation.
  */
final class ITuple(
    val vals: Map[String, Long],
    val tss: Map[String, Double],
    val minTs: Double,
    val maxTs: Double,
) {
  override def toString: String = s"ITuple($vals, $tss)"
}

/** Physical model of the simulated cluster. All times in seconds.
  * `deterministic = true` zeroes delays and service times, giving exact,
  * loss-free results for correctness tests.
  */
final case class SimParams(
    netDelay: Double = 0.002,
    svcStore: Double = 4e-6,
    svcProbe: Double = 6e-6,
    svcPerMatch: Double = 1.5e-6,
    epochLen: Double = 1.0,
    memLimit: Double = Double.MaxValue,
    deterministic: Boolean = false,
) {
  def net: Double = if (deterministic) 0.0 else netDelay
  def sStore: Double = if (deterministic) 0.0 else svcStore
  def sProbe: Double = if (deterministic) 0.0 else svcProbe
  def sMatch: Double = if (deterministic) 0.0 else svcPerMatch
}

/** Measured outcomes of a simulation run.
  *
  * The per-node, per-query and per-second figures are counted in arrays
  * while the run goes; `sentByNode`, `resultCount`, `latencySum`,
  * `latencyBuckets` and `tupleLatencyBuckets` are maps built from those
  * counters when read. They hold only the nodes, queries and seconds with a
  * non-zero count, and the first three read 0 for a missing key.
  * A `mutable.HashMap` iterates in an order fixed by its key set, so a sum
  * over a view's values adds in the same order as over the maps that were
  * updated in place.
  */
final class Metrics {
  /** Probe cost: tuples sent for probing (the paper's minimization subject). */
  var tuplesSent = 0L
  var probeMsgs = 0L
  var storeMsgs = 0L
  var matches = 0L
  private[sim] val tupleLatency = new PerSecond
  var tuplesCompleted = 0L
  var storedNow = 0L
  var inFlight = 0L
  var peakStored = 0L
  var peakMem = 0L
  /** Largest per-worker queue backlog observed, in tuple-equivalents. */
  var peakBacklog = 0L
  var failedAt: Option[Double] = None
  /** Service time of all store and probe work, summed over the workers. */
  var totalBusy = 0.0
  var inputTuples = 0L
  val results = mutable.ArrayBuffer[(String, ITuple)]() // only when recording

  // Node ids are interned to slots of `nodeSent` for the whole run, as
  // configurations may compile the same node id again.
  private val nodeSlotOf = mutable.HashMap[String, Int]()
  private[sim] var nodeSent = new Array[Long](16)
  private val queries = mutable.HashMap[String, QueryCounter]()

  private[sim] def nodeSlot(id: String): Int = nodeSlotOf.getOrElseUpdate(id, {
    if (nodeSlotOf.size == nodeSent.length) nodeSent = java.util.Arrays.copyOf(nodeSent, 2 * nodeSent.length)
    nodeSlotOf.size
  })

  private[sim] def queryCounter(q: String): QueryCounter = queries.getOrElseUpdate(q, new QueryCounter(q))

  private def emitted = queries.valuesIterator.filter(_.results > 0)

  /** Tuples sent per topology node id. */
  def sentByNode: collection.Map[String, Long] = {
    val m = mutable.Map[String, Long]().withDefaultValue(0L)
    nodeSlotOf.foreach { case (id, i) => if (nodeSent(i) != 0) m(id) = nodeSent(i) }
    m
  }

  def resultCount: collection.Map[String, Long] = {
    val m = mutable.Map[String, Long]().withDefaultValue(0L)
    emitted.foreach(c => m(c.name) = c.results)
    m
  }

  /** Σ result latency per query. */
  def latencySum: collection.Map[String, Double] = {
    val m = mutable.Map[String, Double]().withDefaultValue(0.0)
    emitted.foreach(c => m(c.name) = c.latencySum)
    m
  }

  /** (query, floor(second)) -> (Σ latency, results) for timelines. */
  def latencyBuckets: collection.Map[(String, Long), (Double, Long)] = {
    val m = mutable.Map[(String, Long), (Double, Long)]()
    emitted.foreach(c => c.bySec.foreach((sec, sum, n) => m((c.name, sec)) = (sum, n)))
    m
  }

  /** Per-input-tuple completion latency (Section VII.A: a tuple completes
    * when all join results with it are computed — i.e. when its probe chain
    * drains), bucketed by arrival second: floor(second) -> (Σ latency, tuples).
    */
  def tupleLatencyBuckets: collection.Map[Long, (Double, Long)] = {
    val m = mutable.Map[Long, (Double, Long)]()
    tupleLatency.foreach((sec, sum, n) => m(sec) = (sum, n))
    m
  }
}

/** Sums and counts per second, in arrays that cover the seconds from `first`
  * on. They can grow downwards, because work completes out of order: a probe
  * that waited for a busy worker completes after later ones.
  */
private[sim] final class PerSecond {
  private var first = 0L
  private var sum = Array.empty[Double]
  private var count = Array.empty[Long]

  /** Add `s` to second `sec`'s sum and `n` to its count. */
  def add(sec: Long, s: Double, n: Long): Unit = {
    val i = index(sec)
    sum(i) += s
    count(i) += n
  }

  /** Each second with a non-zero count, ascending, with its sum and count. */
  def foreach(f: (Long, Double, Long) => Unit): Unit =
    count.indices.foreach(i => if (count(i) > 0) f(first + i, sum(i), count(i)))

  private def index(sec: Long): Int = {
    if (count.length == 0) first = sec
    if (sec < first) {
      resize((first - sec).toInt, count.length + (first - sec).toInt)
      first = sec
    } else if (sec - first >= count.length) resize(0, (sec - first + 1).toInt)
    (sec - first).toInt
  }

  /** Grow the arrays to at least `minLen` slots, moving the old ones up by `shift`. */
  private def resize(shift: Int, minLen: Int): Unit = {
    val len = math.max(minLen, math.max(16, 2 * count.length))
    val s = new Array[Double](len)
    val c = new Array[Long](len)
    System.arraycopy(sum, 0, s, shift, sum.length)
    System.arraycopy(count, 0, c, shift, count.length)
    sum = s
    count = c
  }
}

/** The result counters of one query, shared by every compiled node that emits
  * it, so that each sum accumulates in event order.
  */
private[sim] final class QueryCounter(val name: String) {
  var results = 0L
  var latencySum = 0.0
  val bySec = new PerSecond

  /** Count `k` results completed at time `fin`, each with latency `lat`. */
  def add(fin: Double, lat: Double, k: Int): Unit = {
    results += k
    latencySum += lat * k
    bySec.add(math.floor(fin).toLong, lat * k, k)
  }
}

/** Hook invoked at the start of every epoch (statistics evaluation and
  * re-optimization live here — Section VI).
  */
trait Controller {
  def onEpoch(epoch: Long, sim: EventSim): Unit
}

/** Discrete-event simulator of the CLASH worker topology (substitute for the
  * paper's Apache Storm cluster).
  *
  * Workers are partitions of store instances; each has a FIFO service queue
  * (modelled analytically via a busy-until horizon). Tuples are routed per
  * the topology's probe trees; probe/store rules follow Algorithms 3 and 4:
  * configurations are epoch-scoped, stores keep one container per epoch, and
  * an input tuple is probed once per maximal run of window-covered epochs
  * that share a configuration, so rewiring never loses results.
  *
  * Schedule. The configuration schedule is the one record of which plan
  * governs each epoch and of how long rows are kept. Its entries are the
  * maximal runs: an install that continues the last kept entry's plan adds
  * none. Its window, the largest query window of the scheduled plans, is
  * recomputed only when an install or eviction changes the schedule; it is
  * how far back an input tuple probes, the horizon past which entries and
  * epoch samples are dropped, and the retention of every store.
  *
  * Physical plan. `installConfig` compiles each `Topology` once into a
  * `PhysicalPlan`, so the event loop works on ints and arrays only:
  *  - a partial result is a `Row` (values, timestamps, min/max timestamp) in
  *    the slot `Layout` of its sorted relation set — one value slot per
  *    catalog attribute of those relations, one timestamp per relation;
  *  - store instances are interned by `StoreRef.key` into a registry that
  *    lives as long as the simulator, since configurations share instances by
  *    key; each partition keeps its per-epoch containers in a ring indexed by
  *    epoch (`EpochRing`), and each container keeps its rows in an array with
  *    min/max timestamp columns and indexes them per value slot with chains
  *    of row indices (`Container`, `SlotIndex`), built on the slot's first
  *    probe;
  *  - per node the plan holds the target store id, the routing slot (or
  *    broadcast), the probe slot pairs, the gather that merges a prefix row
  *    with a candidate, the children, the emitted queries with their windows,
  *    and the MIR stores it inserts into, as well as its slot in the sent
  *    counters and the result counters of the queries it emits.
  * A probe reads a candidate's timestamp columns, and its `Row` only to check
  * a second slot pair or to build a match. A match is built into a `Row` only
  * when something reads it: a child node, an MIR insert the pass owns, or
  * `recordResults`. Otherwise the probe keeps only the match's min/max
  * timestamp, which is all emission reads. The per-event path allocates the
  * rows and messages it emits, and otherwise only grows arrays: it reuses
  * scratch arrays, counts outstanding probes in an array indexed by the
  * input tuple's dense id, and builds ownership sets only for a tuple whose
  * window spans more than one schedule entry.
  * The per-node and per-query metric maps are views built from array
  * counters (see `Metrics`).
  * Events are ordered by (time, priority, sequence number) in a binary heap
  * over primitive arrays (`EventQueue`), so simulated-time ties go to the
  * message enqueued first. Messages are created in a fixed order:
  * per-partition batches of a routed send in ascending partition order, probe
  * candidates in store insertion order, base stores in order of first
  * appearance over the covering runs, then children before MIR inserts.
  * Results are turned into `ITuple` maps only when `recordResults` is set.
  */
final class EventSim(val catalog: Catalog, val params: SimParams, recordResults: Boolean = false) {

  val metrics = new Metrics
  val samples = new EpochSamples(params.epochLen)

  private val layouts = mutable.HashMap[Vector[String], Layout]()
  private def layout(rels: Vector[String]): Layout =
    layouts.getOrElseUpdate(rels, new Layout(rels, catalog))
  private val relNames = catalog.rels.keys.toVector.sorted
  private val relIds: Map[String, Int] = relNames.zipWithIndex.toMap
  private val relLayouts: Array[Layout] = relNames.map(r => layout(Vector(r))).toArray

  // ---- configuration schedule -------------------------------------------
  /** A maximal run: the epochs from `from` until the next entry starts, all
    * governed by `plan`.
    */
  private final class Scheduled(val from: Long, val plan: PhysicalPlan)

  // ascending in `from`; neighbouring entries have different plans
  private var schedule = Array.empty[Scheduled]
  /** The largest query window of the scheduled plans: how far back an input
    * tuple probes, and how long every store retains its rows.
    */
  private var maxWindow = 0.0

  private def reschedule(entries: Array[Scheduled]): Unit = {
    schedule = entries
    maxWindow = entries.foldLeft(0.0)(_ max _.plan.topo.maxWindow)
  }

  /** Install a configuration governing every epoch from `fromEpoch` onward
    * (any previously installed configuration with a later or equal start is
    * superseded — relevant for retroactive bootstrap installs). A topology
    * object that is still installed keeps its compiled plan, and continues
    * its run when it is the last one kept.
    */
  def installConfig(fromEpoch: Long, topo: Topology): Unit = {
    val kept = schedule.filter(_.from < fromEpoch)
    topo.stores.values.foreach(ensureStore)
    val plan = kept.find(_.plan.topo eq topo).map(_.plan).getOrElse(
      PhysicalPlan.compile(topo, relIds, layout, storeId, metrics))
    reschedule(if (kept.lastOption.exists(_.plan eq plan)) kept else kept :+ new Scheduled(fromEpoch, plan))
  }

  // the schedule entries `governing` found: indices govStart until govEnd
  private var govStart = 0
  private var govEnd = 0

  /** Set `govStart until govEnd` to the indices of the schedule entries that
    * govern some epoch of `lo..hi`.
    */
  private def governing(lo: Long, hi: Long): Unit = {
    var end = schedule.length
    while (end > 0 && schedule(end - 1).from > hi) end -= 1
    var start = end - 1
    while (start > 0 && schedule(start).from > lo) start -= 1
    govStart = math.max(start, 0)
    govEnd = end
  }

  private def governingRange(lo: Long, hi: Long): Range = { governing(lo, hi); govStart until govEnd }

  private[sim] def configFor(e: Long): Option[Topology] = governingRange(e, e).headOption.map(schedule(_).plan.topo)

  /** Store instances maintained by *every* configuration governing the epoch
    * range — i.e. instances whose per-epoch content is complete over it.
    */
  def coveredStoreKeys(fromEpoch: Long, toEpoch: Long): Set[String] = {
    val runs = governingRange(fromEpoch, toEpoch)
    if (fromEpoch > toEpoch || runs.isEmpty || schedule(runs.start).from > fromEpoch) Set.empty
    else runs.map(schedule(_).plan.topo.storeKeys).reduce(_ intersect _)
  }

  // ---- stores -------------------------------------------------------------
  private final class PartitionState(nSlots: Int) {
    val byEpoch = new EpochRing(nSlots)
    var busyUntil = 0.0
  }

  /** A live store; like every store, it retains the schedule's `maxWindow`. */
  private final class StoreInst(val dfn: StoreDef) {
    val layout: Layout = EventSim.this.layout(dfn.ref.mir.relations)
    val parallelism: Int = dfn.parallelism
    val parts: Array[PartitionState] = Array.fill(parallelism)(new PartitionState(layout.attrs.size))
    private val partSlot = dfn.ref.part.map(layout.slot).getOrElse(-1)
    var stored = 0L

    /** Partition of a row in this store's layout; an unpartitioned store
      * hashes all of the row's values.
      */
    def partitionOf(r: Row): Int =
      if (partSlot >= 0) hashPart(r.vals(partSlot), parallelism)
      else {
        var h = 17L
        var i = 0
        while (i < r.vals.length) { h = h * 31 + r.vals(i); i += 1 }
        hashPart(h, parallelism)
      }
  }

  // Store registry: ids are interned by `StoreRef.key` for the whole run; a
  // slot holds the live instance, or null once the store is collected.
  private val storeIdOf = mutable.HashMap[String, Int]()
  private val stores = mutable.ArrayBuffer[StoreInst]()

  private def storeId(key: String): Int = storeIdOf.getOrElseUpdate(key, { stores += null; stores.size - 1 })

  private def ensureStore(dfn: StoreDef): Unit = {
    val id = storeId(dfn.key)
    if (stores(id) == null) stores(id) = new StoreInst(dfn)
  }

  private[sim] def activeStoreKeys: Set[String] = stores.iterator.filter(_ != null).map(_.dfn.key).toSet

  // ---- events --------------------------------------------------------------
  /** A message to partition `part` of store `store`; at equal times, messages
    * of lower `prio` go first.
    */
  private sealed abstract class Ev(val prio: Int, val store: Int, val part: Int) {
    /** Tuples this message carries. */
    def size: Int
  }

  private final class StoreEv(store: Int, part: Int, val epoch: Long, val row: Row) extends Ev(0, store, part) {
    def size: Int = 1
  }

  /** A probe pass for combo-ownership epochs [ownLo, ownHi]: it may match
    * partners stored in any epoch up to the driving tuple's own, but only
    * combinations whose *earliest* component falls into [ownLo, ownHi] are
    * emitted as results by this pass — each combination is owned by exactly
    * one epoch (of its earliest component), so passes under different
    * configurations never lose or duplicate results (Algorithm 4).
    *
    * `storeOwn` lists the MIR store instances this pass maintains: the
    * earliest covering configuration containing an instance owns its inserts
    * (its pass probes the widest epoch range, hence produces a superset of
    * any later pass's combinations).
    */
  private final class ProbeEv(store: Int, part: Int, val node: PlanNode, val ownLo: Long, val ownHi: Long,
                              val rows: Array[Row], val srcTs: Double, val srcId: Int, val storeOwn: BitSet)
      extends Ev(1, store, part) {
    def size: Int = rows.length
  }

  // Outstanding probe messages per source tuple, indexed by its dense id —
  // a tuple "completes" (all its join results computed) when this drains to
  // zero. 0 also marks a tuple with no count: one that sent no probe, or
  // has completed.
  private var pendingProbes = new Array[Int](1024)

  private def completeTuple(srcId: Int, srcTs: Double, fin: Double): Unit = {
    metrics.tuplesCompleted += 1
    metrics.tupleLatency.add(math.floor(srcTs).toLong, fin - srcTs, 1)
    pendingProbes(srcId) = 0
  }

  // earliest time first; at equal times stores (priority 0) before probes,
  // then the message enqueued first: the key is prio << 62 | sequence number
  private val queue = new EventQueue[Ev]
  private var seq = 0L

  private def enqueue(time: Double, ev: Ev): Unit = {
    seq += 1
    queue.add(time, (ev.prio.toLong << 62) | seq, ev)
    metrics.inFlight += ev.size
  }

  private def epochOf(ts: Double): Long = math.floor(ts / params.epochLen).toLong

  /** An overloaded worker's queue backlog, converted to tuple-equivalents:
    * unprocessed probe work buffered in its input queue. This is what makes
    * overloaded Storm workers "fail due to memory overflow" in the paper.
    */
  private var curBacklog = 0L
  private def noteBacklog(ps: PartitionState, now: Double): Unit = {
    val backlog = ((ps.busyUntil - now) / math.max(params.sProbe, 1e-12)).toLong
    if (backlog > metrics.peakBacklog) metrics.peakBacklog = backlog
    curBacklog = backlog
  }

  private def hashPart(v: Long, par: Int): Int = {
    val h = java.lang.Long.hashCode(v * 0x9e3779b97f4a7c15L)
    math.floorMod(h, par)
  }

  // ---- probing ---------------------------------------------------------------
  // Scratch arrays reused by every call: the partition of each dispatched row;
  // per partition, the rows of a routed batch not yet placed and the batch
  // (all 0 and null between calls); and per match of a probe, its [min, max]
  // timestamp span and built row.
  private var rowPart = new Array[Int](64)
  private var partLeft = new Array[Int](16)
  private var partBatch = new Array[Array[Row]](16)
  private var matchLo = new Array[Double](64)
  private var matchHi = new Array[Double](64)
  private var matchRow = new Array[Row](64)

  /** Send a batch of (partial) result rows to the workers of a node's target
    * store: routed per row to one partition when the partitioning value is
    * derivable (one message per partition, in ascending partition order, with
    * the rows in batch order), broadcast to all partitions otherwise (factor
    * χ in the probe cost).
    */
  private def dispatch(node: PlanNode, eLo: Long, eHi: Long, rows: Array[Row], srcTs: Double,
                       srcId: Int, storeOwn: BitSet, time: Double): Int = {
    val par = stores(node.target).parallelism
    val n = rows.length
    var msgs = 0
    val sent =
      if (node.routeSlot >= 0) {
        if (n > rowPart.length) rowPart = new Array[Int](math.max(n, 2 * rowPart.length))
        if (par > partLeft.length) {
          partLeft = new Array[Int](math.max(par, 2 * partLeft.length))
          partBatch = new Array[Array[Row]](partLeft.length)
        }
        val left = partLeft
        var i = 0
        while (i < n) {
          val p = hashPart(rows(i).vals(node.routeSlot), par)
          rowPart(i) = p
          left(p) += 1
          i += 1
        }
        if (left(rowPart(0)) == n) {
          left(rowPart(0)) = 0
          sendProbe(node, rowPart(0), eLo, eHi, rows, srcTs, srcId, storeOwn, time)
          msgs = 1
        } else {
          val batches = partBatch
          i = 0
          while (i < n) {
            val p = rowPart(i)
            if (batches(p) == null) batches(p) = new Array[Row](left(p))
            val b = batches(p)
            b(b.length - left(p)) = rows(i)
            left(p) -= 1
            i += 1
          }
          var p = 0
          while (p < par) {
            if (batches(p) != null) {
              sendProbe(node, p, eLo, eHi, batches(p), srcTs, srcId, storeOwn, time)
              batches(p) = null
              msgs += 1
            }
            p += 1
          }
        }
        n.toLong
      } else {
        while (msgs < par) { sendProbe(node, msgs, eLo, eHi, rows, srcTs, srcId, storeOwn, time); msgs += 1 }
        n.toLong * par
      }
    metrics.tuplesSent += sent
    metrics.nodeSent(node.sentSlot) += sent
    metrics.probeMsgs += msgs
    msgs
  }

  private def sendProbe(node: PlanNode, p: Int, eLo: Long, eHi: Long, batch: Array[Row], srcTs: Double,
                        srcId: Int, storeOwn: BitSet, time: Double): Unit =
    enqueue(time, new ProbeEv(node.target, p, node, eLo, eHi, batch, srcTs, srcId, storeOwn))

  private def handleStore(ev: StoreEv, now: Double): Unit = {
    val st = stores(ev.store)
    val ps = st.parts(ev.part)
    val start = math.max(now, ps.busyUntil)
    val dur = params.sStore
    ps.busyUntil = start + dur
    metrics.totalBusy += dur
    noteBacklog(ps, now)
    ps.byEpoch.getOrCreate(ev.epoch).add(ev.row)
    st.stored += 1
    metrics.storedNow += 1
    if (metrics.storedNow > metrics.peakStored) metrics.peakStored = metrics.storedNow
  }

  private def handleProbe(ev: ProbeEv, now: Double): Unit = {
    val ps = stores(ev.store).parts(ev.part)
    val node = ev.node
    val w = node.window
    val nPairs = node.probeTarget.length
    val sa = node.probeTarget(0)
    val pa = node.probePrefix(0)
    // a match becomes a row only if something reads it: a child probe, an
    // MIR insert this pass owns, or the recorded results; emission needs only
    // its timestamp span
    var build = node.children.length > 0 || recordResults
    var s = 0
    while (!build && s < node.storeInto.length) { build = ev.storeOwn(node.storeInto(s)); s += 1 }

    var n = 0
    val srcTs = ev.srcTs
    val probeHi = epochOf(srcTs)
    var t = 0
    while (t < ev.rows.length) {
      val tup = ev.rows(t)
      val pv = tup.vals(pa)
      val tMin = tup.minTs
      val tMax = tup.maxTs
      var e = ev.ownLo
      while (e <= probeHi) {
        val cont = ps.byEpoch.get(e)
        if (cont != null) {
          val ix = cont.index(sa)
          var i = ix.first(pv)
          while (i >= 0) {
            val cHi = cont.maxTs(i)
            var ok = cHi < srcTs
            if (ok && nPairs > 1) {
              val c = cont.row(i)
              var k = 1
              while (ok && k < nPairs) {
                ok = c.vals(node.probeTarget(k)) == tup.vals(node.probePrefix(k))
                k += 1
              }
            }
            if (ok) {
              val lo = math.min(tMin, cont.minTs(i))
              val hi = math.max(tMax, cHi)
              if (hi - lo <= w) {
                if (n == matchLo.length) {
                  matchLo = java.util.Arrays.copyOf(matchLo, 2 * n)
                  matchHi = java.util.Arrays.copyOf(matchHi, 2 * n)
                  matchRow = java.util.Arrays.copyOf(matchRow, 2 * n)
                }
                matchLo(n) = lo
                matchHi(n) = hi
                if (build) matchRow(n) = node.merge(tup, cont.row(i))
                n += 1
              }
            }
            i = ix.next(i)
          }
        }
        e += 1
      }
      t += 1
    }

    val start = math.max(now, ps.busyUntil)
    // probing work scales with the tuples probed (the paper's probe cost),
    // plus the matches produced
    val dur = params.sProbe * ev.rows.length + n * params.sMatch
    ps.busyUntil = start + dur
    metrics.totalBusy += dur
    metrics.matches += n
    noteBacklog(ps, now)

    val fin = start + dur
    var downstream = 0
    if (n > 0) {
      val out = if (build) java.util.Arrays.copyOf(matchRow, n) else null
      // the scratch must not keep the rows alive
      if (build) java.util.Arrays.fill(matchRow.asInstanceOf[Array[AnyRef]], 0, n, null)
      var c = 0
      while (c < node.children.length) {
        downstream += dispatch(node.children(c), ev.ownLo, ev.ownHi, out, srcTs, ev.srcId, ev.storeOwn, fin + params.net)
        c += 1
      }
      // only combinations owned by this pass's epoch range are final results;
      // each query additionally enforces its exact window on emission (shared
      // nodes probe with the max window of their sharers)
      var qi = 0
      while (qi < node.emits.length) {
        val q = node.emits(qi)
        val qw = node.emitWindows(qi)
        var k = 0
        var i = 0
        while (i < n) {
          val e = epochOf(matchLo(i))
          if (e >= ev.ownLo && e <= ev.ownHi && matchHi(i) - matchLo(i) <= qw) {
            k += 1
            if (recordResults) metrics.results += ((q.name, node.out.tuple(out(i))))
          }
          i += 1
        }
        if (k > 0) q.add(fin, fin - srcTs, k)
        qi += 1
      }
      // MIR maintenance: the owning pass inserts every produced combination
      // (it probes the widest range — a superset of later passes' output)
      var j = 0
      while (j < node.storeInto.length) {
        val sid = node.storeInto(j)
        if (ev.storeOwn(sid)) {
          val tgt = stores(sid)
          var i = 0
          while (i < n) {
            val m = out(i)
            enqueue(fin + params.net, new StoreEv(sid, tgt.partitionOf(m), epochOf(m.minTs), m))
            metrics.storeMsgs += 1
            i += 1
          }
        }
        j += 1
      }
    }

    // completion tracking: this message is consumed, downstream ones created
    val pending = pendingProbes(ev.srcId)
    val rem = (if (pending == 0) 1 else pending) - 1 + downstream
    if (rem <= 0) completeTuple(ev.srcId, srcTs, fin)
    else pendingProbes(ev.srcId) = rem
  }

  private def handleIngest(t: InTuple): Unit = {
    metrics.inputTuples += 1
    val e0 = epochOf(t.ts)
    samples.observe(e0, t)
    val rel = relIds.getOrElse(t.rel, -1)
    if (rel < 0) return
    val single = relLayouts(rel).row(t)

    // Algorithm 4: the schedule entries governing the window-covered epochs
    // are the maximal runs that share a configuration; probe once per run,
    // and store the tuple into each base-store instance of those runs once,
    // in order of first appearance (future probe passes for old epochs use
    // the old instances).
    val eLo = epochOf(t.ts - maxWindow)
    governing(eLo, e0)
    val first = govStart
    val end = govEnd
    var k = first
    while (k < end) {
      val ingest = schedule(k).plan.ingest(rel)
      var j = 0
      while (j < ingest.length) {
        val sid = ingest(j)
        if (!ingestedBefore(first, k, rel, sid)) {
          enqueue(t.ts + params.net, new StoreEv(sid, stores(sid).partitionOf(single), e0, single))
          metrics.storeMsgs += 1
        }
        j += 1
      }
      k += 1
    }

    // The earliest covering configuration containing an MIR store instance
    // owns that instance's maintenance inserts for this tuple's passes.
    val srcId = metrics.inputTuples.toInt
    if (srcId >= pendingProbes.length) pendingProbes = java.util.Arrays.copyOf(pendingProbes, 2 * pendingProbes.length)
    var rootMsgs = 0
    var ownedSoFar = BitSet.empty
    val rows = Array(single)
    k = first
    while (k < end) {
      val cfg = schedule(k).plan
      val lo = math.max(eLo, schedule(k).from)
      val hi = if (k + 1 < end) schedule(k + 1).from - 1 else e0
      val own = if (k == first) cfg.storeIntoIds else cfg.storeIntoIds diff ownedSoFar
      if (k + 1 < end) ownedSoFar = ownedSoFar union cfg.storeIntoIds
      val roots = cfg.roots(rel)
      var r = 0
      while (r < roots.length) {
        rootMsgs += dispatch(roots(r), lo, hi, rows, t.ts, srcId, own, t.ts + params.net)
        r += 1
      }
      k += 1
    }
    if (rootMsgs > 0) pendingProbes(srcId) = rootMsgs
  }

  /** True when an entry in `first until k` stores relation `rel`'s tuples into store `sid`. */
  private def ingestedBefore(first: Int, k: Int, rel: Int, sid: Int): Boolean = {
    var i = first
    while (i < k) {
      val ingest = schedule(i).plan.ingest(rel)
      var j = 0
      while (j < ingest.length) {
        if (ingest(j) == sid) return true
        j += 1
      }
      i += 1
    }
    false
  }

  // ---- eviction / gc ---------------------------------------------------------
  private def evict(now: Double): Unit = {
    val slack = params.epochLen + 10 * params.net
    val cut = now - maxWindow - slack
    stores.foreach { st =>
      if (st != null) {
        st.parts.foreach { ps =>
          val n = ps.byEpoch.evict(params.epochLen, cut)
          st.stored -= n
          metrics.storedNow -= n
        }
      }
    }
    // Drop stores no longer referenced by any configuration that can still be
    // targeted (Section VI.B reference counting on query removal).
    val curEpoch = epochOf(now)
    val horizon = curEpoch - math.ceil((maxWindow + slack) / params.epochLen).toLong - 1
    // keep the last configuration at or before the horizon
    val old = schedule.count(_.from <= horizon)
    if (old > 1) reschedule(schedule.drop(old - 1))
    samples.prune(horizon)
    val referenced = schedule.foldLeft(BitSet.empty)(_ union _.plan.storeIds)
    stores.indices.foreach { id =>
      if (stores(id) != null && !referenced(id)) {
        metrics.storedNow -= stores(id).stored
        stores(id) = null
      }
    }
  }

  // ---- main loop --------------------------------------------------------------
  /** Run the simulation over `input` (must be sorted by ts) until all work is
    * drained or `tEnd` is reached. Returns the metrics (also kept on `this`).
    */
  def run(input: IndexedSeq[InTuple], tEnd: Double = Double.MaxValue,
          controller: Option[Controller] = None): Metrics = {
    var inIdx = 0
    var currentEpoch = -1L

    def advanceEpochs(t: Double): Unit = {
      val target = epochOf(t)
      while (currentEpoch < target) {
        currentEpoch += 1
        evict(currentEpoch * params.epochLen)
        controller.foreach(_.onEpoch(currentEpoch, this))
      }
    }

    var running = true
    while (running) {
      val evT = if (!queue.isEmpty) queue.headTime else Double.MaxValue
      val inT = if (inIdx < input.size) input(inIdx).ts else Double.MaxValue
      if (evT == Double.MaxValue && inT == Double.MaxValue) running = false
      else {
        val t = math.min(evT, inT)
        if (t > tEnd) running = false
        else {
          advanceEpochs(t)
          if (evT <= inT) {
            val ev = queue.poll()
            metrics.inFlight -= ev.size
            ev match {
              case s: StoreEv => handleStore(s, evT)
              case p: ProbeEv => handleProbe(p, evT)
            }
          } else {
            handleIngest(input(inIdx))
            inIdx += 1
          }
          val mem = metrics.storedNow + metrics.inFlight + curBacklog
          if (mem > metrics.peakMem) metrics.peakMem = mem
          if (mem > params.memLimit && metrics.failedAt.isEmpty) {
            metrics.failedAt = Some(t)
            running = false
          }
        }
      }
    }
    metrics
  }
}
