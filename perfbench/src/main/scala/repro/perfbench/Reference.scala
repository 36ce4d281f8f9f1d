package repro.perfbench

import repro.core._
import repro.ilp.Solver
import repro.sim.InTuple
import scala.collection.mutable

/** Reference result counts for windowed multi-way equi-joins, computed
  * without the simulator: the combinations of one tuple per relation that
  * satisfy every predicate and whose timestamps span at most the window.
  *
  * Relations are bound in join-graph order. Each relation after the first is
  * looked up in a hash index on one join attribute whose buckets are sorted
  * by timestamp, so only the partners inside the current window are visited.
  */
object RefJoin {

  private final class Bucket(val ts: Array[Double], val tuples: Array[InTuple])

  /** How relation `rel` is reached from the relations bound before it. */
  private final case class Level(rel: String, keyAttr: String, srcLevel: Int, srcAttr: String,
                                 checks: Vector[(String, Int, String)])

  def count(q: Query, input: Seq[InTuple]): Long = {
    val byRel = input.groupBy(_.rel)
    if (!q.relations.forall(byRel.contains)) return 0L
    val order = joinOrder(q)
    val bound = mutable.ArrayBuffer(order.head)
    val levels = order.tail.map { rel =>
      val links = q.predicates.toVector.flatMap { p =>
        if (p.x.rel == rel && bound.contains(p.y.rel)) Some((p.x.full, bound.indexOf(p.y.rel), p.y.full))
        else if (p.y.rel == rel && bound.contains(p.x.rel)) Some((p.y.full, bound.indexOf(p.x.rel), p.x.full))
        else None
      }.sorted
      bound += rel
      val (key, src, srcAttr) = links.head
      Level(rel, key, src, srcAttr, links.tail)
    }
    val index = levels.map { l =>
      byRel(l.rel).groupBy(_.vals(l.keyAttr)).map { case (v, ts) =>
        val sorted = ts.sortBy(_.ts).toArray
        v -> new Bucket(sorted.map(_.ts), sorted)
      }
    }

    val w = q.window
    val chosen = new Array[InTuple](levels.size + 1)
    def rec(i: Int, lo: Double, hi: Double): Long =
      if (i == levels.size) 1L
      else {
        val l = levels(i)
        index(i).get(chosen(l.srcLevel).vals(l.srcAttr)) match {
          case None => 0L
          case Some(b) =>
            var n = 0L
            var j = lowerBound(b.ts, hi - w - 1e-9)
            while (j < b.ts.length && b.ts(j) <= lo + w + 1e-9) {
              val t = b.tuples(j)
              val nlo = math.min(lo, t.ts)
              val nhi = math.max(hi, t.ts)
              if (nhi - nlo <= w && l.checks.forall { case (a, s, sa) => t.vals(a) == chosen(s).vals(sa) }) {
                chosen(i + 1) = t
                n += rec(i + 1, nlo, nhi)
              }
              j += 1
            }
            n
        }
      }

    byRel(order.head).iterator.map { t => chosen(0) = t; rec(0, t.ts, t.ts) }.sum
  }

  /** Relations in an order where each one joins some earlier one. */
  private def joinOrder(q: Query): Vector[String] = {
    val order = mutable.ArrayBuffer(q.relations.toVector.sorted.head)
    while (order.size < q.relations.size) {
      val next = q.relations.toVector.sorted.find { r =>
        !order.contains(r) && q.predicates.exists(p => p.touches(r) && order.exists(p.touches))
      }
      order += next.getOrElse(throw new IllegalArgumentException(s"query ${q.name} is not connected"))
    }
    order.toVector
  }

  private def lowerBound(a: Array[Double], x: Double): Int = {
    var lo = 0
    var hi = a.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < x) lo = mid + 1 else hi = mid
    }
    lo
  }
}

/** Independent check of a solved plan: every query slot is assigned; the
  * maintenance slots of exactly the MIRs the chosen candidates rely on are
  * assigned; the reported steps are the union of the chosen candidates'
  * steps; and the reported cost equals Eq. 1 recomputed here.
  */
object PlanCheck {

  /** None when the plan is consistent, else what is wrong with it. */
  def apply(p: MqoProblem, sol: Solver.Solution): Option[String] = {
    val active = mutable.Set[String]()
    val pending = mutable.Queue[SlotId](p.querySlots: _*)
    val required = mutable.LinkedHashSet[SlotId]()
    while (pending.nonEmpty) {
      val sid = pending.dequeue()
      if (required.add(sid)) sol.choice.get(sid).filter(i => i >= 0 && i < p.slotCands(sid).size).foreach { i =>
        p.slotCands(sid)(i).mirsUsed.foreach { mk =>
          if (active.add(mk)) pending ++= p.mirSlots(mk)
        }
      }
    }
    if (sol.choice.keySet != required.toSet)
      return Some(s"assigned slots ${sol.choice.size} differ from the ${required.size} required")

    val cost = mutable.Map[StepKey, Double]()
    sol.selected(p).foreach { case (sid, c) =>
      c.steps.foreach(s => cost(s.key) = probeCost(s, p.stats, p.catalog))
      sid match {
        case MirSlot(mk, start) =>
          val sub = c.d.po.sub
          cost(StepKey(Vector(start), s"insert:$mk", "", routed = true)) =
            card(sub.relations, sub.predicates, p.stats) / sub.relations.size
        case _ =>
      }
    }
    val total = cost.values.sum
    if (cost.keySet != sol.steps) Some(s"reported ${sol.steps.size} steps, chosen candidates use ${cost.size}")
    else if (math.abs(total - sol.cost) > 1e-6 * math.max(1.0, math.abs(total)))
      Some(s"reported cost ${sol.cost} but the chosen steps cost $total")
    else None
  }

  /** Eq. 1: the prefix join sent per window — restricted to combinations whose
    * start tuple arrived last — times the broadcast factor of the target store.
    */
  private def probeCost(s: Step, stats: Stats, catalog: Catalog): Double = {
    val covered = s.prefixElems.flatMap(_.relations).toSet
    val preds = s.sub.predicates.filter(p => covered(p.x.rel) && covered(p.y.rel))
    val routed = s.targetPart.exists(a => equalClass(a, s.sub.predicates).exists(b => covered(b.rel)))
    val chi =
      if (routed) 1.0
      else if (s.target.relations.size == 1) catalog.rels(s.target.relations.head).parallelism.toDouble
      else catalog.mirParallelism.toDouble
    card(covered, preds, stats) / covered.size * chi
  }

  private def card(rels: Set[String], preds: Set[Pred], stats: Stats): Double =
    rels.toSeq.map(stats.cardOf).product * preds.toSeq.map(stats.selOf).product

  /** Attributes equal to `a` under the transitive closure of `preds`. */
  private def equalClass(a: Attr, preds: Set[Pred]): Set[Attr] = {
    var cls = Set(a)
    var grew = true
    while (grew) {
      val more = preds.flatMap(p => if (cls(p.x)) Some(p.y) else if (cls(p.y)) Some(p.x) else None) -- cls
      grew = more.nonEmpty
      cls ++= more
    }
    cls
  }
}
