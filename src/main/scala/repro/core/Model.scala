package repro.core

import scala.collection.mutable

/** An attribute of a streamed relation, e.g. `S.b`. */
final case class Attr(rel: String, name: String) {
  /** Fully qualified name used in keys and display. */
  lazy val full: String = s"$rel.$name"
  // computed once: attributes key the subqueries' equality classes
  override val hashCode: Int = scala.util.hashing.MurmurHash3.productHash(this)
  override def toString: String = full
}

/** An equi-join predicate `x = y` between attributes of two different relations.
  *
  * Equality and hashing are symmetric: `Pred(a,b) == Pred(b,a)`, so predicate
  * sets deduplicate regardless of construction order.
  */
final case class Pred(x: Attr, y: Attr) {
  require(x.rel != y.rel, s"self-join predicate ${x.full}=${y.full} is not supported")

  /** The two attributes in lexicographic order — canonical identity. */
  val sorted: (Attr, Attr) = if (x.full <= y.full) (x, y) else (y, x)

  def rels: Set[String] = Set(x.rel, y.rel)
  def touches(rel: String): Boolean = x.rel == rel || y.rel == rel
  def within(rs: Set[String]): Boolean = rs(x.rel) && rs(y.rel)

  /** True when one side is in `a` and the other in `b`. */
  def connects(a: Set[String], b: Set[String]): Boolean =
    (a(x.rel) && b(y.rel)) || (a(y.rel) && b(x.rel))

  /** Canonical string, usable as a stable key. */
  lazy val key: String = s"${sorted._1.full}=${sorted._2.full}"

  override def equals(o: Any): Boolean = o match {
    case p: Pred => p.sorted == sorted
    case _       => false
  }
  override val hashCode: Int = sorted.hashCode
  override def toString: String = key
}

object Pred {
  def of(r1: String, a1: String, r2: String, a2: String): Pred =
    Pred(Attr(r1, a1), Attr(r2, a2))
}

/** A continuous multi-way equi-join query over streamed relations.
  *
  * @param window maximal pairwise timestamp distance (same unit as tuple
  *               timestamps) for tuples to be joinable, per Section I.A.
  */
final case class Query(name: String, relations: Set[String], predicates: Set[Pred], window: Double = 1.0) {
  require(relations.nonEmpty, s"query $name has no relations")
  require(predicates.forall(p => p.rels.subsetOf(relations)),
          s"query $name has predicates over foreign relations")

  def size: Int = relations.size

  /** Predicates of this query whose both sides lie within `rs`. */
  def inducedPreds(rs: Set[String]): Set[Pred] = predicates.filter(_.within(rs))
}

/** Transitive closure of attribute equality, used for routing feasibility (χ). */
object AttrEq {

  /** Equivalence classes of attributes under the given equality predicates. */
  def classes(preds: Set[Pred]): Map[Attr, Set[Attr]] = {
    val parent = mutable.Map[Attr, Attr]()
    def find(a: Attr): Attr = {
      val p = parent.getOrElseUpdate(a, a)
      if (p == a) a else { val r = find(p); parent(a) = r; r }
    }
    preds.foreach { p => val (ra, rb) = (find(p.x), find(p.y)); if (ra != rb) parent(ra) = rb }
    parent.keys.toSeq.groupBy(find).flatMap { case (_, as) =>
      val s = as.toSet; s.map(_ -> s)
    }
  }

  /** A join order of `rels` under `preds` (join-graph BFS): the smallest-named
    * relation first, then each time the smallest-named relation that a
    * predicate joins to those before it. The order stops where no predicate
    * joins the rest, so it covers `rels` iff the predicates connect them.
    */
  def joinOrder(rels: Set[String], preds: Set[Pred]): Vector[String] = {
    val order = new Array[String](rels.size)
    order.take(orderInto(rels, preds, order)).toVector
  }

  /** Connectivity of a relation set under a predicate set (see `joinOrder`). */
  def connectedRels(rels: Set[String], preds: Set[Pred]): Boolean =
    rels.nonEmpty && orderInto(rels, preds, new Array[String](rels.size)) == rels.size

  /** Writes `joinOrder(rels, preds)` to the front of `order`; returns its length. */
  private def orderInto(rels: Set[String], preds: Set[Pred], order: Array[String]): Int = {
    var n = 0
    def covered(r: String): Boolean = { var i = 0; while (i < n && order(i) != r) i += 1; i < n }
    var next = if (rels.isEmpty) null else rels.min
    while (next != null) {
      order(n) = next
      n += 1
      next = null
      rels.foreach { r =>
        if ((next == null || r < next) && !covered(r) &&
            preds.exists(p => p.x.rel == r && covered(p.y.rel) || p.y.rel == r && covered(p.x.rel)))
          next = r
      }
    }
    n
  }
}

/** Definition of a streamed input relation. */
final case class RelDef(name: String, attrs: Vector[String], parallelism: Int = 5)

/** Schema + physical configuration of the deployment. */
final case class Catalog(rels: Map[String, RelDef], mirParallelism: Int = 5) {
  def apply(r: String): RelDef = rels(r)

  /** Number of workers (partitions) of the store holding `m`. */
  def parallelism(m: Mir): Int =
    if (m.isBase) rels(m.relations.head).parallelism else mirParallelism
}

object Catalog {
  def of(rs: RelDef*): Catalog = Catalog(rs.map(r => r.name -> r).toMap)
}

/** Data characteristics driving the cost model: per-window cardinalities of the
  * input relations and per-predicate join selectivities.
  */
final case class Stats(card: Map[String, Double], sel: Map[Pred, Double], defaultSel: Double = 1.0) {
  def cardOf(r: String): Double = card.getOrElse(r, 1.0)
  def selOf(p: Pred): Double = sel.getOrElse(p, defaultSel)

  /** Estimated cardinality of the join of `rs` under `preds`
    * (independence assumption: product of cards × product of selectivities,
    * each multiplied in iteration order).
    */
  def joinCard(rs: Set[String], preds: Set[Pred]): Double = {
    var cards = 1.0
    rs.foreach(r => cards *= cardOf(r))
    var sels = 1.0
    preds.foreach(p => sels *= selOf(p))
    cards * sels
  }
}
