package repro.core

import scala.collection.mutable

/** A probe order ⟨S_1, e_2, …, e_k⟩ (Section IV): an arriving tuple of the
  * start relation visits the stores of the remaining elements in order,
  * incrementally computing the partial join where the start tuple is the
  * latest-arriving component. Elements are MIRs; their relation sets are
  * disjoint and together cover the subquery's relations.
  */
final case class ProbeOrder(sub: Subquery, start: String, elems: Vector[Mir]) {
  require(elems.nonEmpty && elems.head == Mir.base(start), "first element must be the start relation")

  /** Non-base MIRs this probe order relies on (they must be maintained). */
  def mirsUsed: Set[Mir] = elems.filterNot(_.isBase).toSet

  override def toString: String = s"⟨${elems.mkString(", ")}⟩@${sub.id}"
}

/** A probe order with a partitioning attribute chosen for every probed store
  * (elements 1..k-1; the start element is the arriving stream, not a probe
  * target). `None` means the store is randomly partitioned and every probe of
  * it must broadcast — only generated when no partitioning candidate exists.
  */
final case class Decorated(po: ProbeOrder, parts: Vector[Option[Attr]]) {
  require(parts.size == po.elems.size - 1, "one partitioning per probed element")

  /** Probed store references, in order. */
  def stores: Vector[StoreRef] =
    po.elems.tail.zip(parts).map { case (m, p) => StoreRef(m, p) }

  /** The steps in order, each extending the one before it: step t (0-based)
    * is the decorated prefix of length t+2. Per Section V, a step is
    * identified with its probe-order prefix; equal steps in different
    * queries' candidates share an ILP variable.
    */
  def steps: Vector[Step] =
    if (po.elems.size < 2) Vector.empty
    else (2 until po.elems.size).scanLeft(Step.first(po.sub, po.elems.head, po.elems(1), parts(0))) {
      (s, t) => s.next(po.elems(t), parts(t - 1))
    }.toVector

  def mirsUsed: Set[Mir] = po.mirsUsed

  override def toString: String =
    (po.elems.head.toString +: stores.map(_.toString)).mkString("⟨", ", ", s"⟩@${po.sub.id}")
}

/** A store instance: an MIR store partitioned by a specific attribute. */
final case class StoreRef(mir: Mir, part: Option[Attr]) {
  lazy val key: String = mir.key + "[" + part.map(_.full).getOrElse("∗") + "]"
  override def toString: String = mir.toString + "[" + part.map(_.full).getOrElse("∗") + "]"
}

/** One step of a decorated probe order: the partial result of joining
  * `prefixElems` (where the start tuple is latest) is sent to the store of
  * `target` partitioned by `targetPart`.
  *
  * Identity (`key`) captures everything that determines the transferred
  * tuples and the performed probe: the decorated prefix, the accumulated
  * predicates, the target store and the predicates connecting prefix and
  * target — so structurally equal steps of different queries share one
  * ILP variable and one physical dataflow edge.
  *
  * Steps are built along a probe order ([[Step.first]], then [[next]]). The
  * key is computed from the step's fields when first asked for: a problem
  * build identifies steps by ids (see `MqoProblem.build`), not by keys.
  */
final case class Step(
    sub: Subquery,
    start: String,
    prefixElems: Vector[Mir],
    prefixParts: Vector[Option[Attr]],
    target: Mir,
    targetPart: Option[Attr],
) {
  lazy val coveredRels: Set[String] = {
    val b = Set.newBuilder[String]
    prefixElems.foreach(b ++= _.relations)
    b.result()
  }
  def resultRels: Set[String] = coveredRels ++ target.relSet

  /** Predicates evaluated when probing: those connecting prefix and target. */
  def probePreds: Set[Pred] =
    sub.predicates.filter(_.connects(coveredRels, target.relSet))

  def targetRef: StoreRef = StoreRef(target, targetPart)

  /** The prefix attribute whose value routes this step: one in the
    * attribute-equality class (under the subquery's predicates) of the target
    * store's partitioning attribute. None means the prefix tuple must be
    * broadcast to all target partitions.
    */
  lazy val routeAttr: Option[Attr] = targetPart.flatMap { p =>
    sub.attrClasses.getOrElse(p, Set(p)).find(a => prefixElems.exists(_.relations.exists(_ == a.rel)))
  }

  /** True when the step is routed to one target partition (see `routeAttr`). */
  def routed: Boolean = routeAttr.isDefined

  lazy val key: StepKey = StepKey(
    prefixElems.head.key +: prefixElems.tail.lazyZip(prefixParts).map(StoreRef(_, _).key),
    targetRef.key,
    sub.inducedPreds(resultRels).map(_.key).toSeq.sorted.mkString("&"),
    routed,
  )

  /** The step after this one: this step's target joins the prefix, and the
    * result is sent to `m`'s store partitioned by `part`.
    */
  def next(m: Mir, part: Option[Attr]): Step =
    Step(sub, start, prefixElems :+ target, prefixParts :+ targetPart, m, part)

  override def toString: String =
    (prefixElems.head.toString +: prefixElems.tail.zip(prefixParts).map { case (m, p) => StoreRef(m, p).toString })
      .mkString("⟨", ", ", "") + s" → $targetRef⟩"
}

object Step {
  /** The first step of a probe order of `sub` whose start element is `head`. */
  def first(sub: Subquery, head: Mir, target: Mir, part: Option[Attr]): Step =
    Step(sub, head.relations.head, Vector(head), Vector.empty, target, part)
}

/** Stable identity of a step across queries. Its hash is computed once (the
  * value case-class hashing gives), since keys are compared in sets and maps.
  */
final case class StepKey(prefix: Vector[String], target: String, preds: String, routed: Boolean) {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)
}

/** Partitioning candidates and decoration (Section V); `Usable` builds the
  * candidate probe orders (Algorithm 1).
  */
object ProbeOrders {

  /** Partitioning candidates of each store of `mirs` (Section V): every
    * attribute of the MIR's relations that appears, in *any* query of the
    * workload, in a join predicate with a relation outside the MIR. (Fig. 3
    * offers T[d] even in probe orders for q1, where only q2 joins on d.)
    * One pass over the workload's predicates; per MIR, the attributes in
    * order of first appearance, then sorted by name.
    */
  def partitionCandidates(mirs: Vector[Mir], workload: Seq[Query]): Vector[Vector[Attr]] = {
    val byRel = mirs.indices.flatMap(i => mirs(i).relations.map(_ -> i)).groupMap(_._1)(_._2)
    val found = Vector.fill(mirs.size)(mutable.LinkedHashSet[Attr]())
    for (p <- workload.flatMap(_.predicates); (a, b) <- Seq(p.x -> p.y, p.y -> p.x); i <- byRel.getOrElse(a.rel, Nil))
      if (!mirs(i).relSet(b.rel)) found(i) += a
    found.map(_.toVector.sortBy(_.full))
  }

  /** A store's partitioning options: its candidates, or `None` (random
    * partitioning, probes broadcast) when it has none.
    */
  def partOptions(cs: Vector[Attr]): Vector[Option[Attr]] =
    if (cs.isEmpty) Vector(Option.empty[Attr]) else cs.map(Option(_))

  /** Every decoration of `po` given each probed element's options, the last
    * element varying fastest, with the index of each chosen option.
    */
  def decorations(po: ProbeOrder, options: Vector[Vector[Option[Attr]]]): Vector[(Decorated, Array[Int])] = {
    val n = options.size
    val out = Vector.newBuilder[(Decorated, Array[Int])]
    val ix = new Array[Int](n)
    var t = 0
    while (t >= 0) {
      out += Decorated(po, Vector.tabulate(n)(j => options(j)(ix(j)))) -> ix.clone()
      t = n - 1
      while (t >= 0 && { ix(t) += 1; ix(t) == options(t).size }) { ix(t) = 0; t -= 1 }
    }
    out.result()
  }
}

/** The MIRs of `pool` usable within `sub`, sorted by key, and Algorithm 1 on
  * relation bitmasks local to `sub`: bit i stands for the i-th of `sub`'s
  * relations in sorted order.
  *
  * An MIR is usable within `sub` iff its relations lie in `sub` and its
  * predicates are exactly those `sub` induces on them (a same-named MIR
  * from a query with different join attributes is a different store).
  */
final class Usable(val sub: Subquery, pool: Iterable[Mir]) {
  val rels: Vector[String] = sub.relations.toVector.sorted
  require(rels.size < 32, s"subquery ${sub.id} has more than 31 relations")

  /** The bit of `sub`'s relation `r`. */
  def bit(r: String): Int = 1 << rels.indexWhere(_ == r)

  /** The mask of `sub`'s relations `rs`. */
  def mask(rs: Iterable[String]): Int = rs.foldLeft(0)(_ | bit(_))

  val mirs: Vector[Mir] = pool.iterator.filter { m =>
    m.relSet.subsetOf(sub.relations) && m.predicates == sub.inducedPreds(m.relSet)
  }.toVector.sortBy(_.key)
  val masks: Array[Int] = mirs.iterator.map(m => mask(m.relations)).toArray

  // each predicate of `sub` as the masks of its two relations
  private val (predX, predY) = sub.predicates.toArray.map(p => (bit(p.x.rel), bit(p.y.rel))).unzip

  /** True when some predicate of `sub` joins `covered` with `m`. */
  private def joinable(covered: Int, m: Int): Boolean = {
    var j = 0
    while (j < predX.length) {
      if ((predX(j) & covered) != 0 && (predY(j) & m) != 0 || (predY(j) & covered) != 0 && (predX(j) & m) != 0)
        return true
      j += 1
    }
    false
  }

  /** Algorithm 1 from `start`: each candidate probe order with the indices in
    * `mirs` of its elements after the start, depth first over `mirs`.
    */
  def ordersFrom(start: String): Vector[(ProbeOrder, Array[Int])] = {
    val full = (1 << rels.size) - 1
    val head = Mir.base(start)
    val path = new Array[Int](rels.size)
    val out = Vector.newBuilder[(ProbeOrder, Array[Int])]
    def rec(depth: Int, covered: Int): Unit =
      if (covered == full) {
        val ix = java.util.Arrays.copyOf(path, depth)
        out += ProbeOrder(sub, start, Vector.tabulate(depth + 1)(t => if (t == 0) head else mirs(ix(t - 1)))) -> ix
      } else {
        var i = 0
        while (i < mirs.size) {
          val m = masks(i)
          if ((m & covered) == 0 && joinable(covered, m)) {
            path(depth) = i
            rec(depth + 1, covered | m)
          }
          i += 1
        }
      }
    rec(0, bit(start))
    out.result()
  }
}
