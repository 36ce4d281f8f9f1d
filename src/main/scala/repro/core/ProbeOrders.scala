package repro.core

/** A probe order ⟨S_1, e_2, …, e_k⟩ (Section IV): an arriving tuple of the
  * start relation visits the stores of the remaining elements in order,
  * incrementally computing the partial join where the start tuple is the
  * latest-arriving component. Elements are MIRs; their relation sets are
  * disjoint and together cover the subquery's relations.
  */
final case class ProbeOrder(sub: Subquery, start: String, elems: Vector[Mir]) {
  require(elems.nonEmpty && elems.head == Mir.base(start), "first element must be the start relation")

  /** Relations covered by elements 0..t (inclusive). */
  def coveredAfter(t: Int): Set[String] = elems.take(t + 1).flatMap(_.relations).toSet

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

  /** The t-th step (1-based, t = 1..k-1): the decorated prefix of length t+1.
    * Per Section V, a step is identified with its probe-order prefix; equal
    * steps in different queries' candidates share an ILP variable.
    */
  def step(t: Int): Step = steps(t - 1)

  /** The steps in order, each extending the one before it. */
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
  * Steps are built along a probe order ([[Step.first]], then [[next]]):
  * `prefixKey` is the previous step's key prefix extended by its target, so
  * a step's key is computed once and shares its prefix with the step before.
  */
final case class Step(
    sub: Subquery,
    start: String,
    prefixElems: Vector[Mir],
    prefixParts: Vector[Option[Attr]],
    target: Mir,
    targetPart: Option[Attr],
)(prefixKey: Vector[String]) {
  val coveredRels: Set[String] = prefixElems.flatMap(_.relations).toSet
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
    sub.attrClasses.getOrElse(p, Set(p)).find(a => coveredRels(a.rel))
  }

  /** True when the step is routed to one target partition (see `routeAttr`). */
  def routed: Boolean = routeAttr.isDefined

  lazy val key: StepKey =
    StepKey(prefixKey, targetRef.key, sub.inducedPreds(resultRels).map(_.key).toSeq.sorted.mkString("&"), routed)

  /** The step after this one: this step's target joins the prefix, and the
    * result is sent to `m`'s store partitioned by `part`.
    */
  def next(m: Mir, part: Option[Attr]): Step =
    Step(sub, start, prefixElems :+ target, prefixParts :+ targetPart, m, part)(key.prefix :+ key.target)

  override def toString: String =
    (prefixElems.head.toString +: prefixElems.tail.zip(prefixParts).map { case (m, p) => StoreRef(m, p).toString })
      .mkString("⟨", ", ", "") + s" → $targetRef⟩"
}

object Step {
  /** The first step of a probe order of `sub` whose start element is `head`. */
  def first(sub: Subquery, head: Mir, target: Mir, part: Option[Attr]): Step =
    Step(sub, head.relations.head, Vector(head), Vector.empty, target, part)(Vector(head.key))
}

/** Stable identity of a step across queries. Its hash is computed once (the
  * value case-class hashing gives), since steps are interned by key.
  */
final case class StepKey(prefix: Vector[String], target: String, preds: String, routed: Boolean) {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)
}

/** Candidate probe-order construction (Algorithm 1) and partitioning
  * candidates / decoration (Section V).
  */
object ProbeOrders {

  /** Algorithm 1: all candidate probe orders of `sub` over the usable MIRs,
    * for every starting relation, avoiding cross products (each appended MIR
    * must be joined with the head by at least one predicate of `sub`).
    *
    * An MIR is usable within `sub` iff its relations lie in `sub` and its
    * predicates are exactly those `sub` induces on them (a same-named MIR
    * from a query with different join attributes is a different store).
    */
  def candidates(sub: Subquery, mirs: Set[Mir]): Vector[ProbeOrder] =
    sub.relations.toVector.sorted.flatMap(start => candidatesFrom(sub, mirs, start))

  def candidatesFrom(sub: Subquery, mirs: Set[Mir], start: String): Vector[ProbeOrder] = {
    val usable = mirs.filter { m =>
      m.relSet.subsetOf(sub.relations) &&
      m.predicates == sub.inducedPreds(m.relSet) &&
      !m.relSet.contains(start)
    }.toVector.sortBy(_.key)

    val out = Vector.newBuilder[ProbeOrder]
    def rec(head: Vector[Mir], covered: Set[String]): Unit = {
      if (covered == sub.relations) out += ProbeOrder(sub, start, head)
      else
        usable.foreach { m =>
          val disjoint = m.relSet.intersect(covered).isEmpty
          val joinable = sub.predicates.exists(_.connects(covered, m.relSet))
          if (disjoint && joinable) rec(head :+ m, covered ++ m.relSet)
        }
    }
    rec(Vector(Mir.base(start)), Set(start))
    out.result()
  }

  /** Partitioning candidates of a store (Section V): every attribute of the
    * MIR's relations that appears, in *any* query of the workload, in a join
    * predicate with a relation outside the MIR. (Fig. 3 offers T[d] even in
    * probe orders for q1, where only q2 joins on d.)
    */
  def partitionCandidates(m: Mir, workload: Seq[Query]): Vector[Attr] = {
    val inside = m.relSet
    workload
      .flatMap(_.predicates)
      .flatMap { p =>
        Seq(p.x, p.y).filter(a => inside(a.rel) && !inside(Seq(p.x, p.y).filter(_ != a).head.rel))
      }
      .distinct
      .sortBy(_.full)
      .toVector
  }

  /** Apply partitioning: every combination of partitioning candidates over the
    * probed elements. Stores with no candidate get `None` (random/broadcast).
    */
  def decorate(po: ProbeOrder, partsOf: Mir => Vector[Attr]): Vector[Decorated] = {
    val options: Vector[Vector[Option[Attr]]] = po.elems.tail.map { m =>
      val cs = partsOf(m)
      if (cs.isEmpty) Vector(Option.empty[Attr]) else cs.map(Option(_))
    }
    options
      .foldLeft(Vector(Vector.empty[Option[Attr]])) { (acc, opts) =>
        for (a <- acc; o <- opts) yield a :+ o
      }
      .map(Decorated(po, _))
  }
}
