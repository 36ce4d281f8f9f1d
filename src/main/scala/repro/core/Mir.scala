package repro.core

/** A materializable intermediate result (Section V): a connected subset of a
  * query's relations together with the join predicates induced on them.
  * Cross products are excluded by the connectivity requirement.
  *
  * A base relation is the MIR of a single relation with no predicates.
  * MIRs from different queries are identical (and hence shared) iff they
  * cover the same relations with the same predicates.
  */
final case class Mir(relations: Vector[String], predicates: Set[Pred]) {
  require(relations == relations.sorted, s"MIR relations must be sorted: $relations")
  require(predicates.forall(_.within(relSet)), s"MIR predicates must be internal")

  lazy val relSet: Set[String] = relations.toSet
  def isBase: Boolean = relations.size == 1
  def size: Int = relations.size

  /** Stable global identity: relations + canonical predicate keys. */
  lazy val key: String =
    relations.mkString(",") + "|" + predicates.map(_.key).toSeq.sorted.mkString("&")

  /** Short display label, e.g. `ST` for the join of S and T. */
  def label: String = relations.mkString("⋈")

  override def toString: String = if (isBase) relations.head else s"($label)"
}

object Mir {
  /** The base-relation MIR. */
  def base(r: String): Mir = Mir(Vector(r), Set.empty)

  /** The MIR of `rs` within query `q` (predicates induced by `q`). */
  def of(q: Query, rs: Set[String]): Mir = Mir(rs.toVector.sorted, q.inducedPreds(rs))

  /** Enumerate all MIRs of a query: connected, *proper* subsets of its
    * relations (the full result is the query output, not an intermediate).
    * Base relations are included. Worst case 2^n for a clique; for a linear
    * query only the consecutive runs are connected (Section V.A).
    */
  def enumerate(q: Query): Set[Mir] = {
    val rels = q.relations.toVector.sorted
    val n = rels.size
    val out = Set.newBuilder[Mir]
    // n is small (queries of size <= ~7); subset enumeration is fine.
    var mask = 1
    val limit = 1 << n
    while (mask < limit) {
      if (mask != limit - 1) { // proper subset
        val rs = (0 until n).collect { case i if (mask & (1 << i)) != 0 => rels(i) }.toSet
        if (AttrEq.connectedRels(rs, q.inducedPreds(rs))) out += Mir.of(q, rs)
      }
      mask += 1
    }
    out.result()
  }
}

/** A (sub)query a probe order computes: either a user query or the defining
  * subquery of a non-base MIR (used to generate maintenance probe orders).
  */
final case class Subquery(id: String, relations: Set[String], predicates: Set[Pred], window: Double) {
  def inducedPreds(rs: Set[String]): Set[Pred] = predicates.filter(_.within(rs))

  /** Attribute-equality classes under this subquery's predicates, computed
    * once (every step's routing reads them).
    */
  lazy val attrClasses: Map[Attr, Set[Attr]] = AttrEq.classes(predicates)
}

object Subquery {
  def ofQuery(q: Query): Subquery = Subquery(q.name, q.relations, q.predicates, q.window)
  def ofMir(m: Mir, window: Double): Subquery =
    Subquery(s"mir:${m.key}", m.relSet, m.predicates, window)
}
