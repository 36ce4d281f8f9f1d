package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Algorithm 1, partitioning candidates and step identity, validated against
  * the paper's worked example (Fig. 3): q1 = R(b), S(b,c), T(c) and
  * q2 = S(c), T(c,d), U(d).
  */
class ProbeOrderSpec extends AnyFunSuite {

  private val q1 = Query("q1", Set("R", "S", "T"),
                         Set(Pred.of("R", "b", "S", "b"), Pred.of("S", "c", "T", "c")))
  private val q2 = Query("q2", Set("S", "T", "U"),
                         Set(Pred.of("S", "c", "T", "c"), Pred.of("T", "d", "U", "d")))
  private val workload = Vector(q1, q2)
  private val mirs1 = Mir.enumerate(q1)
  private val mirs2 = Mir.enumerate(q2)

  /** The partitioning candidates of `m` in `wl`, by the batch call `MqoProblem.build` makes. */
  private def parts(m: Mir, wl: Seq[Query] = workload): Vector[Attr] =
    ProbeOrders.partitionCandidates(Vector(m), wl).head

  /** Algorithm 1's candidates of `sub` from each of its relations. */
  private def allOrders(sub: Subquery, mirs: Set[Mir]): Vector[ProbeOrder] =
    sub.relations.toVector.sorted.flatMap(Candidates(sub, mirs, _))

  private def labels(pos: Seq[ProbeOrder]): Set[String] =
    pos.map(_.elems.map(_.relations.mkString("")).mkString("<", ",", ">")).toSet

  test("fig-3 candidate probe orders for q1") {
    val sub = Subquery.ofQuery(q1)
    assert(labels(Candidates(sub, mirs1, "R")) == Set("<R,S,T>", "<R,ST>"))
    assert(labels(Candidates(sub, mirs1, "S")) == Set("<S,T,R>", "<S,R,T>"))
    assert(labels(Candidates(sub, mirs1, "T")) == Set("<T,S,R>", "<T,RS>"))
  }

  test("fig-3 candidate probe orders for q2") {
    val sub = Subquery.ofQuery(q2)
    assert(labels(Candidates(sub, mirs2, "S")) == Set("<S,T,U>", "<S,TU>"))
    assert(labels(Candidates(sub, mirs2, "T")) == Set("<T,S,U>", "<T,U,S>"))
    assert(labels(Candidates(sub, mirs2, "U")) == Set("<U,T,S>", "<U,ST>"))
  }

  test("fig-3 maintenance probe orders for q_RS and q_TU") {
    val rs = Mir.of(q1, Set("R", "S"))
    val subRs = Subquery.ofMir(rs, 1.0)
    assert(labels(allOrders(subRs, mirs1)) == Set("<R,S>", "<S,R>"))
    val tu = Mir.of(q2, Set("T", "U"))
    val subTu = Subquery.ofMir(tu, 1.0)
    assert(labels(allOrders(subTu, mirs2)) == Set("<T,U>", "<U,T>"))
  }

  test("cross products are avoided: no order visits an unconnected store") {
    val sub = Subquery.ofQuery(q1)
    // from R, the first probed store can only be S or ST (T is not joined with R)
    val fromR = Candidates(sub, mirs1, "R")
    assert(fromR.forall(_.elems(1).relSet.contains("S")))
  }

  test("fig-3 partitioning candidates: S by b or c, T by c or d, ST by b or d") {
    val s = Mir.base("S")
    assert(parts(s).toSet ==
           Set(Attr("S", "b"), Attr("S", "c")))
    val t = Mir.base("T")
    assert(parts(t).toSet ==
           Set(Attr("T", "c"), Attr("T", "d")))
    val st = Mir.of(q1, Set("S", "T"))
    assert(parts(st).toSet ==
           Set(Attr("S", "b"), Attr("T", "d")))
  }

  test("one batch call gives MIRs that share relations their own fig-3 candidates") {
    // S, T and ST share both relations; each keeps only the attributes that
    // join outside itself (S.c and T.c join within ST)
    val batch = ProbeOrders.partitionCandidates(
      Vector(Mir.base("S"), Mir.base("T"), Mir.of(q1, Set("S", "T"))), workload)
    assert(batch == Vector(Vector(Attr("S", "b"), Attr("S", "c")),
                           Vector(Attr("T", "c"), Attr("T", "d")),
                           Vector(Attr("S", "b"), Attr("T", "d"))))
  }

  test("partitioning on a materialized prefix attribute is excluded") {
    // For (R(b), S(b,c)) materialized, b is internal (only joins within) — for
    // workload {q1} alone, RS can only be partitioned by c (the join with T).
    val rs = Mir.of(q1, Set("R", "S"))
    assert(parts(rs, Vector(q1)).toSet == Set(Attr("S", "c")))
  }

  test("fig-3 q1/R decorated probe orders: 4 iterative + 2 via ST = 6") {
    val sub = Subquery.ofQuery(q1)
    val ds = Candidates(sub, mirs1, "R").flatMap(Decorate(_, workload))
    assert(ds.size == 6)
    val viaSt = ds.filter(_.po.elems.exists(m => !m.isBase))
    assert(viaSt.size == 2) // ST[S.b], ST[T.d]
  }

  test("steps of a decorated order are its prefixes") {
    val sub = Subquery.ofQuery(q1)
    val d = Candidates(sub, mirs1, "R")
      .flatMap(Decorate(_, workload))
      .find(_.po.elems.map(_.label) == Vector("R", "S", "T")).get
    assert(d.steps.size == 2)
    assert(d.steps(0).coveredRels == Set("R"))
    assert(d.steps(0).target == Mir.base("S"))
    assert(d.steps(1).coveredRels == Set("R", "S"))
    assert(d.steps(1).target == Mir.base("T"))
  }

  test("equal prefixes share step identity (sigma7 in fig-3)") {
    val sub = Subquery.ofQuery(q1)
    val ds = Candidates(sub, mirs1, "R").flatMap(Decorate(_, workload))
    val iterative = ds.filter(_.po.elems.forall(_.isBase))
    // group by the S-partitioning of the first step: same S[p] -> same first step key
    val byFirst = iterative.groupBy(_.steps.head.key)
    assert(byFirst.size == 2) // S[b] and S[c]
    byFirst.values.foreach(g => assert(g.size == 2)) // each extends to T[c] / T[d]
  }

  test("different partitioning means different step identity (sigma7 vs sigma8)") {
    val sub = Subquery.ofQuery(q1)
    val ds = Candidates(sub, mirs1, "R").flatMap(Decorate(_, workload))
    val keys = ds.filter(_.po.elems.forall(_.isBase)).map(_.steps.head.key).toSet
    assert(keys.size == 2)
  }

  test("steps shared across queries: <S,T[c]> of q1 equals <S,T[c]> of q2") {
    val d1 = Candidates(Subquery.ofQuery(q1), mirs1, "S")
      .flatMap(Decorate(_, workload))
      .filter(d => d.po.elems(1) == Mir.base("T") && d.parts(0).contains(Attr("T", "c")))
    val d2 = Candidates(Subquery.ofQuery(q2), mirs2, "S")
      .flatMap(Decorate(_, workload))
      .filter(d => d.po.elems(1) == Mir.base("T") && d.parts(0).contains(Attr("T", "c")))
    assert(d1.nonEmpty && d2.nonEmpty)
    assert(d1.head.steps.head.key == d2.head.steps.head.key)
  }

  test("routing feasibility: routed when partition attribute is derivable") {
    val sub = Subquery.ofQuery(q1)
    val ds = Candidates(sub, mirs1, "R").flatMap(Decorate(_, workload))
    // <R, S[b], ...>: R.b = S.b -> routed; <R, S[c], ...>: c unknown at R -> broadcast
    val sb = ds.find(d => d.parts(0).contains(Attr("S", "b"))).get.steps.head
    val sc = ds.find(d => d.parts(0).contains(Attr("S", "c"))).get.steps.head
    assert(sb.routed && sb.routeAttr.contains(Attr("R", "b")))
    assert(!sc.routed && sc.routeAttr.isEmpty)
  }

  test("routing via transitive attribute equality") {
    // R.a = X.a, X.a = T.c: routing R-tuples to T[c] is derivable from R.a
    val q = Query("qt", Set("R", "X", "T"),
                  Set(Pred.of("R", "a", "X", "a"), Pred.of("X", "a", "T", "c")))
    val sub = Subquery.ofQuery(q)
    val step = Step.first(sub, Mir.base("R"), Mir.base("T"), Some(Attr("T", "c")))
    // T is not directly joined with R, but the chain R.a=X.a=T.c routes it.
    assert(step.routed)
  }

  test("broadcast probe order <R,S[b],T[d]> exists for q1 (fig-3 sigma3)") {
    val sub = Subquery.ofQuery(q1)
    val ds = Candidates(sub, mirs1, "R").flatMap(Decorate(_, workload))
    val sigma3 = ds.find(d =>
      d.po.elems.forall(_.isBase) &&
      d.parts == Vector(Some(Attr("S", "b")), Some(Attr("T", "d"))))
    assert(sigma3.isDefined)
    assert(!sigma3.get.steps(1).routed) // d is unknown to a R⋈S tuple in q1
  }

  test("mirsUsed reports non-base elements") {
    val sub = Subquery.ofQuery(q1)
    val ds = Candidates(sub, mirs1, "R").flatMap(Decorate(_, workload))
    val viaSt = ds.find(!_.mirsUsed.isEmpty).get
    assert(viaSt.mirsUsed.map(_.relations.mkString("")) == Set("ST"))
  }
}
