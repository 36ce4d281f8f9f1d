package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ModelSpec extends AnyFunSuite {

  private val p1 = Pred.of("R", "a", "S", "a")
  private val p2 = Pred.of("S", "b", "T", "b")
  private val q = Query("q", Set("R", "S", "T"), Set(p1, p2), window = 5.0)

  test("Pred equality is symmetric") {
    assert(Pred.of("R", "a", "S", "a") == Pred.of("S", "a", "R", "a"))
    assert(Pred.of("R", "a", "S", "a").hashCode == Pred.of("S", "a", "R", "a").hashCode)
  }

  test("Pred sets deduplicate symmetric duplicates") {
    assert(Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "a", "R", "a")).size == 1)
  }

  test("Pred key is canonical") {
    assert(Pred.of("S", "a", "R", "a").key == "R.a=S.a")
    assert(Pred.of("R", "a", "S", "a").key == "R.a=S.a")
  }

  test("Pred rejects self joins") {
    intercept[IllegalArgumentException](Pred.of("R", "a", "R", "b"))
  }

  test("Pred.connects") {
    assert(p1.connects(Set("R"), Set("S")))
    assert(p1.connects(Set("S"), Set("R")))
    assert(!p1.connects(Set("R"), Set("T")))
    assert(!p2.connects(Set("R"), Set("S")))
  }

  test("Pred.within") {
    assert(p1.within(Set("R", "S", "T")))
    assert(!p1.within(Set("R", "T")))
  }

  test("Query induced predicates") {
    assert(q.inducedPreds(Set("R", "S")) == Set(p1))
    assert(q.inducedPreds(Set("R", "T")) == Set.empty[Pred])
    assert(q.inducedPreds(Set("R", "S", "T")) == Set(p1, p2))
  }

  test("Query connectivity") {
    def joinConnected(rs: Set[String]) = AttrEq.connectedRels(rs, q.inducedPreds(rs))
    assert(joinConnected(q.relations))
    assert(joinConnected(Set("R", "S")))
    assert(!joinConnected(Set("R", "T")))
    assert(joinConnected(Set("S")))
  }

  test("Query rejects foreign predicates") {
    intercept[IllegalArgumentException](
      Query("bad", Set("R", "S"), Set(Pred.of("S", "b", "T", "b"))))
  }

  test("AttrEq classes merge transitively") {
    val preds = Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "a", "T", "c"))
    val cls = AttrEq.classes(preds)(Attr("R", "a"))
    assert(cls == Set(Attr("R", "a"), Attr("S", "a"), Attr("T", "c")))
  }

  test("AttrEq singleton class for unknown attr") {
    // no class holds an attribute of no predicate; `Step.routeAttr` reads that as {a}
    assert(!AttrEq.classes(Set(p1)).contains(Attr("X", "z")))
  }

  test("AttrEq.connectedRels") {
    assert(AttrEq.connectedRels(Set("R", "S", "T"), Set(p1, p2)))
    assert(!AttrEq.connectedRels(Set("R", "T"), Set.empty))
    assert(AttrEq.connectedRels(Set("R"), Set.empty))
    assert(!AttrEq.connectedRels(Set.empty, Set.empty))
  }

  test("Stats joinCard is product of cards and selectivities") {
    val st = Stats(Map("R" -> 100.0, "S" -> 200.0), Map(p1 -> 0.01))
    assert(st.joinCard(Set("R", "S"), Set(p1)) === 100.0 * 200.0 * 0.01)
    assert(st.joinCard(Set("R"), Set.empty) === 100.0)
  }

  test("Stats defaultSel applies to unknown predicates") {
    val st = Stats(Map("R" -> 10.0, "S" -> 10.0), Map.empty, defaultSel = 0.5)
    assert(st.joinCard(Set("R", "S"), Set(p1)) === 50.0)
  }

  test("Stats selOf is orientation-insensitive") {
    val st = Stats(Map.empty, Map(Pred.of("R", "a", "S", "a") -> 0.25))
    assert(st.selOf(Pred.of("S", "a", "R", "a")) === 0.25)
  }

  test("Catalog parallelism for base and MIR stores") {
    val cat = Catalog.of(RelDef("R", Vector("a"), 7), RelDef("S", Vector("a"), 3))
    assert(cat.parallelism(Mir.base("R")) == 7)
    assert(cat.parallelism(Mir.base("S")) == 3)
    val m = Mir(Vector("R", "S"), Set(p1))
    assert(cat.parallelism(m) == cat.mirParallelism)
  }
}
