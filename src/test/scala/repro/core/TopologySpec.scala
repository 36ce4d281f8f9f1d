package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Artificial, Fig9Env}

class TopologySpec extends AnyFunSuite {

  private val catalog = Artificial.catalog(parallelism = 3)
  private val query = Artificial.query(window = 5.0)
  private val stats = Stats(
    Map("R" -> 100.0, "S" -> 100.0, "T" -> 100.0, "U" -> 100.0),
    Map.empty, defaultSel = 0.01)

  private def topo = Topology.build(Planner.mqo(Seq(query), catalog, stats).selection, catalog)

  test("every relation has a probe root and ingestion targets for probed base stores") {
    val t = topo
    query.relations.foreach { r =>
      assert(t.roots.contains(r), s"no probe root for $r")
      assert(t.roots(r).nonEmpty)
    }
    t.ingest.values.flatten.foreach(sk => assert(t.stores(sk).ref.mir.isBase))
  }

  test("roots point at existing nodes and children chains are closed") {
    val t = topo
    t.roots.values.flatten.foreach(id => assert(t.nodes.contains(id)))
    t.nodes.values.foreach(n => n.children.foreach(c => assert(t.nodes.contains(c))))
  }

  test("every probed store of a node exists in the topology") {
    val t = topo
    t.nodes.values.foreach(n => assert(t.stores.contains(n.step.targetRef.key)))
    t.nodes.values.foreach(n => n.storeInto.foreach(ref => assert(t.stores.contains(ref.key))))
  }

  test("terminal query nodes emit; each query emitted somewhere") {
    val t = topo
    val emitted = t.nodes.values.flatMap(_.emits).toSet
    assert(emitted == Set(query.name))
  }

  test("probe trees merge shared prefixes into one node (fig 4)") {
    // Two queries sharing the S->T first hop must share the node.
    val q1 = Query("q1", Set("R", "S", "T"),
                   Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "b", "T", "b")), 5.0)
    val q2 = Query("q2", Set("S", "T", "U"),
                   Set(Pred.of("S", "b", "T", "b"), Pred.of("T", "c", "U", "c")), 5.0)
    val cat = Catalog(
      Map("R" -> RelDef("R", Vector("a"), 1), "S" -> RelDef("S", Vector("a", "b"), 1),
          "T" -> RelDef("T", Vector("b", "c"), 1), "U" -> RelDef("U", Vector("c"), 1)), 1)
    val st = Stats(Map("R" -> 100.0, "S" -> 100.0, "T" -> 100.0, "U" -> 100.0),
                   Map(Pred.of("R", "a", "S", "a") -> 0.01,
                       Pred.of("S", "b", "T", "b") -> 0.015,
                       Pred.of("T", "c", "U", "c") -> 0.01))
    val sel = Planner.mqo(Seq(q1, q2), cat, st).selection
    val t = Topology.build(sel, cat)
    // the optimum shares <S,T> — S has exactly one root serving both queries
    assert(t.roots("S").size == 1)
    val sRoot = t.nodes(t.roots("S").head)
    assert(sRoot.step.target == Mir.base("T"))
    // downstream, the shared node fans out to both queries' continuations
    assert(sRoot.children.size == 2)
  }

  test("maintenance orders store into all probed instances of their MIR") {
    // Force an MIR-using plan: very high iterative cost via huge selectivity.
    val q = Artificial.query(5.0)
    val st = Stats(
      Map("R" -> 10000.0, "S" -> 10.0, "T" -> 10.0, "U" -> 10.0),
      Map(Pred.of("R", "a", "S", "a") -> 0.1,
          Pred.of("S", "b", "T", "b") -> 0.001,
          Pred.of("T", "c", "U", "c") -> 0.001))
    val sel = Planner.mqo(Seq(q), catalog, st).selection
    val t = Topology.build(sel, catalog)
    val mirStores = t.stores.values.filter(!_.ref.mir.isBase)
    if (mirStores.nonEmpty) {
      val inserted = t.nodes.values.flatMap(_.storeInto).map(_.key).toSet
      mirStores.foreach(s => assert(inserted.contains(s.ref.key), s"${s.ref.key} never written"))
    } else fail("expected an MIR-using plan for this skewed workload")
  }

  test("the topology is the selection's one derivation of steps and stores") {
    val queries = Fig9Env.randomQueries(10, 5, 4, 2L)
    val cat = Fig9Env.catalog(10)
    val st = Fig9Env.stats(10).copy(defaultSel = 0.001)
    val sel = Planner.mqo(queries, cat, st).selection
    assert(sel.orders.exists(_._1.isInstanceOf[MirSlot]), "expected a maintenance order")
    val t = Topology.build(sel, cat)

    val steps = sel.orders.flatMap(_._2.steps)
    val keys = steps.map(_.key).distinct
    assert(t.nodes.values.map(_.step.key).toSet == keys.toSet)
    assert(t.nodes.size == keys.size)
    val probed = steps.map(_.targetRef).toSet
    assert(t.stores.values.map(_.ref).toSet == probed)

    sel.orders.foreach {
      case (MirSlot(mk, _), c) =>
        val into = t.nodes(Topology.nodeId(c.steps.last.key)).storeInto.toSet
        assert(into.nonEmpty, s"maintenance of $mk inserts nowhere")
        assert(into == probed.filter(_.mir.key == mk))
      case _ =>
    }
  }

  test("node ids are the decorated prefixes — deterministic and distinct") {
    val t = topo
    assert(t.nodes.keySet.size == t.nodes.values.map(_.id).toSet.size)
    val t2 = Topology.build(Planner.mqo(Seq(query), catalog, stats).selection, catalog)
    assert(t.nodes.keySet == t2.nodes.keySet)
  }

  test("store parallelism comes from the catalog") {
    val t = topo
    t.stores.values.foreach { s =>
      assert(s.parallelism == catalog.parallelism(s.ref.mir))
    }
  }

  test("query windows recorded; maxWindow is their max") {
    val t = topo
    assert(t.queryWindows == Map(query.name -> 5.0))
    assert(t.maxWindow == 5.0)
  }
}
