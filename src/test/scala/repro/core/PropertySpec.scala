package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** Property-style invariants of the optimizer core over randomized queries
  * (seeded deterministic generation; 60 cases per property).
  */
class PropertySpec extends AnyFunSuite {

  private val relPool = Vector("A", "B", "C", "D", "E")
  private val attrPool = Vector("x", "y")

  /** Random connected query over 2..5 relations, deterministic in the seed. */
  private def genQuery(seed: Long): Query = {
    val rng = new java.util.Random(seed)
    val n = 2 + rng.nextInt(4)
    val rels = rng.ints(0, relPool.size).distinct().limit(n).toArray.map(relPool(_)).toVector
    var preds = Set.empty[Pred]
    for (i <- 1 until rels.size) {
      val from = rels(rng.nextInt(i))
      preds += Pred(Attr(from, attrPool(rng.nextInt(2))), Attr(rels(i), attrPool(rng.nextInt(2))))
    }
    if (rels.size > 2 && rng.nextBoolean()) {
      val a = rels(0); val b = rels(rels.size - 1)
      if (!preds.exists(p => p.rels == Set(a, b)))
        preds += Pred(Attr(a, "x"), Attr(b, "x"))
    }
    Query("q", rels.toSet, preds, 1.0)
  }

  private def cases: Seq[Query] = (1 to 60).map(s => genQuery(s * 7919L))

  private def bruteConnectedSubsets(q: Query): Set[Set[String]] = {
    val rels = q.relations.toVector
    (1 until (1 << rels.size)).map { mask =>
      rels.zipWithIndex.collect { case (r, i) if (mask & (1 << i)) != 0 => r }.toSet
    }.filter(rs => rs != q.relations && AttrEq.connectedRels(rs, q.inducedPreds(rs))).toSet
  }

  test("property: MIR enumeration = connected proper subsets") {
    cases.foreach { q =>
      val mirs = Mir.enumerate(q)
      assert(mirs.map(_.relSet) == bruteConnectedSubsets(q), q.toString)
      mirs.foreach { m =>
        assert(m.predicates == q.inducedPreds(m.relSet))
        assert(AttrEq.connectedRels(m.relSet, m.predicates))
      }
    }
  }

  test("property: probe orders start at the start relation and partition the query") {
    cases.foreach { q =>
      val mirs = Mir.enumerate(q)
      val sub = Subquery.ofQuery(q)
      q.relations.foreach { start =>
        val cands = Candidates(sub, mirs, start)
        assert(cands.nonEmpty, s"no candidates from $start for $q")
        cands.foreach { po =>
          assert(po.elems.head == Mir.base(start))
          val all = po.elems.flatMap(_.relations)
          assert(all.toSet == q.relations && all.size == q.relations.size,
                 s"elements must partition the query: $po")
          for (t <- 1 until po.elems.size) {
            val covered = po.elems.take(t).flatMap(_.relations).toSet
            assert(q.predicates.exists(_.connects(covered, po.elems(t).relSet)))
          }
        }
      }
    }
  }

  test("property: steps are prefixes with strictly growing coverage, no cross products") {
    cases.foreach { q =>
      val sub = Subquery.ofQuery(q)
      val mirs = Mir.enumerate(q)
      for {
        start <- q.relations.toVector.sorted.take(2)
        po <- Candidates(sub, mirs, start).take(3)
        d <- Decorate(po, Vector(q)).take(3)
      } {
        val steps = d.steps
        assert(steps.size == po.elems.size - 1)
        steps.sliding(2).foreach {
          case Seq(a, b) => assert(a.coveredRels.subsetOf(b.coveredRels) &&
                                   a.coveredRels != b.coveredRels)
          case _         =>
        }
        steps.foreach(s => assert(s.probePreds.nonEmpty, s"cross-product step $s"))
      }
    }
  }

  test("property: step costs non-negative, chi is 1 or the target parallelism") {
    val catalog = Catalog(relPool.map(r => r -> RelDef(r, attrPool, 4)).toMap, 6)
    val stats = Stats(relPool.map(_ -> 50.0).toMap, Map.empty, 0.05)
    cases.foreach { q =>
      val sub = Subquery.ofQuery(q)
      val mirs = Mir.enumerate(q)
      for {
        start <- q.relations.toVector.sorted.take(1)
        po <- Candidates(sub, mirs, start).take(4)
        d <- Decorate(po, Vector(q)).take(4)
        s <- d.steps
      } {
        val chi = CostModel.chi(s, catalog)
        assert(chi == 1.0 || chi == catalog.parallelism(s.target).toDouble)
        assert(CostModel.stepCost(s, stats, catalog) >= 0.0)
      }
    }
  }

  test("property: problems are well-formed and solvable") {
    val catalog = Catalog(relPool.map(r => r -> RelDef(r, attrPool, 3)).toMap, 3)
    val stats = Stats(relPool.map(_ -> 20.0).toMap, Map.empty, 0.05)
    cases.take(25).foreach { q =>
      val p = MqoProblem.build(Seq(q), catalog, stats)
      assert(p.querySlots.size == q.relations.size)
      p.querySlots.foreach(s => assert(p.slotCands(s).nonEmpty))
      p.slotCands.values.flatten.flatMap(_.mirsUsed).foreach { mk =>
        assert(p.mirSlots(mk).size == p.mirByKey(mk).size)
      }
      val sol = repro.ilp.Solver.solve(p, 20000L)
      assert(sol.cost >= 0.0)
      assert(p.querySlots.forall(sol.choice.contains))
    }
  }

  test("property: multi-query problems share step variables where expected") {
    val catalog = Catalog(relPool.map(r => r -> RelDef(r, attrPool, 3)).toMap, 3)
    val stats = Stats(relPool.map(_ -> 20.0).toMap, Map.empty, 0.05)
    (1 to 15).foreach { s =>
      val q1 = genQuery(s * 101L).copy(name = "q1")
      val q2 = genQuery(s * 103L).copy(name = "q2")
      if (q1.relations != q2.relations || q1.predicates != q2.predicates) {
        val joint = MqoProblem.build(Seq(q1, q2), catalog, stats)
        // one slot per (query, start relation)
        assert(joint.querySlots.size == q1.relations.size + q2.relations.size)
        // an identical duplicate query adds no new step variables at all
        val dup = MqoProblem.build(Seq(q1, q1.copy(name = "q1b")), catalog, stats)
        val single = MqoProblem.build(Seq(q1), catalog, stats)
        assert(dup.numYVars == single.numYVars, "duplicate query must share every step")
      }
    }
  }

  test("property: step identity is deterministic across rebuilds") {
    cases.take(20).foreach { q =>
      val catalog = Catalog(relPool.map(r => r -> RelDef(r, attrPool, 3)).toMap, 3)
      val stats = Stats(relPool.map(_ -> 20.0).toMap, Map.empty, 0.05)
      val a = MqoProblem.build(Seq(q), catalog, stats)
      val b = MqoProblem.build(Seq(q), catalog, stats)
      assert(a.stepCost.keySet == b.stepCost.keySet)
      assert(a.numVars == b.numVars)
    }
  }

  /** Built problems over the random queries (alone and in pairs, so MIR
    * subqueries of several queries meet), the Fig. 3 workload and a pair
    * whose shared step follows steps that differ only in routing.
    */
  private def builtProblems: Seq[MqoProblem] = {
    val catalog = Catalog(relPool.map(r => r -> RelDef(r, attrPool, 3)).toMap, 3)
    val stats = Stats(relPool.map(_ -> 20.0).toMap, Map.empty, 0.05)
    val single = cases.take(30).map(q => MqoProblem.build(Seq(q), catalog, stats))
    val pairs = (1 to 15).map { s =>
      MqoProblem.build(Seq(genQuery(s * 101L).copy(name = "q1"), genQuery(s * 103L).copy(name = "q2")), catalog, stats)
    }
    // Fig. 3: q1 = R(b), S(b,c), T(c) and q2 = S(c), T(c,d), U(d)
    val fig3 = Seq(
      Query("q1", Set("R", "S", "T"), Set(Pred.of("R", "b", "S", "b"), Pred.of("S", "c", "T", "c"))),
      Query("q2", Set("S", "T", "U"), Set(Pred.of("S", "c", "T", "c"), Pred.of("T", "d", "U", "d"))))
    val fig3Catalog = Catalog.of(RelDef("R", Vector("b"), 3), RelDef("S", Vector("b", "c"), 3),
                                 RelDef("T", Vector("c", "d"), 3), RelDef("U", Vector("d"), 3))
    val fig3Stats = Stats(Map("R" -> 100.0, "S" -> 100.0, "T" -> 100.0, "U" -> 100.0), Map.empty, 0.01)
    // q2 extends q1 by U, whose R.c = U.c = S.b puts R.c in S.b's class: the
    // step ⟨R → S[S.b]⟩ is routed only in q2, yet ⟨R, S[S.b]⟩ → T[T.b] has
    // one key in both queries, reached from two parent steps.
    val routedInOne = Seq(
      Query("q1", Set("R", "S", "T"), Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "b", "T", "b"))),
      Query("q2", Set("R", "S", "T", "U"), Set(Pred.of("R", "a", "S", "a"), Pred.of("S", "b", "T", "b"),
                                               Pred.of("R", "c", "U", "c"), Pred.of("U", "c", "S", "b"))))
    val routedCatalog = Catalog.of(RelDef("R", Vector("a", "c"), 3), RelDef("S", Vector("a", "b"), 3),
                                   RelDef("T", Vector("b"), 3), RelDef("U", Vector("c"), 3))
    (single ++ pairs) ++ Seq(MqoProblem.build(fig3, fig3Catalog, fig3Stats),
                             MqoProblem.build(routedInOne, routedCatalog, fig3Stats))
  }

  private def allCands(p: MqoProblem): Iterable[(SlotId, Cand)] =
    p.slotCands.toVector.sortBy(_._1.key).flatMap { case (sid, cs) => cs.map(sid -> _) }

  test("property: a step's routing attribute is the one its subquery's classes give") {
    builtProblems.foreach { p =>
      allCands(p).foreach { case (_, c) =>
        c.steps.foreach { s =>
          val covered = s.prefixElems.flatMap(_.relations).toSet
          val expected = s.targetPart.flatMap(a => AttrEq.classes(s.sub.predicates).getOrElse(a, Set(a)).find(b => covered(b.rel)))
          assert(s.routeAttr == expected, s"$s in ${s.sub}")
        }
      }
    }
  }

  test("property: interned slot, MIR and step ids agree with their keys and costs") {
    builtProblems.foreach { p =>
      // Slot ids: query slots first, in `querySlots` order, then the maintenance slots.
      val expectedQuerySlots = p.queries.flatMap(q => q.relations.toVector.sorted.map(QuerySlot(q.name, _)))
      assert(p.numQuerySlots == p.querySlots.size && p.querySlots == expectedQuerySlots)
      assert((0 until p.numQuerySlots).map(p.slots(_)) == p.querySlots)
      assert(p.slots.drop(p.numQuerySlots).forall(_.isInstanceOf[MirSlot]))
      assert(p.slots.distinct.length == p.slots.length && p.cands.length == p.slots.length)
      // Each slot's candidates start where the slot does; a maintenance slot's end with its MIR's insert.
      p.slots.indices.foreach { s =>
        p.cands(s).foreach { c =>
          assert(c.d.po.start == p.slots(s).start, s"slot $s: $c")
          p.slots(s) match {
            case MirSlot(mk, start) =>
              assert(p.stepKey(c.stepIds.last) == CostModel.insertKey(mk, start), s"slot $s: $c")
            case _: QuerySlot       =>
          }
        }
      }
      // MIR ids: a MIR's slot ids are its maintenance slots, one per relation, in `relations` order.
      assert(p.mirKeys.distinct.length == p.mirKeys.length && p.mirSlotIds.length == p.mirKeys.length)
      p.mirKeys.indices.foreach { m =>
        val mk = p.mirKeys(m)
        val ss = p.mirSlotIds(m).toVector.map(p.slots(_))
        assert(ss == p.mirByKey(mk).relations.map(MirSlot(mk, _)), s"MIR $m ($mk)")
      }
      assert(((0 until p.numQuerySlots) ++ p.mirSlotIds.flatMap(_.toVector)).sorted == p.slots.indices)
      // The keyed views are the numbered tables.
      assert(p.slotCands == p.slots.indices.map(s => p.slots(s) -> p.cands(s)).toMap)
      assert(p.mirSlots == p.mirKeys.indices.map(m => p.mirKeys(m) -> p.mirSlotIds(m).toVector.map(p.slots(_))).toMap)
      // Every used MIR has an id, and a candidate's MIR ids name its `mirsUsed`, in order.
      assert(allCands(p).flatMap(_._2.mirsUsed).toSet == p.mirKeys.toSet)
      allCands(p).foreach { case (sid, c) =>
        assert(c.mirIds.toVector.map(p.mirKeys(_)) == c.mirsUsed, s"$sid: $c")
      }

      // Step ids: one per key. Every step a candidate reaches costs, to the
      // bit, what `CostModel` prices it at; an insert step costs the insert of
      // its slot's subquery.
      val idOf = mutable.Map[StepKey, Int]()
      def bits(d: Double) = java.lang.Double.doubleToLongBits(d)
      allCands(p).foreach { case (sid, c) =>
        val inserts = if (sid.isInstanceOf[MirSlot]) 1 else 0
        assert(c.stepIds.length == c.steps.size + inserts)
        assert(c.steps == c.d.steps, s"$sid: $c")
        c.stepIds.indices.foreach { j =>
          val id = c.stepIds(j)
          val k = p.stepKey(id)
          assert(idOf.getOrElseUpdate(k, id) == id, s"$sid: key $k has two ids")
          assert(p.stepCosts(id) == p.stepCost(k))
          if (j < c.steps.size) {
            val s = c.steps(j)
            assert(k == s.key && k == keyFromScratch(s), s"$sid: step $j of $c")
            assert(bits(p.stepCosts(id)) == bits(CostModel.stepCost(s, p.stats, p.catalog)), s"$sid: step $j of $c")
          } else sid match {
            case MirSlot(mk, _) =>
              val sub = Subquery.ofMir(p.mirByKey(mk), c.d.po.sub.window)
              assert(c.d.po.sub == sub, s"$sid: $c")
              assert(bits(p.stepCosts(id)) == bits(CostModel.insertCost(sub, p.stats)), s"$sid: insert of $c")
            case _: QuerySlot => fail(s"$sid: a query slot's candidate has an insert step")
          }
        }
      }
      val keys = p.stepCosts.indices.map(p.stepKey)
      assert(idOf.size == keys.length && keys.distinct.length == keys.length)
    }
  }

  test("property: re-pricing a build equals building under the new statistics") {
    val catalog = Catalog(relPool.map(r => r -> RelDef(r, attrPool, 3)).toMap, 3)
    def bits(xs: Array[Double]) = xs.toVector.map(java.lang.Double.doubleToLongBits)
    (1 to 20).foreach { s =>
      val rng = new java.util.Random(s * 6151L)
      val qs = Seq(genQuery(s * 101L).copy(name = "q1"), genQuery(s * 103L).copy(name = "q2"))
      def randomStats() = Stats(relPool.map(_ -> (5.0 + rng.nextInt(200))).toMap,
                                qs.flatMap(_.predicates).map(_ -> rng.nextDouble() * 0.2).toMap,
                                defaultSel = rng.nextDouble() * 0.1)
      val (a, b) = (randomStats(), randomStats())
      val re = MqoProblem.build(qs, catalog, a).repriced(b)
      val fresh = MqoProblem.build(qs, catalog, b)
      assert(re.stats == b && re.queries == fresh.queries)
      assert(re.slots.sameElements(fresh.slots) && re.numQuerySlots == fresh.numQuerySlots)
      assert(re.cands.toVector == fresh.cands.toVector, s"seed $s")
      re.cands.indices.foreach { i =>
        re.cands(i).zip(fresh.cands(i)).foreach { case (x, y) =>
          assert(x.stepIds.sameElements(y.stepIds) && x.mirIds.sameElements(y.mirIds), s"seed $s: $x")
        }
      }
      assert(re.mirKeys.sameElements(fresh.mirKeys))
      assert(re.mirSlotIds.map(_.toVector).toVector == fresh.mirSlotIds.map(_.toVector).toVector)
      assert(re.stepCosts.indices.map(re.stepKey) == fresh.stepCosts.indices.map(fresh.stepKey))
      assert(bits(re.stepCosts) == bits(fresh.stepCosts), s"seed $s")
      val (x, y) = (repro.ilp.Solver.solve(re, 20000L), repro.ilp.Solver.solve(fresh, 20000L))
      assert(x == y && bits(Array(x.cost)) == bits(Array(y.cost)), s"seed $s")
    }
  }

  /** A step's key computed from its fields alone, not along its probe order. */
  private def keyFromScratch(s: Step): StepKey = {
    val prefix = s.prefixElems.head.key +: s.prefixElems.tail.zip(s.prefixParts).map {
      case (m, part) => StoreRef(m, part).key
    }
    val covered = s.prefixElems.flatMap(_.relations).toSet
    val routed = s.targetPart.exists(a => AttrEq.classes(s.sub.predicates).getOrElse(a, Set(a)).exists(b => covered(b.rel)))
    val preds = s.sub.predicates.filter(_.within(covered ++ s.target.relSet)).map(_.key).toSeq.sorted
    StepKey(prefix, StoreRef(s.target, s.targetPart).key, preds.mkString("&"), routed)
  }
}
