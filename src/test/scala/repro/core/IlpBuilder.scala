package repro.core

import repro.ilp.{Constraint, Eq, Ge, Ilp, Term}

/** Algorithm 2: translate the MQO problem into an explicit 0/1 ILP.
  *
  * Variable naming: `x:<slotKey>#<candIdx>` selects candidate probe orders,
  * `y:<stepIdx>` selects steps. Constraints follow Section V:
  *
  *  - per query slot: Σ x = 1 (Eq. 2 / "one probe order");
  *  - per candidate using an MIR store, for each input relation of the MIR:
  *    `-x + Σ x' ≥ 0` over the maintenance candidates from that relation
  *    (the paper's Fig. 3 prints coefficient `-k`, which would force *all*
  *    candidates on; we use the semantically intended "at least one");
  *  - per candidate: `-PCost·x + Σ StepCost·y ≥ 0` (Eq. 3), forcing all of a
  *    chosen candidate's step variables to 1; equal steps across queries
  *    share one y variable;
  *  - goal: minimize Σ StepCost·y.
  */
object IlpBuilder {

  final case class Encoded(ilp: Ilp,
                           xVar: Map[(SlotId, Int), String],
                           yVar: Map[StepKey, String])

  def encode(p: MqoProblem): Encoded = {
    val keys = p.stepCost.keys.toVector.sortBy(k => (k.prefix.mkString(";"), k.target, k.preds, k.routed))
    val yVar: Map[StepKey, String] = keys.zipWithIndex.map { case (k, i) => k -> s"y:$i" }.toMap

    val slotsOrdered: Vector[SlotId] =
      p.querySlots ++ p.mirSlots.toVector.sortBy(_._1).flatMap(_._2)
    val xVar: Map[(SlotId, Int), String] = (for {
      sid <- slotsOrdered
      i <- p.slotCands(sid).indices
    } yield (sid, i) -> s"x:${sid.key}#$i").toMap

    val constraints = Vector.newBuilder[Constraint]

    // Eq. 2: exactly one probe order per (query, start) slot.
    for (sid <- p.querySlots) {
      val terms = p.slotCands(sid).indices.map(i => Term(1.0, xVar((sid, i)))).toVector
      constraints += Constraint(terms, Eq, 1.0, s"one-order:${sid.key}")
    }

    for (sid <- slotsOrdered; (c, i) <- p.slotCands(sid).zipWithIndex) {
      val x = xVar((sid, i))

      // MIR maintenance: per used MIR and input relation, at least one
      // maintenance probe order must be selected.
      for (mk <- c.mirsUsed; msid <- p.mirSlots(mk)) {
        val alts = p.slotCands(msid).indices.map(j => Term(1.0, xVar((msid, j)))).toVector
        constraints += Constraint(Term(-1.0, x) +: alts, Ge, 0.0, s"maintain:$mk:${msid.key}")
      }

      // Eq. 3: -PCost·x + Σ StepCost·y ≥ 0 forces every step of the chosen
      // candidate to 1 (step costs are positive).
      val stepTerms = Costed(p, c).map { case (k, cost) => Term(cost, yVar(k)) }
      val cost = p.cost(c.stepIds)
      if (cost > 0)
        constraints += Constraint(Term(-cost, x) +: stepTerms, Ge, 0.0, s"cost:${sid.key}#$i")
    }

    val objective = keys.map(k => Term(p.stepCost(k), yVar(k)))
    val vars = xVar.values.toVector.sorted ++ keys.map(yVar)
    Encoded(Ilp(vars, constraints.result(), objective), xVar, yVar)
  }
}
