package repro.perfbench

import java.lang.management.ManagementFactory
import repro.TestData
import repro.core.Query
import repro.data.{Artificial, Fig9Env}
import scala.collection.mutable

/** Benchmark harness entry point.
  *
  * {{{
  * Main --workload <fig8b_pair|mq_shared|fig9_plan> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
  * }}}
  *
  * One process runs one workload on one thread, closed loop:
  *  1. set-up: the inputs are generated five times (the median counts);
  *  2. untimed: the reference counter is checked against TestData.naiveJoin
  *     on small inputs, reference result counts are computed, one
  *     deterministic pass must reproduce them exactly, and one warm-up pass
  *     runs;
  *  3. timed passes run back to back for `--seconds`, each followed by one
  *     run of the Yardstick kernel. With `--trace 1` every other pass records
  *     spans; the untraced ones give the tracing overhead.
  *
  * The report goes to stdout; its last line is `RESULT <json>` holding every
  * end-to-end and per-layer metric. The exit code is 1 when a check failed.
  */
object Main {

  private final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                                traceOut: Option[String])

  private def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1", kv.get("trace-out"))
  }

  /** One timed pass and the per-call wall times it logged. `cpuS` is the CPU
    * time of the pass: the harness thread's CPU seconds plus GC pauses. Time
    * the host takes the CPU away counts in wall time but not here. `yardS` is
    * the mean CPU time of the yardstick runs just before and just after it.
    * `out` is the warm-up pass's output, which the pass was checked to
    * repeat; keeping every pass's own output would grow the heap run by run.
    */
  private final case class Timed(id: Int, out: PassOut, traced: Boolean, iterS: Double, cpuS: Double, yardS: Double,
                                 allocBytes: Long, simAllocBytes: Vector[Long], calls: Map[String, Vector[Double]]) {
    def call(name: String): Vector[Double] = calls.getOrElse(name, Vector.empty)
    def rel: Double = cpuS / yardS
  }

  private val callNames = Seq("plan", "sim.run.static", "sim.run.adaptive", "sim.ctrl.epoch")

  private var attempted = 0L
  private var failed = 0L

  private def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      System.err.println(s"CHECK FAILED: $what")
    }
  }

  def main(argv: Array[String]): Unit = {
    val bootS = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
    val args = parse(argv)
    val w = Workload(args.workload)
    val tr = new Tracer
    tr.recording = args.trace

    // 1. set-up
    tr.beginPass(0)
    (1 to 5).foreach(_ => tr("data.gen")(w.generate(args.seed)))
    val genS = tr.durations("data.gen")
    val setupS = bootS + Summary.median(genS)
    tr.recording = false

    // 2. untimed correctness: reference counter, reference counts, deterministic pass
    selfCheck()
    w.reference()
    tr.beginPass(1)
    val det = try Some(w.pass(tr, deterministic = true)) catch { case e: Exception => fail(e); None }
    det.foreach { out =>
      out.plans.foreach(checkPlan)
      out.sims.foreach { s =>
        check(s.metrics.resultCount.filter(_._2 > 0) == s.reference.filter(_._2 > 0),
              s"${s.label} deterministic pass results ${s.results} != reference ${s.referenceResults}")
      }
    }

    // one untimed warm-up pass, so that timed passes run compiled code; it
    // also fixes the counters every later pass must repeat
    val warm = det.flatMap { d =>
      try {
        val out = w.pass(tr, deterministic = false)
        checkTimed(out, out, d)
        Some(out)
      } catch { case e: Exception => fail(e); None }
    }

    // 3. timed passes, each between two yardstick runs
    val timed = mutable.ArrayBuffer[Timed]()
    val t0 = System.nanoTime()
    var broken = warm.isEmpty
    def elapsed = (System.nanoTime() - t0) / 1e9
    def yardstick(): Double = { System.gc(); Yardstick.time() }
    var yardBefore = if (broken) 0.0 else { (1 to 4).foreach(_ => Yardstick.time()); yardstick() }
    while (!broken && (elapsed < args.seconds || timed.isEmpty || (args.trace && timed.size < 2))) {
      val id = timed.size + 2
      val traced = args.trace && timed.size % 2 == 0
      System.gc()
      tr.beginPass(id)
      tr.recording = traced
      val a0 = Tracer.allocatedBytes()
      val c0 = Tracer.cpuNs()
      val g0 = Tracer.gcPauseMs()
      val pass = try {
        val out = tr("pass")(w.pass(tr, deterministic = false))
        val cpuS = (Tracer.cpuNs() - c0) / 1e9 + (Tracer.gcPauseMs() - g0) / 1e3
        val alloc = Tracer.allocatedBytes() - a0
        checkTimed(out, warm.get, det.get)
        Some((tr.durations("pass").head, cpuS, alloc, out.sims.map(_.allocBytes),
              callNames.map(n => n -> tr.durations(n)).toMap))
      } catch { case e: Exception => fail(e); broken = true; None }
      tr.recording = false
      pass.foreach { case (iterS, cpuS, alloc, simAlloc, calls) =>
        val yardAfter = yardstick()
        timed += Timed(id, warm.get, traced, iterS, cpuS, (yardBefore + yardAfter) / 2, alloc, simAlloc, calls)
        yardBefore = yardAfter
      }
    }

    val e2e = if (timed.isEmpty) Vector.empty else endToEnd(setupS, bootS, timed.filterNot(_.traced).toVector match {
      case v if v.nonEmpty => v
      case _               => timed.toVector
    })
    val layers = if (args.trace && timed.nonEmpty) perLayer(tr, genS, timed.toVector) else Vector.empty
    args.traceOut.filter(_ => args.trace).foreach(f => tr.write(new java.io.File(f)))

    report(args, timed.toVector, e2e, layers)
    val ok = failed == 0 && timed.nonEmpty
    println("RESULT " + Json.obj(Seq(
      "correct" -> ok, "attempted" -> attempted, "failed" -> failed,
      "end_to_end" -> e2e.map(m => m.name -> Map("value" -> m.value, "unit" -> m.unit)).toMap,
      "per_layer" -> layers.map(m => m.name -> Map("value" -> m.value, "unit" -> m.unit)).toMap,
      "fingerprint" -> timed.headOption.map(_.out.sims.map(s => s.label -> simCounters(s)).toMap).getOrElse(Map.empty),
    )))
    System.out.flush()
    sys.exit(if (ok) 0 else 1)
  }

  private def fail(e: Exception): Unit = {
    check(ok = false, s"exception: $e")
    e.printStackTrace()
  }

  private def checkPlan(p: PlanOut): Unit = {
    val err = PlanCheck(p.problem, p.solution)
    check(err.isEmpty, s"plan: ${err.getOrElse("")}")
  }

  /** A pass must reproduce the warm-up pass's counters and the deterministic
    * pass's plans. It may lose results to in-flight races but never exceed
    * the reference.
    */
  private def checkTimed(out: PassOut, first: PassOut, det: PassOut): Unit = {
    out.plans.zip(det.plans).zip(first.plans).foreach { case ((p, d), f) =>
      checkPlan(p)
      check(p.fingerprint == d.fingerprint && p.fingerprint == f.fingerprint,
            s"plan differs between passes: ${p.fingerprint} vs ${f.fingerprint}")
    }
    out.sims.zip(first.sims).foreach { case (s, f) =>
      val over = s.metrics.resultCount.filter { case (q, n) => n > s.reference.getOrElse(q, 0L) }
      check(over.isEmpty, s"${s.label} results above the reference for ${over.keys.mkString(", ")}")
      check(s.fingerprint == f.fingerprint, s"${s.label} counters differ between passes")
    }
  }

  /** The reference counter must agree with the brute-force oracle. */
  private def selfCheck(): Unit = {
    val tiny = Artificial.tiny(40)
    val cases: Seq[(Query, Seq[repro.sim.InTuple])] =
      Seq(5.0, 1.0, 0.25).map(w => Artificial.query(w) -> tiny) ++
        Fig9Env.randomQueries(nRels = 5, nQ = 6, size = 3, seed = 11L)
          .map(_ -> Streams.uniform(nRels = 5, rate = 10.0, duration = 4.0, keys = 3, seed = 5L))
    cases.foreach { case (q, input) =>
      val got = RefJoin.count(q, input)
      val want = TestData.naiveJoin(q, input).size.toLong
      check(got == want, s"reference counter gives $got for ${q.name} (w=${q.window}), naiveJoin $want")
    }
  }

  private def simCounters(s: SimOut): Map[String, Long] = {
    val m = s.metrics
    Map("input_tuples" -> m.inputTuples, "probe_msgs" -> m.probeMsgs, "store_msgs" -> m.storeMsgs,
        "matches" -> m.matches, "tuples_sent" -> m.tuplesSent, "results" -> s.results,
        "reference_results" -> s.referenceResults, "peak_stored" -> m.peakStored,
        "tuples_completed" -> m.tuplesCompleted)
  }

  // ---- metrics ---------------------------------------------------------------

  final case class Metric(name: String, value: Double, unit: String, higherIsBetter: Boolean = false,
                          samples: Int = 0, note: String = "")

  private def timing(name: String, xs: Vector[Double], unit: String): Seq[Metric] = {
    val (tail, pct) = Summary.tail(xs)
    Seq(Metric(s"$name.p50", Summary.median(xs), unit, samples = xs.size),
        Metric(s"$name.tail", tail, unit, samples = xs.size, note = pct))
  }

  /** End-to-end metrics over the untraced timed passes. */
  private def endToEnd(setupS: Double, bootS: Double, passes: Vector[Timed]): Vector[Metric] = {
    val first = passes.head.out
    val sims = first.sims
    val solves = passes.flatMap(_.out.plans)
    val out = Vector.newBuilder[Metric]
    out += Metric("setup_s", setupS, "s", note = f"JVM start (${bootS}%.3f s) + median of 5 input generations")
    out ++= timing("iter_s", passes.map(_.iterS), "s")
    out ++= timing("iter_cpu_s", passes.map(_.cpuS), "s")
    out ++= timing("iter_rel", passes.map(_.rel), "ratio")
    out += Metric("yardstick_cpu_s", Summary.median(passes.map(_.yardS)), "s", samples = passes.size,
                  note = "reference kernel; machine speed, not program speed")
    if (sims.nonEmpty) {
      val wall = passes.map(p => p.call("sim.run.static").sum + p.call("sim.run.adaptive").sum).sum
      val tuples = passes.map(_.out.sims.map(_.metrics.inputTuples).sum).sum
      out += Metric("sim_tuples_per_s", tuples / wall, "1/s", higherIsBetter = true,
                    note = s"${sims.map(_.metrics.inputTuples).sum} input tuples per pass")
    }
    out ++= timing("plan_ms", passes.flatMap(_.call("plan")).map(_ * 1e3), "ms")
    val epochs = passes.flatMap(_.call("sim.ctrl.epoch")).map(_ * 1e3)
    if (epochs.nonEmpty) out ++= timing("reopt_ms", epochs, "ms")
    out += Metric("plan_cost", first.plans.map(_.solution.cost).sum, "tuples/window",
                  note = s"Eq. 1 cost summed over ${first.plans.size} solves")
    out += Metric("optimal_frac", solves.count(_.solution.optimal).toDouble / solves.size, "frac",
                  higherIsBetter = true, samples = solves.size)
    if (sims.nonEmpty) {
      val m = sims.map(_.metrics)
      out += Metric("probe_tuples", m.map(_.tuplesSent).sum.toDouble, "tuples")
      out += Metric("peak_stored", m.map(_.peakStored).max.toDouble, "tuples")
      val lat = m.flatMap(_.tupleLatencyBuckets.values)
      out += Metric("sim_latency_ms", 1e3 * lat.map(_._1).sum / lat.map(_._2).sum, "ms",
                    note = "simulated mean tuple-completion latency")
      out += Metric("result_loss_frac", 1.0 - sims.map(_.results).sum.toDouble / sims.map(_.referenceResults).sum,
                    "frac", note = s"${sims.map(_.results).sum} of ${sims.map(_.referenceResults).sum} results")
    }
    out += Metric("alloc_mb", Summary.median(passes.map(_.allocBytes.toDouble)) / 1e6, "MB", samples = passes.size)
    out += Metric("failed_frac", failed.toDouble / attempted, "frac", samples = attempted.toInt)
    out.result()
  }

  /** Per-layer metrics over the traced passes; times are span self times. */
  private def perLayer(tr: Tracer, genS: Vector[Double], passes: Vector[Timed]): Vector[Metric] = {
    val traced = passes.filter(_.traced)
    val ids = traced.map(_.id).toSet
    val first = traced.head.out
    val plans = first.plans
    val sims = first.sims
    val ctrls = sims.flatMap(_.controller)
    def selfMs(name: String) = Summary.median(tr.selfSeconds(name, ids)) * 1e3
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    val solveS = tr.selfSeconds("ilp.solve", ids).sum
    val simSelfS = tr.selfSeconds("sim.run.static", ids).sum + tr.selfSeconds("sim.run.adaptive", ids).sum
    val allSims = traced.flatMap(_.out.sims)
    val events = sims.map(s => s.metrics.probeMsgs + s.metrics.storeMsgs).sum
    val untraced = passes.filterNot(_.traced).map(_.rel)
    Vector(
      Metric("data.gen_s", Summary.median(genS), "s"),
      Metric("data.errors", tr.errors("data").toDouble, "count"),
      Metric("core.build_ms", selfMs("core.build"), "ms"),
      Metric("core.build.vars", plans.map(_.problem.numVars).sum.toDouble, "count"),
      Metric("core.build.probe_orders", plans.map(_.problem.numProbeOrders).sum.toDouble, "count"),
      Metric("core.build.steps", plans.map(_.problem.stepCost.size).sum.toDouble, "count"),
      Metric("core.build.mirs", plans.map(_.problem.mirByKey.size).sum.toDouble, "count"),
      Metric("core.topology_ms", selfMs("core.topology"), "ms"),
      Metric("core.topology.nodes", plans.map(_.topology.nodes.size).sum.toDouble, "count"),
      Metric("core.topology.stores", plans.map(_.topology.stores.size).sum.toDouble, "count"),
      Metric("core.topology.sharing", ratio(plans.map(_.orderSteps).sum, plans.map(_.topology.nodes.size).sum),
             "ratio", higherIsBetter = true),
      Metric("core.errors", tr.errors("core").toDouble, "count"),
      Metric("ilp.solve_ms", selfMs("ilp.solve"), "ms"),
      Metric("ilp.nodes", plans.map(_.solution.nodes).sum.toDouble, "count"),
      Metric("ilp.nodes_per_ms", ratio(traced.flatMap(_.out.plans).map(_.solution.nodes).sum.toDouble, solveS * 1e3),
             "1/ms", higherIsBetter = true),
      Metric("ilp.budget_used", ratio(plans.map(_.solution.nodes).sum.toDouble, plans.map(_.budget).sum.toDouble), "frac"),
      Metric("ilp.optimal", plans.count(_.solution.optimal).toDouble, "count", higherIsBetter = true),
      Metric("ilp.errors", tr.errors("ilp").toDouble, "count"),
      Metric("sim.run_s.static", Summary.median(tr.selfSeconds("sim.run.static", ids)), "s"),
      Metric("sim.run_s.adaptive", Summary.median(tr.selfSeconds("sim.run.adaptive", ids)), "s"),
      Metric("sim.input_tuples", sims.map(_.metrics.inputTuples).sum.toDouble, "count"),
      Metric("sim.events", events.toDouble, "count"),
      Metric("sim.events_per_s", ratio(allSims.map(s => s.metrics.probeMsgs + s.metrics.storeMsgs).sum.toDouble, simSelfS),
             "1/s", higherIsBetter = true),
      Metric("sim.probe_msgs", sims.map(_.metrics.probeMsgs).sum.toDouble, "count"),
      Metric("sim.store_msgs", sims.map(_.metrics.storeMsgs).sum.toDouble, "count"),
      Metric("sim.matches", sims.map(_.metrics.matches).sum.toDouble, "count"),
      Metric("sim.results", sims.map(_.results).sum.toDouble, "count", higherIsBetter = true),
      Metric("sim.peak_backlog", sims.map(_.metrics.peakBacklog).maxOption.getOrElse(0L).toDouble, "count"),
      Metric("sim.match_yield", ratio(sims.map(_.metrics.matches).sum.toDouble, sims.map(_.metrics.tuplesSent).sum.toDouble), "ratio",
             higherIsBetter = true),
      Metric("sim.alloc_bytes_per_tuple",
             ratio(traced.flatMap(_.simAllocBytes).sum.toDouble, allSims.map(_.metrics.inputTuples).sum.toDouble), "B/tuple"),
      Metric("sim.worker_busy_s", sims.map(_.metrics.totalBusy).sum, "s"),
      Metric("sim.errors", tr.errors("sim").toDouble, "count"),
      Metric("sim.ctrl.epoch_ms", selfMs("sim.ctrl.epoch"), "ms"),
      Metric("sim.ctrl.reoptimizations", ctrls.map(_.reoptimizations).sum.toDouble, "count"),
      Metric("sim.ctrl.installs", ctrls.map(_.installs).sum.toDouble, "count"),
      Metric("sim.ctrl.bootstraps", ctrls.map(_.bootstraps).sum.toDouble, "count"),
      Metric("sim.ctrl.install_yield", ratio(ctrls.map(_.installs).sum, ctrls.map(_.reoptimizations).sum), "ratio",
             higherIsBetter = true),
      Metric("sim.ctrl.errors", tr.errors("sim.ctrl").toDouble, "count"),
      Metric("trace.spans", tr.spans.size.toDouble, "count"),
      Metric("trace.overhead_frac",
             if (untraced.isEmpty) 0.0 else Summary.median(traced.map(_.rel)) / Summary.median(untraced) - 1, "frac",
             note = s"median traced vs untraced pass, ${traced.size} vs ${untraced.size} passes"),
    )
  }

  private def report(args: Args, timed: Vector[Timed], e2e: Vector[Metric], layers: Vector[Metric]): Unit = {
    val rt = ManagementFactory.getRuntimeMXBean
    println(s"workload ${args.workload}  seed ${args.seed}  seconds ${args.seconds}  trace ${if (args.trace) 1 else 0}")
    println(s"jdk ${System.getProperty("java.version")}  nproc ${Runtime.getRuntime.availableProcessors}  " +
            s"flags ${rt.getInputArguments.toArray.mkString(" ")}")
    println(s"timed passes ${timed.size} (${timed.count(_.traced)} traced); checks $attempted, failed $failed")
    println("pass seconds: " + timed.map(t => f"${t.iterS}%.3f" + (if (t.traced) "*" else "")).mkString(" "))
    println("pass cpu seconds: " + timed.map(t => f"${t.cpuS}%.3f").mkString(" "))
    println("yardstick cpu seconds: " + timed.map(t => f"${t.yardS}%.3f").mkString(" "))
    def show(m: Metric): Unit = {
      val dir = if (m.higherIsBetter) "higher is better" else "lower is better"
      val n = if (m.samples > 0) s"  n=${m.samples}" else ""
      val note = if (m.note.nonEmpty) s"  (${m.note})" else ""
      println(f"  ${m.name}%-26s ${m.value}%16.6f ${m.unit}%-14s $dir$n$note")
    }
    if (e2e.nonEmpty) { println("end-to-end:"); e2e.foreach(show) }
    if (layers.nonEmpty) { println("per-layer (traced passes, self times):"); layers.foreach(show) }
  }
}

object Summary {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** The highest percentile with at least ten samples beyond it, but never
    * below p90. With 100 samples or fewer the first rule alone falls towards
    * the median (at 11 samples it picks the minimum), so p90 is reported,
    * interpolated between neighbouring samples; both rules give p90 at 100.
    */
  def tail(xs: Seq[Double]): (Double, String) = {
    val s = xs.sorted
    val n = s.size
    if (n == 0) (0.0, "no samples")
    else if (n > 100) (s(n - 11), f"p${100.0 * (n - 10) / n}%.1f of $n")
    else {
      val pos = 0.9 * (n - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, n - 1)
      (s(lo) + (pos - lo) * (s(hi) - s(lo)), s"p90 of $n")
    }
  }
}
