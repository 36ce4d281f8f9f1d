package repro.perfbench

import java.io.PrintWriter
import java.lang.management.ManagementFactory
import scala.collection.mutable

/** Timing around the harness's calls into the program's layers.
  *
  * Every call is timed, because the end-to-end metrics need the durations.
  * While `recording` is on, each call also leaves a span (name, start, end,
  * parent span, pass id) in memory; `write` dumps them when the run ends.
  * Exceptions are counted against the span's layer and rethrown.
  */
final class Tracer {
  import Tracer._

  var recording = false
  private var pass = 0
  private var open: List[Span] = Nil
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  val errors: mutable.Map[String, Long] = mutable.Map.empty[String, Long].withDefaultValue(0L)
  /** Wall seconds of every call in the current pass, by span name. */
  private var log = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]

  /** Start a new pass: later spans carry `id`, and the duration log is fresh. */
  def beginPass(id: Int): Unit = {
    pass = id
    log = mutable.Map.empty
  }

  def durations(name: String): Vector[Double] =
    log.get(name).map(_.toVector).getOrElse(Vector.empty)

  def apply[T](name: String)(body: => T): T = {
    val span =
      if (recording) {
        val s = new Span(spans.size, name, open.headOption.map(_.id).getOrElse(-1), pass)
        spans += s
        open = s :: open
        s
      } else null
    val t0 = System.nanoTime()
    try body
    catch { case e: Throwable => errors(layerOf(name)) += 1; throw e }
    finally {
      val t1 = System.nanoTime()
      log.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += (t1 - t0) / 1e9
      if (span != null) {
        span.startNs = t0
        span.endNs = t1
        open = open.tail
      }
    }
  }

  /** Self time of each span: its duration minus the time its children cover. */
  def selfNs: Map[Int, Long] = {
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    spans.map(s => s.id -> (s.durNs - childNs(s.id))).toMap
  }

  /** Self times in seconds of the spans named `name` recorded during `passes`. */
  def selfSeconds(name: String, passes: Set[Int]): Vector[Double] = {
    val self = selfNs
    spans.iterator.filter(s => s.name == name && passes(s.pass)).map(s => self(s.id) / 1e9).toVector
  }

  /** Write the spans as JSON lines. */
  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfNs
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(Json.obj(Seq(
        "id" -> s.id, "name" -> s.name, "parent" -> s.parent, "pass" -> s.pass,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "self_ns" -> self(s.id))))
    } finally out.close()
  }
}

object Tracer {
  final class Span(val id: Int, val name: String, val parent: Int, val pass: Int) {
    var startNs = 0L
    var endNs = 0L
    def durNs: Long = endNs - startNs
  }

  /** The layer a span name belongs to: `sim.ctrl.epoch` → `sim.ctrl`, `core.build` → `core`. */
  def layerOf(name: String): String =
    if (name.startsWith("sim.ctrl.")) "sim.ctrl" else name.takeWhile(_ != '.')

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** CPU nanoseconds used so far by the calling thread. Unlike wall time, it
    * leaves out the time the host takes the CPU away from this machine.
    */
  def cpuNs(): Long = threads.getCurrentThreadCpuTime

  private val collectors = ManagementFactory.getGarbageCollectorMXBeans

  /** Milliseconds spent in GC pauses so far, over all collectors. */
  def gcPauseMs(): Long = {
    var ms = 0L
    collectors.forEach(c => ms += c.getCollectionTime)
    ms
  }
}
