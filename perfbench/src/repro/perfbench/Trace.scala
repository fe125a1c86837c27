package repro.perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.TaskContext
import repro.core._

import scala.jdk.CollectionConverters._

/** One timed interval at a layer boundary. Spans of one request share
  * `request`; `parent` is the id of the span that caused this one (0 for a
  * root). Times are `System.nanoTime` readings; `attrs` carries the counts
  * measured at the same boundary.
  */
final case class Span(id: Long, parent: Long, request: Long, name: String,
                      start: Long, end: Long, attrs: Map[String, Double]) {
  def ms: Double = (end - start) / 1e6
  def attr(k: String): Double = attrs.getOrElse(k, 0.0)
}

/** In-memory span store, written out when a run ends. Spark runs in local
  * mode, so executor tasks share this JVM and record into the same store.
  */
object Trace {
  private val ids = new AtomicLong()
  private val spans = new ConcurrentLinkedQueue[Span]()

  def newId(): Long = ids.incrementAndGet()

  def record(name: String, parent: Long, request: Long, start: Long, end: Long,
             attrs: Map[String, Double] = Map.empty, id: Long = 0L): Long = {
    val sid = if (id == 0L) newId() else id
    spans.add(Span(sid, parent, request, name, start, end, attrs))
    sid
  }

  /** Run `body` inside a span; `attrs` is evaluated after `body` returns. */
  def timed[A](name: String, parent: Long, request: Long, id: Long = 0L)
              (body: => A)(attrs: A => Map[String, Double] = (_: A) => Map.empty[String, Double]): A = {
    val t0 = System.nanoTime()
    val out = body
    record(name, parent, request, t0, System.nanoTime(), attrs(out), id)
    out
  }

  def all: Vector[Span] = spans.asScala.toVector

  def clear(): Unit = spans.clear()

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val w = new PrintWriter(Files.newBufferedWriter(path))
    try all.sortBy(_.start).foreach { s =>
      w.println(Json.render(Map(
        "id" -> s.id, "parent" -> s.parent, "request" -> s.request, "name" -> s.name,
        "start_ns" -> s.start, "end_ns" -> s.end, "attrs" -> s.attrs)))
    } finally w.close()
  }
}

/** Counts cost-function evaluations inside one Spark task and samples the
  * clock every 256 evaluations. Spark deserialises a fresh copy of the task
  * closure, and so of this meter, for every task; on task completion the
  * meter records one `core.evals` span from its first to its last sampled
  * evaluation.
  */
final class Meter(request: Long, parent: Long) extends Serializable {
  @transient private var n = 0L
  @transient private var first = 0L
  @transient private var last = 0L

  def tick(): Unit = {
    if (n == 0L) begin()
    n += 1
    if ((n & 255L) == 0L) last = System.nanoTime()
  }

  private def begin(): Unit = {
    first = System.nanoTime(); last = first
    val tc = TaskContext.get()
    if (tc != null) tc.addTaskCompletionListener[Unit] { _ =>
      Trace.record("core.evals", parent, request, first, last,
        Map("evals" -> n.toDouble, "partition" -> tc.partitionId().toDouble))
    }
  }

  /** `fn` with every cost evaluation counted by this meter. */
  def wrap(fn: DistFn[Point]): DistFn[Point] = {
    val m = this
    fn match {
      case DtwFn(nm, s)     => DtwFn(nm, (a: Point, b: Point) => { m.tick(); s(a, b) })
      case FrechetFn(nm, s) => FrechetFn(nm, (a: Point, b: Point) => { m.tick(); s(a, b) })
      case WedFn(nm, c)     => WedFn(nm, new WedCosts[Point] {
        def sub(a: Point, b: Point): Double = { m.tick(); c.sub(a, b) }
        def del(a: Point): Double = { m.tick(); c.del(a) }
        def ins(b: Point): Double = { m.tick(); c.ins(b) }
      })
    }
  }
}
