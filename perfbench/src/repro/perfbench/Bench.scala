package repro.perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.eval.Workloads
import repro.pruning.{GBP, KPF}

import scala.collection.immutable.ArraySeq

final case class Metric(name: String, value: Double, unit: String, samples: Int)

/** One request of a timed batch. */
final case class Done(pos: Int, fn: Int, rid: Long, traced: Boolean, latencyNs: Long,
                      answer: Either[Throwable, Answer])

/** A finished run: metrics, the counts of the result line, and each answer
  * that differs from the reference, as "query=<i> fn=<name>: <detail>".
  */
final case class Outcome(metrics: Seq[Metric], attempted: Int, failed: Int, wrong: Int,
                         mismatches: Seq[String]) {
  def correct: Boolean = failed == 0 && attempted > 0
}

/** Runs one workload: set-up, warm-up, one closed-loop client (each request
  * is sent when the previous one has returned), then the exactness check
  * and, with tracing, the single-layer probes.
  */
final class Bench(spark: SparkSession, w: Workload, threads: Int) {

  val SetupReps = 9
  val WarmSeconds = 24.0

  /** Generate, encode, cache and materialise the Dataset (untimed). */
  private def materialise(): Dataset[Traj] = {
    val ds = Workloads.data(spark, w.spec).cache()
    ds.count()
    ds
  }

  /** Set up `SetupReps` timed times, replacing `data`; the last copy is
    * kept. Runs after the warm-up, so the timings are not dominated by the
    * JIT. With `trace`, each repetition is preceded by a generate-and-encode
    * job without caching (`setup.gen`).
    */
  def setup(data: Dataset[Traj], trace: Boolean): Dataset[Traj] = {
    var kept = data
    for (rep <- 0 until SetupReps) {
      kept.unpersist(blocking = true)
      if (trace) Trace.timed("setup.gen", 0L, 0L)(
        Workloads.data(spark, w.spec).queryExecution.toRdd.foreach(_ => ()))(_ => Map("rep" -> rep.toDouble))
      kept = Trace.timed("setup", 0L, 0L)(materialise())(_ => Map("rep" -> rep.toDouble))
    }
    kept
  }

  private def send(data: Dataset[Traj], q: Array[Point], f: Int, rid: Long): Answer =
    if (w.pruned) Requests.pruned(data, q, w.fns(f), w.params, rid)
    else Requests.topK(data, q, w.fns(f), rid)

  /** Closed loop over `pool` for `seconds`. With `trace`, every second
    * request is traced, so drift during the run affects the traced and the
    * untraced requests alike.
    */
  def batch(data: Dataset[Traj], pool: IndexedSeq[Array[Point]], seconds: Double,
            trace: Boolean, timed: Boolean): Vector[Done] = {
    val out = Vector.newBuilder[Done]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < deadline) {
      val (qi, f) = w.request(i, pool.size)
      val traced = trace && i % 2 == 1
      val rid = Trace.newId()
      val t0 = System.nanoTime()
      val ans = try Right(send(data, pool(qi), f, if (traced) rid else 0L)) catch {
        case e: Exception => Left(e)
      }
      val t1 = System.nanoTime()
      Trace.record("request", 0L, rid, t0, t1,
        Map("traced" -> (if (traced) 1.0 else 0.0), "timed" -> (if (timed) 1.0 else 0.0),
            "m" -> pool(qi).length.toDouble, "fn" -> f.toDouble), rid)
      out += Done(qi, f, rid, traced, t1 - t0, ans)
      i += 1
    }
    out.result()
  }

  def run(seconds: Int, trace: Boolean): Outcome = {
    // Warm-up on queries no timed request uses. Request latency keeps falling
    // for ~30 s after start-up as the JIT compiles the Spark planning path;
    // a long warm-up puts every run at a similar point of that curve.
    val warmData = materialise()
    batch(warmData, w.warm, math.min(WarmSeconds, seconds * 2.0), trace, timed = false)
    val data = setup(warmData, trace)
    System.gc()
    val done = batch(data, w.timed, seconds, trace, timed = true)

    val local = data.collect().sortBy(_.id)
    val ref = new Reference(local.toIndexedSeq.map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point])), threads)
    val verdicts = try check(done, ref, trace) finally ref.close()
    val mismatches = done.zip(verdicts).collect { case (d, v) if v.wrong =>
      s"query=${w.timedId(d.pos)} fn=${w.fns(d.fn).name}: ${v.detail}"
    }
    val metrics =
      if (!trace) endToEnd(done, verdicts)
      else {
        probes(data, local)
        Layers.derive(Trace.all, w, local.iterator.map(_.length.toLong).sum)
      }
    data.unpersist(blocking = true)
    Outcome(metrics, done.length, verdicts.count(_.failed), verdicts.count(_.wrong),
            mismatches)
  }

  /** Verdict per request against the reference, which is computed once per
    * distinct (query, fn) outside the timed region.
    */
  private def check(done: Vector[Done], ref: Reference, trace: Boolean): Vector[Verdict] = {
    val optima = scala.collection.mutable.HashMap.empty[(Int, Int), Array[Double]]
    done.map { d =>
      val q = ArraySeq.unsafeWrapArray(w.timed(d.pos)): IndexedSeq[Point]
      val fn = w.fns(d.fn)
      Trace.timed("check", 0L, d.rid) {
        val opt = optima.getOrElseUpdate((d.pos, d.fn), ref.optima(q, fn))
        val v = d.answer match {
          case Left(e)    => Verdict.failed(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}")
          case Right(ans) => ref.check(q, fn, ans, opt, if (w.pruned) 0 else Workload.K)
        }
        val unsound = if (trace && d.traced) ref.kpfUnsound(q, fn, opt, w.params.r) else 0
        (v, unsound)
      } { case (v, unsound) =>
        Map("wrong" -> (if (v.wrong) 1.0 else 0.0), "failed" -> (if (v.failed) 1.0 else 0.0),
            "kpf_unsound" -> unsound.toDouble)
      }._1
    }
  }

  private def endToEnd(done: Vector[Done], verdicts: Vector[Verdict]): Seq[Metric] = {
    val lat = done.map(_.latencyNs / 1e6)
    val ids = done.map(_.rid).toSet
    val reqSpans = Trace.all.filter(s => s.name == "request" && ids(s.id))
    val wallS = (reqSpans.map(_.end).max - reqSpans.map(_.start).min) / 1e9
    val setups = Trace.all.filter(_.name == "setup").map(_.ms / 1e3)
    val n = done.length
    Seq(
      Metric("query_p50_ms", Stats.quantile(lat, 0.5), "ms", n),
      Metric("query_p90_ms", Stats.quantile(lat, 0.9), "ms", n),
      Metric("qps", n / wallS, "1/s", n),
      Metric("setup_s", Stats.median(setups), "s", setups.length),
      Metric("exact_answer_ratio", 1.0 - verdicts.count(_.wrong).toDouble / n, "ratio", n))
  }

  /** Single-layer probes, run after the timed batches; each records spans. */
  private def probes(data: Dataset[Traj], local: Array[Traj]): Unit = {
    val pts = local.map(t => ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point])
    val qs = w.timed.take(4)
    // Kernel: single-thread CMA on the workload's own pairs, per function.
    for ((fn, f) <- w.fns.zipWithIndex) {
      var cells = 0.0
      Trace.timed("probe.cma", 0L, 0L) {
        var i = 0
        while (cells < 2e7 && i < qs.length * pts.length) {
          val q = ArraySeq.unsafeWrapArray(qs(i / pts.length)); val d = pts(i % pts.length)
          if (d.nonEmpty) { CMA.search(q, d, fn); cells += q.length.toDouble * d.length }
          i += 1
        }
      }(_ => Map("fn" -> f.toDouble, "cells" -> cells))
    }
    // Pruning gates, timed directly on every trajectory.
    for ((q, qi) <- qs.zipWithIndex) {
      val qCells = GBP.queryCells(q, w.params.eps)
      Trace.timed("probe.gbp", 0L, 0L)(local.foreach(t => GBP.passes(qCells, t.points, w.params.eps, w.params.mu)))(
        _ => Map("trajs" -> local.length.toDouble))
      val fn = w.fns(qi % w.fns.size)
      val qIdx = ArraySeq.unsafeWrapArray(q)
      Trace.timed("probe.kpf", 0L, 0L)(pts.foreach(d => if (d.nonEmpty) KPF.estimate(qIdx, d, fn, w.params.r)))(
        _ => Map("trajs" -> pts.count(_.nonEmpty).toDouble))
    }
    // The top-K workloads never call the pruning layer; characterise it on
    // their data with a driver-side Algorithm-3 pass per (query, fn).
    if (!w.pruned) {
      val trajs = local.toSeq.filter(_.length > 0).map(t => (t.id, t.points))
      for ((q, qi) <- qs.zipWithIndex; f <- w.fns.indices) {
        val rid = Trace.newId()
        Trace.timed("probe.pruning", 0L, rid, rid)(Requests.partition(q, trajs, w.fns(f), w.params, rid, rid))()
      }
    }
    // Spark dataflow.
    for (_ <- 0 until 5) {
      Trace.timed("probe.decode", 0L, 0L)(local.foreach(_.points))(_ => Map("trajs" -> local.length.toDouble))
      Trace.timed("probe.empty_job", 0L, 0L)(data.foreachPartition((_: Iterator[Traj]) => ()))()
    }
    val bytes = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum
    val now = System.nanoTime()
    Trace.record("probe.cached", 0L, 0L, now, now, Map("bytes" -> bytes.toDouble))
  }
}

object Stats {
  /** Linear-interpolation quantile (as numpy's default). */
  def quantile(xs: Seq[Double], p: Double): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt; val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
}
