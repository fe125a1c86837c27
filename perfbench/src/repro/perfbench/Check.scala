package repro.perfbench

import java.util.concurrent.{Callable, Executors}

import repro.core._
import repro.pruning.KPF

/** One request's answer: hits in ascending distance (at most one for the
  * Algorithm-3 path).
  */
final case class Answer(hits: IndexedSeq[TopK.Hit])

/** Outcome of checking one answer. `wrong`: it differs from the reference.
  * `failed`: the program broke a contract it claims — it threw, returned an
  * interval whose recomputed distance is not the reported one, or returned a
  * non-optimal answer from an exact path.
  */
final case class Verdict(wrong: Boolean, failed: Boolean, detail: String)

object Verdict {
  val Ok: Verdict = Verdict(wrong = false, failed = false, "")
  def failed(detail: String): Verdict = Verdict(wrong = true, failed = true, detail)
}

/** The exactness reference: driver-side, unpruned `CMA.search` of a query
  * against every data trajectory on at most `threads` threads, computed
  * outside the timed region.
  */
final class Reference(data: IndexedSeq[(Long, IndexedSeq[Point])], threads: Int) extends AutoCloseable {
  private val pool = Executors.newFixedThreadPool(threads)
  private val position: Map[Long, Int] = data.iterator.map(_._1).zipWithIndex.toMap

  /** Per-trajectory optimum of `q` under `fn` (infinite for an empty trajectory). */
  def optima(q: IndexedSeq[Point], fn: DistFn[Point]): Array[Double] = {
    val out = Array.fill(data.length)(Double.PositiveInfinity)
    val jobs = (0 until threads).map { t =>
      pool.submit(new Callable[Unit] {
        def call(): Unit = {
          var i = t
          while (i < data.length) {
            val d = data(i)._2
            if (d.nonEmpty) out(i) = CMA.search(q, d, fn).dist
            i += threads
          }
        }
      })
    }
    jobs.foreach(_.get())
    out
  }

  /** Trajectories whose sampled KPF estimate exceeds their exact optimum. */
  def kpfUnsound(q: IndexedSeq[Point], fn: DistFn[Point], opt: Array[Double], r: Double): Int =
    data.indices.count(i => data(i)._2.nonEmpty && KPF.estimate(q, data(i)._2, fn, r) > opt(i) + Reference.tol(opt(i)))

  /** Check `ans` for `q` under `fn` against the reference optima `opt`.
    * Top-K (`k` hits, exact path): the sorted distances must equal the `k`
    * smallest optima. Algorithm 3 (`k = 0`): the one hit must reach the
    * global optimum; missing it is wrong, but not a failure, because the
    * sampled KPF estimate is a heuristic bound. Either way every hit must be
    * its trajectory's optimum and its interval must recompute, with
    * `FullDist.dist` on `d[start:end]`, to the reported distance.
    */
  def check(q: IndexedSeq[Point], fn: DistFn[Point], ans: Answer, opt: Array[Double], k: Int): Verdict = {
    val hits = ans.hits
    val want = opt.sorted.take(if (k > 0) k else 1).filter(!_.isInfinite)
    if (hits.length != want.length)
      return Verdict.failed(s"returned ${hits.length} hits, expected ${want.length}")
    if (hits.map(_.trajId).distinct.length != hits.length)
      return Verdict.failed("a trajectory appears twice")
    for (h <- hits) {
      val at = position.get(h.trajId)
      if (at.isEmpty) return Verdict.failed(s"unknown trajectory ${h.trajId}")
      val d = data(at.get)._2
      if (h.start < 1 || h.end < h.start || h.end > d.length)
        return Verdict.failed(s"trajectory ${h.trajId}: interval [${h.start},${h.end}] outside 1..${d.length}")
      val re = FullDist.dist(q, d.slice(h.start - 1, h.end), fn)
      if (!Reference.same(re, h.dist))
        return Verdict.failed(s"trajectory ${h.trajId} [${h.start},${h.end}]: reported ${h.dist}, recomputes to $re")
      if (!Reference.same(opt(at.get), h.dist))
        return Verdict.failed(s"trajectory ${h.trajId}: reported ${h.dist}, its optimum is ${opt(at.get)}")
    }
    val got = hits.map(_.dist).sorted
    val differs = got.indices.exists(i => !Reference.same(got(i), want(i)))
    if (!differs) Verdict.Ok
    else {
      val detail = s"distances ${got.mkString("[", ",", "]")}, optimum ${want.mkString("[", ",", "]")}"
      if (k > 0 || got.head < want.head - Reference.tol(want.head)) Verdict.failed(detail)
      else Verdict(wrong = true, failed = false, detail)
    }
  }

  def close(): Unit = pool.shutdownNow()
}

object Reference {
  def tol(x: Double): Double = 1e-9 * math.max(1.0, math.abs(x))
  def same(a: Double, b: Double): Boolean = math.abs(a - b) <= tol(math.max(math.abs(a), math.abs(b)))
}
