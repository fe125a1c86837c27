package repro.pruning

import repro.core._

/** Key Points Filter (Appendix B): prune a data trajectory when a cheap
  * lower bound on the query-to-trajectory conversion cost already exceeds
  * the best distance found so far.
  *
  * Per-point bound (Theorem B.1): `minCost(q[i], τd) = min(del(q[i]),
  * min_j sub(q[i], d[j]))` — summed over all query points it lower-bounds
  * `min_j C[m][j]` for sum-type functions; for the bottleneck FD the bound
  * is the max over points (no `1/r` scaling, still sound). Sampling key
  * points at rate `r` and scaling by `1/r` (Eq. 28) makes the estimate cheap
  * but heuristic, exactly as in the paper.
  */
object KPF {

  /** `minCost(q[i], τd)` for one query point under `fn`. */
  def pointMinCost[T](qi: T, d: IndexedSeq[T], fn: DistFn[T]): Double = {
    var minSub = Double.PositiveInfinity
    var j = 0
    while (j < d.length) { val s = fn.sub(qi, d(j)); if (s < minSub) minSub = s; j += 1 }
    fn match {
      case WedFn(_, c) => math.min(c.del(qi), minSub)
      case _           => minSub // DTW/FD deletion cost = sub with the matched point, so min-sub is the bound
    }
  }

  /** Exact (unsampled) lower bound `minCost(τq, τd)` of Theorem B.1. */
  def lowerBound[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T]): Double =
    combine(fn, q.length, q.length)(i => pointMinCost(q(i), d, fn))

  /** Uniformly sampled key-point indices at rate `r` (at least one point). */
  def keyPointIdx(m: Int, r: Double): Array[Int] = {
    val k = math.max(1, math.round(m * r).toInt)
    Array.tabulate(k)(i => ((i + 0.5) * m / k).toInt.min(m - 1))
  }

  /** Sampled estimate `minCost_e` (Eq. 28): `1/r`-scaled for sum-type
    * functions, plain max for FD.
    */
  def estimate[T](q: IndexedSeq[T], d: IndexedSeq[T], fn: DistFn[T], r: Double): Double = {
    val idx = keyPointIdx(q.length, r)
    combine(fn, q.length, idx.length)(k => pointMinCost(q(idx(k)), d, fn))
  }

  /** Combines the per-point bounds `cost(0 until n)` of `n` of the `m`
    * query points: the max for FD, else the sum scaled by `m / n`.
    */
  private[pruning] def combine(fn: DistFn[_], m: Int, n: Int)(cost: Int => Double): Double = fn match {
    case FrechetFn(_, _) =>
      var mx = 0.0; var k = 0
      while (k < n) { val c = cost(k); if (c > mx) mx = c; k += 1 }
      mx
    case _ =>
      var sum = 0.0; var k = 0
      while (k < n) { sum += cost(k); k += 1 }
      sum * m / n
  }
}
