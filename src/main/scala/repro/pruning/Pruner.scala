package repro.pruning

import repro.core._

import scala.collection.immutable.ArraySeq

/** Algorithm 3: the full pruned search pipeline over a database of data
  * trajectories — GBP gate, then KPF lower-bound gate against the best
  * subtrajectory found so far, then the search algorithm itself. Generic in
  * the search algorithm so the efficiency table can run every baseline
  * through the identical pipeline (as the paper does for Table 3).
  */
object Pruner {

  /** Knobs of Appendix B/C; defaults mirror the paper's chosen values
    * (`mu = 0.4`, `r = 0.05`) with `eps` expressed in km (the paper's
    * `0.8e-4` is in degrees ≈ 0.9 km). Rejects values for which GBP
    * silently degenerates: `eps` of 0 or NaN maps every point to one cell
    * (nothing is pruned), and `mu > 1` prunes every trajectory.
    */
  final case class Params(eps: Double, mu: Double = 0.4, r: Double = 0.05) {
    require(eps > 0 && eps < Double.PositiveInfinity, s"GBP eps must be finite and > 0, got $eps")
    require(mu >= 0 && mu <= 1, s"GBP mu must be in [0, 1], got $mu")
    require(r > 0 && r <= 1, s"KPF sampling rate r must be in (0, 1], got $r")
  }

  final case class Stats(var examined: Int = 0, var gbpPruned: Int = 0,
                         var kpfPruned: Int = 0, var searched: Int = 0) {
    def +(o: Stats): Stats = Stats(examined + o.examined, gbpPruned + o.gbpPruned,
                                   kpfPruned + o.kpfPruned, searched + o.searched)
  }

  /** Best hit over `data` for query `q` using `searchOne` on survivors:
    * GBP gate, then the sampled KPF bound against the incumbent.
    */
  def search(q: Array[Point], data: Iterable[(Long, Array[Point])], fn: DistFn[Point],
             params: Params,
             searchOne: (Array[Point], Array[Point]) => SubtrajResult,
             stats: Stats = Stats()): Option[TopK.Hit] = {
    val qCells = GBP.queryCells(q, params.eps)
    val qIdx: IndexedSeq[Point] = ArraySeq.unsafeWrapArray(q)
    incumbentLoop(q, data, searchOne, stats)(
      d => GBP.passes(qCells, d, params.eps, params.mu),
      d => KPF.estimate(qIdx, ArraySeq.unsafeWrapArray(d), fn, params.r))
  }

  /** OSF-comparator variant of the pipeline (no grid gate, weaker bound). */
  def searchOSF(q: Array[Point], data: Iterable[(Long, Array[Point])], fn: DistFn[Point],
                r: Double,
                searchOne: (Array[Point], Array[Point]) => SubtrajResult,
                stats: Stats = Stats()): Option[TopK.Hit] =
    incumbentLoop(q, data, searchOne, stats)(_ => true, d => OSF.lowerBound(q, OSF.bbox(d), fn, r))

  /** Algorithm 3 lines 6–15: `gate` prunes independently of the incumbent;
    * the first trajectory it passes seeds the incumbent, and afterwards
    * `bound` prunes against the incumbent's distance.
    */
  private def incumbentLoop(q: Array[Point], data: Iterable[(Long, Array[Point])],
                            searchOne: (Array[Point], Array[Point]) => SubtrajResult,
                            stats: Stats)(gate: Array[Point] => Boolean,
                                          bound: Array[Point] => Double): Option[TopK.Hit] = {
    var best: TopK.Hit = null
    for ((id, d) <- data if d.nonEmpty) {
      stats.examined += 1
      if (!gate(d)) {
        stats.gbpPruned += 1
      } else if (best != null && bound(d) >= best.dist) {
        stats.kpfPruned += 1
      } else {
        stats.searched += 1
        val r = searchOne(q, d)
        if (best == null || r.dist < best.dist) best = TopK.Hit(id, r.start, r.end, r.dist)
      }
    }
    Option(best)
  }
}
