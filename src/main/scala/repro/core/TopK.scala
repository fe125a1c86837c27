package repro.core

/** Top-K similar subtrajectory search over a set of data trajectories
  * (Appendix E): keep a size-K max-heap of per-trajectory optima, inserting
  * the result of one SSS invocation per data trajectory.
  */
object TopK {

  /** A per-trajectory search hit. */
  final case class Hit(trajId: Long, start: Int, end: Int, dist: Double)

  private implicit val byDistDesc: Ordering[Hit] = Ordering.by[Hit, Double](_.dist)

  /** K best hits (ascending distance), one per data trajectory, using CMA
    * under `fn` for each trajectory.
    */
  def cma[T](q: IndexedSeq[T], data: Iterable[(Long, IndexedSeq[T])], k: Int,
             fn: DistFn[T]): Array[Hit] = {
    require(k >= 1, "k must be >= 1")
    val heap = new scala.collection.mutable.PriorityQueue[Hit]() // max-heap by dist
    for ((id, d) <- data if d.nonEmpty) {
      val r = CMA.search(q, d, fn)
      if (heap.size < k) heap.enqueue(Hit(id, r.start, r.end, r.dist))
      else if (r.dist < heap.head.dist) { heap.dequeue(); heap.enqueue(Hit(id, r.start, r.end, r.dist)) }
    }
    heap.toArray.sortBy(h => (h.dist, h.trajId))
  }
}
