package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions._
import repro.core._
import repro.pruning.Pruner

/** Distributed SSS over a Spark `Dataset[Traj]` — the repro target's
  * dataflow shape: the `O(mn)` per-trajectory search runs inside
  * `mapPartitions` over partitioned trajectory data. Two entry points:
  * exact top-K with CMA, where each partition keeps a local top-K so only
  * `K × partitions` rows reach the Catalyst `orderBy/limit` merge; and
  * Algorithm 3, where each partition runs `Pruner.search` with its own
  * incumbent and the driver keeps the best hit.
  */
object SparkSearch {

  /** Flat result row (DataFrame-friendly for the final merge). */
  final case class Hit(trajId: Long, startIdx: Int, endIdx: Int, dist: Double)

  /** Global top-K via partition-local heaps + Catalyst merge. */
  def topK(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point], k: Int): Array[Hit] = {
    require(q.nonEmpty, "query must be non-empty")
    // Checked here: Catalyst folds `limit(0)` away before any task runs.
    require(k >= 1, s"k must be >= 1, got $k")
    import data.sparkSession.implicits._
    val qB = data.sparkSession.sparkContext.broadcast(q)
    val locals = data.mapPartitions { it =>
      val qq: IndexedSeq[Point] = scala.collection.immutable.ArraySeq.unsafeWrapArray(qB.value)
      val pairs = it.filter(_.length > 0).map(t => (t.id, scala.collection.immutable.ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point]))
      TopK.cma(qq, pairs.toSeq, k, fn)
        .map(h => Hit(h.trajId, h.start, h.end, h.dist)).iterator
    }
    locals.orderBy(col("dist").asc, col("trajId").asc).limit(k).collect()
  }

  /** Algorithm 3: every partition runs `Pruner.search` with `searchOne` on
    * its trajectories. Returns the best hit (ties to the smallest `trajId`;
    * `None` when every trajectory was pruned) and the counters summed over
    * partitions.
    */
  def pruned(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point], params: Pruner.Params,
             searchOne: (IndexedSeq[Point], IndexedSeq[Point]) => SubtrajResult): (Option[TopK.Hit], Pruner.Stats) = {
    require(q.nonEmpty, "query must be non-empty")
    import data.sparkSession.implicits._
    val parts = data.mapPartitions { it =>
      val trajs = it.filter(_.length > 0).map(t => (t.id, t.points))
      val stats = Pruner.Stats()
      val best = Pruner.search(q, trajs.toSeq, fn, params,
        (a: Array[Point], b: Array[Point]) => searchOne(scala.collection.immutable.ArraySeq.unsafeWrapArray(a), scala.collection.immutable.ArraySeq.unsafeWrapArray(b)),
        stats)
      Iterator.single((best, stats))
    }.collect()
    (parts.flatMap(_._1).minByOption(h => (h.dist, h.trajId)),
     parts.map(_._2).foldLeft(Pruner.Stats())(_ + _))
  }
}
