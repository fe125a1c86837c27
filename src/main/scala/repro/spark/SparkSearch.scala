package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.pruning.GBP

/** Distributed SSS over a Spark `Dataset[Traj]` — the repro target's
  * dataflow shape: the `O(mn)` per-trajectory CMA runs inside
  * `mapPartitions` over partitioned trajectory data; each partition keeps a
  * local top-K so only `K × partitions` rows reach the Catalyst
  * `orderBy/limit` merge. GBP candidate selection is a DataFrame pipeline
  * (explode → dilate → join → distinct count) checked against DuckDB in the
  * tests.
  */
object SparkSearch {

  /** Flat result row (DataFrame-friendly for the final merge). */
  final case class Hit(trajId: Long, startIdx: Int, endIdx: Int, dist: Double)

  /** Per-trajectory best subtrajectories as a Dataset (one CMA row per data
    * trajectory).
    */
  def perTrajectory(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point]): Dataset[Hit] = {
    import data.sparkSession.implicits._
    val qB = data.sparkSession.sparkContext.broadcast(q)
    data.mapPartitions { it =>
      val qq: IndexedSeq[Point] = scala.collection.immutable.ArraySeq.unsafeWrapArray(qB.value)
      it.filter(_.length > 0).map { t =>
        val r = CMA.search(qq, scala.collection.immutable.ArraySeq.unsafeWrapArray(t.points), fn)
        Hit(t.id, r.start, r.end, r.dist)
      }
    }
  }

  /** Global top-K via partition-local heaps + Catalyst merge. */
  def topK(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point], k: Int): Array[Hit] = {
    import data.sparkSession.implicits._
    val qB = data.sparkSession.sparkContext.broadcast(q)
    val locals = data.mapPartitions { it =>
      val qq: IndexedSeq[Point] = scala.collection.immutable.ArraySeq.unsafeWrapArray(qB.value)
      val pairs = it.filter(_.length > 0).map(t => (t.id, scala.collection.immutable.ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point]))
      TopK.search(qq, pairs.toSeq, k,
        (a: IndexedSeq[Point], b: IndexedSeq[Point]) => CMA.search(a, b, fn))
        .map(h => Hit(h.trajId, h.start, h.end, h.dist)).iterator
    }
    locals.orderBy(col("dist").asc, col("trajId").asc).limit(k).collect()
  }

  /** Best hit (top-1). */
  def best(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point]): Hit =
    topK(data, q, fn, 1).head

  /** GBP candidate selection as a DataFrame pipeline: trajectory ids whose
    * `close(τq, τd)` count (Eq. 27) reaches `mu * m`.
    */
  def gbpCandidates(data: Dataset[Traj], q: Array[Point], eps: Double, mu: Double): DataFrame = {
    GBP.requireParams(eps, mu)
    val spark = data.sparkSession
    import spark.implicits._
    // Data side: distinct dilated cells per trajectory (the B(·) blocks).
    val dataCells = data.flatMap { t =>
      t.points.iterator.flatMap(p => GBP.dilate(GBP.cell(p, eps))).map(c => (t.id, c)).toSeq
    }.toDF("trajId", "cell").distinct()
    // Query side: one row per query point with its cell.
    val qCells = q.zipWithIndex.map { case (p, i) => (i, GBP.cell(p, eps)) }
      .toSeq.toDF("qIdx", "cell")
    val m = q.length
    dataCells.join(qCells, "cell")
      .groupBy(col("trajId"))
      .agg(countDistinct(col("qIdx")).as("close"))
      .where(col("close") >= mu * m)
      .select(col("trajId"), col("close"))
  }

  /** Full distributed pipeline: GBP filter (DataFrame semi-join), then
    * per-trajectory CMA on the survivors, then top-K merge.
    */
  def searchPruned(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point],
                   eps: Double, mu: Double, k: Int): Array[Hit] = {
    import data.sparkSession.implicits._
    val cand = gbpCandidates(data, q, eps, mu).select("trajId")
    val survivors = data.join(cand, data("id") === cand("trajId"), "left_semi").as[Traj]
    topK(survivors, q, fn, k)
  }
}
