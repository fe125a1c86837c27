package repro.spark

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.eval.Workloads
import repro.pruning.Pruner

/** Distributed search: the Spark dataflow must equal the driver-side loop,
  * and its top-K merge is checked against DuckDB via the Oracle.
  */
class SparkSearchSpec extends AnyFunSuite with SparkSpec {

  private lazy val spec  = Workloads.tiny
  private lazy val data  = Workloads.data(spark, spec).cache()
  private lazy val local = Workloads.dataLocal(spec)
  private lazy val q     = Workloads.queries(spec).head

  private val fns = Seq[DistFn[Point]](Dist.dtw, Dist.edr(spec.edrEps), Dist.erp(spec.erpCenter), Dist.fd)

  private def localBest(fn: DistFn[Point]): Seq[(Long, SubtrajResult)] =
    local.toSeq.map(t => (t.id, CMA.search(q, t.points, fn)))

  for (fn <- fns)
    test(s"distributed best == driver-side best [${fn.name}]") {
      val got = SparkSearch.topK(data, q, fn, 1).head
      val want = localBest(fn).map(_._2.dist).min
      TestGen.assertSameDist(got.dist, want)
    }

  test("topK with k >= N emits one exact hit per trajectory") {
    val fn = Dist.dtw
    val hits = SparkSearch.topK(data, q, fn, local.length).sortBy(_.trajId)
    val want = localBest(fn)
    assert(hits.length == want.length)
    for ((h, (id, r)) <- hits.zip(want)) {
      assert(h.trajId == id)
      TestGen.assertSameDist(h.dist, r.dist)
    }
  }

  for (k <- Seq(1, 3, 5))
    test(s"distributed topK == driver-side topK [k=$k]") {
      val fn = Dist.dtw
      val got = SparkSearch.topK(data, q, fn, k)
      val want = localBest(fn).sortBy { case (id, r) => (r.dist, id) }.take(k)
      assert(got.length == want.length)
      for ((g, (_, w)) <- got.zip(want)) TestGen.assertSameDist(g.dist, w.dist)
    }

  test("topK rejects k < 1") {
    intercept[IllegalArgumentException](SparkSearch.topK(data, q, Dist.dtw, 0))
  }

  test("topK and pruned reject an empty query") {
    val params = Pruner.Params(eps = spec.gen.stepKm * 8)
    intercept[IllegalArgumentException](SparkSearch.topK(data, Array.empty[Point], Dist.dtw, 1))
    intercept[IllegalArgumentException](
      SparkSearch.pruned(data, Array.empty[Point], Dist.dtw, params, (a, b) => CMA.search(a, b, Dist.dtw)))
  }

  for (fn <- fns)
    test(s"pruned with mu=0, r=1 returns the unpruned optimum [${fn.name}]") {
      // mu = 0 passes every trajectory through GBP, and KPF at r = 1 is the
      // exact Theorem-B.1 bound.
      val params = Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.0, r = 1.0)
      val (got, stats) = SparkSearch.pruned(data, q, fn, params, (a, b) => CMA.search(a, b, fn))
      assert(got.nonEmpty)
      val h = got.get
      TestGen.assertSameDist(h.dist, localBest(fn).map(_._2.dist).min)
      assert(stats.examined == local.count(_.length > 0), s"stats=$stats")
      assert(stats.gbpPruned + stats.kpfPruned + stats.searched == stats.examined, s"stats=$stats")
      val d = local.find(_.id == h.trajId).get.points.toIndexedSeq
      TestGen.assertSameDist(FullDist.dist(q.toIndexedSeq, d.slice(h.start - 1, h.end), fn), h.dist)
    }

  test("pruned breaks a distance tie across partitions toward the smaller trajId") {
    import spark.implicits._
    val pts = local.head.points.toSeq
    // One twin per partition, the larger id first.
    val twins = spark.sparkContext.parallelize(Seq(Traj.fromPoints(7, pts), Traj.fromPoints(3, pts)), 2).toDS()
    val params = Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.0, r = 1.0)
    val (got, stats) = SparkSearch.pruned(twins, q, Dist.dtw, params, (a, b) => CMA.search(a, b, Dist.dtw))
    assert(got.map(_.trajId).contains(3L), s"got=$got")
    assert(stats.examined == 2 && stats.searched == 2, s"stats=$stats")
  }

  // ------------------------------------------------------------------
  // DuckDB oracle checks of the DataFrame logic
  // ------------------------------------------------------------------

  /** SparkSearch.topK's (trajId, dist) rows must equal SQL's
    * ORDER BY dist, trajId LIMIT k over the driver-side per-trajectory hits.
    */
  private def assertTopKMatchesSql(k: Int): Unit = {
    import spark.implicits._
    val got = SparkSearch.topK(data, q, Dist.dtw, k).toSeq.toDF().select("trajId", "dist")
    val hits = localBest(Dist.dtw).map { case (id, r) => (id, r.dist) }.toDF("trajId", "dist")
    Oracle.assertEquivalent(got,
      s"""SELECT trajId, dist FROM (
         |  SELECT CAST(trajId AS BIGINT) AS trajId, CAST(dist AS DOUBLE) AS dist FROM hits)
         |ORDER BY dist ASC, trajId ASC LIMIT $k""".stripMargin,
      "hits" -> hits)
  }

  test("oracle: top-1 arg-min aggregation over per-trajectory hits") {
    assertTopKMatchesSql(1)
  }

  test("oracle: top-K order-by/limit merge matches SQL ranking") {
    assertTopKMatchesSql(3)
  }

  test("oracle: Table-2 style avg aggregation of metric records") {
    import spark.implicits._
    val recs = Seq(
      ("DTW", "CMA", 1.0), ("DTW", "CMA", 1.0),
      ("DTW", "POS", 1.5), ("DTW", "POS", 2.5),
      ("FD", "GB", 1.0)).toDF("fn", "algo", "ar")
    val sparkAgg = recs.groupBy(col("fn"), col("algo")).agg(avg(col("ar")).as("avg_ar"))
    Oracle.assertEquivalent(sparkAgg,
      "SELECT fn, algo, avg(CAST(ar AS DOUBLE)) AS avg_ar FROM recs GROUP BY fn, algo",
      "recs" -> recs)
  }
}
