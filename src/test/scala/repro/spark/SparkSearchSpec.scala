package repro.spark

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core._
import repro.eval.Workloads
import repro.pruning.{GBP, GbpReference}

/** Distributed search: the Spark dataflow must equal the driver-side loop,
  * and its DataFrame pieces (GBP candidate join, top-K merge) are checked
  * against DuckDB via the Oracle.
  */
class SparkSearchSpec extends AnyFunSuite with SparkSpec {

  private lazy val spec  = Workloads.tiny
  private lazy val data  = Workloads.data(spark, spec).cache()
  private lazy val local = Workloads.dataLocal(spec)
  private lazy val q     = Workloads.queries(spec).head

  private def localBest(fn: DistFn[Point]): Seq[(Long, SubtrajResult)] =
    local.toSeq.map(t => (t.id, CMA.search(q, t.points, fn)))

  for (fn <- Seq[DistFn[Point]](Dist.dtw, Dist.edr(spec.edrEps), Dist.erp(spec.erpCenter), Dist.fd))
    test(s"distributed best == driver-side best [${fn.name}]") {
      val got = SparkSearch.best(data, q, fn)
      val want = localBest(fn).map(_._2.dist).min
      TestGen.assertSameDist(got.dist, want)
    }

  test("perTrajectory emits one exact hit per trajectory") {
    val fn = Dist.dtw
    val hits = SparkSearch.perTrajectory(data, q, fn).collect().sortBy(_.trajId)
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

  test("gbpCandidates == driver-side GBP counts") {
    val eps = spec.gen.stepKm * 8; val mu = 0.3
    val got = SparkSearch.gbpCandidates(data, q, eps, mu)
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val want = local.map(t => t.id -> GbpReference.closeCount(q, t.points, eps).toLong)
      .filter(_._2 >= mu * q.length).toMap
    assert(got == want)
  }

  for ((eps, mu) <- Seq((0.0, 0.3), (-1.0, 0.3), (Double.NaN, 0.3), (Double.PositiveInfinity, 0.3),
                        (1.0, -0.1), (1.0, 1.1), (1.0, Double.NaN)))
    test(s"gbpCandidates rejects eps=$eps mu=$mu") {
      intercept[IllegalArgumentException](SparkSearch.gbpCandidates(data, q, eps, mu))
    }

  test("searchPruned with safe mu finds the global optimum") {
    val fn = Dist.dtw
    val got = SparkSearch.searchPruned(data, q, fn, eps = spec.gen.stepKm * 20, mu = 0.0, k = 1)
    val want = localBest(fn).map(_._2.dist).min
    assert(got.nonEmpty)
    TestGen.assertSameDist(got.head.dist, want)
  }

  // ------------------------------------------------------------------
  // DuckDB oracle checks of the DataFrame logic
  // ------------------------------------------------------------------

  test("oracle: top-1 arg-min aggregation over per-trajectory hits") {
    import spark.implicits._
    val hits = SparkSearch.perTrajectory(data, q, Dist.dtw).toDF()
    val sparkMin = hits.agg(min(col("dist")).as("best_dist"))
    Oracle.assertEquivalent(sparkMin,
      "SELECT min(CAST(dist AS DOUBLE)) AS best_dist FROM hits",
      "hits" -> hits)
  }

  test("oracle: top-K order-by/limit merge matches SQL ranking") {
    import spark.implicits._
    val hits = SparkSearch.perTrajectory(data, q, Dist.dtw).toDF()
    val k = 3
    // Compare the *distance multiset* of the top-K (ties could reorder ids).
    val sparkTop = hits.orderBy(col("dist").asc, col("trajId").asc).limit(k)
      .agg(sum(col("dist")).as("sum_dist"), count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(sparkTop,
      s"""SELECT sum(dist) AS sum_dist, count(*) AS cnt FROM (
         |  SELECT CAST(dist AS DOUBLE) AS dist FROM hits
         |  ORDER BY dist ASC, CAST(trajId AS BIGINT) ASC LIMIT $k)""".stripMargin,
      "hits" -> hits)
  }

  test("oracle: GBP candidate join/count pipeline") {
    import spark.implicits._
    val eps = spec.gen.stepKm * 8; val mu = 0.3
    // Rebuild the two pipeline inputs exactly as SparkSearch.gbpCandidates does.
    val dataCells = data.flatMap { t =>
      t.points.iterator.flatMap(p => GBP.dilate(GBP.cell(p, eps))).map(c => (t.id, c)).toSeq
    }.toDF("trajId", "cell").distinct()
    val qCells = q.zipWithIndex.map { case (p, i) => (i, GBP.cell(p, eps)) }
      .toSeq.toDF("qIdx", "cell")
    val got = SparkSearch.gbpCandidates(data, q, eps, mu)
    val threshold = mu * q.length
    Oracle.assertEquivalent(got,
      s"""SELECT CAST(trajId AS BIGINT) AS trajId, count(DISTINCT qIdx) AS close
         |FROM dataCells JOIN qCells USING (cell)
         |GROUP BY trajId
         |HAVING count(DISTINCT qIdx) >= $threshold""".stripMargin,
      "dataCells" -> dataCells, "qCells" -> qCells)
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
