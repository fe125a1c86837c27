package repro

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Workloads

/** Smoke tests of the DuckDB oracle on trajectory rows: it agrees with a
  * correct Spark aggregation and catches a wrong one.
  */
class OracleSmokeSpec extends AnyFunSuite with SparkSpec {

  /** `(id, len)` of every trajectory of the tiny workload. */
  private lazy val trajs = {
    import spark.implicits._
    Workloads.data(spark, Workloads.tiny).map(t => (t.id, t.length)).toDF("id", "len").cache()
  }

  private val countsByLen = "SELECT len, count(*) AS cnt FROM trajs GROUP BY len"

  test("oracle: trajectory group-by length counts") {
    val got = trajs.groupBy(col("len")).agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(got, countsByLen, "trajs" -> trajs)
  }

  test("oracle flags a wrong result") {
    val wrong = trajs.groupBy(col("len"))
      .agg((count(lit(1)) + 1).as("cnt")) // deliberately off by one
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, countsByLen, "trajs" -> trajs)
    }
  }
}
