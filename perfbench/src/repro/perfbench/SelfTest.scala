package repro.perfbench

import java.io.File

import com.fasterxml.jackson.databind.ObjectMapper
import repro.core._
import repro.eval.Workloads

import scala.collection.immutable.ArraySeq
import scala.jdk.CollectionConverters._

/** The benchmark's own checks, on `Workloads.tiny`:
  *   - every run emits exactly the metrics `BENCHMARK.json` names, each with
  *     its unit (end-to-end untraced, per-layer traced), on both paths;
  *   - the exactness check passes a correct answer and flags deliberately
  *     wrong ones, as `OracleSmokeSpec` does for the DuckDB oracle.
  * Exits 0 when every check holds, 1 otherwise.
  */
object SelfTest {

  private var failures = 0

  private def expect(ok: Boolean, what: String): Unit = {
    println(s"${if (ok) "PASS" else "FAIL"} $what")
    if (!ok) failures += 1
  }

  /** (name, unit) pairs of one metric list of BENCHMARK.json. */
  def declared(key: String): Set[(String, String)] =
    new ObjectMapper().readTree(new File("BENCHMARK.json")).get(key).elements().asScala
      .map(m => m.get("name").asText() -> m.get("unit").asText()).toSet

  def main(args: Array[String]): Unit = {
    val threads = Runtime.getRuntime.availableProcessors()
    val spark = Main.session(threads, Main.buildDir)
    try {
      spark.range(1).count()
      for (pruned <- Seq(false, true); trace <- Seq(false, true)) {
        val w = Workload.tiny(pruned)
        Trace.clear()
        val out = new Bench(spark, w, threads).run(1, trace)
        val want = declared(if (trace) "per_layer" else "end_to_end")
        val got = out.metrics.map(m => m.name -> m.unit).toSet
        val tag = s"${w.name} trace=${if (trace) 1 else 0}"
        expect(got == want, s"$tag emits every declared metric with its unit" +
          (if (got == want) "" else s" (missing ${want -- got}, unexpected ${got -- want})"))
        val bad = out.metrics.filter(m => m.value.isNaN || m.value.isInfinite).map(_.name)
        expect(bad.isEmpty, s"$tag metric values are finite" + (if (bad.isEmpty) "" else bad.mkString(" (not: ", ", ", ")")))
        expect(out.attempted > 0 && out.correct, s"$tag answers pass the exactness check (${out.attempted} requests)")
      }
      checkFlagsWrongAnswers()
    } finally spark.stop()
    println(if (failures == 0) "self-test passed" else s"self-test FAILED: $failures check(s)")
    sys.exit(if (failures == 0) 0 else 1)
  }

  def checkFlagsWrongAnswers(): Unit = {
    val w = Workload.tiny(pruned = false)
    val data = Workloads.dataLocal(w.spec).toIndexedSeq
      .map(t => (t.id, ArraySeq.unsafeWrapArray(t.points): IndexedSeq[Point]))
    val ref = new Reference(data, 2)
    try for (fn <- w.fns) {
      val q = ArraySeq.unsafeWrapArray(w.timed.head): IndexedSeq[Point]
      val opt = ref.optima(q, fn)
      val k = 3
      val all = TopK.cma(q, data, data.length, fn).toIndexedSeq
      val right = all.take(k)
      val name = fn.name
      def topK(hits: IndexedSeq[TopK.Hit]) = ref.check(q, fn, Answer(hits), opt, k)
      def best(hits: IndexedSeq[TopK.Hit]) = ref.check(q, fn, Answer(hits), opt, 0)
      val h = right.head
      expect(topK(right) == Verdict.Ok, s"$name: a correct top-$k answer passes")
      expect(best(right.take(1)) == Verdict.Ok, s"$name: a correct best answer passes")
      expect(topK(right.updated(0, h.copy(dist = h.dist + 1))).failed, s"$name: a wrong distance is flagged")
      val d = data.find(_._1 == h.trajId).get._2
      val off = (1 to d.length).flatMap(s => (s to d.length).map(e => (s, e)))
        .find { case (s, e) => !Reference.same(FullDist.dist(q, d.slice(s - 1, e), fn), h.dist) }.get
      expect(topK(right.updated(0, h.copy(start = off._1, end = off._2))).failed,
        s"$name: an interval that does not have the reported distance is flagged")
      expect(topK(right.dropRight(1)).failed, s"$name: a missing hit is flagged")
      val outside = all.drop(k).find(_.dist > right.last.dist)
      expect(outside.forall(o => topK(right.updated(k - 1, o)).failed), s"$name: a non-top-$k trajectory is flagged")
      val second = all.find(_.dist > h.dist)
      expect(second.forall { s => val v = best(IndexedSeq(s)); v.wrong && !v.failed },
        s"$name: a non-optimal Algorithm-3 answer is counted wrong")
    } finally ref.close()
  }
}
