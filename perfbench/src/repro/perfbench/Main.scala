package repro.perfbench

import java.nio.file.Paths

import org.apache.spark.sql.SparkSession

import scala.collection.immutable.ListMap

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Prints the report, one line per answer mismatch, a provenance record and,
  * last, the result line `{"correct", "attempted", "failed", "metrics"}`.
  * Spans are written to `<buildDir>/trace/`.
  */
object Main {

  def session(threads: Int, buildDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$buildDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$buildDir/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def buildDir: String = sys.props.getOrElse("perfbench.buildDir", ".bench_build")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    val seed = need("seed").toLong
    val seconds = need("seconds").toInt
    val trace = need("trace") == "1"
    val w = Workload.byName(need("workload"), seed)
    val threads = Runtime.getRuntime.availableProcessors()

    val spark = session(threads, buildDir)
    val master = spark.sparkContext.master
    val out = try {
      spark.range(1).count() // the SparkSession is up and one trivial job has run
      new Bench(spark, w, threads).run(seconds, trace)
    } finally spark.stop()

    val tag = s"${w.name}-seed$seed-trace${if (trace) 1 else 0}"
    Trace.write(Paths.get(buildDir, "trace", s"$tag.jsonl"))
    println(s"[perfbench] workload=${w.name} seed=$seed trace=${if (trace) 1 else 0} " +
      s"requests=${out.attempted} failed=${out.failed} wrong=${out.wrong} " +
      f"wrong_answer_ratio=${out.wrong.toDouble / math.max(1, out.attempted)}%.4f")
    out.metrics.foreach(m => println(f"  ${m.name}%-26s ${m.value}%14.4f ${m.unit}%-6s (n=${m.samples})"))
    out.mismatches.foreach(m => println(s"mismatch workload=${w.name} $m"))
    println("provenance " + Json.render(provenance(master, spark.version, w, seed, trace, threads, out)))
    println(Json.render(result(out)))
  }

  def provenance(master: String, sparkVersion: String, w: Workload, seed: Long, trace: Boolean,
                 threads: Int, out: Outcome): Map[String, Any] = ListMap(
    "workload" -> w.name,
    "git_sha" -> sys.props.getOrElse("perfbench.gitSha", ""),
    "source_sha256" -> sys.props.getOrElse("perfbench.sourceSha256", ""),
    "nproc" -> threads,
    "spark_master" -> master,
    "spark_version" -> sparkVersion,
    "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
    "seed" -> seed,
    "trace" -> trace,
    "requests" -> out.attempted,
    "wrong" -> out.wrong,
    "wrong_answer_ratio" -> out.wrong.toDouble / math.max(1, out.attempted),
    "samples" -> ListMap(out.metrics.map(m => m.name -> m.samples): _*))

  def result(out: Outcome): Map[String, Any] = ListMap(
    "correct" -> out.correct,
    "attempted" -> out.attempted,
    "failed" -> out.failed,
    "metrics" -> ListMap(out.metrics.map(m => m.name -> ListMap("value" -> m.value, "unit" -> m.unit)): _*))
}
