package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** End-to-end smoke of the table harnesses on the tiny workload (the bench
  * project runs the real paper-scale workloads).
  */
class HarnessSpec extends AnyFunSuite with SparkSpec {

  private lazy val t2 = Harness.table2(spark, Seq(Workloads.tiny))

  test("table2 emits one row per applicable (fn, algo)") {
    // 4 fns × 6 universal algos + Spring (DTW) + GB (FD)
    assert(t2.length == 4 * 6 + 1 + 1)
    assert(t2.map(_.fn).distinct.sorted == Seq("DTW", "EDR", "ERP", "FD"))
  }

  test("table2: exact algorithms score AR=1, MR=1, RR=0") {
    for (r <- t2 if Seq("CMA", "ExactS", "Spring", "GB").contains(r.algo)) {
      assert(math.abs(r.ar - 1.0) < 1e-9, s"$r")
      assert(r.mr == 1.0, s"$r")
      assert(r.rrPct == 0.0, s"$r")
    }
  }

  test("table2: approximate algorithms never beat the optimum") {
    for (r <- t2 if Seq("POS", "PSS", "RLS", "RLS-Skip").contains(r.algo)) {
      assert(r.ar >= 1.0 - 1e-9, s"$r")
      assert(r.mr >= 1.0, s"$r")
      assert(r.rrPct >= 0.0, s"$r")
    }
  }

  test("table2 formatting includes every algorithm") {
    val s = Harness.formatTable2(t2)
    for (a <- Harness.AllAlgos) assert(s.contains(a))
  }

  private lazy val t3 = Harness.table3(spark, Seq(Workloads.tiny))

  test("table3 on the tiny workload: every cell completes, exact algorithms agree") {
    val rows = t3
    assert(rows.length == 4 * 6 + 1 + 1)
    assert(rows.forall(!_.overtime))
    assert(rows.forall(_.seconds > 0))
    for (fnName <- Seq("DTW", "EDR", "ERP", "FD")) {
      val exact = rows.filter(r => r.fn == fnName &&
        Seq("CMA", "ExactS", "Spring", "GB").contains(r.algo)).map(_.bestDist)
      assert(exact.nonEmpty)
      for (d <- exact) assert(math.abs(d - exact.head) < 1e-6,
        s"exact algorithms disagree under $fnName: $exact")
    }
  }

  test("table3 reports the pruning counters of every cell") {
    val spec = Workloads.tiny
    for (r <- t3) {
      val p = r.pruning
      assert(p.examined == spec.nData * spec.nQueries, s"$r")
      assert(p.gbpPruned + p.kpfPruned + p.searched == p.examined, s"$r")
    }
    val s = Harness.formatTable3(t3)
    for (h <- Seq("Examined", "GBP-pruned", "KPF-pruned", "Searched")) assert(s.contains(h))
  }

  test("table4 empirical exponents: ExactS grows faster than CMA") {
    val rows = Harness.table4(sizes = Seq(200, 400, 800), m = 20, reps = 3)
    val cma    = rows.find(r => r.algo == "CMA" && r.fn == "DTW").get
    val exacts = rows.find(r => r.algo == "ExactS").get
    assert(exacts.exponent > cma.exponent + 0.4,
      s"cma=${cma.exponent} exacts=${exacts.exponent}")
    assert(cma.exponent < 1.7, s"CMA should be ~linear in n, got ${cma.exponent}")
  }

  test("applicable() encodes the paper's per-function restrictions") {
    import repro.core._
    assert(Harness.applicable("Spring", Dist.dtw))
    assert(!Harness.applicable("Spring", Dist.fd))
    assert(Harness.applicable("GB", Dist.fd))
    assert(!Harness.applicable("GB", Dist.dtw))
    assert(Harness.applicable("CMA", Dist.edr(0.1)))
  }
}
