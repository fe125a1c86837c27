package repro.pruning

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

import scala.util.Random

/** GBP / KPF / OSF: soundness of the lower bounds (Theorem B.1), grid
  * semantics, and exactness of the full Algorithm-3 pipeline under safe
  * parameters.
  */
class PruningSpec extends AnyFunSuite {

  private def smallDb(seed: Int, n: Int = 10): Array[(Long, Array[Point])] = {
    val r = new Random(seed)
    Array.tabulate(n)(i => (i.toLong, TestGen.randPoints(r, 5 + r.nextInt(15)).toArray))
  }

  // --- Theorem B.1: the unsampled KPF bound never exceeds the optimum ---
  for (fn <- TestGen.pointFns; seed <- 0 until 10)
    test(s"KPF lower bound <= exact optimum [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 61 + 17)
      val lb = KPF.lowerBound(q, d, fn)
      val opt = CMA.search(q, d, fn).dist
      assert(lb <= opt + 1e-9, s"lb=$lb opt=$opt")
    }

  test("KPF pointMinCost is min over sub/del") {
    val d = IndexedSeq(Point(0, 0), Point(1, 0), Point(2, 0))
    val erp = Dist.erp(Point(0, 0))
    // query point near (1,0): sub min = 0.1, del = dist to gap (0,0) = 1.1
    TestGen.assertSameDist(KPF.pointMinCost(Point(1.1, 0), d, erp), 0.1, 1e-9)
    // query point far away: deletion (to gap) may win
    val far = Point(0.2, 0)
    TestGen.assertSameDist(KPF.pointMinCost(far, d, erp), 0.2, 1e-9)
  }

  test("KPF key point sampling covers the query uniformly") {
    val idx = KPF.keyPointIdx(100, 0.05)
    assert(idx.length == 5)
    assert(idx.forall(i => i >= 0 && i < 100))
    assert(idx.distinct.length == idx.length)
    assert(KPF.keyPointIdx(3, 0.05).length == 1) // at least one
  }

  test("KPF estimate with r=1 equals the exact bound (sum-type)") {
    val (q, d) = TestGen.randPair(77)
    val fn = Dist.erp(Point(0.5, 0.5))
    TestGen.assertSameDist(KPF.estimate(q, d, fn, 1.0), KPF.lowerBound(q, d, fn))
  }

  // --- GBP grid semantics ---
  test("GBP cell packing is injective on distinct cells") {
    val eps = 0.25
    val cells = for (x <- -5 to 5; y <- -5 to 5)
      yield GBP.cell(Point(x * eps + eps / 2, y * eps + eps / 2), eps)
    assert(cells.distinct.length == cells.length)
  }

  test("GBP dilate returns the 3x3 block") {
    val c = GBP.cell(Point(1.0, 1.0), 0.5)
    val b = GBP.dilate(c)
    assert(b.length == 9 && b.distinct.length == 9 && b.contains(c))
  }

  test("GBP close-count of a trajectory with itself is m") {
    val t = TestGen.randPoints(new Random(4), 12).toArray
    val qc = GBP.queryCells(t, 0.3)
    assert(GBP.closeCount(qc, t, 0.3) == t.length)
    assert(GBP.passes(qc, t, 0.3, 1.0))
  }

  test("GBP rejects a far-away trajectory") {
    val t = TestGen.randPoints(new Random(5), 10).toArray
    val far = t.map(p => Point(p.x + 100, p.y + 100))
    assert(GBP.closeCount(GBP.queryCells(t, 0.3), far, 0.3) == 0)
  }

  test("GBP close is monotone in eps (coarser grid keeps at least as many)") {
    val r = new Random(6)
    val q = TestGen.randPoints(r, 10).toArray
    val d = TestGen.randPoints(r, 15).toArray
    val small = GBP.closeCount(GBP.queryCells(q, 0.1), d, 0.1)
    val large = GBP.closeCount(GBP.queryCells(q, 0.8), d, 0.8)
    assert(large >= small)
  }

  // --- GBP query-side table == hash-set reference ---
  private val gbpMus = Seq(0.0, 0.1, 0.4, 1.0)

  /** Asserts the table's count, its early-exit count for every `mu` in
    * `gbpMus`, and the gate decision against [[GbpReference]], reusing one
    * table across all of `ds`.
    */
  private def assertSameCounts(q: Array[Point], ds: Seq[Array[Point]], eps: Double): Unit = {
    val qc = GBP.queryCells(q, eps)
    for (d <- ds) {
      val want = GbpReference.closeCount(q, d, eps)
      assert(GBP.closeCount(qc, d, eps) == want)
      for (mu <- gbpMus) {
        val need = math.ceil(mu * q.length).toInt
        assert(GBP.closeCount(qc, d, eps, need) == math.min(want, need), s"mu=$mu")
        assert(GBP.passes(qc, d, eps, mu) == (want >= mu * q.length), s"mu=$mu")
      }
    }
  }

  /** Points of one layout, in cell units of `eps`. Layout "wrap" mixes cells
    * near 0 with cells near 2^32, which the packing of `GBP.cell` aliases.
    */
  private def gridPoints(r: Random, n: Int, eps: Double, layout: String): Array[Point] = {
    def at(cx: Double, cy: Double) = Point(cx * eps, cy * eps)
    layout match {
      case "negative"    => Array.fill(n)(at(r.nextDouble() * 8 - 4, r.nextDouble() * 8 - 4))
      case "on-grid"     => Array.fill(n)(at(r.nextInt(9) - 4, r.nextInt(9) - 4))
      case "one-cell"    =>
        val (cx, cy) = (r.nextInt(3) - 1, r.nextInt(3) - 1)
        Array.fill(n)(if (r.nextInt(8) == 0) at(r.nextDouble() * 6 - 3, r.nextDouble() * 6 - 3)
                      else at(cx + r.nextDouble(), cy + r.nextDouble()))
      case "wrap"        =>
        def c() = (if (r.nextBoolean()) 4294967296.0 else 0.0) + r.nextDouble() * 4 - 2
        Array.fill(n)(at(c(), c()))
    }
  }

  for (layout <- Seq("negative", "on-grid", "one-cell", "wrap"); seed <- 0 until 10)
    test(s"GBP query-side table count == hash-set reference [$layout seed=$seed]") {
      val r = new Random(seed * 131 + layout.length)
      val eps = Seq(0.1, 0.25, 0.3, 1.0)(seed % 4)
      val m = if (seed % 3 == 0) 1 else 1 + r.nextInt(30)
      val q = gridPoints(r, m, eps, layout)
      val ds = Seq.fill(6)(gridPoints(r, 1 + r.nextInt(40), eps, layout))
      assertSameCounts(q, ds, eps)
    }

  for (spec <- Seq(repro.eval.Workloads.porto, repro.eval.Workloads.xian, repro.eval.Workloads.beijing))
    test(s"GBP query-side table count == hash-set reference on every pair [${spec.name}]") {
      val ds = repro.eval.Workloads.dataLocal(spec).toSeq.map(_.points)
      for (q <- repro.eval.Workloads.queries(spec)) assertSameCounts(q, ds, spec.gen.stepKm * 8)
    }

  // --- Malformed pruning parameters are rejected at the boundary ---
  for ((name, bad) <- Seq[(String, () => Pruner.Params)](
         "eps=0"    -> (() => Pruner.Params(eps = 0.0)),
         "eps<0"    -> (() => Pruner.Params(eps = -1.0)),
         "eps=NaN"  -> (() => Pruner.Params(eps = Double.NaN)),
         "eps=+inf" -> (() => Pruner.Params(eps = Double.PositiveInfinity)),
         "mu<0"     -> (() => Pruner.Params(eps = 1.0, mu = -0.1)),
         "mu>1"     -> (() => Pruner.Params(eps = 1.0, mu = 1.1)),
         "mu=NaN"   -> (() => Pruner.Params(eps = 1.0, mu = Double.NaN)),
         "r=0"      -> (() => Pruner.Params(eps = 1.0, r = 0.0)),
         "r>1"      -> (() => Pruner.Params(eps = 1.0, r = 1.5)),
         "r=NaN"    -> (() => Pruner.Params(eps = 1.0, r = Double.NaN))))
    test(s"Pruner.Params rejects $name") {
      intercept[IllegalArgumentException](bad())
    }

  test("Pruner.Params accepts the values its callers use") {
    for (spec <- Seq(repro.eval.Workloads.porto, repro.eval.Workloads.xian, repro.eval.Workloads.beijing))
      Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.1)
    Pruner.Params(eps = 0.5, mu = 0.3, r = 1.0)
    Pruner.Params(eps = 1.0, mu = 0.4, r = 1.0)
    Pruner.Params(eps = 1.0, mu = 0.0, r = 0.05)
  }

  // --- OSF bound soundness ---
  for (seed <- 0 until 6)
    test(s"OSF bbox lower bound <= exact optimum [seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 67 + 23)
      val box = OSF.bbox(d.toArray)
      for (fn <- Seq[DistFn[Point]](Dist.dtw, Dist.fd, Dist.erp(Point(0.5, 0.5)), Dist.edr(0.3),
                                    Dist.edr(0.1), Dist.edr(0.5),
                                    Dist.wedCustom[Point]("EDR", Dist.euclid, _ => 5.0, _ => 5.0))) {
        val lb = OSF.lowerBound(q.toArray, box, fn, 1.0)
        val opt = CMA.search(q, d, fn).dist
        assert(lb <= opt + 1e-9, s"${fn.name}: lb=$lb opt=$opt")
      }
    }

  test("OSF EDR bound reads eps from the function: a point within eps of the box is free") {
    val d = Array(Point(0, 0), Point(1, 0))
    val q = Array(Point(1.4, 0))
    val fn = Dist.edr(0.5)
    assert(CMA.search(q.toIndexedSeq, d.toIndexedSeq, fn).dist == 0.0)
    assert(OSF.lowerBound(q, OSF.bbox(d), fn, 1.0) == 0.0)
  }

  test("OSF bbox distance is zero inside, positive outside") {
    val box = OSF.BBox(0, 0, 1, 1)
    assert(box.distTo(Point(0.5, 0.5)) == 0.0)
    TestGen.assertSameDist(box.distTo(Point(2, 1)), 1.0)
    TestGen.assertSameDist(box.distTo(Point(-3, -4)), 5.0)
  }

  // --- Algorithm 3 pipeline exactness under safe parameters ---
  for (fn <- Seq[DistFn[Point]](Dist.dtw, Dist.erp(Point(0.5, 0.5))); seed <- 0 until 6)
    test(s"pipeline with KPF-only (safe r=1) is exact [${fn.name} seed=$seed]") {
      val db = smallDb(seed + 40)
      val q = TestGen.randPoints(new Random(seed + 99), 6).toArray
      val params = Pruner.Params(eps = 1.0, mu = 0.0, r = 1.0) // mu = 0: GBP passes everything
      val stats = Pruner.Stats()
      val got = Pruner.search(q, db, fn, params,
        (a, b) => CMA.search(a, b, fn), stats).get
      val want = db.map { case (_, d) => CMA.search(q, d, fn).dist }.min
      TestGen.assertSameDist(got.dist, want)
      assert(stats.gbpPruned == 0, s"stats=$stats")
    }

  test("pipeline prunes most of a database of far trajectories") {
    val r = new Random(9)
    val near = (0L, TestGen.randPoints(r, 10).toArray)
    val fars = Array.tabulate(20)(i =>
      ((i + 1).toLong, TestGen.randPoints(r, 10).map(p => Point(p.x + 50, p.y + 50)).toArray))
    val q = near._2.take(6)
    val stats = Pruner.Stats()
    val params = Pruner.Params(eps = 0.5, mu = 0.3)
    val got = Pruner.search(q, near +: fars, Dist.dtw, params,
      (a, b) => CMA.search(a, b, Dist.dtw), stats).get
    assert(got.trajId == 0L)
    assert(stats.gbpPruned >= 18, s"stats=$stats")
  }

  test("OSF pipeline returns the same optimum as unpruned search (sound bound)") {
    val db = smallDb(77)
    val q = TestGen.randPoints(new Random(5), 6).toArray
    val fn = Dist.dtw
    val got = Pruner.searchOSF(q, db, fn, r = 1.0,
      (a, b) => CMA.search(a, b, fn)).get
    val want = db.map { case (_, d) => CMA.search(q, d, fn).dist }.min
    TestGen.assertSameDist(got.dist, want)
  }

  test("GBP+KPF prunes at least as many trajectories as the OSF comparator") {
    val r = new Random(11)
    // half near the query, half far
    val db = Array.tabulate(20) { i =>
      val base = TestGen.randPoints(r, 12)
      val shifted = if (i % 2 == 0) base else base.map(p => Point(p.x + 30, p.y + 30))
      (i.toLong, shifted.toArray)
    }
    val q = TestGen.randPoints(new Random(12), 8).toArray
    val s1 = Pruner.Stats(); val s2 = Pruner.Stats()
    Pruner.search(q, db, Dist.dtw, Pruner.Params(eps = 0.5, mu = 0.3, r = 1.0),
      (a, b) => CMA.search(a, b, Dist.dtw), s1)
    Pruner.searchOSF(q, db, Dist.dtw, r = 1.0,
      (a, b) => CMA.search(a, b, Dist.dtw), s2)
    assert(s1.gbpPruned + s1.kpfPruned >= s2.kpfPruned, s"gbpkpf=$s1 osf=$s2")
  }
}
