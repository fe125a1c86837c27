package repro.perfbench

import repro.core._
import repro.eval.{DatasetSpec, Workloads}
import repro.pruning.Pruner

/** A benchmark workload: a dataset (its seed is the benchmark's `--seed`),
  * the entry point its requests go through, and its query pools. A request
  * is one (query, distance fn) pair; request `i` of a pool takes query
  * `i mod pool` and rotates over the workload's functions (DTW, EDR, ERP,
  * FD), so a run asks a new query with every request until the pool wraps.
  * The first `warmQueries` queries serve only the warm-up, so no timed
  * request repeats a warm-up request.
  */
final case class Workload(name: String, spec: DatasetSpec, pruned: Boolean, warmQueries: Int) {
  val fns: IndexedSeq[DistFn[Point]] = Workloads.distFns(spec).toIndexedSeq

  /** Algorithm-3 knobs exactly as `Harness.table3` sets them. */
  val params: Pruner.Params = Pruner.Params(eps = spec.gen.stepKm * 8, mu = 0.1)

  /** Warm-up queries, the timed pool, and each timed query's index in
    * `Workloads.queries(spec)` (how mismatches name it).
    */
  lazy val (warm, timed, timedId): (IndexedSeq[Array[Point]], IndexedSeq[Array[Point]], IndexedSeq[Int]) = {
    val all = Workloads.queries(spec).toIndexedSeq
    val order = Workload.strided(all.indices.drop(warmQueries).sortBy(all(_).length))
    (all.take(warmQueries), order.map(all), order)
  }

  /** The `i`-th request of a pool: (query index in the pool, fn index). */
  def request(i: Int, poolSize: Int): (Int, Int) = (i % poolSize, i % fns.size)
}

object Workload {
  /** Top-K size of the top-K workloads (the paper's Appendix E). */
  val K = 10

  /** `xs` (sorted by query length) in golden-ratio stride order: every
    * prefix — the requests one run gets through — spans the length range
    * evenly, so run-to-run work differs less than with a random order.
    */
  def strided[A](xs: IndexedSeq[A]): IndexedSeq[A] = {
    val n = xs.length
    var step = math.max(1, math.round(n * 0.618).toInt)
    while (BigInt(step).gcd(n) != 1) step += 1
    IndexedSeq.tabulate(n)(i => xs((i.toLong * step % n).toInt))
  }

  val Names: Seq[String] = Seq("porto-topk", "xian-pruned")

  /** Many short trajectories: the Spark dataflow dominates each request. */
  def portoTopK(seed: Long): Workload =
    Workload("porto-topk", Workloads.porto.copy(nData = 5000, nQueries = 8 + 256, seed = seed),
      pruned = false, warmQueries = 8)

  /** Algorithm 3 (GBP, KPF, then CMA) per partition: the gates dominate. */
  def xianPruned(seed: Long): Workload =
    Workload("xian-pruned", Workloads.xian.copy(nData = 1000, nQueries = 8 + 256, seed = seed),
      pruned = true, warmQueries = 8)

  def byName(name: String, seed: Long): Workload = name match {
    case "porto-topk"  => portoTopK(seed)
    case "xian-pruned" => xianPruned(seed)
    case other => throw new IllegalArgumentException(
      s"unknown workload $other; expected one of ${Names.mkString(", ")}")
  }

  /** `Workloads.tiny` driven through either entry point (self-test only). */
  def tiny(pruned: Boolean): Workload =
    Workload(if (pruned) "tiny-pruned" else "tiny-topk",
      Workloads.tiny.copy(nQueries = 2 + 4), pruned = pruned, warmQueries = 2)
}
