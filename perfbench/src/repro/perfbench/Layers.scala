package repro.perfbench

/** Per-layer metrics, derived only from the spans a traced run wrote. */
object Layers {

  def derive(spans: Vector[Span], w: Workload, totalPoints: Long): Seq[Metric] = {
    val byReq = spans.filter(_.request != 0L).groupBy(_.request)
    def named(rid: Long, name: String): Vector[Span] = byReq.getOrElse(rid, Vector.empty).filter(_.name == name)
    def all(name: String): Vector[Span] = spans.filter(_.name == name)

    val requests = all("request").filter(_.attr("timed") == 1.0)
    val traced = requests.filter(_.attr("traced") == 1.0)
    val plain = requests.filter(_.attr("traced") == 0.0)
    val n = traced.length
    def perReq(f: Span => Double): Double = Stats.mean(traced.map(f))

    // Task busy time: the partition function on the Algorithm-3 path; on the
    // top-K path the sampled kernel interval is the part of a task we can see.
    val busyName = if (w.pruned) "spark.task" else "core.evals"
    val busy = traced.map(r => named(r.id, busyName).map(_.ms))

    // Critical path: the share of a request's wall time spent in each layer
    // inside its longest task, and outside every task (Spark self time).
    val shares = traced.map { r =>
      val tasks = named(r.id, busyName)
      if (tasks.isEmpty) (0.0, 0.0, 1.0) else {
        val longest = tasks.maxBy(_.ms)
        val prune = named(r.id, "pruning.search").filter(_.parent == longest.id)
        val one = named(r.id, "core.search_one").filter(s => prune.exists(_.id == s.parent)).map(_.ms).sum
        val kernel = if (w.pruned) one else longest.ms
        (kernel / r.ms, (prune.map(_.ms).sum - one) / r.ms, (r.ms - longest.ms) / r.ms)
      }
    }

    val cells =
      if (w.pruned) perReq(r => named(r.id, "core.search_one").map(_.attr("cells")).sum)
      else perReq(r => r.attr("m") * totalPoints)
    val kernelMs =
      if (w.pruned) perReq(r => named(r.id, "core.search_one").map(_.ms).sum)
      else perReq(r => named(r.id, "core.evals").map(_.ms).sum)

    // Pruning counters: from the requests on the Algorithm-3 path, else from
    // the driver-side probe (the top-K requests never call this layer).
    val pruneRoots = if (w.pruned) traced else all("probe.pruning")
    val pruneSpans = pruneRoots.map(r => named(r.id, "pruning.search"))
    def pruneCount(k: String): Double = Stats.mean(pruneSpans.map(_.map(_.attr(k)).sum))
    val pruneSelf = Stats.mean(pruneRoots.zip(pruneSpans).map { case (r, ps) =>
      ps.map(_.ms).sum - named(r.id, "core.search_one").map(_.ms).sum
    })
    val examined = pruneCount("examined")

    // Nanoseconds per unit of work over a set of probe spans.
    def nsPer(s: Vector[Span], unitAttr: String): Double =
      s.map(x => (x.end - x.start).toDouble).sum / math.max(1.0, s.map(_.attr(unitAttr)).sum)
    val cma = all("probe.cma")
    val setups = all("setup").map(s => s.attr("rep") -> s.ms).toMap
    val gens = all("setup.gen").map(s => s.attr("rep") -> s.ms).toMap
    val checks = traced.flatMap(r => named(r.id, "check"))

    val fnMetrics = w.fns.indices.map(f =>
      Metric(s"core.ns_per_cell.${w.fns(f).name.toLowerCase}", nsPer(cma.filter(_.attr("fn") == f), "cells"), "ns",
             cma.count(_.attr("fn") == f)))
    val np = pruneRoots.length
    Seq(
      Metric("core.cells", cells, "count", n),
      Metric("core.busy_ms", kernelMs, "ms", n),
      Metric("core.share", Stats.mean(shares.map(_._1)), "ratio", n),
      Metric("core.dist_evals", perReq(r => named(r.id, "core.evals").map(_.attr("evals")).sum), "count", n),
    ) ++ fnMetrics ++ Seq(
      Metric("pruning.examined", examined, "count", np),
      Metric("pruning.gbp_pruned", pruneCount("gbp_pruned"), "count", np),
      Metric("pruning.kpf_pruned", pruneCount("kpf_pruned"), "count", np),
      Metric("pruning.searched", pruneCount("searched"), "count", np),
      Metric("pruning.survivor_ratio", pruneCount("searched") / math.max(1.0, examined), "ratio", np),
      Metric("pruning.self_ms", pruneSelf, "ms", np),
      Metric("pruning.share", Stats.mean(shares.map(_._2)), "ratio", n),
      Metric("pruning.gbp_ns_per_traj", nsPer(all("probe.gbp"), "trajs"), "ns", all("probe.gbp").length),
      Metric("pruning.kpf_ns_per_traj", nsPer(all("probe.kpf"), "trajs"), "ns", all("probe.kpf").length),
      Metric("pruning.kpf_unsound", Stats.mean(checks.map(_.attr("kpf_unsound"))), "count", checks.length),
      Metric("spark.empty_job_ms", Stats.median(all("probe.empty_job").map(_.ms)), "ms", all("probe.empty_job").length),
      Metric("spark.self_ms", Stats.mean(traced.zip(busy).map { case (r, b) => r.ms - (0.0 +: b).max }), "ms", n),
      Metric("spark.self_share", Stats.mean(shares.map(_._3)), "ratio", n),
      Metric("spark.decode_ms", Stats.median(all("probe.decode").map(_.ms)), "ms", all("probe.decode").length),
      Metric("spark.task_skew", Stats.mean(busy.filter(b => b.sum > 0).map(b => b.max / Stats.mean(b))), "ratio", n),
      Metric("spark.cached_mb", all("probe.cached").map(_.attr("bytes")).sum / 1e6, "MB", 1),
      Metric("setup.gen_ms", Stats.median(gens.values.toSeq), "ms", gens.size),
      Metric("setup.materialise_ms", Stats.median(setups.keys.toSeq.map(k => setups(k) - gens.getOrElse(k, 0.0))), "ms", setups.size),
      Metric("trace.overhead_ratio", Stats.median(traced.map(_.ms)) / Stats.median(plain.map(_.ms)), "ratio", n),
    )
  }
}
