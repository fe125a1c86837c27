package repro.perfbench

import org.apache.spark.sql.Dataset
import repro.core._
import repro.pruning.Pruner
import repro.spark.SparkSearch

import scala.collection.immutable.ArraySeq

/** The two request paths. Tracing only adds spans and counters: `rid` is the
  * request id (and its root span id), 0 when tracing is off.
  */
object Requests {

  /** Unpruned top-K through the public `SparkSearch.topK`. */
  def topK(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point], rid: Long): Answer = {
    val f = if (rid == 0L) fn else new Meter(rid, rid).wrap(fn)
    Answer(SparkSearch.topK(data, q, f, Workload.K).toIndexedSeq
      .map(h => TopK.Hit(h.trajId, h.startIdx, h.endIdx, h.dist)))
  }

  /** Algorithm 3 exactly as `Harness.table3` runs it: every partition calls
    * `Pruner.search` (GBP, KPF, then `CMA.search`) on its trajectories and
    * the driver takes the minimum. No public Spark function runs this path,
    * so the `mapPartitions` glue lives here.
    */
  def pruned(data: Dataset[Traj], q: Array[Point], fn: DistFn[Point], params: Pruner.Params,
             rid: Long): Answer = {
    import data.sparkSession.implicits._
    val f = if (rid == 0L) fn else new Meter(rid, rid).wrap(fn)
    val parts = data.mapPartitions { it =>
      val t0 = System.nanoTime()
      val task = if (rid == 0L) 0L else Trace.newId()
      val trajs = it.filter(_.length > 0).map(t => (t.id, t.points)).toSeq
      val hit = partition(q, trajs, f, params, rid, task)
      if (rid != 0L) Trace.record("spark.task", rid, rid, t0, System.nanoTime(), id = task)
      hit.iterator
    }.collect()
    Answer(if (parts.isEmpty) IndexedSeq.empty else IndexedSeq(parts.minBy(h => (h.dist, h.trajId))))
  }

  /** `Pruner.search` over one partition's trajectories; when `rid != 0` it
    * records a `pruning.search` span under `parent` with the gate counters,
    * and one `core.search_one` child span per CMA call.
    */
  def partition(q: Array[Point], trajs: Seq[(Long, Array[Point])], fn: DistFn[Point],
                params: Pruner.Params, rid: Long, parent: Long): Option[TopK.Hit] = {
    val stats = Pruner.Stats()
    if (rid == 0L)
      Pruner.search(q, trajs, fn, params,
        (a: Array[Point], b: Array[Point]) => CMA.search(ArraySeq.unsafeWrapArray(a), ArraySeq.unsafeWrapArray(b), fn),
        stats)
    else {
      val span = Trace.newId()
      val searchOne = (a: Array[Point], b: Array[Point]) =>
        Trace.timed("core.search_one", span, rid)(
          CMA.search(ArraySeq.unsafeWrapArray(a), ArraySeq.unsafeWrapArray(b), fn))(
          _ => Map("cells" -> a.length.toDouble * b.length))
      Trace.timed("pruning.search", parent, rid, span)(
        Pruner.search(q, trajs, fn, params, searchOne, stats))(
        _ => Map("examined" -> stats.examined.toDouble, "gbp_pruned" -> stats.gbpPruned.toDouble,
                 "kpf_pruned" -> stats.kpfPruned.toDouble, "searched" -> stats.searched.toDouble))
    }
  }
}
