package repro.pruning

import repro.core.Point

/** Grid-Based Pruning (Appendix B): divide the plane into `eps`-side square
  * cells; a query point is *close* to a data point iff its cell lies in the
  * 3×3 block around the data point's cell. A data trajectory survives iff at
  * least `mu * m` query points are close to it (Eq. 26/27).
  *
  * Closeness is symmetric: `cell(q_i) ∈ B(cell(d_j))` iff
  * `cell(d_j) ∈ B(cell(q_i))`, also under the packing of [[cell]], where both
  * coordinates wrap mod 2^32. So the 3×3 blocks are built once per query
  * ([[queryCells]]) and each data trajectory costs one table probe per point.
  */
object GBP {

  /** Cell id of `p` (packed into a Long for cheap hashing). */
  def cell(p: Point, eps: Double): Long = {
    val cx = math.floor(p.x / eps).toLong
    val cy = math.floor(p.y / eps).toLong
    (cx << 32) ^ (cy & 0xffffffffL)
  }

  private def unpack(c: Long): (Long, Long) = (c >> 32, (c << 32) >> 32)

  /** The 3×3 dilation `B(·)` of a cell. */
  def dilate(c: Long): Array[Long] = {
    val (cx, cy) = unpack(c)
    val out = new Array[Long](9)
    var k = 0
    var dx = -1L
    while (dx <= 1) {
      var dy = -1L
      while (dy <= 1) {
        out(k) = ((cx + dx) << 32) ^ ((cy + dy) & 0xffffffffL)
        k += 1; dy += 1
      }
      dx += 1
    }
    out
  }

  /** Query side of GBP for one query of `m` points: an open-addressing table
    * from each cell of the dilations `B(cell(q_i))` to the query indices `i`
    * that cover it. Slot `s` is empty iff `from(s) == from(s + 1)`; otherwise
    * it holds cell `keys(s)` and indices `idx(from(s) until from(s + 1))`.
    * `seen`/`stamp` mark the indices counted by the current [[closeCount]]
    * call, so one instance serves one thread at a time.
    */
  final class QueryCells private[GBP] (val eps: Double, val m: Int,
                                       private[GBP] val keys: Array[Long],
                                       private[GBP] val from: Array[Int],
                                       private[GBP] val idx: Array[Int]) {
    private[GBP] val mask = keys.length - 1
    private[GBP] val seen = new Array[Int](m)
    private[GBP] var stamp = 0
  }

  private def slotHash(c: Long, mask: Int): Int = {
    val h = c * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32)).toInt & mask
  }

  /** Builds the query-side table (reused across data trajectories). */
  def queryCells(q: Array[Point], eps: Double): QueryCells = {
    val m = q.length
    // At most 9m distinct cells; a capacity above 18m keeps the load <= 1/2.
    val cap = Integer.highestOneBit(math.max(18 * m, 2)) * 2
    val mask = cap - 1
    val keys = new Array[Long](cap)
    val from = new Array[Int](cap + 1) // entry counts per slot, then offsets
    val slotOf = new Array[Int](9 * m) // slot of the k-th cell of B(cell(q_i)) at 9i + k
    var i = 0
    while (i < m) {
      val block = dilate(cell(q(i), eps))
      var k = 0
      while (k < 9) {
        val c = block(k)
        var s = slotHash(c, mask)
        while (from(s) > 0 && keys(s) != c) s = (s + 1) & mask
        keys(s) = c; from(s) += 1; slotOf(9 * i + k) = s
        k += 1
      }
      i += 1
    }
    var sum = 0
    var s = 0
    while (s <= cap) { val c = from(s); from(s) = sum; sum += c; s += 1 }
    // The 9 cells of one block are distinct, so no slot gets an index twice.
    val next = from.clone()
    val idx = new Array[Int](9 * m)
    var e = 0
    while (e < 9 * m) { idx(next(slotOf(e))) = e / 9; next(slotOf(e)) += 1; e += 1 }
    new QueryCells(eps, m, keys, from, idx)
  }

  /** `close(τq, τd)` — number of query points close to the data trajectory,
    * counting no further than `limit`. `qc` must be built with this `eps`.
    */
  def closeCount(qc: QueryCells, d: Array[Point], eps: Double, limit: Int = Int.MaxValue): Int = {
    require(eps == qc.eps, s"query cells were built for eps=${qc.eps}, not $eps")
    if (qc.stamp == Int.MaxValue) { java.util.Arrays.fill(qc.seen, 0); qc.stamp = 0 }
    qc.stamp += 1
    val stamp = qc.stamp; val seen = qc.seen
    val keys = qc.keys; val from = qc.from; val idx = qc.idx
    var cnt = 0
    var prev = 0L
    var j = 0
    while (j < d.length && cnt < limit) {
      val c = cell(d(j), eps)
      // Consecutive points often share a cell, whose indices are counted.
      if (j == 0 || c != prev) {
        var s = slotHash(c, qc.mask)
        while (from(s) < from(s + 1) && keys(s) != c) s = (s + 1) & qc.mask
        var e = from(s)
        val end = from(s + 1)
        while (e < end && cnt < limit) {
          val i = idx(e)
          if (seen(i) != stamp) { seen(i) = stamp; cnt += 1 }
          e += 1
        }
        prev = c
      }
      j += 1
    }
    cnt
  }

  /** GBP gate: keep the trajectory iff `close >= mu * m`. Counting stops
    * once the count reaches the threshold.
    */
  def passes(qc: QueryCells, d: Array[Point], eps: Double, mu: Double): Boolean = {
    val threshold = mu * qc.m
    closeCount(qc, d, eps, math.ceil(threshold).toInt) >= threshold
  }
}
