package repro.pruning

import repro.core.Point

/** Independent `close(τq, τd)` count that the query-side table of
  * [[GBP.queryCells]] is checked against: the data side of Eq. 27 taken
  * literally, as the union of the 3×3 blocks `B(cell(d_j))` in a hash set,
  * then one membership test per query cell.
  */
object GbpReference {

  def closeCount(q: Array[Point], d: Array[Point], eps: Double): Int = {
    val dilated = new java.util.HashSet[java.lang.Long]()
    for (p <- d; c <- GBP.dilate(GBP.cell(p, eps))) dilated.add(c)
    q.count(p => dilated.contains(GBP.cell(p, eps)))
  }
}
