package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Reference first pass for differential tests: [[Sofa.cluster]] with
  * the nearest center found by scanning every center with
  * [[SparseVec.asymDistTo]], as Algorithm 2 states it. `Sofa.cluster`
  * must return exactly the same centers.
  */
object NaiveSofa {

  def cluster(items: Iterator[Sofa.Center], cfg: Sofa.Config): IndexedSeq[Sofa.Center] = {
    val rng = new Random(cfg.seed)
    var lb = 1.0
    var restarts = 0
    var pending: Iterator[Sofa.Center] = items

    while (true) {
      val centers = ArrayBuffer.empty[Sofa.Center]
      val f = lb / (cfg.k * (1.0 + math.log(cfg.nRight.toDouble)))
      var cost = 0.0
      var overflow = false

      while (pending.hasNext && !overflow) {
        val u = pending.next()
        if (centers.isEmpty) {
          centers += u
        } else {
          var best = 0; var bestD = Double.MaxValue
          var j = 0
          while (j < centers.length) {
            val d = centers(j).vec.asymDistTo(u.vec, cfg.alpha)
            if (d < bestD) { bestD = d; best = j }
            j += 1
          }
          val sampled = restarts < cfg.maxRestarts &&
            rng.nextDouble() < math.min(u.weight.toDouble * bestD / f, 1.0)
          if (sampled) {
            centers += u
            if (centers.length >= cfg.cMax) overflow = true
          } else {
            cost += u.weight.toDouble * bestD
            val c = centers(best)
            c.weight += u.weight
            c.mg.merge(u.mg)
            if (cost > 2.0 * lb) overflow = true
          }
        }
      }

      if (!overflow && !pending.hasNext) return centers.toIndexedSeq

      lb *= 2.0
      restarts += 1
      val unread = pending
      pending = centers.iterator ++ unread
    }
    sys.error("unreachable")
  }

  /** Same representatives, weights and sketches, in the same order. */
  def sameCenters(a: IndexedSeq[Sofa.Center], b: IndexedSeq[Sofa.Center]): Boolean =
    a.length == b.length && a.indices.forall { i =>
      a(i).vec == b(i).vec && a(i).weight == b(i).weight &&
        a(i).mg.totalWeight == b(i).mg.totalWeight &&
        a(i).mg.entries.toSeq.sorted == b(i).mg.entries.toSeq.sorted
    }
}
