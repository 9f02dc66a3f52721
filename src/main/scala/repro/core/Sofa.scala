package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The sofa algorithm (Algorithm 2): one pass over the left vertices,
  * maintaining at most `cMax` weighted centers, each with a mergeable
  * Misra–Gries sketch of the right-vertex frequencies of the vertices
  * assigned to it. Built on the importance-sampling streaming k-medians
  * of Braverman et al. (SODA'11): a vertex at distance `d` from its
  * closest center becomes a new center with probability
  * `min(w·d/f, 1)` where `f = LB/(k(1+log n))`; when the center budget
  * overflows or the accumulated cost exceeds `2·LB`, the lower bound is
  * doubled and the pass restarts on the stream made of the current
  * (weighted) centers followed by the unread suffix.
  *
  * Distances use the asymmetric weighted Hamming distance of
  * Section 5.1 with `alpha = 0.1` by default.
  */
object Sofa {

  /** Algorithm parameters.
    *
    * @param k           number of clusters to output
    * @param cMax        center budget (paper: 20k on real data)
    * @param nRight      number of right-side vertices `n`
    * @param mgCapacity  counters per Misra–Gries sketch (paper: max(3s, 0.05n))
    * @param alpha       asymmetric Hamming weight (1.0 = symmetric)
    * @param seed        RNG seed for the importance sampling
    * @param maxRestarts safety cap on LB doublings; when exhausted the
    *                    remaining stream is assigned greedily
    */
  final case class Config(
      k: Int,
      cMax: Int,
      nRight: Int,
      mgCapacity: Int,
      alpha: Double = 0.1,
      seed: Long = 42L,
      maxRestarts: Int = 64,
  ) {
    require(k >= 1, s"k must be >= 1, got $k")
    require(cMax > k, s"cMax ($cMax) must exceed k ($k)")
    require(nRight >= 1 && mgCapacity >= 1)
  }

  /** A weighted center: representative vector, total assigned weight,
    * and the merged sketch of all member neighborhoods. A fresh stream
    * vertex is a center of weight 1 whose sketch holds its own edges.
    */
  final class Center(
      val vec: SparseVec,
      var weight: Long,
      val mg: MisraGries,
  ) extends Serializable {
    def copyOf(): Center = new Center(vec, weight, mg.copy())
    override def toString: String = s"Center(nnz=${vec.nnz}, w=$weight)"
  }

  /** Wrap a raw stream vertex as a weight-1 center. */
  def freshItem(vec: SparseVec, cfg: Config): Center =
    new Center(vec, 1L, MisraGries.ofVector(vec, cfg.mgCapacity))

  /** Run the first pass over `items` and return the surviving centers
    * (at most `cMax − 1` after the final non-overflowing pass).
    *
    * `items` may mix fresh vertices and previously computed centers —
    * this is exactly how restarts work internally and how the
    * distributed version merges per-partition center sets.
    */
  def cluster(items: Iterator[Center], cfg: Config): IndexedSeq[Center] = {
    val rng = new Random(cfg.seed)
    val index = new CenterIndex
    var lb = 1.0
    var restarts = 0
    var pending: Iterator[Center] = items

    while (true) {
      val centers = ArrayBuffer.empty[Center]
      index.clear()
      val f = lb / (cfg.k * (1.0 + math.log(cfg.nRight.toDouble)))
      var cost = 0.0
      var overflow = false

      while (pending.hasNext && !overflow) {
        val u = pending.next()
        if (centers.isEmpty) {
          centers += u
          index.add(u.vec)
        } else {
          val best = index.nearest(u.vec, cfg.alpha)
          val bestD = index.nearestDist
          val sampled = restarts < cfg.maxRestarts &&
            rng.nextDouble() < math.min(u.weight.toDouble * bestD / f, 1.0)
          if (sampled) {
            centers += u
            index.add(u.vec)
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

      // Restart: double LB, re-stream current centers then the unread tail.
      // (Iterator.++ takes its argument by name — capture the current
      // tail in a val first, or the new iterator would lazily re-read
      // the reassigned `pending` var and reference itself.)
      lb *= 2.0
      restarts += 1
      val unread = pending
      pending = centers.iterator ++ unread
    }
    sys.error("unreachable")
  }

  /** Exact nearest-center search over the centers of one pass, by
    * postings from right vertex to the ids of the centers containing
    * it (the candidate generation of Bayardo et al., WWW'07). Walking
    * the postings of `Γ(u)` gives `I_j = |c_j ∩ u|` for every center
    * at once, and `d_j = (|u| − I_j) + α(|c_j| − I_j)` is the double
    * expression of [[SparseVec.asymDistTo]], so the argmin, its
    * lowest-index tie-break and its distance equal those of a scan of
    * every center. A query costs `Σ_{v∈Γ(u)} |postings(v)| + |C|`.
    *
    * Columns are keys of an open-addressing table, so any `Int` is a
    * valid column (input indices are not range-checked) and the memory
    * is `O(Σ nnz(c))` ints: postings plus one slot per distinct column
    * of the centers. It lives only for one `cluster` call and is not
    * part of the retained state.
    */
  private final class CenterIndex {
    private var keys = new Array[Int](64)
    private var postings = new Array[Array[Int]](64) // null marks a free slot
    private var sizes = new Array[Int](64)
    private var occupied = 0
    private var centerNnz = new Array[Int](16)
    private var inter = new Array[Int](16) // all zero between queries
    private var count = 0

    /** Distance from the last [[nearest]] query to the center it returned. */
    var nearestDist: Double = Double.MaxValue

    /** Forget all centers. The table keeps its columns and arrays: a
      * restart re-streams the same centers, so it would refill them.
      */
    def clear(): Unit = {
      java.util.Arrays.fill(sizes, 0)
      count = 0
    }

    /** Append a center; its id is the number of centers added before it. */
    def add(v: SparseVec): Unit = {
      if (count == centerNnz.length) {
        centerNnz = java.util.Arrays.copyOf(centerNnz, 2 * count)
        inter = java.util.Arrays.copyOf(inter, 2 * count)
      }
      centerNnz(count) = v.nnz
      val idx = v.idx
      var p = 0
      while (p < idx.length) {
        val s = slotOf(idx(p))
        if (sizes(s) == postings(s).length)
          postings(s) = java.util.Arrays.copyOf(postings(s), 2 * sizes(s))
        postings(s)(sizes(s)) = count
        sizes(s) += 1
        p += 1
      }
      count += 1
    }

    /** Id of the center nearest to `u` (lowest id among ties); sets
      * [[nearestDist]]. Requires at least one center.
      */
    def nearest(u: SparseVec, alpha: Double): Int = {
      val idx = u.idx
      var p = 0
      while (p < idx.length) {
        val s = probe(idx(p))
        val ids = postings(s)
        if (ids != null) {
          val n = sizes(s)
          var q = 0
          while (q < n) { inter(ids(q)) += 1; q += 1 }
        }
        p += 1
      }
      val un = u.nnz
      var best = 0; var bestD = Double.MaxValue
      var j = 0
      while (j < count) {
        val i = inter(j)
        inter(j) = 0
        val d = (un - i).toDouble + alpha * (centerNnz(j) - i).toDouble
        if (d < bestD) { bestD = d; best = j }
        j += 1
      }
      nearestDist = bestD
      best
    }

    /** The slot holding `col`, or the free slot where it would go. */
    private def probe(col: Int): Int = {
      val mask = keys.length - 1
      val h = col * 0x9e3779b9
      var s = (h ^ (h >>> 16)) & mask
      while (postings(s) != null && keys(s) != col) s = (s + 1) & mask
      s
    }

    private def slotOf(col: Int): Int = {
      if (2 * (occupied + 1) > keys.length) grow()
      val s = probe(col)
      if (postings(s) == null) {
        keys(s) = col
        postings(s) = new Array[Int](4)
        occupied += 1
      }
      s
    }

    private def grow(): Unit = {
      val (oldKeys, oldPostings, oldSizes) = (keys, postings, sizes)
      keys = new Array[Int](2 * oldKeys.length)
      postings = new Array[Array[Int]](keys.length)
      sizes = new Array[Int](keys.length)
      var t = 0
      while (t < oldKeys.length) {
        if (oldPostings(t) != null) {
          val s = probe(oldKeys(t))
          keys(s) = oldKeys(t); postings(s) = oldPostings(t); sizes(s) = oldSizes(t)
        }
        t += 1
      }
    }
  }

  /** Postprocessing with the static k-medians step (Lines 21–25): group
    * the centers into `k` clusters, merge each group's sketches, and
    * for every threshold `θ` emit right clusters
    * `Ṽ_i = { j : counter_i(j) ≥ θ·W_i }` where `W_i` is the group's
    * total weight. All thresholds reuse the same grouping, as in
    * Section 5.4 ("multiple thresholds").
    *
    * @return per-θ array of right clusters (index i = cluster i)
    */
  def postprocessKMedians(
      centers: IndexedSeq[Center],
      cfg: Config,
      thetas: Seq[Double],
  ): Map[Double, Array[SparseVec]] = {
    if (centers.isEmpty) return thetas.map(_ -> Array.empty[SparseVec]).toMap
    val pts = centers.map(c => KMedians.WPoint(c.vec, c.weight))
    val res = KMedians.cluster(pts, cfg.k, cfg.alpha, seed = cfg.seed)
    val groups: Map[Int, IndexedSeq[Int]] =
      centers.indices.groupBy(res.assignment)
    val merged: Seq[(MisraGries, Long)] = groups.toSeq.sortBy(_._1).map { case (_, members) =>
      val mg = MisraGries(cfg.mgCapacity)
      var w = 0L
      members.foreach { i => mg.merge(centers(i).mg); w += centers(i).weight }
      (mg, w)
    }
    thetas.map { theta =>
      theta -> merged.map { case (mg, w) => threshold(mg, theta, w) }.toArray
    }.toMap
  }

  /** Postprocessing variant of Section 5.3 (BMF): skip k-medians and
    * emit one candidate right cluster per center. May return up to
    * `cMax` clusters; the second pass scores them and keeps the top k.
    */
  def postprocessPerCenter(
      centers: IndexedSeq[Center],
      theta: Double,
  ): Array[SparseVec] =
    centers.map(c => threshold(c.mg, theta, c.weight)).toArray

  /** `{ j : estimate(j) ≥ θ·W }` as a sparse vector. */
  def threshold(mg: MisraGries, theta: Double, totalWeight: Long): SparseVec = {
    val cut = theta * totalWeight
    SparseVec.fromArray(mg.entries.collect { case (j, c) if c >= cut => j }.toArray)
  }
}

/** Algorithm 1: the greedy variant analyzed in Theorem 1. Opens a new
  * center whenever the incoming vertex is farther than `alphaDist`
  * (symmetric Hamming) from every existing center, otherwise merges it
  * into the closest one. Postprocessing thresholds each center's sketch
  * at `θ·n_c`.
  */
object GreedyBicluster {

  final case class Result(centers: IndexedSeq[Sofa.Center], clusters: Array[SparseVec])

  def run(
      stream: Iterator[SparseVec],
      alphaDist: Double,
      theta: Double,
      mgCapacity: Int,
  ): Result = {
    val centers = ArrayBuffer.empty[Sofa.Center]
    stream.foreach { x =>
      var best = -1; var bestD = Double.MaxValue
      var j = 0
      while (j < centers.length) {
        val d = centers(j).vec.hamming(x).toDouble
        if (d < bestD) { bestD = d; best = j }
        j += 1
      }
      if (best < 0 || bestD > alphaDist) {
        centers += new Sofa.Center(x, 1L, MisraGries.ofVector(x, mgCapacity))
      } else {
        val c = centers(best)
        c.weight += 1L
        c.mg.merge(MisraGries.ofVector(x, mgCapacity))
      }
    }
    val clusters = centers.map(c => Sofa.threshold(c.mg, theta, c.weight)).toArray
    Result(centers.toIndexedSeq, clusters)
  }
}
