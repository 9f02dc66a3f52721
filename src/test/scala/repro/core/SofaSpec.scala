package repro.core

import repro.SparkSpec

class SofaSpec extends SparkSpec {

  private def cfg(k: Int, n: Int, cMax: Int = 0, counters: Int = 64,
                  seed: Long = 42L): Sofa.Config =
    Sofa.Config(k = k, cMax = if (cMax > 0) cMax else 4 * k, nRight = n,
      mgCapacity = counters, seed = seed)

  test("config validates its arguments") {
    intercept[IllegalArgumentException](Sofa.Config(0, 10, 100, 10))
    intercept[IllegalArgumentException](Sofa.Config(5, 5, 100, 10)) // cMax must exceed k
  }

  test("a single vertex becomes the single center") {
    val c = cfg(1, 100, cMax = 4)
    val out = Sofa.cluster(Iterator(Sofa.freshItem(SparseVec(1, 2, 3), c)), c)
    assert(out.length == 1)
    assert(out.head.weight == 1)
    assert(out.head.vec == SparseVec(1, 2, 3))
  }

  test("total weight of centers equals the number of stream vertices") {
    val inst = TestGraphs.planted(k = 4, ell = 30, n = 300, r = 12, p = 0.9, q = 0.002)
    val c = cfg(4, inst.n)
    val out = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, c)), c)
    assert(out.map(_.weight).sum == inst.vectors.length)
  }

  test("number of centers never exceeds cMax") {
    val inst = TestGraphs.planted(k = 6, ell = 40, n = 400, r = 10, p = 0.8, q = 0.01)
    val c = cfg(6, inst.n, cMax = 13)
    val out = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, c)), c)
    assert(out.length < 13)
    assert(out.map(_.weight).sum == inst.vectors.length)
  }

  test("clustering is deterministic in the seed") {
    val inst = TestGraphs.planted(k = 3, ell = 25, n = 200, r = 10, p = 0.85, q = 0.005)
    val c = cfg(3, inst.n, seed = 7L)
    def run() = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, c)), c)
    val a = run(); val b = run()
    assert(a.map(_.vec).toSeq == b.map(_.vec).toSeq)
    assert(a.map(_.weight).toSeq == b.map(_.weight).toSeq)
  }

  test("sketches accumulate the edges of assigned vertices") {
    val inst = TestGraphs.planted(k = 2, ell = 40, n = 150, r = 15, p = 0.95, q = 0.0)
    val c = cfg(2, inst.n, counters = 200)
    val out = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, c)), c)
    val totalEdges = inst.vectors.map(_.nnz.toLong).sum
    assert(out.map(_.mg.totalWeight).sum == totalEdges)
  }

  test("on clean planted data the merged clusters match the planted right clusters") {
    val inst = TestGraphs.planted(k = 4, ell = 60, n = 400, r = 14,
      p = 0.95, q = 0.001, seed = 3L)
    val c = cfg(4, inst.n, cMax = 24, counters = 400)
    val centers = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, c)), c)
    val rights = Sofa.postprocessKMedians(centers, c, Seq(0.5))(0.5)
    val q = Metrics.qualityQRight(inst.rightClusters, rights.toSeq)
    assert(q > 0.85, s"expected near-exact recovery, got Q=$q")
  }

  test("recovery works regardless of stream order") {
    val base = TestGraphs.planted(k = 3, ell = 50, n = 300, r = 12,
      p = 0.95, q = 0.001, seed = 5L)
    val inst = TestGraphs.shuffled(base, seed = 17L)
    val c = cfg(3, inst.n, cMax = 18, counters = 300)
    val centers = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, c)), c)
    val rights = Sofa.postprocessKMedians(centers, c, Seq(0.5))(0.5)
    assert(Metrics.qualityQRight(inst.rightClusters, rights.toSeq) > 0.8)
  }

  test("postprocess with multiple thetas reuses one grouping") {
    val inst = TestGraphs.planted(k = 3, ell = 40, n = 250, r = 10, p = 0.9, q = 0.002)
    val c = cfg(3, inst.n, counters = 250)
    val centers = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, c)), c)
    val multi = Sofa.postprocessKMedians(centers, c, Seq(0.3, 0.5, 0.7))
    assert(multi.keySet == Set(0.3, 0.5, 0.7))
    // Lower θ admits more columns: cluster sizes shrink as θ grows.
    val sizes = Seq(0.3, 0.5, 0.7).map(t => multi(t).map(_.nnz).sum)
    assert(sizes(0) >= sizes(1) && sizes(1) >= sizes(2))
  }

  test("threshold keeps exactly the counters above theta*weight") {
    val mg = MisraGries(10)
    mg.add(1, 90); mg.add(2, 50); mg.add(3, 10)
    val v = Sofa.threshold(mg, 0.5, 100)
    assert(v == SparseVec(1, 2))
    val v2 = Sofa.threshold(mg, 0.6, 100)
    assert(v2 == SparseVec(1))
  }

  test("postprocessPerCenter yields one cluster per center") {
    val inst = TestGraphs.planted(k = 3, ell = 30, n = 200, r = 10, p = 0.9, q = 0.002)
    val c = cfg(3, inst.n, counters = 200)
    val centers = Sofa.cluster(inst.vectors.iterator.map(Sofa.freshItem(_, c)), c)
    val cand = Sofa.postprocessPerCenter(centers, 0.5)
    assert(cand.length == centers.length)
  }

  test("merging previously computed centers through cluster() preserves weight") {
    val inst = TestGraphs.planted(k = 3, ell = 40, n = 250, r = 10, p = 0.9, q = 0.002)
    val c = cfg(3, inst.n)
    val (first, second) = inst.vectors.splitAt(60)
    val c1 = Sofa.cluster(first.iterator.map(Sofa.freshItem(_, c)), c)
    val c2 = Sofa.cluster(second.iterator.map(Sofa.freshItem(_, c)), c)
    val merged = Sofa.cluster((c1 ++ c2).iterator, c)
    assert(merged.map(_.weight).sum == inst.vectors.length)
    assert(merged.length < c.cMax)
  }

  test("column indices outside [0, nRight) give the linear scan's centers") {
    val c = Sofa.Config(k = 2, cMax = 5, nRight = 10, mgCapacity = 8)
    val vecs = Seq(SparseVec(-5, 3, 12), SparseVec(Int.MinValue, 0, Int.MaxValue),
      SparseVec(3, 12), SparseVec(-5, -1), SparseVec(10, 11, 12), SparseVec.empty,
      SparseVec(Int.MaxValue), SparseVec(-5, 3, 12), SparseVec(1, 2, 3))
    def items() = Iterator.fill(4)(vecs).flatten.map(Sofa.freshItem(_, c))
    val out = Sofa.cluster(items(), c)
    assert(NaiveSofa.sameCenters(NaiveSofa.cluster(items(), c), out))
    assert(out.map(_.weight).sum == 4 * vecs.length)
  }

  test("empty stream yields no centers") {
    val c = cfg(2, 100)
    assert(Sofa.cluster(Iterator.empty, c).isEmpty)
  }
}

class GreedyBiclusterSpec extends SparkSpec {

  test("theorem-1 conditions: greedy recovers the planted right clusters") {
    // p in [1/2, 0.99], q ≈ p·s/n, |V_i| = s = 20 with n = 600.
    val inst = TestGraphs.planted(k = 4, ell = 60, n = 600, r = 20,
      p = 0.8, q = 0.8 * 20 / 600 / 4, seed = 11L)
    // α between intra distance (~2·s·p(1−p) + 2nq(1−q) ≈ 14) and inter (~s·p ≈ 30).
    val res = GreedyBicluster.run(inst.vectors.iterator, alphaDist = 22.0,
      theta = 0.6, mgCapacity = 600)
    assert(res.centers.length == 4, s"expected 4 centers, got ${res.centers.length}")
    val q = Metrics.qualityQRight(inst.rightClusters, res.clusters.toSeq)
    assert(q > 0.9, s"expected exact-ish recovery, got Q=$q")
  }

  test("alpha too small opens too many centers") {
    val inst = TestGraphs.planted(k = 3, ell = 30, n = 300, r = 15,
      p = 0.8, q = 0.01, seed = 12L)
    val res = GreedyBicluster.run(inst.vectors.iterator, alphaDist = 1.0,
      theta = 0.5, mgCapacity = 300)
    assert(res.centers.length > 3)
  }

  test("alpha too large collapses everything into one center") {
    val inst = TestGraphs.planted(k = 3, ell = 30, n = 300, r = 15,
      p = 0.8, q = 0.01, seed = 13L)
    val res = GreedyBicluster.run(inst.vectors.iterator, alphaDist = 1e9,
      theta = 0.5, mgCapacity = 300)
    assert(res.centers.length == 1)
    assert(res.centers.head.weight == inst.vectors.length)
  }

  test("per-center counts equal exact column frequencies when capacity suffices") {
    val inst = TestGraphs.planted(k = 1, ell = 50, n = 100, r = 10,
      p = 0.7, q = 0.0, seed = 14L)
    val res = GreedyBicluster.run(inst.vectors.iterator, alphaDist = 1e9,
      theta = 0.5, mgCapacity = 200)
    val mg = res.centers.head.mg
    val exact = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
    inst.vectors.foreach(_.idx.foreach(j => exact(j) += 1))
    exact.foreach { case (j, f) => assert(mg.estimate(j) == f) }
  }
}
