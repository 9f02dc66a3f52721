package repro.stream

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream

import repro.SparkSpec
import repro.core.{LeftVertex, Metrics, NaiveSofa, SecondPass, Sofa, SofaDistributed}
import repro.data.Bipartite

class SofaStreamSpec extends SparkSpec {
  implicit lazy val s: SparkSession = spark

  private lazy val planted = Bipartite.planted(spark, Bipartite.PlantedParams(
    k = 4, ell = 50, n = 400, r = 12, p = 0.9, expectedNoiseDeg = 3.0, seed = 37L))
  private lazy val vertices: Array[LeftVertex] = planted.left.collect().sortBy(_.u)

  private def cfg: Sofa.Config =
    Sofa.Config(k = 4, cMax = 24, nRight = planted.nRight, mgCapacity = 400)

  test("state update folds batches and preserves stream weight") {
    import s.implicits._
    val state = new SofaStreamState(cfg)
    vertices.grouped(60).foreach { batch =>
      state.update(s.createDataset(batch.toSeq))
    }
    assert(state.verticesSeen == vertices.length)
    assert(state.centers.map(_.weight).sum == vertices.length)
    assert(state.centers.length < cfg.cMax)
  }

  test("incremental batches reach quality close to one-shot clustering") {
    import s.implicits._
    val state = new SofaStreamState(cfg)
    vertices.grouped(40).foreach(b => state.update(s.createDataset(b.toSeq)))
    val qStream = Metrics.qualityQRight(
      planted.rightClusters.toSeq, state.rightClusters(0.5).toSeq)

    val oneShot = SofaDistributed.firstPass(planted.left, cfg)
    val qBatch = Metrics.qualityQRight(
      planted.rightClusters.toSeq,
      Sofa.postprocessKMedians(oneShot, cfg, Seq(0.5))(0.5).toSeq)

    assert(qStream > 0.6, s"stream Q=$qStream (batch Q=$qBatch)")
    assert(qStream > qBatch - 0.3, s"stream Q=$qStream much worse than batch Q=$qBatch")
  }

  test("candidateClusters exposes the per-center BMF view") {
    import s.implicits._
    val state = new SofaStreamState(cfg)
    state.update(s.createDataset(vertices.toSeq))
    val cand = state.candidateClusters(0.5)
    assert(cand.length <= state.centers.length)
    assert(cand.forall(_.nnz > 0))
  }

  test("empty batch is a no-op") {
    import s.implicits._
    val state = new SofaStreamState(cfg)
    val empty = s.createDataset(Seq.empty[LeftVertex])
    state.update(empty)
    assert(state.verticesSeen == 0 && state.centers.isEmpty)

    // Between two batches it changes nothing either.
    val (a, b) = vertices.splitAt(vertices.length / 2)
    val withEmpty = new SofaStreamState(cfg)
    Seq(s.createDataset(a.toSeq), empty, s.createDataset(b.toSeq)).foreach(withEmpty.update(_))
    val without = new SofaStreamState(cfg)
    Seq(s.createDataset(a.toSeq), s.createDataset(b.toSeq)).foreach(without.update(_))
    assert(withEmpty.verticesSeen == without.verticesSeen)
    assert(NaiveSofa.sameCenters(withEmpty.centers, without.centers))
  }

  test("structured streaming via MemoryStream drives the state end-to-end") {
    import s.implicits._
    implicit val sql: org.apache.spark.sql.SQLContext = s.sqlContext
    val mem = MemoryStream[LeftVertex]
    val state = new SofaStreamState(cfg)
    val query = SofaStream.start(mem.toDS(), state, queryName = "sofa-test")
    try {
      vertices.grouped(50).foreach { batch =>
        mem.addData(batch.toSeq)
        query.processAllAvailable()
      }
    } finally query.stop()
    assert(state.verticesSeen == vertices.length)
    val rights = state.rightClusters(0.5)
    val q = Metrics.qualityQRight(planted.rightClusters.toSeq, rights.toSeq)
    assert(q > 0.6, s"streaming Q=$q")
    // Second pass over the (static) stream still works on the result.
    val assign = SecondPass.assignBicluster(planted.left, rights)
    assert(assign.collect().length == vertices.length)
  }
}
