package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core._
import repro.data.Bipartite
import repro.exp.StateSize

/** What one repetition produced.
  *
  * @param seconds   from the cached input to the final quality numbers
  * @param batchMs   latency of each micro-batch update (stream-fold only)
  * @param batchFailures failed checks of single micro-batches
  * @param quality   every quality number, by metric name
  * @param stateMb   `StateSize.sofa` of the centers (peak over batches on a stream)
  * @param failures  failed output checks of the repetition
  * @param picks     (vertex, cluster) pairs of the final assignment;
  *                  evaluated after the repetition, in traced runs only
  */
final case class OpResult(
    seconds: Double,
    batchMs: Seq[Double],
    batchFailures: Seq[String],
    quality: Map[String, Double],
    stateMb: Double,
    centers: IndexedSeq[Sofa.Center],
    failures: Seq[String],
    picks: () => Long,
)

/** One workload: its set-up runs in the constructor, under `tr`. */
abstract class Workload(implicit val spark: SparkSession) {
  /** The whole vertex stream. */
  protected def left: Dataset[LeftVertex]
  protected def cfg: Sofa.Config
  /** Left vertices in the stream, `m`. */
  def vertices: Long
  /** Partitions of the input; the outputs depend on it. */
  def partitions: Int = left.rdd.getNumPartitions
  def run(tr: Tracer, splits: Splits): OpResult
  /** Runs each split once beside its wrapped call; returns the splits
    * that reproduce it and a note for each one that does not.
    */
  def checkSplits(): (Splits, Seq[String])

  /** The single-threaded first pass: `Sofa.cluster` on the driver over
    * the collected stream, in traced runs.
    */
  def baseline(tr: Tracer): Unit = {
    val items = left.collect()
    val centers = tr.span("sofa.cluster_1t")(
      Sofa.cluster(items.iterator.map(lv => Sofa.freshItem(lv.vec, cfg)), cfg))
    tr.count("sofa.cluster_1t_centers", centers.length)
  }

  def release(): Unit
}

/** The workloads. Each is sized to about three seconds per repetition on
  * a 4-core machine, so that a run of twenty seconds holds six or more
  * after the warm-up; perfbench/README.md says why each exists.
  */
object Workloads {
  val names: Seq[String] = Seq("bmf-linesearch", "bicluster-planted", "stream-fold")

  /** The line search of the `sofa` cell in RealWorldGrid. */
  val Thetas: Seq[Double] = Seq(0.3, 0.4, 0.5, 0.6, 0.7)
  /** θ of the biclustering workloads. */
  val Theta = 0.5
  /** Q_right floor of SofaPlantedSpec and SofaStreamSpec. */
  val PlantedFloor = 0.6

  def setup(name: String, seed: Long, tr: Tracer)(implicit spark: SparkSession): Workload = name match {
    case "bmf-linesearch" => new BmfLineSearch(seed, tr)
    case "bicluster-planted" => new BiclusterPlanted(seed, tr)
    case "stream-fold" => new StreamFold(seed, tr)
  }

  /** Sketch counters `max(3·P99, 0.05·n)`, as in RealWorldGrid. */
  def counters(st: Bipartite.DatasetStats, nRight: Int): Int =
    math.max(3 * math.max(1, st.p99Deg), (0.05 * nRight).toInt).max(8)

  def generate(tr: Tracer)(make: => Bipartite.Planted): Bipartite.Planted =
    tr.span("bipartite.generate") {
      val p = make
      p.left.cache().count()
      p.leftTruth.cache().count()
      p
    }

  def countPicks(assign: Dataset[LeftAssignment])(implicit spark: SparkSession): Long = {
    import spark.implicits._
    assign.map(_.clusters.length.toLong).reduce(_ + _)
  }

  /** Output checks shared by the workloads; each failure is a message. */
  def checks(centers: IndexedSeq[Sofa.Center], m: Long, kept: Int, k: Int, q: Metrics.BmfQuality): Seq[String] = {
    val f = ArrayBuffer.empty[String]
    val weight = centers.map(_.weight).sum
    if (weight != m) f += s"total center weight $weight != m = $m"
    if (kept > k) f += s"$kept clusters kept, k = $k"
    if (!(q.recall >= q.relativeHammingGain && q.relativeHammingGain > 0))
      f += s"recall ${q.recall} >= gain ${q.relativeHammingGain} > 0 does not hold"
    f.toSeq
  }

  def plantedFloor(qRight: Double): Seq[String] =
    if (qRight > PlantedFloor) Nil else Seq(s"Q_right $qRight is not above $PlantedFloor")

  /** Second pass and quality of a biclustering: the assignments are
    * cached because three quality measures read them.
    */
  def evaluateBicluster(planted: Bipartite.Planted, rights: Array[SparseVec], tr: Tracer)(
      implicit spark: SparkSession): (Dataset[LeftAssignment], Map[String, Double], Metrics.BmfQuality) = {
    val assign = tr.span("second_pass.assign_bicluster") {
      val a = SecondPass.assignBicluster(planted.left, rights).cache()
      a.count()
      a
    }
    val qRight = tr.span("metrics.quality_q_right")(
      Metrics.qualityQRight(planted.rightClusters.toSeq, rights.toSeq))
    val qLeft = tr.span("metrics.quality_q_left")(Metrics.qualityQLeft(planted.leftTruth, assign))
    val q = tr.span("metrics.bmf_quality")(Metrics.bmfQuality(planted.left, assign, rights))
    (assign, Map(
      "rel_hamming_gain" -> q.relativeHammingGain, "recall" -> q.recall,
      "quality_q_right" -> qRight, "quality_q_left" -> qLeft), q)
  }

  def release(planted: Bipartite.Planted): Unit = {
    planted.left.unpersist(blocking = true)
    planted.leftTruth.unpersist(blocking = true)
  }
}

import Workloads._

/** The `sofa` cell of Tables 2–4 on the Wiki surrogate: first pass, then
  * per θ the per-center candidates, the top-k cover and the BMF quality.
  * Wiki is generated at 1/500 of the paper's size instead of the
  * surrogates' 1/50, and k = 5, so that a repetition takes seconds.
  */
final class BmfLineSearch(seed: Long, tr: Tracer)(implicit spark: SparkSession) extends Workload {
  private val k = 5
  private val planted = generate(tr)(
    Bipartite.surrogate(spark, Bipartite.Surrogates("Wiki").copy(seed = seed, scale = 500)))
  protected val left = planted.left
  private val st = tr.span("bipartite.stats")(Bipartite.stats(left, planted.nRight))
  protected val cfg = Sofa.Config(k = k, cMax = math.max(k + 1, math.min(20 * k, st.mU.toInt / 4)),
    nRight = planted.nRight, mgCapacity = counters(st, planted.nRight))

  def vertices: Long = st.mU

  def run(tr: Tracer, splits: Splits): OpResult = {
    val t0 = System.nanoTime()
    val centers = Calls.firstPass(left, cfg, tr, splits.firstPass)
    val perTheta = Thetas.map { theta =>
      val cand = tr.span("postprocess.per_center")(Sofa.postprocessPerCenter(centers, theta).filter(_.nnz > 0))
      tr.count("postprocess.candidates", cand.length)
      if (cand.isEmpty) (Array.empty[SparseVec], None, Metrics.BmfQuality(0L, 0L, st.edges))
      else {
        val (kept, assign) = Calls.topK(left, cand, k, tr, splits.topK)
        (kept, Some(assign), tr.span("metrics.bmf_quality")(Metrics.bmfQuality(left, assign, kept)))
      }
    }
    val (kept, assign, q) = perTheta.maxBy(_._3.relativeHammingGain)
    val qRight = tr.span("metrics.quality_q_right")(
      Metrics.qualityQRight(planted.rightClusters.toSeq, kept.toSeq))
    val seconds = (System.nanoTime() - t0) / 1e9
    OpResult(seconds, Nil, Nil,
      Map("rel_hamming_gain" -> q.relativeHammingGain, "recall" -> q.recall, "quality_q_right" -> qRight),
      StateSize.sofa(centers), centers, checks(centers, st.mU, kept.length, k, q),
      () => assign.map(countPicks).getOrElse(0L))
  }

  def checkSplits(): (Splits, Seq[String]) = {
    val wrapped = SofaDistributed.firstPass(left, cfg)
    val fpOk = Calls.sameCenters(wrapped, Calls.firstPass(left, cfg, Tracer.off, split = true))
    val cand = Sofa.postprocessPerCenter(wrapped, Theta).filter(_.nnz > 0)
    val topOk = cand.nonEmpty &&
      SecondPass.topKBmf(left, cand, k)._1.sameElements(Calls.topK(left, cand, k, Tracer.off, split = true)._1)
    (Splits(firstPass = fpOk, topK = topOk, update = false),
      (if (fpOk) Nil else Seq("first_pass split does not reproduce SofaDistributed.firstPass")) ++
        (if (topOk) Nil else Seq("second_pass split does not reproduce SecondPass.topKBmf")))
  }

  def release(): Unit = Workloads.release(planted)
}

/** The planted model of Section 2.1 through the biclustering pipeline:
  * first pass, k-medians postprocessing, assignment, quality. The
  * ground truth makes the quality check exact.
  */
final class BiclusterPlanted(seed: Long, tr: Tracer)(implicit spark: SparkSession) extends Workload {
  private val pp = Bipartite.PlantedParams(k = 10, ell = 300, n = 3000, seed = seed)
  private val planted = generate(tr)(Bipartite.planted(spark, pp))
  protected val left = planted.left
  private val st = tr.span("bipartite.stats")(Bipartite.stats(left, planted.nRight))
  // c_max = 50k rather than 20k: at this small m it keeps the first pass
  // the largest share of the pipeline, as it is at the paper's sizes.
  protected val cfg = Sofa.Config(k = pp.k, cMax = 50 * pp.k, nRight = planted.nRight,
    mgCapacity = counters(st, planted.nRight))

  def vertices: Long = st.mU

  def run(tr: Tracer, splits: Splits): OpResult = {
    val t0 = System.nanoTime()
    val centers = Calls.firstPass(left, cfg, tr, splits.firstPass)
    val rights = tr.span("postprocess.kmedians")(Sofa.postprocessKMedians(centers, cfg, Seq(Theta))(Theta))
    val (assign, quality, q) = evaluateBicluster(planted, rights, tr)
    val seconds = (System.nanoTime() - t0) / 1e9
    assign.unpersist(blocking = true)
    OpResult(seconds, Nil, Nil, quality, StateSize.sofa(centers), centers,
      checks(centers, st.mU, rights.length, pp.k, q) ++ plantedFloor(quality("quality_q_right")),
      () => st.mU)
  }

  def checkSplits(): (Splits, Seq[String]) = {
    val ok = Calls.sameCenters(SofaDistributed.firstPass(left, cfg),
      Calls.firstPass(left, cfg, Tracer.off, split = true))
    (Splits(firstPass = ok, topK = false, update = false),
      if (ok) Nil else Seq("first_pass split does not reproduce SofaDistributed.firstPass"))
  }

  def release(): Unit = Workloads.release(planted)
}

/** A planted graph fed to `SofaStreamState.update` as micro-batches in
  * vertex order, by one client that sends the next batch when the
  * previous update returns (a closed loop); then the right clusters,
  * the assignment and the quality of the final state.
  */
final class StreamFold(seed: Long, tr: Tracer)(implicit spark: SparkSession) extends Workload {
  // c_max = 160 makes the state merge the larger part of an update; with
  // a smaller state, two Spark jobs per batch dominate and the batch
  // latency follows the machine's scheduling noise.
  private val pp = Bipartite.PlantedParams(k = 5, ell = 160, n = 1000, seed = seed)
  private val batchSize = 40
  private val cMax = 160
  private val planted = generate(tr)(Bipartite.planted(spark, pp))
  protected val left = planted.left
  private val st = tr.span("bipartite.stats")(Bipartite.stats(left, planted.nRight))
  protected val cfg = Sofa.Config(k = pp.k, cMax = cMax, nRight = planted.nRight,
    mgCapacity = counters(st, planted.nRight))
  private val batches: Seq[Dataset[LeftVertex]] = {
    import spark.implicits._
    left.collect().sortBy(_.u).grouped(batchSize).map(b => spark.createDataset(b.toSeq)).toVector
  }

  def vertices: Long = st.mU

  private def fold(tr: Tracer, split: Boolean, batches: Seq[Dataset[LeftVertex]] = batches)
      : (Calls.Fold, Seq[Double], Seq[String], Double) = {
    val fold = if (split) new Calls.SplitFold(cfg) else new Calls.WrappedFold(cfg)
    val batchMs = ArrayBuffer.empty[Double]
    val failures = ArrayBuffer.empty[String]
    var fed = 0L
    var peakMb = 0.0
    batches.zipWithIndex.foreach { case (b, i) =>
      val t0 = System.nanoTime()
      fold.update(b, tr)
      batchMs += (System.nanoTime() - t0) / 1e6
      fed += batchSize
      val weight = fold.centers.map(_.weight).sum
      if (fold.seen != fed || weight != fed || fold.centers.length >= cfg.cMax)
        failures += s"batch $i: seen ${fold.seen}, center weight $weight, ${fold.centers.length} centers after $fed vertices"
      peakMb = math.max(peakMb, StateSize.sofa(fold.centers))
    }
    (fold, batchMs.toSeq, failures.toSeq, peakMb)
  }

  def run(tr: Tracer, splits: Splits): OpResult = {
    val t0 = System.nanoTime()
    val (state, batchMs, batchFailures, peakMb) = fold(tr, splits.update)
    tr.count("stream.centers", state.centers.length)
    val rights = tr.span("postprocess.kmedians")(state.rightClusters(Theta))
    val (assign, quality, q) = evaluateBicluster(planted, rights, tr)
    val seconds = (System.nanoTime() - t0) / 1e9
    assign.unpersist(blocking = true)
    val seen = if (state.seen == st.mU) Nil else Seq(s"verticesSeen ${state.seen} != m = ${st.mU}")
    OpResult(seconds, batchMs, batchFailures, quality, peakMb, state.centers,
      checks(state.centers, st.mU, rights.length, pp.k, q) ++ seen ++ plantedFloor(quality("quality_q_right")),
      () => st.mU)
  }

  def checkSplits(): (Splits, Seq[String]) = {
    // A prefix is enough to compare the two paths, and keeps the check short.
    val prefix = batches.take(10)
    val ok = Calls.sameCenters(fold(Tracer.off, split = false, prefix)._1.centers,
      fold(Tracer.off, split = true, prefix)._1.centers)
    (Splits(firstPass = false, topK = false, update = ok),
      if (ok) Nil else Seq("stream split does not reproduce SofaStreamState.update"))
  }

  def release(): Unit = Workloads.release(planted)
}
