package repro.perfbench

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core._
import repro.stream.SofaStreamState

/** Which composite public calls a traced repetition splits into the
  * inner public calls they make. Untraced repetitions make every call
  * as is.
  */
final case class Splits(firstPass: Boolean, topK: Boolean, update: Boolean)

object Splits {
  val none: Splits = Splits(firstPass = false, topK = false, update = false)
}

/** The benchmark's calls into the program, each inside a span. Three
  * public calls wrap two layers each: `SofaDistributed.firstPass` (the
  * per-partition map and the driver merge), `SecondPass.topKBmf` (the
  * cover of all candidates and the cover of the kept ones) and
  * `SofaStreamState.update` (the batch first pass and the state merge).
  * With a split the benchmark makes their inner public calls itself, in
  * the same order, so each part gets its own span. A workload uses a
  * split only after [[sameCenters]] or an equality of picks showed that
  * it reproduces the wrapped call.
  */
object Calls {

  def firstPass(left: Dataset[LeftVertex], cfg: Sofa.Config, tr: Tracer, split: Boolean)(
      implicit spark: SparkSession): IndexedSeq[Sofa.Center] =
    tr.span("first_pass") {
      val centers =
        if (!split) SofaDistributed.firstPass(left, cfg)
        else {
          val parts = tr.span("first_pass.map")(partitionCenters(left, cfg))
          tr.count("first_pass.partition_centers", parts.length)
          tr.span("first_pass.merge")(Sofa.cluster(parts.iterator.map(_.toCenter(cfg.mgCapacity)), cfg))
        }
      tr.count("first_pass.centers", centers.length)
      centers
    }

  private def partitionCenters(left: Dataset[LeftVertex], cfg: Sofa.Config)(
      implicit spark: SparkSession): Array[PortableCenter] =
    left.mapPartitions { it =>
      Sofa.cluster(it.map(lv => Sofa.freshItem(lv.vec, cfg)), cfg).iterator.map(PortableCenter.from)
    }(PortableCenter.encoder(spark)).collect()

  def topK(left: Dataset[LeftVertex], candidates: Array[SparseVec], k: Int, tr: Tracer, split: Boolean)(
      implicit spark: SparkSession): (Array[SparseVec], Dataset[LeftAssignment]) =
    tr.span("second_pass.top_k") {
      if (!split) SecondPass.topKBmf(left, candidates, k)
      else {
        val (_, scores) = tr.span("second_pass.cover_candidates")(SecondPass.coverBmf(left, candidates))
        tr.span("second_pass.cover_topk") {
          val keep = candidates.indices.sortBy(i => -scores.getOrElse(i, 0L)).take(k).sorted.toArray
          val kept = keep.map(candidates)
          (kept, SecondPass.coverBmf(left, kept)._1)
        }
      }
    }

  /** The stream state as the benchmark drives it. */
  sealed trait Fold {
    def update(batch: Dataset[LeftVertex], tr: Tracer)(implicit spark: SparkSession): Unit
    def centers: IndexedSeq[Sofa.Center]
    def seen: Long
    def rightClusters(theta: Double): Array[SparseVec]
  }

  /** The program's own state, one span per update. */
  final class WrappedFold(cfg: Sofa.Config) extends Fold {
    private val state = new SofaStreamState(cfg)
    def update(batch: Dataset[LeftVertex], tr: Tracer)(implicit spark: SparkSession): Unit =
      tr.span("stream.update")(state.update(batch))
    def centers: IndexedSeq[Sofa.Center] = state.centers
    def seen: Long = state.verticesSeen
    def rightClusters(theta: Double): Array[SparseVec] = state.rightClusters(theta)
  }

  /** `SofaStreamState.update` made from its inner calls. */
  final class SplitFold(cfg: Sofa.Config) extends Fold {
    private var state = IndexedSeq.empty[Sofa.Center]
    private var vertices = 0L
    def update(batch: Dataset[LeftVertex], tr: Tracer)(implicit spark: SparkSession): Unit =
      tr.span("stream.update") {
        if (!batch.isEmpty) {
          val batchCenters = tr.span("stream.batch_first_pass")(SofaDistributed.firstPass(batch, cfg))
          vertices += batchCenters.map(_.weight).sum
          state = tr.span("stream.state_merge")(Sofa.cluster((state ++ batchCenters).iterator, cfg))
        }
      }
    def centers: IndexedSeq[Sofa.Center] = state
    def seen: Long = vertices
    def rightClusters(theta: Double): Array[SparseVec] =
      Sofa.postprocessKMedians(state, cfg, Seq(theta))(theta)
  }

  /** Same representatives, weights and sketches, in the same order. */
  def sameCenters(a: IndexedSeq[Sofa.Center], b: IndexedSeq[Sofa.Center]): Boolean =
    a.length == b.length && a.indices.forall { i =>
      a(i).vec == b(i).vec && a(i).weight == b(i).weight &&
        a(i).mg.totalWeight == b(i).mg.totalWeight &&
        a(i).mg.entries.toSeq.sorted == b(i).mg.entries.toSeq.sorted
    }
}
