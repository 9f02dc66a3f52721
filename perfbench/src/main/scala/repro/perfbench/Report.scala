package repro.perfbench

import scala.collection.immutable.ListMap

/** Turns the samples of a run into the metrics of BENCHMARK.json. */
object Report {

  type Metrics = ListMap[String, (Double, String)]

  /** Op index of the single-threaded baseline in the trace. */
  val BaselineOp: Int = -100

  /** Layers whose spans run Spark jobs; each gets the task metrics. */
  val SparkLayers: Seq[String] = Seq("bipartite", "first_pass", "second_pass", "metrics", "stream")

  /** Layers that share a workload's pipeline time. */
  val PipelineLayers: Seq[String] = Seq("first_pass", "postprocess", "second_pass", "metrics", "stream")

  /** Spans whose metric is their whole time: the benchmark may split them
    * into child spans. Every other span reports its self time.
    */
  val Inclusive: Set[String] = Set("first_pass", "second_pass.top_k", "stream.update")

  val Spans: Seq[String] = Seq(
    "bipartite.generate", "bipartite.stats",
    "first_pass", "first_pass.map", "first_pass.merge",
    "sofa.cluster_1t",
    "postprocess.kmedians", "postprocess.per_center",
    "second_pass.top_k", "second_pass.cover_candidates", "second_pass.cover_topk",
    "second_pass.assign_bicluster",
    "metrics.bmf_quality", "metrics.quality_q_left", "metrics.quality_q_right",
    "stream.update", "stream.batch_first_pass", "stream.state_merge")

  val Counts: Seq[String] = Seq(
    "first_pass.partition_centers", "first_pass.centers", "sofa.cluster_1t_centers",
    "postprocess.candidates", "second_pass.picks", "stream.centers")

  def metricName(span: String): String = if (span.contains('.')) s"${span}_s" else s"$span.s"

  def quantile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val pos = p * (s.length - 1)
      val lo = pos.toInt
      if (lo + 1 >= s.length) s(lo) else s(lo) + (pos - lo) * (s(lo + 1) - s(lo))
    }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** The highest percentile with at least ten samples above it. */
  def tail(xs: Seq[Double]): ListMap[String, Any] = {
    val n = xs.length
    if (n <= 10) ListMap("p" -> None, "value" -> None, "n" -> n)
    else {
      val p = math.floor(100.0 * (n - 10) / n)
      ListMap("p" -> p, "value" -> quantile(xs, p / 100), "n" -> n)
    }
  }

  /** Micro-batch latencies; on the batch workloads a batch is a whole op. */
  private def batchMs(ops: Seq[OpResult]): Seq[Double] =
    if (ops.exists(_.batchMs.nonEmpty)) ops.flatMap(_.batchMs) else ops.map(_.seconds * 1000)

  def endToEnd(m: Long, setupS: Seq[Double], ops: Seq[OpResult]): Metrics = {
    def q(name: String) = median(ops.map(_.quality.getOrElse(name, Double.NaN)))
    val streamS = ops.map(r => if (r.batchMs.nonEmpty) r.batchMs.sum / 1000 else r.seconds)
    val batches = batchMs(ops)
    ListMap(
      "setup_s" -> (median(setupS), "s"),
      "pipeline_s" -> (median(ops.map(_.seconds)), "s"),
      "stream_vertices_per_s" -> (median(streamS.map(m / _)), "vertices/s"),
      "batch_p50_ms" -> (quantile(batches, 0.5), "ms"),
      "batch_p90_ms" -> (quantile(batches, 0.9), "ms"),
      "rel_hamming_gain" -> (q("rel_hamming_gain"), "ratio"),
      "recall" -> (q("recall"), "ratio"),
      "quality_q_right" -> (q("quality_q_right"), "ratio"))
  }

  def samples(setupS: Seq[Double], ops: Seq[OpResult]): ListMap[String, Any] = ListMap(
    "samples" -> ListMap(
      "setup_s" -> setupS,
      "pipeline_s" -> ops.map(_.seconds),
      "state_mb" -> ops.map(_.stateMb),
      "batches" -> batchMs(ops).length),
    "tails" -> ListMap(
      "pipeline_s" -> tail(ops.map(_.seconds)),
      "batch_ms" -> tail(batchMs(ops))))

  /** @param ops (op index, result, traced) of every timed op */
  def perLayer(workload: String, tr: Tracer, ops: Seq[(Int, OpResult, Boolean)], slots: Int,
      measuredMb: Double, estimateMb: Double, splits: Splits, splitNotes: Seq[String]): (Metrics, ListMap[String, Any]) = {
    val spans = tr.spans.toIndexedSeq
    val childNs = Array.fill(spans.length)(0L)
    val childGc = Array.fill(spans.length)(0L)
    spans.foreach { s =>
      if (s.parent >= 0) {
        childNs(s.parent) += s.endNs - s.startNs
        childGc(s.parent) += s.gcMs
      }
    }
    def selfS(i: Int) = (spans(i).endNs - spans(i).startNs - childNs(i)) / 1e9
    def layer(name: String) = name.takeWhile(_ != '.')

    // Per op, per metric: the sum over that op's spans or counts.
    val perOp: Map[Int, Map[String, Double]] = {
      val times = spans.indices.map { i =>
        val s = spans(i)
        (s.op, metricName(s.name), if (Inclusive(s.name)) s.seconds else selfS(i))
      }
      val layerWork = spans.indices.flatMap { i =>
        val s = spans(i)
        val l = layer(s.name)
        Seq((s.op, s"$l.self_s", selfS(i)), (s.op, s"$l.gc_s", (s.gcMs - childGc(i)) / 1e3))
      }
      val sparkWork = tr.tasks.toSeq.flatMap { case (op, groups) =>
        groups.toSeq.filter(_._1.nonEmpty).flatMap { case (g, t) =>
          val l = layer(g)
          Seq((op, s"$l.spark_tasks", t.tasks.toDouble), (op, s"$l.spark_task_s", t.runMs / 1e3),
            (op, s"$l.shuffle_bytes", t.shuffleBytes.toDouble), (op, s"$l.result_bytes", t.resultBytes.toDouble))
        }
      }
      (times ++ layerWork ++ sparkWork ++ tr.counts).groupBy(_._1).map { case (op, xs) =>
        op -> xs.groupBy(_._2).map { case (name, ys) => name -> ys.map(_._3).sum }
      }
    }
    val withBusy = perOp.map { case (op, ms) =>
      op -> (ms ++ SparkLayers.flatMap { l =>
        ms.get(s"$l.self_s").filter(_ > 0).map(self =>
          s"$l.busy_ratio" -> ms.getOrElse(s"$l.spark_task_s", 0.0) / (self * slots))
      })
    }
    def value(name: String): Option[Double] = {
      val xs = withBusy.values.flatMap(_.get(name)).toSeq
      if (xs.isEmpty) None else Some(median(xs))
    }

    val traced = ops.filter(_._3)
    val untraced = ops.filterNot(_._3).map(_._2)
    // Top-level spans of a traced op cover its pipeline time, up to the
    // benchmark's own bookkeeping between them.
    val coverage = traced.map { case (op, r, _) =>
      spans.filter(s => s.op == op && s.parent < 0).map(_.seconds).sum / r.seconds
    }
    val shares = ListMap(PipelineLayers.flatMap { l =>
      val xs = traced.flatMap { case (op, r, _) => withBusy.get(op).flatMap(_.get(s"$l.self_s")).map(_ / r.seconds) }
      if (xs.isEmpty) None else Some(l -> median(xs))
    }: _*)

    val names: Seq[(String, String)] =
      Spans.map(s => metricName(s) -> "s") ++ Counts.map(_ -> "count") ++
        SparkLayers.flatMap(l => Seq(s"$l.spark_tasks" -> "count", s"$l.spark_task_s" -> "s",
          s"$l.busy_ratio" -> "ratio", s"$l.shuffle_bytes" -> "bytes", s"$l.result_bytes" -> "bytes",
          s"$l.gc_s" -> "s")) :+ ("postprocess.gc_s" -> "s")
    val absent = names.collect { case (n, _) if value(n).isEmpty => n }
    val metrics = ListMap(names.map { case (n, unit) => n -> (value(n).getOrElse(0.0), unit) }: _*) ++ ListMap(
      "state.estimate_mb" -> (estimateMb, "MB"),
      "state.measured_mb" -> (measuredMb, "MB"),
      "state.measured_over_estimate" -> (measuredMb / estimateMb, "ratio"),
      "trace.overhead_s" -> (median(traced.map(_._2.seconds)) - median(untraced.map(_.seconds)), "s"),
      "trace.span_coverage" -> (median(coverage), "ratio"))
    val extra = ListMap[String, Any](
      "trace" -> ListMap(
        "traced_pipeline_s" -> traced.map(_._2.seconds), "untraced_pipeline_s" -> untraced.map(_.seconds),
        "splits" -> ListMap("first_pass" -> splits.firstPass, "top_k" -> splits.topK, "update" -> splits.update),
        "split_notes" -> splitNotes,
        "layer_share_of_pipeline" -> shares,
        "absent" -> ListMap(absent.map(n => n -> s"no span or count for it on $workload"): _*),
        "spans" -> spans.length))
    (metrics, extra)
  }
}

/** A minimal JSON writer for the report and result lines. */
object Json {
  private def quote(s: String): String =
    s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")

  def apply(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => apply(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }
}
