package repro.perfbench

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.util.SizeEstimator

import repro.exp.StateSize

/** Runs one workload for a fixed time and prints two JSON lines: a report
  * with the environment, the samples behind every number, the failed
  * checks and the trace, then the result line
  * `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an output
  * check fails.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  */
object Main {

  /** Set-ups per run; `setup_s` is their median, so the first, cold one
    * does not decide it.
    */
  val SetupReps = 4
  /** Untimed ops before measuring. The JIT keeps speeding ops up for
    * 15–25 s of a fresh JVM; timing ops on that slope makes the medians
    * depend on how far it got.
    */
  val WarmupSeconds = 15.0
  /** Spark slots. Outputs depend on the partition count, so it is pinned. */
  val MaxSlots = 4

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1")
    require(Workloads.names.contains(a.workload),
      s"unknown workload ${a.workload}; know ${Workloads.names.mkString(", ")}")
    a
  }

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args))
      catch {
        case NonFatal(e) =>
          e.printStackTrace()
          2
      }
    sys.exit(code)
  }

  private def session(master: String): SparkSession =
    SparkSession.builder.master(master).appName("perfbench").config("spark.ui.enabled", "false").getOrCreate()

  def run(a: Args): Int = {
    val slots = math.min(MaxSlots, Runtime.getRuntime.availableProcessors)
    val master = s"local[$slots]"
    val tr = new Tracer(a.trace)

    // Set up several times, each with a fresh Spark session; the last one stays.
    var spark: SparkSession = null
    var wl: Workload = null
    val setupS = (1 to SetupReps).map { i =>
      if (wl != null) { wl.release(); spark.stop() }
      val t0 = System.nanoTime()
      spark = session(master)
      tr.attach(spark.sparkContext)
      tr.begin(-i, record = true)
      wl = Workloads.setup(a.workload, a.seed, tr)(spark)
      tr.end()
      (System.nanoTime() - t0) / 1e9
    }
    try measure(a, wl, tr, spark, master, setupS)
    finally spark.stop()
  }

  private def measure(a: Args, wl: Workload, tr: Tracer, spark: SparkSession, master: String,
      setupS: Seq[Double]): Int = {
    val failures = ArrayBuffer.empty[String]
    var attempted = 0L
    var failed = 0L

    // One repetition: an op, plus one op per micro-batch. A thrown
    // exception or a failed check fails it.
    def attempt(i: Int, traced: Boolean, splits: Splits): Option[OpResult] = {
      tr.begin(i, traced)
      val r =
        try {
          val res = wl.run(tr, splits)
          if (traced) tr.count("second_pass.picks", res.picks().toDouble)
          Some(res)
        } catch { case NonFatal(e) => failures += s"op $i threw $e"; None }
      tr.end()
      attempted += 1
      r match {
        case None => failed += 1
        case Some(res) =>
          attempted += res.batchMs.length
          failed += res.batchFailures.length
          failures ++= res.batchFailures.map(f => s"op $i $f")
          if (res.failures.nonEmpty) { failed += 1; failures ++= res.failures.map(f => s"op $i: $f") }
      }
      r
    }

    // Traced runs first check each split against its wrapped call. Then
    // untimed ops warm the JIT and Spark's code generation.
    val (splits, splitNotes) = if (a.trace) wl.checkSplits() else (Splits.none, Nil)
    val warm = ArrayBuffer.empty[OpResult]
    val w0 = System.nanoTime()
    var w = 0
    while (w == 0 || (System.nanoTime() - w0) / 1e9 < WarmupSeconds) {
      attempt(0, traced = false, Splits.none).foreach(warm += _)
      w += 1
    }

    val ops = ArrayBuffer.empty[(Int, OpResult, Boolean)]
    val t0 = System.nanoTime()
    var i = 1
    // A traced run alternates untraced and traced ops, so their difference
    // is the tracing overhead; it needs one of each.
    while (i <= (if (a.trace) 2 else 1) || (System.nanoTime() - t0) / 1e9 < a.seconds) {
      val traced = a.trace && i % 2 == 0
      attempt(i, traced, if (traced) splits else Splits.none).foreach(r => ops += ((i, r, traced)))
      i += 1
    }

    // Quality is deterministic at a fixed partition count: every op must agree.
    val all = warm.toSeq ++ ops.map(_._2)
    all.headOption.foreach { first =>
      all.zipWithIndex.drop(1).filter(_._1.quality != first.quality).foreach { case (r, j) =>
        failed += 1
        failures += s"op $j quality ${r.quality} differs from ${first.quality}"
      }
    }

    val untraced = ops.filterNot(_._3).map(_._2).toSeq
    val env = ListMap(
      "workload" -> a.workload, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
      "nproc" -> Runtime.getRuntime.availableProcessors, "master" -> master,
      "default_parallelism" -> spark.sparkContext.defaultParallelism, "input_partitions" -> wl.partitions,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "jdk" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_digest" -> sys.props.getOrElse("perfbench.sourceDigest", "unknown"))

    val (metrics, extra) =
      if (!a.trace) (Report.endToEnd(wl.vertices, setupS, untraced), Report.samples(setupS, untraced))
      else {
        tr.begin(Report.BaselineOp, record = true)
        wl.baseline(tr)
        tr.end()
        val centers = ops.lastOption.map(_._2.centers).getOrElse(IndexedSeq.empty)
        val measuredMb = SizeEstimator.estimate(centers) / (1024.0 * 1024.0)
        val estimateMb = StateSize.sofa(centers)
        Report.perLayer(a.workload, tr, ops.toSeq, spark.sparkContext.defaultParallelism,
          measuredMb, estimateMb, splits, splitNotes)
      }

    val correct = failed == 0
    val report = ListMap[String, Any](
      "env" -> env, "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "error_rate" -> failed.toDouble / math.max(1L, attempted), "failures" -> failures.take(50).toSeq,
      "quality" -> all.headOption.map(_.quality).getOrElse(Map.empty),
      "warmup_s" -> warm.map(_.seconds).toSeq) ++ extra
    println(Json(ListMap("report" -> report)))
    println(Json(ListMap(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metrics.map { case (name, (value, unit)) => name -> ListMap("value" -> value, "unit" -> unit) })))
    if (correct) 0 else 1
  }
}
