package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{PerfbenchAccess, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** One call into a layer. `parent` indexes the enclosing span (-1 at the
  * top) and `op` is the repetition the span belongs to; negative `op`s
  * are set-ups and the single-threaded baseline.
  */
final case class Span(name: String, parent: Int, op: Int, startNs: Long, endNs: Long, gcMs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spark task totals of one job group. Shuffle bytes are read plus written. */
final case class TaskTotals(tasks: Long, runMs: Long, shuffleBytes: Long, resultBytes: Long) {
  def +(o: TaskTotals): TaskTotals =
    TaskTotals(tasks + o.tasks, runMs + o.runMs, shuffleBytes + o.shuffleBytes, resultBytes + o.resultBytes)
  def -(o: TaskTotals): TaskTotals =
    TaskTotals(tasks - o.tasks, runMs - o.runMs, shuffleBytes - o.shuffleBytes, resultBytes - o.resultBytes)
}

object TaskTotals { val zero: TaskTotals = TaskTotals(0L, 0L, 0L, 0L) }

/** Sums task metrics per job group. Each span sets its name as the job
  * group before it calls into the program, so the totals of a group are
  * the Spark work done inside that span and not inside a child span.
  */
final class GroupListener extends SparkListener {
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val totals = mutable.Map.empty[String, TaskTotals]

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    e.stageIds.foreach(stageGroup.put(_, group))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    val t =
      if (m == null) TaskTotals(1L, 0L, 0L, 0L)
      else TaskTotals(1L, m.executorRunTime,
        m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten, m.resultSize)
    val group = stageGroup.getOrDefault(e.stageId, "")
    synchronized { totals(group) = totals.getOrElse(group, TaskTotals.zero) + t }
  }

  def snapshot(): Map[String, TaskTotals] = synchronized(totals.toMap)
}

/** Records spans and counts around the benchmark's calls into the
  * program, and the Spark task totals of each repetition. Spans are kept
  * in memory and read when the run ends. A disabled tracer only runs the
  * bodies, so untraced repetitions pay nothing for it.
  */
final class Tracer(val enabled: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  /** (op, name, value) */
  val counts = mutable.ArrayBuffer.empty[(Int, String, Double)]
  /** Per traced op: job group -> task totals. */
  val tasks = mutable.Map.empty[Int, Map[String, TaskTotals]]

  private var sc: SparkContext = _
  private var listener: GroupListener = _
  private var before = Map.empty[String, TaskTotals]
  private var op = 0
  private var recording = false
  private var open = List.empty[Int]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  private def gcMs(): Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Follows a new Spark context; a traced run registers its listener on it. */
  def attach(ctx: SparkContext): Unit = {
    sc = ctx
    if (enabled) {
      listener = new GroupListener
      ctx.addSparkListener(listener)
    }
  }

  /** Starts op `i`; it is recorded if this tracer is enabled and `record`. */
  def begin(i: Int, record: Boolean): Unit = {
    op = i
    recording = enabled && record
    if (recording) before = drained()
  }

  def end(): Unit = if (recording) {
    val now = drained()
    tasks(op) = now.map { case (g, t) => g -> (t - before.getOrElse(g, TaskTotals.zero)) }.filter(_._2.tasks > 0)
    recording = false
  }

  private def drained(): Map[String, TaskTotals] = {
    PerfbenchAccess.drainListeners(sc)
    listener.snapshot()
  }

  def span[A](name: String)(body: => A): A =
    if (!recording) body
    else {
      val parent = open.headOption.getOrElse(-1)
      val idx = spans.length
      spans += Span(name, parent, op, 0L, 0L, 0L)
      open = idx :: open
      sc.setJobGroup(name, name)
      val gc0 = gcMs()
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        spans(idx) = Span(name, parent, op, t0, t1, gcMs() - gc0)
        open = open.tail
        if (parent >= 0) sc.setJobGroup(spans(parent).name, spans(parent).name)
        else sc.clearJobGroup()
      }
    }

  def count(name: String, value: Double): Unit =
    if (recording) counts += ((op, name, value))
}

object Tracer {
  def off: Tracer = new Tracer(false)
}
