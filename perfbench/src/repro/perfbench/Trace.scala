package repro.perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener

/** One timed interval at a layer boundary. Times are milliseconds since the
  * epoch, so spans line up with Spark's own event and planning timestamps.
  */
final case class Span(id: Int, name: String, task: String, parent: Int,
                      startMs: Double, endMs: Double)

/** In-memory span recorder for the traced run. The benchmark thread is the
  * only writer. Each task and span is published to Spark as a local
  * property, so jobs submitted inside it (also from thread pools created
  * inside it, which inherit local properties) can be attributed to it.
  */
final class Tracer(sc: SparkContext) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var nextId = 0
  private var stack: List[Int] = Nil
  private var task = ""

  private val baseMs = System.currentTimeMillis().toDouble
  private val baseNs = System.nanoTime()
  def nowMs: Double = baseMs + (System.nanoTime() - baseNs) / 1e6

  /** Run `body` as the root span of task `taskId`. */
  def task[A](taskId: String, name: String)(body: => A): A = {
    task = taskId
    sc.setLocalProperty(Tracer.TaskProp, taskId)
    try span(name)(body)
    finally { sc.setLocalProperty(Tracer.TaskProp, null); task = "" }
  }

  def span[A](name: String)(body: => A): A = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    sc.setLocalProperty(Tracer.SpanProp, id.toString)
    val t0 = nowMs
    try body
    finally {
      spans += Span(id, name, task, parent, t0, nowMs)
      stack = stack.tail
      sc.setLocalProperty(Tracer.SpanProp, stack.headOption.map(_.toString).orNull)
    }
  }

  /** Adds a span measured elsewhere (Spark's planning phases, actions). */
  def record(name: String, taskId: String, parent: Int, startMs: Double, endMs: Double): Unit = {
    spans += Span(nextId, name, taskId, parent, startMs, endMs); nextId += 1
  }
}

object Tracer {
  val TaskProp = "perfbench.task"
  val SpanProp = "perfbench.span"
}

/** Spark execution counters of one task. */
final class SparkCounts {
  var jobs = 0
  var stages = 0
  var tasks = 0
  var taskMs = 0L
  var gcMs = 0L
  var shuffleBytes = 0L
}

/** Per-task Spark job, stage and task counters from the public listener
  * bus, attributed through the task id local property. Events arrive on the
  * bus thread; read the counters only after [[SparkTrace.quiesce]].
  */
final class SparkTrace extends SparkListener {
  private val byTask = mutable.Map[String, SparkCounts]()
  private val bySpan = mutable.Map[Int, Int]().withDefaultValue(0)
  private val stageTask = mutable.Map[Int, String]()
  private var started = 0
  private var ended = 0
  @volatile private var lastEventNs = System.nanoTime()

  private def touch(): Unit = lastEventNs = System.nanoTime()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    touch(); started += 1
    val task = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.TaskProp)))
    task.foreach { t =>
      byTask.getOrElseUpdate(t, new SparkCounts).jobs += 1
      e.stageIds.foreach(s => stageTask(s) = t)
    }
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProp))).foreach(s => bySpan(s.toInt) += 1)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { touch(); ended += 1 }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    touch()
    stageTask.get(e.stageInfo.stageId).foreach(t => byTask(t).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    touch()
    for (t <- stageTask.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = byTask(t)
      c.tasks += 1
      c.taskMs += m.executorRunTime
      c.gcMs += m.jvmGCTime
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def counts(task: String): SparkCounts = synchronized(byTask.getOrElse(task, new SparkCounts))

  /** Spark jobs started inside each span (innermost span only). */
  def jobsBySpan: Map[Int, Int] = synchronized(bySpan.toMap)

  /** Waits until every started job has ended and the bus has been idle for
    * a moment, so that late events are in. Gives up after `maxMs`.
    */
  def quiesce(maxMs: Long = 15000L): Unit = {
    val deadline = System.nanoTime() + maxMs * 1000000L
    def idle = synchronized(started == ended) && System.nanoTime() - lastEventNs > 300000000L
    while (!idle && System.nanoTime() < deadline) Thread.sleep(50)
  }
}

/** One finished Dataset action: its Catalyst phase times (from
  * `QueryExecution.tracker`), its duration and its output rows.
  */
final case class QueryEvent(func: String, startMs: Double, endMs: Double,
                            catalystMs: Double, durationS: Double, rows: Long)

/** Collects every successful Dataset action through the public
  * `QueryExecutionListener`. Events carry no thread context, so they are
  * attributed to tasks by time: the end of the action's last planning phase
  * falls inside exactly one task window of the closed loop.
  */
final class QueryTrace extends QueryExecutionListener {
  private val events = mutable.ArrayBuffer[QueryEvent]()

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    val phases = qe.tracker.phases.values
    if (phases.nonEmpty) {
      val ev = QueryEvent(funcName, phases.map(_.startTimeMs).min.toDouble,
        phases.map(_.endTimeMs).max.toDouble, phases.map(_.durationMs).sum.toDouble,
        durationNs / 1e9, QueryTrace.outputRows(qe))
      synchronized(events += ev)
    }
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  def within(fromMs: Double, toMs: Double): Seq[QueryEvent] =
    synchronized(events.filter(e => e.endMs >= fromMs && e.endMs <= toMs).toSeq)
}

object QueryTrace {
  import org.apache.spark.sql.execution.SparkPlan
  import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}

  /** Rows returned by an action: the `numOutputRows` metric of the topmost
    * operator that has one (the operators above it only project).
    */
  def outputRows(qe: QueryExecution): Long = {
    def find(p: SparkPlan): Option[Long] = p match {
      case a: AdaptiveSparkPlanExec => find(a.executedPlan)
      case q: QueryStageExec        => find(q.plan)
      case _ => p.metrics.get("numOutputRows").map(_.value)
          .orElse(p.children.headOption.flatMap(find))
    }
    find(qe.executedPlan).getOrElse(0L)
  }
}
