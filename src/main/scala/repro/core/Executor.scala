package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** Result of executing a plan: the per-query outputs and every frame the
  * executor persisted or adopted for it. Call [[close]] to unpersist them.
  */
final class ExecResult(val outputs: Map[String, DataFrame], val persisted: Seq[DataFrame]) {
  private var held = persisted

  /** The frames of [[persisted]] this result still owns: all of them until
    * a later run takes them over or [[close]] releases them.
    */
  private[core] def owned: Seq[DataFrame] = held

  /** Gives `kept` to a later result and releases the rest of the owned
    * frames; afterwards this result owns nothing.
    */
  private[core] def handOver(kept: Seq[DataFrame]): Unit = {
    held.filterNot(f => kept.exists(_ eq f)).foreach(_.unpersist(blocking = false))
    held = Nil
  }

  def close(): Unit = handOver(Nil)
}

/** The Group Views + Multi-Output Optimization + Parallelization layers
  * (§§3.4–3.5), mapped to Catalyst.
  *
  * `run` translates a plan into DataFrames and starts no Spark job. It
  * builds the views in one pass in id order, which the [[Plan]] guarantees
  * is children first:
  *
  *  - each distinct *body* — the relation natural-joined with one set of
  *    incoming views — is built once;
  *  - every view has one body ([[ViewSpec.body]]) and is one multi-aggregate
  *    `groupBy().agg(...)` pass over it, so all its aggregates share the scan
  *    (Catalyst whole-stage codegen compiles the pass to specialized
  *    bytecode — the Compilation layer analogue).
  *
  * One rule decides what is cached: a frame is persisted if and only if
  * more than one frame or output reads it. A body's readers are the views
  * computed over it (a body with no views is the input relation itself and
  * is never persisted); a view's readers are the distinct bodies that join
  * it plus each output that selects it. A body read by several views is the
  * Spark analogue of the paper's single shared trie scan over the common
  * relation; a frame with one reader stays lazy and fuses into that
  * reader's Catalyst plan (the paper's code inlining).
  *
  * Persisted frames are not forced: the first job that reads one fills
  * Spark's cache, and later jobs read the cached blocks.
  * Given the `previous` result, a frame to persist whose plan one of
  * `previous`'s frames already caches (`sameSemantics`, the `sameResult`
  * test Spark's cache lookup uses) is adopted instead: the new frame reads
  * that cache entry, and the entry now belongs to the new result. `run`
  * releases `previous`'s other frames before it returns and leaves
  * `previous` owning nothing, so the cache never holds more than the larger
  * of the two results' frames.
  * The view groups of [[Plan.groups]] are a planning statistic (Table 2's
  * G); parallelism is Spark's partition parallelism within each job.
  */
final class Executor(dfs: Map[String, DataFrame]) {

  /** Natural join on the common column names (cross join if none). */
  private def natJoin(a: DataFrame, b: DataFrame): DataFrame = {
    val common = a.columns.toSeq.intersect(b.columns.toSeq)
    if (common.isEmpty) a.crossJoin(b) else a.join(b, common, "inner")
  }

  private def aggColName(viewId: Int, aggName: String): String = s"v${viewId}_$aggName"

  private def productCol(v: ViewSpec, a: ViewAgg): Column = {
    val cols = a.local.map(_.toCol) ++ v.body.lazyZip(a.children).map((id, agg) => col(aggColName(id, agg)))
    if (cols.isEmpty) lit(1.0d) else cols.reduce(_ * _)
  }

  def run(plan: Plan, previous: Option[ExecResult] = None): ExecResult = {
    // Readers per frame, for the caching rule of the class comment.
    val bodyUse: Map[(String, Seq[Int]), Int] =
      plan.views.groupMapReduce(v => (v.from, v.body))(_ => 1)(_ + _)
    val viewUse: Map[Int, Int] =
      (bodyUse.keys.toSeq.flatMap(_._2) ++ plan.outputs.map(_.view)).groupMapReduce(identity)(_ => 1)(_ + _)

    // Spark's cache is keyed by plan: a frame whose plan another live result
    // already cached reads that entry, and only this run's own entries are
    // released by close(). `previous`'s entries are adopted instead.
    val reusable  = mutable.ArrayBuffer.from(previous.toSeq.flatMap(_.owned))
    val persisted = mutable.ArrayBuffer[DataFrame]()
    def persist(df: DataFrame): DataFrame = {
      reusable.indexWhere(_.sameSemantics(df)) match {
        case -1 if df.storageLevel != StorageLevel.NONE =>
        case -1 => persisted += df.persist(StorageLevel.MEMORY_AND_DISK)
        case i  => persisted += reusable.remove(i)
      }
      df
    }

    val bases = mutable.Map[(String, Seq[Int]), DataFrame]()
    val views = mutable.ArrayBuffer[DataFrame]()

    def baseFor(from: String, body: Seq[Int]): DataFrame =
      bases.getOrElseUpdate((from, body), {
        val b = body.foldLeft(dfs(from))((acc, vid) => natJoin(acc, views(vid)))
        if (bodyUse((from, body)) > 1 && body.nonEmpty) persist(b) else b
      })

    for (v <- plan.views) {
      val aggCols = v.aggs.toSeq.map(a => sum(productCol(v, a)).as(aggColName(v.id, a.name)))
      val df = baseFor(v.from, v.body).groupBy(v.groupBy.map(col): _*).agg(aggCols.head, aggCols.tail: _*)
      views += (if (viewUse.getOrElse(v.id, 0) > 1) persist(df) else df)
    }

    val outputs = plan.outputs.map { o =>
      val cols = o.query.groupBy.map(col) ++
        o.aggNames.map { case (qName, vName) => col(aggColName(o.view, vName)).as(qName) }
      o.query.name -> views(o.view).select(cols: _*)
    }.toMap

    // Everything persisted stays cached until close(): the application's
    // output actions are what fill and read it.
    val own = persisted.toSeq
    previous.foreach(_.handOver(own))
    new ExecResult(outputs, own)
  }
}
