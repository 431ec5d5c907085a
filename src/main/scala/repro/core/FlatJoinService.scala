package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** The per-query baseline of §4.1: evaluate each query of the batch
  * separately over the natural join of the database, with no cross-query
  * sharing — the workload handed to MonetDB and DBX in the paper ("the same
  * list of queries as LMFAO, which may have multiple aggregates per query").
  *
  * `cached = true` materializes the join once and reuses it (DBX-style, also
  * the "two-step" ML baseline's training-set materialization); `cached =
  * false` recomputes the join for every query (MonetDB-style).
  */
final class FlatJoinService(spark: SparkSession, tree: JoinTree, dfs: Map[String, DataFrame],
                            cached: Boolean = true) extends AggService {

  private var joinedCache: Option[DataFrame] = None

  /** The full natural join, built along a BFS order of the tree. */
  def joined: DataFrame = joinedCache match {
    case Some(j) => j
    case None =>
      val j0 = FlatJoinService.fullJoin(tree, dfs)
      val j  = if (cached) { val p = j0.persist(StorageLevel.MEMORY_AND_DISK); p.count(); p } else j0
      joinedCache = Some(j); j
  }

  /** Evaluate a single query over the join. */
  def runOne(q: AggQuery): DataFrame = {
    val aggCols = q.aggs.map(a => sum(a.productCol).as(a.name))
    joined.groupBy(q.groupBy.map(col): _*).agg(aggCols.head, aggCols.tail: _*)
  }

  def run(batch: Seq[AggQuery]): Map[String, DataFrame] =
    batch.map(q => q.name -> runOne(q)).toMap

  override def close(): Unit = {
    if (cached) joinedCache.foreach(_.unpersist(blocking = false))
    joinedCache = None
  }
}

object FlatJoinService {
  /** Natural join of all relations along a BFS order of the join tree, so
    * each joined relation shares attributes with the running prefix.
    */
  def fullJoin(tree: JoinTree, dfs: Map[String, DataFrame],
               from: Option[String] = None): DataFrame = {
    val order = tree.bfsOrder(from.getOrElse(tree.relations.head.name))
    order.map(dfs).reduce { (a, b) =>
      val common = a.columns.toSeq.intersect(b.columns.toSeq)
      require(common.nonEmpty, "BFS join order produced a cross join")
      a.join(b, common, "inner")
    }
  }
}
