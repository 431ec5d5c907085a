package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A batch-of-aggregates evaluator: the interface the applications (linear
  * regression, CART, mutual information, data cubes) program against, so the
  * LMFAO engine and the flat-join baselines run identical application logic.
  * Closing it releases what it cached, so `Using.resource` frees a service
  * on every exit path.
  */
trait AggService extends AutoCloseable {
  /** Evaluate a batch; returns one DataFrame per query, whose columns are the
    * query's group-by attributes followed by its aggregates (query names).
    */
  def run(batch: Seq[AggQuery]): Map[String, DataFrame]
  /** Release what the batches since the last close cached. */
  def close(): Unit = ()
}

/** The LMFAO engine end-to-end: plan (roots → pushdown → merge → group) and
  * translate the plan into lazily evaluated, partly persisted DataFrames.
  *
  * A batch's cached views outlive it: the next `run` hands the previous
  * result to [[Executor.run]], which keeps the views the new plan computes
  * again and releases the rest. Consecutive batches that differ only in some
  * conditions (CART's levels, the paper's dynamic functions) thus read the
  * unchanged views from Spark's cache instead of recomputing them. Outputs
  * of an earlier batch stay valid but may no longer read a cache. `close()`
  * releases everything.
  *
  * @param merge      false = unshared views (AC/DC-style ablation)
  * @param multiRoot  false = force every query to root at the largest
  *                   relation, the single-root ablation
  */
final class LmfaoService(spark: SparkSession, tree: JoinTree, dfs: Map[String, DataFrame],
                         sizes: Map[String, Long] = Map.empty,
                         merge: Boolean = true, multiRoot: Boolean = true) extends AggService {

  private var last: Option[ExecResult] = None

  /** Plan a batch without executing it (Table 2 statistics). */
  def planOnly(batch: Seq[AggQuery]): Plan = {
    val forced =
      if (multiRoot) None
      else Some(if (sizes.nonEmpty) sizes.maxBy(_._2)._1 else tree.relations.head.name)
    Planner.planBatch(tree, batch, sizes, merge = merge, forcedRoot = forced)
  }

  def run(batch: Seq[AggQuery]): Map[String, DataFrame] = {
    val previous = last
    last = None
    val res = try new Executor(dfs).run(planOnly(batch), previous)
              catch { case e: Throwable => previous.foreach(_.close()); throw e }
    last = Some(res)
    res.outputs
  }

  override def close(): Unit = { last.foreach(_.close()); last = None }
}
