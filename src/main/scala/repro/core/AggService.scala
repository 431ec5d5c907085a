package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A batch-of-aggregates evaluator: the interface the applications (linear
  * regression, CART, mutual information, data cubes) program against, so the
  * LMFAO engine and the flat-join baselines run identical application logic.
  */
trait AggService {
  /** Evaluate a batch; returns one DataFrame per query, whose columns are the
    * query's group-by attributes followed by its aggregates (query names).
    */
  def run(batch: Seq[AggQuery]): Map[String, DataFrame]
  /** Release any cached state from the last batch. */
  def close(): Unit = ()
}

/** The LMFAO engine end-to-end: plan (roots → pushdown → merge → group) and
  * translate the plan into lazily evaluated, partly persisted DataFrames.
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
    close()
    val res = new Executor(dfs).run(planOnly(batch))
    last = Some(res)
    res.outputs
  }

  override def close(): Unit = { last.foreach(_.close()); last = None }
}
