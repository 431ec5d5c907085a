package repro.tables

import scala.util.Using

import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.apps._
import repro.core._
import repro.datasets.{Favorita, Retailer, SchemaDataset}

/** Paper Table 4: end-to-end training of ridge linear regression and
  * regression trees over Retailer and Favorita —
  *
  *   Join / Join Shuffle / Join Export (PSQL)  →  Spark materialize / shuffle
  *                                                / parquet export of the join
  *   TensorFlow (1 epoch)                      →  one SGD epoch over the
  *                                                shuffled materialized join
  *   MADlib                                    →  closed-form OLS over the
  *                                                (freshly computed) join
  *   AC/DC                                     →  LMFAO with sharing layers off
  *   LMFAO                                     →  covar batch + BGD (Armijo+BB)
  *
  * Regression trees: LMFAO CART vs the same CART driver over the
  * materialized flat join (MADlib/TF proxy), plus the 1-node flat time
  * (the paper's TensorFlow row).
  */
object Table4 {

  final case class Row(dataset: String, task: String, system: String, seconds: Double,
                       note: String = "")

  def compute(spark: SparkSession, sf: Double = Workloads.benchSf,
              datasets: Seq[SchemaDataset] = Seq(Retailer, Favorita)): Seq[Row] =
    datasets.flatMap { ds =>
      val (dfs, sizes) = Workloads.loadPersisted(spark, ds, sf)
      val rows = scala.collection.mutable.ArrayBuffer[Row]()
      val (cont, cat) = (ds.continuous, ds.categorical)

      // --- data-prep rows, and SGD over the shuffled export ---
      val (joined, prep, (mSgd, tSgd)) = Workloads.prepJoin(ds.tree, dfs, shuffle = true) { exported =>
        val shuffled = exported.get.persist(StorageLevel.MEMORY_AND_DISK)
        shuffled.count()
        try Timing.timed { LinearRegression.sgdOneEpoch(shuffled, cont, ds.label) }
        finally shuffled.unpersist(blocking = false)
      }
      rows ++= prep.map { case (step, t) => Row(ds.name, "prep", step, t) }

      // --- linear regression ---
      rows += Row(ds.name, "LR", "SGD 1 epoch (TF proxy)", tSgd,
        f"rmse=${mSgd.rmse(joined)}%.3f")

      val (mMad, tMad) = Timing.timed {
        // MADlib computes over the non-materialized view: fresh uncached join.
        LinearRegression.trainFlatGram(FlatJoinService.fullJoin(ds.tree, dfs), cont, cat, ds.label)
      }
      rows += Row(ds.name, "LR", "Flat OLS (MADlib proxy)", tMad, f"rmse=${mMad.rmse(joined)}%.3f")

      // AC/DC shares factorized-aggregate computation but has no
      // multi-root layer: merge stays on, every query roots at the fact
      // table. (The fully unshared extreme is measured by the Figure 5
      // ablation in Table3Bench.)
      val (mAcdc, tAcdc) = Timing.timed {
        Using.resource(new LmfaoService(spark, ds.tree, dfs, sizes, merge = true, multiRoot = false)) {
          LinearRegression.train(_, cont, cat, ds.label)
        }
      }
      rows += Row(ds.name, "LR", "AC/DC proxy", tAcdc, f"rmse=${mAcdc.rmse(joined)}%.3f")

      val (mLmfao, tLmfao) = Timing.timed {
        Using.resource(new LmfaoService(spark, ds.tree, dfs, sizes)) {
          LinearRegression.train(_, cont, cat, ds.label)
        }
      }
      rows += Row(ds.name, "LR", "LMFAO", tLmfao, f"rmse=${mLmfao.rmse(joined)}%.3f")

      // --- regression trees ---
      val contFeats = cont.filterNot(_ == ds.label)
      val thr = DecisionTree.bucketThresholds(dfs, ds.tree, contFeats, Workloads.treeBuckets)
      val depth = Workloads.treeDepth

      val (t1Flat, tFlat1) = Timing.timed {
        Using.resource(new FlatJoinService(spark, ds.tree, dfs, cached = true)) {
          DecisionTree.train(_, contFeats, cat, ds.label, classification = false,
            thr, DecisionTree.Params(maxDepth = 1, minSplit = 1000))
        }
      }
      rows += Row(ds.name, "RT", "Flat CART 1 node (TF proxy)", tFlat1, s"nodes=${t1Flat.size}")

      val (tFlatTree, tFlatFull) = Timing.timed {
        Using.resource(new FlatJoinService(spark, ds.tree, dfs, cached = true)) {
          DecisionTree.train(_, contFeats, cat, ds.label, classification = false,
            thr, DecisionTree.Params(maxDepth = depth, minSplit = 1000))
        }
      }
      rows += Row(ds.name, "RT", s"Flat CART d=$depth (MADlib proxy)", tFlatFull,
        f"nodes=${tFlatTree.size} rmse=${tFlatTree.rmse(joined)}%.3f")

      val (tLmfaoTree, tLmfaoFull) = Timing.timed {
        Using.resource(new LmfaoService(spark, ds.tree, dfs, sizes)) {
          DecisionTree.train(_, contFeats, cat, ds.label, classification = false,
            thr, DecisionTree.Params(maxDepth = depth, minSplit = 1000))
        }
      }
      rows += Row(ds.name, "RT", s"LMFAO CART d=$depth", tLmfaoFull,
        f"nodes=${tLmfaoTree.size} rmse=${tLmfaoTree.rmse(joined)}%.3f")

      joined.unpersist(blocking = false)
      dfs.values.foreach(_.unpersist(blocking = false))
      rows.toSeq
    }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= "== Table 4: LR + regression-tree training (seconds) ==\n"
    sb ++= f"${"dataset"}%-10s ${"task"}%-5s ${"system"}%-30s ${"sec"}%9s  note\n"
    for (r <- rows)
      sb ++= f"${r.dataset}%-10s ${r.task}%-5s ${r.system}%-30s ${r.seconds}%9.2f  ${r.note}\n"
    sb.result()
  }
}
