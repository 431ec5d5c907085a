package repro.tables

import scala.util.Using

import org.apache.spark.sql.SparkSession
import repro.apps._
import repro.core._
import repro.datasets.TpcDs

/** Paper Table 5: classification-tree training over TPC-DS — Spark join /
  * export prep, flat-scan CART (TensorFlow 1-node and MADlib full-tree
  * proxies) vs LMFAO CART with the Gini cost.
  */
object Table5 {

  final case class Row(task: String, system: String, seconds: Double, note: String = "")

  def compute(spark: SparkSession, sf: Double = Workloads.benchSf): Seq[Row] = {
    val ds = TpcDs
    val (dfs, sizes) = Workloads.loadPersisted(spark, ds, sf)
    val rows = scala.collection.mutable.ArrayBuffer[Row]()

    val (joined, prep, _) = Workloads.prepJoin(ds.tree, dfs, shuffle = false)(_ => ())
    rows ++= prep.map { case (step, t) => Row("prep", step, t) }

    val cont = ds.continuous
    val cat  = ds.categorical.filterNot(_ == ds.classLabel)
    val thr  = DecisionTree.bucketThresholds(dfs, ds.tree, cont, Workloads.treeBuckets)
    val depth = Workloads.treeDepth

    val (_, tFlat1) = Timing.timed {
      Using.resource(new FlatJoinService(spark, ds.tree, dfs, cached = true)) {
        DecisionTree.train(_, cont, cat, ds.classLabel, classification = true,
          thr, DecisionTree.Params(maxDepth = 1, minSplit = 1000))
      }
    }
    rows += Row("CT", "Flat CART 1 node (TF proxy)", tFlat1)

    val (tFlatTree, tFlatFull) = Timing.timed {
      Using.resource(new FlatJoinService(spark, ds.tree, dfs, cached = true)) {
        DecisionTree.train(_, cont, cat, ds.classLabel, classification = true,
          thr, DecisionTree.Params(maxDepth = depth, minSplit = 1000))
      }
    }
    rows += Row("CT", s"Flat CART d=$depth (MADlib proxy)", tFlatFull,
      f"nodes=${tFlatTree.size} acc=${tFlatTree.accuracy(joined)}%.4f")

    val (tLmfaoTree, tLmfaoFull) = Timing.timed {
      Using.resource(new LmfaoService(spark, ds.tree, dfs, sizes)) {
        DecisionTree.train(_, cont, cat, ds.classLabel, classification = true,
          thr, DecisionTree.Params(maxDepth = depth, minSplit = 1000))
      }
    }
    rows += Row("CT", s"LMFAO CART d=$depth", tLmfaoFull,
      f"nodes=${tLmfaoTree.size} acc=${tLmfaoTree.accuracy(joined)}%.4f")

    joined.unpersist(blocking = false)
    dfs.values.foreach(_.unpersist(blocking = false))
    rows.toSeq
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= "== Table 5: TPC-DS classification-tree training (seconds) ==\n"
    sb ++= f"${"task"}%-5s ${"system"}%-30s ${"sec"}%9s  note\n"
    for (r <- rows)
      sb ++= f"${r.task}%-5s ${r.system}%-30s ${r.seconds}%9.2f  ${r.note}\n"
    sb.result()
  }
}
