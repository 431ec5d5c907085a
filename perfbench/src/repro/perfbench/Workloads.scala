package repro.perfbench

import org.apache.spark.sql.DataFrame
import repro.apps.{CovarMatrix, DecisionTree, MutualInformation}
import repro.core.AggService
import repro.datasets.{Retailer, SchemaDataset, Yelp}

/** The decoded result of one application task, comparable with the same
  * task's result over the DuckDB reference.
  */
trait Outcome {
  /** None when this result matches `ref`, else what differs. */
  def mismatch(ref: Outcome): Option[String]
}

/** One benchmark workload: a dataset at a scale factor and the application
  * task the closed-loop client issues, again and again, over it.
  */
trait Workload {
  def name: String
  def dataset: SchemaDataset
  def sf: Double
  /** Task parameters, stamped into every result. */
  def params: Seq[(String, String)]
  /** Binds the task to freshly loaded data; anything derived from the data
    * once per run (bucket thresholds) is computed here, outside any timing.
    */
  def bind(dfs: Map[String, DataFrame]): AggService => Outcome
}

object Workloads {
  val all: Seq[Workload] = Seq(RetailerCovar, RetailerMi, YelpCart)
  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** Relative comparison for sums of integer-valued products (exact in
  * doubles at these sizes) and for values derived from them by the apps.
  */
object Compare {
  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  def maps[K](what: String, got: Map[K, Double], ref: Map[K, Double]): Option[String] =
    if (got.keySet != ref.keySet)
      Some(s"$what: keys differ, extra ${(got.keySet diff ref.keySet).take(3)}, " +
        s"missing ${(ref.keySet diff got.keySet).take(3)}")
    else got.collectFirst { case (k, v) if !close(v, ref(k)) => s"$what($k) = $v, reference ${ref(k)}" }

  def nested[K, J](what: String, got: Map[K, Map[J, Double]], ref: Map[K, Map[J, Double]]): Option[String] =
    if (got.keySet != ref.keySet) Some(s"$what: keys differ")
    else got.keys.iterator.map(k => maps(s"$what[$k]", got(k), ref(k))).collectFirst { case Some(m) => m }
}

/** Retailer covar matrix: one wide batch of scalar, per-category and
  * per-category-pair moments.
  */
object RetailerCovar extends Workload {
  val name = "retailer-covar"
  val dataset: SchemaDataset = Retailer
  val sf = 0.02
  val cont: Seq[String] = Seq("inventoryunits", "rgn_cd", "tot_area_sq_ft", "avghhi", "targetdistance",
    "population", "white", "medianage", "households", "maxtemp", "mintemp", "meanwind", "subcategory", "prize")
  val cat: Seq[String] = Seq("rain", "snow")
  def params: Seq[(String, String)] = Seq("continuous" -> cont.size.toString, "categorical" -> cat.size.toString)

  final case class Out(c: CovarMatrix.Covar) extends Outcome {
    def mismatch(ref: Outcome): Option[String] = {
      val r = ref.asInstanceOf[Out].c
      Seq(
        if (Compare.close(c.count, r.count)) None else Some(s"count ${c.count} != ${r.count}"),
        Compare.maps("moment", c.moments, r.moments),
        Compare.maps("prod", c.prods, r.prods),
        Compare.nested("catCnt", c.catCnt, r.catCnt),
        Compare.nested("catMoment", c.catMoments, r.catMoments),
        Compare.nested("catPairCnt", c.catPairCnt, r.catPairCnt),
      ).collectFirst { case Some(m) => m }
    }
  }

  def bind(dfs: Map[String, DataFrame]): AggService => Outcome =
    svc => Out(CovarMatrix.compute(svc, cont, cat))
}

/** Retailer pairwise mutual information: many narrow group-by counts. */
object RetailerMi extends Workload {
  val name = "retailer-mi"
  val dataset: SchemaDataset = Retailer
  val sf = 0.02
  val attrs: Seq[String] = Seq("category", "rgn_cd")
  def params: Seq[(String, String)] = Seq("attributes" -> attrs.size.toString)

  final case class Out(mi: Map[(String, String), Double]) extends Outcome {
    def mismatch(ref: Outcome): Option[String] = Compare.maps("mi", mi, ref.asInstanceOf[Out].mi)
  }

  def bind(dfs: Map[String, DataFrame]): AggService => Outcome =
    svc => Out(MutualInformation.compute(svc, attrs))
}

/** Yelp regression tree: one batch per expanded node, each with new
  * split conditions, over a many-to-many join.
  */
object YelpCart extends Workload {
  val name = "yelp-cart"
  val dataset: SchemaDataset = Yelp
  val sf = 0.005
  val depth = 2
  val buckets = 4
  val cont: Seq[String] = Seq("u_avg_stars", "b_stars", "useful")
  val cat: Seq[String] = Seq("b_city")
  def params: Seq[(String, String)] = Seq("depth" -> depth.toString, "buckets" -> buckets.toString)

  final case class Out(t: DecisionTree.Tree) extends Outcome {
    def mismatch(ref: Outcome): Option[String] = {
      def rec(a: DecisionTree.Node, b: DecisionTree.Node, path: String): Option[String] =
        if (a.split != b.split) Some(s"node $path: split ${a.split} vs reference ${b.split}")
        else if (!Compare.close(a.count, b.count)) Some(s"node $path: count ${a.count} vs ${b.count}")
        else if (!Compare.close(a.prediction.toDouble, b.prediction.toDouble))
          Some(s"node $path: prediction ${a.prediction} vs ${b.prediction}")
        else (a.left zip b.left).flatMap { case (x, y) => rec(x, y, path + "L") }
          .orElse((a.right zip b.right).flatMap { case (x, y) => rec(x, y, path + "R") })
      rec(t.root, ref.asInstanceOf[Out].t.root, "root")
    }
  }

  def bind(dfs: Map[String, DataFrame]): AggService => Outcome = {
    val thresholds = DecisionTree.bucketThresholds(dfs, Yelp.tree, cont, buckets)
    val params = DecisionTree.Params(maxDepth = depth, buckets = buckets)
    svc => Out(DecisionTree.train(svc, cont, cat, Yelp.label, classification = false, thresholds, params))
  }
}
