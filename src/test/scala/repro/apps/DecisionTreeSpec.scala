package repro.apps

import org.apache.spark.sql.DataFrame
import repro.{DuckAggService, Oracle, SparkSpec, TestData}
import repro.core._
import repro.datasets.{Favorita, SchemaDataset, TpcDs}

/** CART over aggregate batches: LMFAO-trained trees must equal the trees the
  * flat-scan baseline learns and the trees DuckDB's results give, split for
  * split; costs match hand-computed values on crafted data.
  */
class DecisionTreeSpec extends SparkSpec {

  /** A tiny hand-checkable single-relation dataset. */
  lazy val toy = {
    import spark.implicits._
    // y = 10 when x <= 5, else 30; cat g in {a,b} independent
    val rows = (1 to 40).map { i =>
      val x = i % 10
      (i.toLong, x, if (x <= 5) 10 else 30, if (i % 2 == 0) "a" else "b")
    }
    rows.toDF("id", "x", "y", "g").persist()
  }
  lazy val toyTree = JoinTree(Seq(Relation("T", Seq("id", "x", "y", "g"))), Seq.empty)
  lazy val toySvc  = new LmfaoService(spark, toyTree, Map("T" -> toy))

  /** Passes batches through to `inner` and records each one. */
  final class CountingService(inner: AggService) extends AggService {
    val batches = scala.collection.mutable.ArrayBuffer[Seq[AggQuery]]()
    def run(batch: Seq[AggQuery]): Map[String, DataFrame] = { batches += batch; inner.run(batch) }
    override def close(): Unit = inner.close()
  }

  test("regression: the obvious split x<=5 is found on the toy dataset") {
    val thr = Map("x" -> (0 until 10).map(_.toDouble))
    val t = DecisionTree.train(toySvc, Seq("x"), Seq("g"), "y",
      classification = false, thr, DecisionTree.Params(maxDepth = 1, minSplit = 1))
    assert(t.root.split.isDefined)
    val s = t.root.split.get
    assert(s.attr == "x" && !s.isCat && s.threshold == 5.0, s.toString)
    // Children predict the exact means.
    assert(t.root.left.get.prediction.toDouble == 10.0)
    assert(t.root.right.get.prediction.toDouble == 30.0)
  }

  test("regression: root impurity equals the hand-computed variance cost") {
    val thr = Map("x" -> (0 until 10).map(_.toDouble))
    val counting = new CountingService(toySvc)
    val t = DecisionTree.train(counting, Seq("x"), Seq("g"), "y",
      classification = false, thr, DecisionTree.Params(maxDepth = 0, minSplit = 1))
    val ys = (1 to 40).map(i => if (i % 10 <= 5) 10.0 else 30.0)
    val expected = ys.map(y => y * y).sum - math.pow(ys.sum, 2) / ys.size
    assert(math.abs(t.root.cost - expected) < 1e-6)
    assert(t.root.isLeaf)
    // A root that cannot split runs its totals query alone.
    assert(counting.batches.map(_.map(q => q.name -> q.aggs.map(_.name))) ==
      Seq(Seq("dt_main_0" -> Seq("t_0_c", "t_0_s", "t_0_q"))))
  }

  test("classification: pure split yields zero-Gini children") {
    import spark.implicits._
    val df = (1 to 30).map(i => (i, i % 6, if (i % 6 < 3) "yes" else "no")).toDF("id", "x", "lab").persist()
    val tr = JoinTree(Seq(Relation("T2", Seq("id", "x", "lab"))), Seq.empty)
    val svc = new LmfaoService(spark, tr, Map("T2" -> df))
    val t = DecisionTree.train(svc, Seq("x"), Seq.empty, "lab",
      classification = true, Map("x" -> (0 until 6).map(_.toDouble)),
      DecisionTree.Params(maxDepth = 1, minSplit = 1))
    assert(t.root.split.get.threshold == 2.0)
    assert(t.root.left.get.cost == 0.0 && t.root.right.get.cost == 0.0)
    assert(Set(t.root.left.get.prediction, t.root.right.get.prediction) == Set("yes", "no"))
    svc.close()
  }

  test("categorical one-vs-rest split is considered and chosen when it dominates") {
    import spark.implicits._
    // label determined by g = "a"
    val df = (1 to 40).map(i => (i, i % 7, if (i % 4 == 0) "a" else "b",
      if (i % 4 == 0) 100 else 0)).toDF("id", "x", "g", "y").persist()
    val tr = JoinTree(Seq(Relation("T3", Seq("id", "x", "g", "y"))), Seq.empty)
    val svc = new LmfaoService(spark, tr, Map("T3" -> df))
    val t = DecisionTree.train(svc, Seq("x"), Seq("g"), "y",
      classification = false, Map("x" -> (0 until 7).map(_.toDouble)),
      DecisionTree.Params(maxDepth = 1, minSplit = 1))
    val s = t.root.split.get
    // On a binary domain the one-vs-rest splits g=a and g=b are mirrored and
    // tie in cost; either is a correct choice.
    assert(s.isCat && s.attr == "g" && Set("a", "b").contains(s.value), s.toString)
    svc.close()
  }

  test("minSplit stops expansion") {
    val thr = Map("x" -> (0 until 10).map(_.toDouble))
    val t = DecisionTree.train(toySvc, Seq("x"), Seq.empty, "y",
      classification = false, thr, DecisionTree.Params(maxDepth = 4, minSplit = 1e9))
    assert(t.size == 1 && t.root.isLeaf)
  }

  test("maxDepth bounds the tree to at most 2^(d+1)-1 nodes") {
    val thr = Map("x" -> (0 until 10).map(_.toDouble))
    val t = DecisionTree.train(toySvc, Seq("x"), Seq.empty, "y",
      classification = false, thr, DecisionTree.Params(maxDepth = 2, minSplit = 1))
    assert(t.size <= 7)
    assert(t.root.nodes.forall(n => n.depth <= 2))
  }

  for (ds <- Seq(Favorita)) {
    test(s"${ds.name}: LMFAO regression tree equals the flat-baseline tree split-for-split") {
      val dfs = TestData.dfs(ds, spark)
      val cont = Seq("txns", "oilprize", "class").filterNot(_ == ds.label)
      val cat  = Seq("perishable", "stype")
      val thr  = DecisionTree.bucketThresholds(dfs, ds.tree, cont, buckets = 8)
      val params = DecisionTree.Params(maxDepth = 2, minSplit = 10)

      val lmfao = new LmfaoService(spark, ds.tree, dfs, TestData.sizes(ds, spark))
      val t1 = DecisionTree.train(lmfao, cont, cat, ds.label, classification = false, thr, params)
      lmfao.close()

      val flat = new FlatJoinService(spark, ds.tree, dfs, cached = true)
      val t2 = DecisionTree.train(flat, cont, cat, ds.label, classification = false, thr, params)
      flat.close()

      def shape(t: DecisionTree.Tree): Seq[String] =
        t.root.nodes.map(n => s"${n.depth}:${n.split.map(_.toString).getOrElse("leaf:" + n.prediction)}:${n.count}")
      assert(shape(t1) == shape(t2))
    }
  }

  test("TPC-DS: LMFAO classification tree equals the flat-baseline tree") {
    val ds = TpcDs
    val dfs = TestData.dfs(ds, spark)
    val cont = Seq("cd_dep_count", "hd_vehicle_count", "d_qoy")
    val cat  = Seq("cd_gender", "hd_buy_potential")
    val thr  = DecisionTree.bucketThresholds(dfs, ds.tree, cont, buckets = 6)
    val params = DecisionTree.Params(maxDepth = 2, minSplit = 10)

    val lmfao = new LmfaoService(spark, ds.tree, dfs, TestData.sizes(ds, spark))
    val t1 = DecisionTree.train(lmfao, cont, cat, ds.classLabel, classification = true, thr, params)
    lmfao.close()
    val flat = new FlatJoinService(spark, ds.tree, dfs, cached = true)
    val t2 = DecisionTree.train(flat, cont, cat, ds.classLabel, classification = true, thr, params)
    flat.close()

    def shape(t: DecisionTree.Tree): Seq[String] =
      t.root.nodes.map(n => s"${n.depth}:${n.split.map(_.toString).getOrElse("leaf:" + n.prediction)}:${n.count}")
    assert(shape(t1) == shape(t2))
    assert(t1.root.nodes.forall(n => n.count > 0))
  }

  /** The tree `train` learns through LMFAO and through DuckDB evaluating
    * each query's SQL over the raw tables, as comparable node lists.
    */
  def lmfaoAndDuck(ds: SchemaDataset)(train: AggService => DecisionTree.Tree): (Seq[String], Seq[String]) = {
    def shape(t: DecisionTree.Tree): Seq[String] =
      t.root.nodes.map(n => s"${n.depth}:${n.split.map(_.toString).getOrElse("leaf:" + n.prediction)}:${n.count}")
    val dfs   = TestData.dfs(ds, spark)
    val lmfao = new LmfaoService(spark, ds.tree, dfs, TestData.sizes(ds, spark))
    val t1    = try train(lmfao) finally lmfao.close()
    val conn  = Oracle.connect(TestData.tables(ds, spark): _*)
    val t2    = try train(new DuckAggService(spark, conn, ds.tree)) finally conn.close()
    (shape(t1), shape(t2))
  }

  test("Favorita: LMFAO regression tree equals the DuckDB-computed tree split-for-split") {
    val ds = Favorita
    val cont = Seq("txns", "oilprize", "class")
    val cat  = Seq("perishable", "stype")
    val thr  = DecisionTree.bucketThresholds(TestData.dfs(ds, spark), ds.tree, cont, buckets = 8)
    val (lmfao, duck) = lmfaoAndDuck(ds)(DecisionTree.train(_, cont, cat, ds.label,
      classification = false, thr, DecisionTree.Params(maxDepth = 2, minSplit = 10)))
    assert(lmfao.size > 1)
    assert(lmfao == duck)
  }

  test("TPC-DS: LMFAO classification tree equals the DuckDB-computed tree split-for-split") {
    val ds = TpcDs
    val cont = Seq("cd_dep_count", "hd_vehicle_count", "d_qoy")
    val cat  = Seq("cd_gender", "hd_buy_potential")
    val thr  = DecisionTree.bucketThresholds(TestData.dfs(ds, spark), ds.tree, cont, buckets = 6)
    val (lmfao, duck) = lmfaoAndDuck(ds)(DecisionTree.train(_, cont, cat, ds.classLabel,
      classification = true, thr, DecisionTree.Params(maxDepth = 2, minSplit = 10)))
    assert(lmfao.size > 1)
    assert(lmfao == duck)
  }

  test("Favorita depth 2: one batch per level with an open node, same tree as DuckDB") {
    val ds = Favorita
    val cont = Seq("txns", "oilprize", "class")
    val cat  = Seq("perishable", "stype")
    val thr  = DecisionTree.bucketThresholds(TestData.dfs(ds, spark), ds.tree, cont, buckets = 8)
    var runs = Seq.empty[Seq[Seq[AggQuery]]]
    val (lmfao, duck) = lmfaoAndDuck(ds) { svc =>
      val counting = new CountingService(svc)
      val t = DecisionTree.train(counting, cont, cat, ds.label, classification = false, thr,
        DecisionTree.Params(maxDepth = 2, minSplit = 10))
      runs :+= counting.batches.toSeq
      assert(t.root.nodes.count(!_.isLeaf) == 3, t.describe) // 3 batches node by node
      t
    }
    assert(lmfao == duck)
    for (batches <- runs) {
      assert(batches.size == 2)
      assert(batches.map(_.head.name) == Seq("dt_main_0", "dt_main_1"))
      // The second batch evaluates both children of the root side by side.
      assert(batches(1).head.aggs.map(_.name).filter(_.startsWith("t_")).toSet ==
        Set("t_1_c", "t_1_s", "t_1_q", "t_2_c", "t_2_s", "t_2_q"))
    }
  }

  test("Favorita depth 3: a level with a node closed by minSplit and expanded siblings equals DuckDB") {
    val ds = Favorita
    val cont = Seq("txns", "oilprize", "class")
    val cat  = Seq("perishable", "stype")
    val thr  = DecisionTree.bucketThresholds(TestData.dfs(ds, spark), ds.tree, cont, buckets = 8)
    val params = DecisionTree.Params(maxDepth = 3, minSplit = 2100)
    var mixed = Seq.empty[Boolean]
    val (lmfao, duck) = lmfaoAndDuck(ds) { svc =>
      val t = DecisionTree.train(svc, cont, cat, ds.label, classification = false, thr, params)
      // Some depth below maxDepth holds a leaf that minSplit closed next to
      // an expanded node, so that depth's batch leaves one node out.
      mixed :+= t.root.nodes.filter(_.depth < params.maxDepth).groupBy(_.depth).values.exists { level =>
        level.exists(n => n.isLeaf && n.count < params.minSplit) && level.exists(!_.isLeaf)
      }
      t
    }
    assert(mixed == Seq(true, true), lmfao.mkString("\n"))
    assert(lmfao == duck)
  }

  test("TPC-DS: classification tree beats majority-class accuracy (signal through joins)") {
    val ds = TpcDs
    val dfs = TestData.dfs(ds, spark)
    val joined = FlatJoinService.fullJoin(ds.tree, dfs).persist()
    val cont = Seq("cd_purchase_estimate", "cd_dep_count")
    val cat  = Seq("cd_gender", "cd_marital_status", "cd_education_status")
    val thr  = DecisionTree.bucketThresholds(dfs, ds.tree, cont, buckets = 10)
    val svc  = new LmfaoService(spark, ds.tree, dfs)
    val t = DecisionTree.train(svc, cont, cat, ds.classLabel, classification = true, thr,
      DecisionTree.Params(maxDepth = 3, minSplit = 20))
    svc.close()
    val acc = t.accuracy(joined)
    val majority = {
      val counts = joined.groupBy(ds.classLabel).count().collect().map(_.getLong(1))
      counts.max.toDouble / counts.sum
    }
    // The label is cdemo-driven by construction; the tree must pick that up.
    assert(acc >= majority - 1e-9, s"acc=$acc majority=$majority")
    joined.unpersist()
  }

  test("bucketThresholds spans each attribute's range without the endpoints") {
    val ds = Favorita
    val dfs = TestData.dfs(ds, spark)
    val thr = DecisionTree.bucketThresholds(dfs, ds.tree, Seq("oilprize"), buckets = 4)
    assert(thr("oilprize").size == 3)
    assert(thr("oilprize") == thr("oilprize").sorted)
  }

  test("prediction column routes rows to the correct leaf") {
    val thr = Map("x" -> (0 until 10).map(_.toDouble))
    val t = DecisionTree.train(toySvc, Seq("x"), Seq.empty, "y",
      classification = false, thr, DecisionTree.Params(maxDepth = 1, minSplit = 1))
    assert(t.rmse(toy) < 1e-9) // the toy label is exactly leaf-constant
  }
}
