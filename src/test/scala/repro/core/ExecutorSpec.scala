package repro.core

import repro.{Oracle, SparkSpec, TestData}
import repro.datasets.{Favorita, Retailer, SchemaDataset, TpcDs, Yelp}

/** End-to-end engine correctness: every query batch evaluated by LMFAO is
  * diffed against DuckDB running the *unoptimized* SQL over the raw input
  * tables, and against the flat-join Spark baseline. Datasets are tiny
  * (SF=0.002) but join with full multiplicity.
  */
class ExecutorSpec extends SparkSpec {

  /** A representative per-dataset batch: scalar count, scalar products,
    * single-relation group-by, cross-relation group-by pair, indicator
    * products — the building blocks of every §2 application.
    */
  def representativeBatch(ds: SchemaDataset): Seq[AggQuery] = {
    val c1 = ds.continuous.head
    val c2 = ds.continuous(1 % ds.continuous.size)
    val k1 = ds.categorical.head
    val k2 = ds.categorical(1 % ds.categorical.size)
    Seq(
      AggQuery("b_count", Seq.empty, Seq(NamedAgg("cnt", Nil))),
      AggQuery("b_sums", Seq.empty, Seq(
        NamedAgg("s1", Seq(Att(c1))),
        NamedAgg("s2", Seq(Att(c2))),
        NamedAgg("p11", Seq(Pow(c1, 2))),
        NamedAgg("p12", Seq(Att(c1), Att(c2))))),
      AggQuery("b_cat1", Seq(k1), Seq(NamedAgg("cnt", Nil), NamedAgg("s1", Seq(Att(c1))))),
      AggQuery("b_cat2", Seq(k1, k2), Seq(NamedAgg("cnt", Nil))),
      AggQuery("b_ind", Seq.empty, Seq(
        NamedAgg("i1", Seq(Ind(c1, "<=", "20"))),
        NamedAgg("i2", Seq(Ind(c1, ">", "20"), Att(c2))),
        NamedAgg("i3", Seq(Ind(k1, "<>", "zzz", numeric = false))))),
      AggQuery("b_mixed", Seq(k2), Seq(NamedAgg("m", Seq(Att(c1), Ind(c2, ">=", "3"))))),
    )
  }

  val datasets: Seq[SchemaDataset] = Seq(Retailer, Favorita, Yelp, TpcDs)

  for (ds <- datasets) {
    lazy val dfs   = TestData.dfs(ds, spark)
    lazy val sizes = TestData.sizes(ds, spark)
    lazy val batch = representativeBatch(ds)
    lazy val svc   = new LmfaoService(spark, ds.tree, dfs, sizes)
    lazy val out   = svc.run(batch)

    for (q <- representativeBatch(ds)) {
      test(s"${ds.name}: LMFAO result for '${q.name}' matches DuckDB over raw tables") {
        Oracle.assertEquivalent(out(q.name), SqlGen.querySql(ds.tree, q),
          TestData.tables(ds, spark): _*)
      }
    }

    test(s"${ds.name}: LMFAO matches the flat-join baseline on the whole batch") {
      val flat    = new FlatJoinService(spark, ds.tree, dfs, cached = true)
      val flatOut = flat.run(batch)
      for (q <- batch) {
        val a = out(q.name).collect().map(_.toSeq.map(x => Option(x).map(_.toString).getOrElse("null")))
          .map(_.mkString("|")).sorted
        val b = flatOut(q.name).collect().map(_.toSeq.map(x => Option(x).map(_.toString).getOrElse("null")))
          .map(_.mkString("|")).sorted
        assert(a.toSeq == b.toSeq, s"query ${q.name}")
      }
      flat.close()
    }

    test(s"${ds.name}: ablation configs (single-root, unmerged, sequential) agree with default") {
      // The executor has a single, sequential code path; the default service
      // above already runs it.
      val configs = Seq(
        new LmfaoService(spark, ds.tree, dfs, sizes, multiRoot = false),
        new LmfaoService(spark, ds.tree, dfs, sizes, merge = false),
      )
      val sample = batch.take(3)
      val expected = sample.map(q => q.name ->
        out(q.name).collect().map(_.toSeq.map(String.valueOf)).map(_.mkString("|")).sorted.toSeq).toMap
      for (cfg <- configs) {
        val o = cfg.run(sample)
        for (q <- sample) {
          val got = o(q.name).collect().map(_.toSeq.map(String.valueOf)).map(_.mkString("|")).sorted.toSeq
          assert(got == expected(q.name), s"query ${q.name}")
        }
        cfg.close()
      }
      // The dataset's last test: release the default service's cache, so
      // that later runs of the same plans persist (and own) their views.
      svc.close()
    }
  }

  // ---------- chain scenario of Example 3.3, executed ----------

  test("Example 3.3 chain: multi-root counts equal brute-force counts") {
    import org.apache.spark.sql.functions._
    val n = 5
    val t = JoinTree(
      (1 until n).map(k => Relation(s"S$k", Seq(s"X$k", s"X${k + 1}"))),
      (1 until n - 1).map(k => s"S$k" -> s"S${k + 1}")).requireValid()
    val dfs = (1 until n).map { k =>
      s"S$k" -> spark.range(200).select(
        repro.datasets.Gen.hint(6, k, col("id")) as s"X$k",
        repro.datasets.Gen.hint(6, k + 100, col("id")) as s"X${k + 1}")
    }.toMap
    val qs   = (1 to n).map(i => AggQuery(s"q$i", Seq(s"X$i"), Seq(NamedAgg("cnt", Nil))))
    val svc  = new LmfaoService(spark, t, dfs)
    val out  = svc.run(qs)
    val flat = new FlatJoinService(spark, t, dfs, cached = true)
    val fout = flat.run(qs)
    for (q <- qs) {
      val a = out(q.name).collect().map(r => (r.get(0).toString, r.getDouble(1))).sortBy(_._1).toSeq
      val b = fout(q.name).collect().map(r => (r.get(0).toString, r.getDouble(1))).sortBy(_._1).toSeq
      assert(a == b, q.name)
    }
    svc.close(); flat.close()
  }

  test("empty-intersection joins yield empty group-by results (no phantom rows)") {
    val t = JoinTree(
      Seq(Relation("A", Seq("k", "x")), Relation("B", Seq("k", "y"))), Seq("A" -> "B"))
    import spark.implicits._
    val dfs = Map(
      "A" -> Seq((1, 10), (2, 20)).toDF("k", "x"),
      "B" -> Seq((3, 1), (4, 2)).toDF("k", "y"))
    val svc = new LmfaoService(spark, t, dfs)
    val out = svc.run(Seq(AggQuery("g", Seq("k"), Seq(NamedAgg("cnt", Nil)))))
    assert(out("g").collect().isEmpty)
    svc.close()
  }

  test("join multiplicities are respected (many-to-many Yelp shape)") {
    val t = JoinTree(
      Seq(Relation("F", Seq("b", "v")), Relation("C", Seq("b", "c"))), Seq("F" -> "C"))
    import spark.implicits._
    val dfs = Map(
      "F" -> Seq((1, 5), (1, 7), (2, 11)).toDF("b", "v"),
      "C" -> Seq((1, 100), (1, 200), (1, 300), (2, 400)).toDF("b", "c"))
    val svc = new LmfaoService(spark, t, dfs)
    val out = svc.run(Seq(
      AggQuery("cnt", Seq.empty, Seq(NamedAgg("cnt", Nil))),
      AggQuery("sv", Seq.empty, Seq(NamedAgg("s", Seq(Att("v")))))))
    // b=1: 2 fact rows × 3 categories; b=2: 1 × 1 → 7 join rows
    assert(out("cnt").collect()(0).getDouble(0) == 7.0)
    assert(out("sv").collect()(0).getDouble(0) == (5 + 7) * 3.0 + 11.0)
    svc.close()
  }

  test("a hand-built plan out of dependency order is rejected") {
    // The output view at A reads V_B, so V_B must be planned before it.
    val t = JoinTree(Seq(Relation("A", Seq("k", "x")), Relation("B", Seq("k", "y"))), Seq("A" -> "B"))
    def vB(id: Int) = {
      val v = new ViewSpec(id, "B", Some("A"), Seq("k"), Seq.empty)
      v.aggs += ViewAgg("a0", Seq(Att("y")), Seq.empty); v
    }
    def vA(id: Int, body: Seq[Int], children: Seq[String]) = {
      val v = new ViewSpec(id, "A", None, Seq("k"), body)
      v.aggs += ViewAgg("a0", Seq(Att("x")), children); v
    }
    val q = AggQuery("w", Seq("k"), Seq(NamedAgg("s", Nil)))
    def plan(views: ViewSpec*) = Plan(t, views.toIndexedSeq,
      Seq(OutputSpec(q, views.indexWhere(_.from == "A"), Seq("s" -> "a0"))), Map("w" -> "A"))
    assert(plan(vB(0), vA(1, Seq(0), Seq("a0"))).depths == Seq(0, 1))
    intercept[IllegalArgumentException](plan(vA(0, Seq(1), Seq("a0")), vB(1))) // body planned after
    intercept[IllegalArgumentException](plan(vB(1), vA(0, Seq(1), Seq("a0"))))   // ids are not indices
    intercept[IllegalArgumentException](plan(vB(0), vA(1, Seq(0), Seq.empty)))   // no child aggregate
  }

  /** Runs `body` and returns its result with the number of Spark jobs it
    * started. A marker job is run afterwards: listener events arrive in
    * order, so once the marker's start is seen every job of `body` has been.
    */
  def jobsStartedBy[A](body: => A): (A, Int) = {
    import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
    import scala.jdk.CollectionConverters._
    val sc   = spark.sparkContext
    val key  = "repro.test.phase"
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(key))).foreach(seen.add)
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(key, "body")
      val r = try body finally sc.setLocalProperty(key, "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(key, null)
      val deadline = System.nanoTime() + 60L * 1000 * 1000 * 1000
      while (!seen.contains("marker") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(seen.contains("marker"), "the listener never saw the marker job")
      (r, seen.asScala.count(_ == "body"))
    } finally sc.removeSparkListener(listener)
  }

  /** The tree A(k, x) — B(k, y) of the hand-built plans below, with
    * V_B = SUM(y) GROUP BY k as view 0: 30 for k = 1 and for k = 2.
    */
  object HandBuilt {
    val tree = JoinTree(Seq(Relation("A", Seq("k", "x")), Relation("B", Seq("k", "y"))), Seq("A" -> "B"))
    def dfs = {
      import spark.implicits._
      Map("A" -> Seq((1, 2), (2, 3)).toDF("k", "x"), "B" -> Seq((1, 10), (1, 20), (2, 30)).toDF("k", "y"))
    }
    def vB: ViewSpec = {
      val v = new ViewSpec(0, "B", Some("A"), Seq("k"), Seq.empty)
      v.aggs += ViewAgg("a0", Seq(Att("y")), Seq.empty); v
    }
    /** A root view at A over the body A ⋈ V_B. */
    def vA(id: Int, groupBy: String, local: Seq[Fx]): ViewSpec = {
      val v = new ViewSpec(id, "A", None, Seq(groupBy), Seq(0))
      v.aggs += ViewAgg("a0", local, Seq("a0")); v
    }
    def output(name: String, groupBy: String, view: Int): OutputSpec =
      OutputSpec(AggQuery(name, Seq(groupBy), Seq(NamedAgg("s", Nil))), view, Seq("s" -> "a0"))
    def rows(res: ExecResult, q: String): Seq[(Int, Double)] =
      res.outputs(q).collect().map(r => (r.getInt(0), r.getDouble(1))).sortBy(_._1).toSeq
  }

  test("run starts no Spark job; shared views stay persisted until close()") {
    import org.apache.spark.storage.StorageLevel
    // A planned batch over a real schema: building it must not start a job.
    val ds   = Retailer
    val dfs0 = TestData.dfs(ds, spark)
    val plan0 = new LmfaoService(spark, ds.tree, dfs0, TestData.sizes(ds, spark))
      .planOnly(representativeBatch(ds))
    val (res0, jobs0) = jobsStartedBy(new Executor(dfs0).run(plan0))
    assert(jobs0 == 0, s"${ds.name}: run started $jobs0 Spark jobs")
    assert(res0.persisted.nonEmpty)
    res0.close()
    assert(res0.persisted.forall(_.storageLevel == StorageLevel.NONE))

    // A hand-built plan with exactly one shared view: V_B feeds the view at A
    // and is also an output.
    import HandBuilt._
    val plan = Plan(tree, IndexedSeq(vB, vA(1, "k", Seq(Att("x")))),
      Seq(output("wa", "k", 1), output("wb", "k", 0)), Map("wa" -> "A", "wb" -> "B"))
    val (res, jobs) = jobsStartedBy(new Executor(dfs).run(plan))
    assert(jobs == 0, s"run started $jobs Spark jobs")
    assert(res.persisted.map(_.columns.toSeq) == Seq(Seq("k", "v0_a0")))
    val shared = res.persisted.head
    assert(shared.storageLevel != StorageLevel.NONE)
    assert(rows(res, "wb") == Seq((1, 30.0), (2, 30.0)))
    assert(rows(res, "wa") == Seq((1, 60.0), (2, 90.0)))
    assert(shared.storageLevel != StorageLevel.NONE)
    res.close()
    assert(shared.storageLevel == StorageLevel.NONE)
  }

  test("a body two views aggregate is cached, not the view that only it joins") {
    import HandBuilt._
    // V_B feeds two root views at A, so both read the one body A ⋈ V_B.
    val plan = Plan(tree, IndexedSeq(vB, vA(1, "k", Seq(Att("x"))), vA(2, "x", Seq.empty)),
      Seq(output("wk", "k", 1), output("wx", "x", 2)), Map("wk" -> "A", "wx" -> "A"))
    val res = new Executor(dfs).run(plan)
    assert(res.persisted.map(_.columns.toSeq) == Seq(Seq("k", "x", "v0_a0")))
    assert(rows(res, "wk") == Seq((1, 60.0), (2, 90.0)))
    assert(rows(res, "wx") == Seq((2, 30.0), (3, 30.0)))
    res.close()
  }

  test("a view two outputs select is cached") {
    import HandBuilt._
    val plan = Plan(tree, IndexedSeq(vB, vA(1, "k", Seq(Att("x")))),
      Seq(output("w1", "k", 1), output("w2", "k", 1)), Map("w1" -> "A", "w2" -> "A"))
    val res = new Executor(dfs).run(plan)
    assert(res.persisted.map(_.columns.toSeq) == Seq(Seq("k", "v1_a0")))
    assert(rows(res, "w1") == Seq((1, 60.0), (2, 90.0)))
    assert(rows(res, "w2") == rows(res, "w1"))
    res.close()
  }

  test("close() releases only what its own run cached") {
    import org.apache.spark.storage.StorageLevel
    val ds   = Retailer
    val dfs  = TestData.dfs(ds, spark)
    val plan = new LmfaoService(spark, ds.tree, dfs, TestData.sizes(ds, spark))
      .planOnly(representativeBatch(ds))
    val first  = new Executor(dfs).run(plan)
    val second = new Executor(dfs).run(plan)
    assert(first.persisted.nonEmpty)
    second.close()
    assert(first.persisted.forall(_.storageLevel != StorageLevel.NONE))
    first.close()
    assert(first.persisted.forall(_.storageLevel == StorageLevel.NONE))
  }

  /** Collected rows of a frame as sorted strings, for row-for-row equality. */
  def rowsOf(df: org.apache.spark.sql.DataFrame): Seq[String] =
    df.collect().map(_.toSeq.map(String.valueOf).mkString("|")).sorted.toSeq

  /** The splits of the CART level tests below, and whether the level batch
    * adopts a frame the root's batch cached. A split reaches every frame
    * whose subtree holds its relation, except a body over that relation
    * itself (its condition is a factor above the body). Left unreached: on
    * Retailer the one cached frame, the Weather body (`maxtemp` is on
    * Weather); on Favorita the three cached views keyed by date and item,
    * while `txns` reaches the Sales body; on Yelp the one cached frame, the
    * Business body (`b_stars` is on Business); on TPC-DS the views keyed by
    * store, promotion and customer, while `d_year` reaches the item body.
    * Yelp's `useful` is on Review, whose view joins the Business body, so it
    * leaves no frame unreached.
    */
  val levelSplits: Seq[(SchemaDataset, String, Boolean)] = Seq(
    (Retailer, "maxtemp", true), (Favorita, "txns", true), (Yelp, "b_stars", true), (TpcDs, "d_year", true),
    (Yelp, "useful", false))

  for ((ds, a, adopts) <- levelSplits) {
    val name =
      if (adopts) s"${ds.name}: a CART level batch adopts the previous level's cached views"
      else s"${ds.name}: a CART level batch split on $a releases every frame the previous level cached"
    test(name) {
      import org.apache.spark.storage.StorageLevel
      import repro.apps.DecisionTree
      val dfs   = TestData.dfs(ds, spark)
      // One continuous feature per relation, so views of every relation
      // carry conditions.
      val all   = ds.continuous.filterNot(_ == ds.label)
      val cont  = ds.tree.relations.flatMap(r => all.find(r.attrSet.contains)).take(4)
      val cat   = ds.categorical.take(2)
      val thr   = DecisionTree.bucketThresholds(dfs, ds.tree, cont, buckets = 4)
      def level(nodes: Seq[(Int, Seq[Fx])], depth: Int) =
        DecisionTree.levelBatch(nodes, cont, cat, ds.label, classification = false, thr, depth)
      // Depth 0 is the root alone; depth 1 its two children under a real
      // threshold, as CART expands them.
      assert(cont.contains(a))
      val t      = thr(a)(thr(a).size / 2).toString
      val batch2 = level(Seq(1 -> Seq(Ind(a, "<=", t)), 2 -> Seq(Ind(a, ">", t))), 1)
      val planner = new LmfaoService(spark, ds.tree, dfs, TestData.sizes(ds, spark))
      val plan2   = planner.planOnly(batch2)

      val res1 = new Executor(dfs).run(planner.planOnly(level(Seq(0 -> Seq.empty), 0)))
      res1.outputs.values.foreach(_.collect())
      val frames1 = res1.persisted
      val (res2, jobs) = jobsStartedBy(new Executor(dfs).run(plan2, Some(res1)))
      assert(jobs == 0, s"run started $jobs Spark jobs")
      val frames2 = res2.persisted
      val adopted = frames1.filter(f => frames2.exists(_ eq f))
      assert(frames1.nonEmpty)
      assert(adopted.nonEmpty == adopts, s"${adopted.size} of ${frames1.size} frames adopted")
      assert(frames1.filterNot(f => adopted.exists(_ eq f)).forall(_.storageLevel == StorageLevel.NONE))
      assert(frames2.forall(_.storageLevel != StorageLevel.NONE))

      val fresh = new Executor(dfs).run(plan2)
      for (q <- batch2) {
        assert(rowsOf(res2.outputs(q.name)) == rowsOf(fresh.outputs(q.name)), s"query ${q.name}")
        Oracle.assertEquivalent(res2.outputs(q.name), SqlGen.querySql(ds.tree, q),
          TestData.tables(ds, spark): _*)
      }
      fresh.close()
      res1.close()
      assert(frames2.forall(_.storageLevel != StorageLevel.NONE))
      res2.close()
      assert((frames1 ++ frames2).forall(_.storageLevel == StorageLevel.NONE))
    }
  }

  test("a batch that fails to plan releases the previous batch's views") {
    import org.apache.spark.storage.StorageLevel
    val ds    = Favorita
    val dfs   = TestData.dfs(ds, spark)
    val batch = representativeBatch(ds)
    val svc   = new LmfaoService(spark, ds.tree, dfs, TestData.sizes(ds, spark))
    // Frames with the plans the service persists: a frame's storage level is
    // looked up by its plan, so they show whether the service's copies are
    // cached.
    val probe  = new Executor(dfs).run(svc.planOnly(batch))
    val frames = probe.persisted
    probe.close()
    assert(frames.nonEmpty)
    svc.run(batch)
    assert(frames.forall(_.storageLevel != StorageLevel.NONE))
    intercept[IllegalArgumentException] {
      svc.run(Seq(AggQuery("bad", Seq("no_such_attribute"), Seq(NamedAgg("cnt", Nil)))))
    }
    assert(frames.forall(_.storageLevel == StorageLevel.NONE))
    svc.close()
  }

  test("multiple aggregates over one view keep independent columns") {
    val ds  = Favorita
    val dfs = TestData.dfs(ds, spark)
    val svc = new LmfaoService(spark, ds.tree, dfs)
    val out = svc.run(Seq(AggQuery("q", Seq.empty, Seq(
      NamedAgg("a1", Seq(Att("oilprize"))),
      NamedAgg("a2", Seq(Pow("oilprize", 2))),
      NamedAgg("a3", Seq(Cst(3.0)))))))
    val r = out("q").collect()(0)
    assert(r.getDouble(2) > 0 && r.getDouble(0) > 0 && r.getDouble(1) >= r.getDouble(0))
    svc.close()
  }
}
