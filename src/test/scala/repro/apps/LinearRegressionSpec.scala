package repro.apps

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.core._
import repro.datasets.{Favorita, Retailer}

/** End-to-end ridge linear regression: the LMFAO path must agree with the
  * closed form computed over the materialized join (the MADlib baseline),
  * and BGD must agree with the closed form — the paper's §4.2 accuracy
  * assertion ("same accuracy as the closed-form solution").
  */
class LinearRegressionSpec extends SparkSpec {

  def contFeats(ds: repro.datasets.SchemaDataset, n: Int): Seq[String] =
    (ds.label +: ds.continuous.filterNot(_ == ds.label).take(n - 1)).distinct

  /** The full joins the per-dataset tests cached, released in `afterAll`. */
  private val cachedJoins = mutable.ArrayBuffer[DataFrame]()

  override def afterAll(): Unit = {
    cachedJoins.foreach(_.unpersist())
    super.afterAll()
  }

  for (ds <- Seq(Retailer, Favorita)) {
    lazy val dfs = TestData.dfs(ds, spark)
    lazy val joined = {
      val j = FlatJoinService.fullJoin(ds.tree, dfs).persist()
      cachedJoins += j
      j
    }

    test(s"${ds.name}: LMFAO closed form equals flat-join closed form (continuous)") {
      val cont = contFeats(ds, 5)
      val svc   = new LmfaoService(spark, ds.tree, dfs, TestData.sizes(ds, spark))
      val covar = CovarMatrix.compute(svc, cont, Seq.empty)
      svc.close()
      val m1 = LinearRegression.trainClosedForm(covar, ds.label, lambda = 1e-6)
      val m2 = LinearRegression.trainFlatGram(joined, cont, Seq.empty, ds.label, lambda = 1e-6)
      assert(m1.features == m2.features)
      for ((a, b) <- m1.theta.zip(m2.theta)) assert(math.abs(a - b) < 1e-6, "theta mismatch")
    }

    test(s"${ds.name}: BGD matches the closed form (paper's accuracy claim)") {
      // λ=0, so both optimizers minimize the same objective: at λ > 0 the
      // ridge term of trainBgd acts on rescaled parameters, the closed
      // form's on raw ones. The default λ is checked at large N below.
      val cont = contFeats(ds, 4)
      val svc   = new LmfaoService(spark, ds.tree, dfs)
      val covar = CovarMatrix.compute(svc, cont, Seq.empty)
      svc.close()
      val closed = LinearRegression.trainClosedForm(covar, ds.label, lambda = 0.0)
      val (bgd, iters) = LinearRegression.trainBgd(covar, ds.label, lambda = 0.0)
      assert(iters < 5000)
      val rc = closed.rmse(joined)
      val rb = bgd.rmse(joined)
      assert(math.abs(rc - rb) < 1e-3 * math.max(1.0, rc), s"closed=$rc bgd=$rb")
    }
  }

  test("BGD at the default ridge weight matches the closed form at N = 10^6") {
    // Moments of y = 3 + 2x + e over N rows, with E[x] = 50, Var[x] = 100,
    // Var[e] = 4 and e independent of x. The ridge term must not grow with N
    // against the 1/N data term. The two ridge terms differ (rescaled vs raw
    // parameters), so the models are compared by in-sample rmse, as Table 4
    // compares them.
    val n = 1e6
    val covar = CovarMatrix.Covar(Seq("y", "x"), Seq.empty, n,
      Map("x" -> 50 * n, "y" -> 103 * n),
      Map(("x", "x") -> 2600 * n, ("x", "y") -> 5350 * n, ("y", "y") -> 11013 * n),
      Map.empty, Map.empty, Map.empty)
    val closed = LinearRegression.trainClosedForm(covar, "y")
    val (bgd, iters) = LinearRegression.trainBgd(covar, "y")
    assert(iters < 5000)
    assert(closed.theta.zip(Seq(3.0, 2.0)).forall { case (t, e) => math.abs(t - e) < 1e-4 * e },
      s"closed=${closed.theta.toSeq}")
    assert(bgd.features == closed.features)
    val (_, a, b, yy, _) = LinearRegression.systemFrom(covar, "y")
    def rmse(t: Array[Double]) = math.sqrt((LinAlg.dot(t, LinAlg.matVec(a, t)) - 2 * LinAlg.dot(b, t) + yy) / n)
    val (rb, rc) = (rmse(bgd.theta), rmse(closed.theta))
    assert(math.abs(rb - rc) < 1e-3 * rc, s"bgd=$rb closed=$rc")
  }

  test("Favorita: one-hot categorical model beats the continuous-only model in-sample") {
    val ds = Favorita
    val dfs = TestData.dfs(ds, spark)
    // Not persisted here: the Favorita tests above may have cached this very
    // plan, and unpersisting it would drop their shared entry.
    val joined = FlatJoinService.fullJoin(ds.tree, dfs)
    val cont = Seq(ds.label, "txns", "oilprize")
    val svc = new LmfaoService(spark, ds.tree, dfs)
    val covarPlain = CovarMatrix.compute(svc, cont, Seq.empty)
    val covarCat   = CovarMatrix.compute(svc, cont, Seq("perishable"))
    svc.close()
    val plain = LinearRegression.trainClosedForm(covarPlain, ds.label, 1e-6)
    val cat   = LinearRegression.trainClosedForm(covarCat, ds.label, 1e-6)
    // `perishable` is correlated with the demand signal by construction.
    assert(cat.rmse(joined) <= plain.rmse(joined) + 1e-9)
  }

  test("model beats the predict-the-mean baseline on held-out data (signal exists)") {
    val ds = Favorita
    val trainDfs = TestData.dfs(ds, spark)
    // Held-out data: a 3× larger draw from the same generative process (same
    // seed keeps the signal functions identical; re-seeding would change
    // E[label|features] itself). Training dimensions only cover a third of
    // the bigger key space, so the join keeps a mostly-fresh sample.
    val testDfs = trainDfs + (ds.fact -> ds.load(spark, TestData.SF * 3)(ds.fact))
    val testJoin = FlatJoinService.fullJoin(ds.tree, testDfs).persist()
    val svc = new LmfaoService(spark, ds.tree, trainDfs)
    val covar = CovarMatrix.compute(svc, Seq(ds.label, "txns", "oilprize", "class"),
      Seq("perishable", "family"))
    svc.close()
    val model = LinearRegression.trainClosedForm(covar, ds.label, 1e-6)
    val rmse = model.rmse(testJoin)
    val meanLabel = covar.moments(ds.label) / covar.count
    val baseRmse = math.sqrt(
      testJoin.select(avg(pow(col(ds.label).cast("double") - meanLabel, 2)))
        .collect()(0).getDouble(0))
    assert(rmse < baseRmse, s"model=$rmse mean-baseline=$baseRmse")
    testJoin.unpersist()
  }

  test("SGD epoch baseline runs and is at least directionally sane") {
    val ds = Favorita
    val dfs = TestData.dfs(ds, spark)
    val joined = FlatJoinService.fullJoin(ds.tree, dfs)
    val shuffled = joined.orderBy(rand(1)).persist()
    shuffled.count()
    val cont = Seq(ds.label, "txns", "oilprize")
    val m = LinearRegression.sgdOneEpoch(shuffled, cont, ds.label, batchSize = 1000, step0 = 1e-6)
    assert(m.theta.length == cont.size) // intercept + 2 features
    assert(m.theta.forall(v => !v.isNaN && !v.isInfinite))
    shuffled.unpersist()
  }

  test("SGD epoch over one partition and one batch is one gradient step from zero") {
    import spark.implicits._
    val df = Seq((1.0, 2.0), (2.0, 3.0), (3.0, 5.0)).toDF("x", "y").coalesce(1)
    val m  = LinearRegression.sgdOneEpoch(df, Seq("x", "y"), "y", batchSize = 3, step0 = 0.1)
    // θ = 0 − step · (1/n) Σ (θ·x − y) x = 0.1 · (Σ y, Σ x·y) / 3.
    assert(m.features == Seq(CovarMatrix.FeatureIdx.Intercept, CovarMatrix.FeatureIdx.Cont("x")))
    assert(m.theta.toSeq == Seq(0.1 * 10.0 / 3, 0.1 * 23.0 / 3))
  }

  test("prediction column evaluates the dot product") {
    import CovarMatrix.FeatureIdx._
    val m = LinearRegression.Model(Seq(Intercept, Cont("x"), Cat("k", "a")), Array(1.0, 2.0, 10.0), "y")
    import spark.implicits._
    val df = Seq((3.0, "a", 0.0), (4.0, "b", 0.0)).toDF("x", "k", "y")
    val got = df.select(m.predictionCol).collect().map(_.getDouble(0)).toSeq
    assert(got == Seq(1.0 + 6.0 + 10.0, 1.0 + 8.0))
  }

  test("systemFrom excludes the label from the feature set") {
    val ds = Favorita
    val dfs = TestData.dfs(ds, spark)
    val svc = new LmfaoService(spark, ds.tree, dfs)
    val covar = CovarMatrix.compute(svc, Seq(ds.label, "txns"), Seq.empty)
    svc.close()
    val (features, a, b, _, n) = LinearRegression.systemFrom(covar, ds.label)
    assert(!features.contains(CovarMatrix.FeatureIdx.Cont(ds.label)))
    assert(a.length == features.size && b.length == features.size && n > 0)
  }
}
