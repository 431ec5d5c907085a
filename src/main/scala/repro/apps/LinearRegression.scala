package repro.apps

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.AggService
import CovarMatrix.{Covar, FeatureIdx}

/** End-to-end ridge linear regression (§2, §4.2).
  *
  * The LMFAO path computes the covar matrix over the join through an
  * [[AggService]] and trains on the (tiny) gram matrix — either the closed
  * form (normal equations, what MADlib's OLS computes) or batch gradient
  * descent with Armijo line search and Barzilai–Borwein step sizes (the
  * paper's optimizer). No training-set materialization ever happens.
  */
object LinearRegression {

  /** A trained model over the one-hot feature space. */
  final case class Model(features: Seq[FeatureIdx], theta: Array[Double], label: String) {
    /** Prediction as a Catalyst expression over a flat (joined) DataFrame. */
    def predictionCol: Column =
      features.zip(theta).map {
        case (FeatureIdx.Intercept, w)  => lit(w)
        case (FeatureIdx.Cont(c), w)    => col(c).cast("double") * w
        case (FeatureIdx.Cat(k, v), w)  => when(col(k).cast("string") === v, w).otherwise(0.0)
      }.reduce(_ + _)

    /** Root-mean-square error over a flat test set. */
    def rmse(test: DataFrame): Double = {
      val err = test.select(
        avg(pow(col(label).cast("double") - predictionCol, 2)).as("mse"))
        .collect()(0).getDouble(0)
      math.sqrt(err)
    }
  }

  /** Extract (gram matrix A, X'y, y'y, N) for `label` from a covar matrix.
    * Features are every one-hot column except the label itself.
    */
  def systemFrom(covar: Covar, label: String)
      : (Seq[FeatureIdx], Array[Array[Double]], Array[Double], Double, Double) = {
    val labelIdx = FeatureIdx.Cont(label)
    val features = covar.oneHot.filterNot(_ == labelIdx)
    val a  = features.map(f1 => features.map(f2 => covar.gram(f1, f2)).toArray).toArray
    val b  = features.map(f => covar.gram(f, labelIdx)).toArray
    val yy = covar.gram(labelIdx, labelIdx)
    (features, a, b, yy, covar.count)
  }

  /** Closed-form ridge: solve (A + λN·I)θ = b. (λ=0 → plain OLS; the ridge
    * term follows the paper's J(θ) with the 1/|D| data term.)
    */
  def trainClosedForm(covar: Covar, label: String, lambda: Double = 1e-6): Model = {
    val (features, a, b, _, n) = systemFrom(covar, label)
    val m = a.map(_.clone())
    for (i <- m.indices) m(i)(i) += lambda * n
    Model(features, LinAlg.solve(m, b), label)
  }

  /** BGD with Armijo + BB over the covar matrix (the paper's optimizer).
    *
    * The raw second-moment matrix mixes attribute scales spanning several
    * orders of magnitude, so each feature is rescaled by its root mean
    * square `sqrt(A_ii / N)` (a Jacobi preconditioner). The ridge term
    * applies to the *rescaled* parameters, which matches training on
    * normalized features as every practical system does; the scale does not
    * grow with N, so the ridge term keeps its weight against the 1/N data
    * term at any dataset size.
    */
  def trainBgd(covar: Covar, label: String, lambda: Double = 1e-6,
               maxIter: Int = 5000): (Model, Int) = {
    val (features, a, b, yy, n) = systemFrom(covar, label)
    val d = features.indices.map(i => math.sqrt(math.max(a(i)(i) / n, 1e-300))).toArray
    val aS = Array.tabulate(features.size, features.size)((i, j) => a(i)(j) / (d(i) * d(j)))
    val bS = Array.tabulate(features.size)(i => b(i) / d(i))
    val (thetaS, iters) = LinAlg.bgdRidge(aS, bS, yy, n, lambda, maxIter)
    val theta = Array.tabulate(features.size)(i => thetaS(i) / d(i))
    (Model(features, theta, label), iters)
  }

  /** LMFAO/AC-DC-style end-to-end training: aggregate batch + driver-side
    * optimization.
    */
  def train(service: AggService, cont: Seq[String], cat: Seq[String], label: String,
            lambda: Double = 1e-6): Model = {
    require(cont.contains(label), s"label $label must be one of the continuous attributes")
    trainBgd(CovarMatrix.compute(service, cont, cat), label, lambda)._1
  }

  /** MADlib-proxy baseline: compute the gram matrix directly over the
    * *materialized* flat training set (`joined`) and solve the closed form.
    * The flat aggregation re-reads the wide join — the cost the paper's
    * two-step systems pay.
    */
  def trainFlatGram(joined: DataFrame, cont: Seq[String], cat: Seq[String], label: String,
                    lambda: Double = 1e-6): Model = {
    // Reuse the covar machinery over a single-relation "tree" would obscure
    // the baseline; aggregate the flat frame directly instead.
    import repro.core.{AggQuery, FlatJoinService, JoinTree, Relation}
    val rel  = Relation("flat", joined.columns.toSeq)
    val tree = JoinTree(Seq(rel), Seq.empty)
    val svc  = new FlatJoinService(joined.sparkSession, tree, Map("flat" -> joined), cached = false)
    val covar = CovarMatrix.compute(svc, cont, cat)
    trainClosedForm(covar, label, lambda)
  }

  /** TensorFlow-proxy baseline: one epoch of mini-batch SGD (FTRL-flavoured
    * plain SGD with a decaying step) over the shuffled materialized training
    * set, continuous features only — mirrors §B's TensorFlow setup (iterator
    * over batches of the shuffled join).
    */
  def sgdOneEpoch(shuffled: DataFrame, cont: Seq[String], label: String,
                  batchSize: Int = 500_000, step0: Double = 1e-6): Model = {
    val feats = cont.filterNot(_ == label)
    val d = feats.size + 1
    // Project to the numeric columns only (categorical strings stay behind).
    val rows = shuffled.select((feats :+ label).map(c => col(c).cast("double")): _*)
      .rdd.map { r =>
        val x = new Array[Double](d)
        x(0) = 1.0
        var i = 0
        while (i < feats.size) { x(i + 1) = r.getDouble(i); i += 1 }
        (x, r.getDouble(feats.size))
      }
    // One pass: accumulate per-partition gradient updates batch by batch.
    val parts = rows.mapPartitions { it =>
      val local = new Array[Double](d)
      var grad  = new Array[Double](d)
      var nInBatch = 0L
      var step = step0
      for ((x, y) <- it) {
        val err = LinAlg.dot(local, x) - y
        var i = 0
        while (i < d) { grad(i) += err * x(i); i += 1 }
        nInBatch += 1
        if (nInBatch == batchSize) {
          var j = 0
          while (j < d) { local(j) -= step * grad(j) / nInBatch; j += 1 }
          grad = new Array[Double](d); nInBatch = 0; step *= 0.99
        }
      }
      if (nInBatch > 0) {
        var j = 0
        while (j < d) { local(j) -= step * grad(j) / nInBatch; j += 1 }
      }
      Iterator.single(local)
    }.collect()
    // Average the per-partition updates (parameter-averaging SGD).
    val avgd = Array.tabulate(d)(i => parts.map(_(i)).sum / parts.length)
    Model(FeatureIdx.Intercept +: feats.map(FeatureIdx.Cont), avgd, label)
  }
}
