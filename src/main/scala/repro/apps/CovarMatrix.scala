package repro.apps

import org.apache.spark.sql.DataFrame
import repro.core._

/** The covar-matrix workload (§2, eqs. 2–4): the non-centered covariance
  * matrix over all (continuous and categorical) features of a dataset, as a
  * batch of group-by aggregates over the join.
  *
  * Query granularity mirrors what the paper hands to every engine: one query
  * per distinct group-by set, carrying all its aggregates —
  *  - one scalar query: COUNT, all first moments SUM(Xi) and all pairwise
  *    second moments SUM(Xi·Xj) of continuous attributes (eq. 2);
  *  - one query per categorical attribute K: group-by K with COUNT and
  *    SUM(Xi) for every continuous Xi (eq. 3);
  *  - one query per categorical pair (K,K'): group-by (K,K') with COUNT
  *    (eq. 4).
  */
object CovarMatrix {

  val ScalarQ = "covar_scalar"
  def catQ(k: String)                = s"covar_cat_$k"
  def catPairQ(k1: String, k2: String) = s"covar_cat2_${k1}__$k2"
  def momentName(c: String)          = s"m__$c"
  def prodName(c1: String, c2: String) = s"p__${c1}__$c2"

  /** Build the batch. `cont` should include the model label. */
  def batch(cont: Seq[String], cat: Seq[String]): Seq[AggQuery] = {
    val scalarAggs =
      NamedAgg("cnt", Seq.empty) +:
      (cont.map(c => NamedAgg(momentName(c), Seq(Att(c)))) ++
       (for (i <- cont.indices; j <- i until cont.size)
         yield NamedAgg(prodName(cont(i), cont(j)),
                        if (i == j) Seq(Pow(cont(i), 2)) else Seq(Att(cont(i)), Att(cont(j))))))
    val scalar = AggQuery(ScalarQ, Seq.empty, scalarAggs)
    val perCat = cat.map { k =>
      AggQuery(catQ(k), Seq(k),
        NamedAgg("cnt", Seq.empty) +: cont.map(c => NamedAgg(momentName(c), Seq(Att(c)))))
    }
    val perCatPair = for (i <- cat.indices; j <- (i + 1) until cat.size) yield
      AggQuery(catPairQ(cat(i), cat(j)), Seq(cat(i), cat(j)),
               Seq(NamedAgg("cnt", Seq.empty)))
    scalar +: (perCat ++ perCatPair)
  }

  /** Number of application aggregates in the batch (Table 2's "A"). */
  def numAggregates(nCont: Int, nCat: Int): Int =
    1 + nCont + nCont * (nCont + 1) / 2 + nCat * (1 + nCont) + nCat * (nCat - 1) / 2

  /** Collected covar results, assembled driver-side (they are small —
    * Table 2 reports KBs to hundreds of MBs; ours are KBs at these SFs).
    */
  final case class Covar(cont: Seq[String], cat: Seq[String],
                         count: Double,
                         moments: Map[String, Double],
                         prods: Map[(String, String), Double],
                         catCnt: Map[String, Map[String, Double]],
                         catMoments: Map[String, Map[(String, String), Double]],
                         catPairCnt: Map[(String, String), Map[(String, String), Double]]) {

    def prod(c1: String, c2: String): Double =
      prods.getOrElse((c1, c2), prods((c2, c1)))

    /** One-hot feature space: intercept :: continuous :: (cat=value) columns. */
    lazy val oneHot: Seq[FeatureIdx] =
      FeatureIdx.Intercept +:
      (cont.map(FeatureIdx.Cont) ++
       cat.flatMap(k => catCnt(k).keys.toSeq.sorted.map(v => FeatureIdx.Cat(k, v))))

    /** Gram-matrix entry between two one-hot features. */
    def gram(a: FeatureIdx, b: FeatureIdx): Double = (a, b) match {
      case (FeatureIdx.Intercept, FeatureIdx.Intercept) => count
      case (FeatureIdx.Intercept, FeatureIdx.Cont(c))   => moments(c)
      case (FeatureIdx.Cont(c), FeatureIdx.Intercept)   => moments(c)
      case (FeatureIdx.Intercept, FeatureIdx.Cat(k, v)) => catCnt(k).getOrElse(v, 0.0)
      case (FeatureIdx.Cat(k, v), FeatureIdx.Intercept) => catCnt(k).getOrElse(v, 0.0)
      case (FeatureIdx.Cont(c1), FeatureIdx.Cont(c2))   => prod(c1, c2)
      case (FeatureIdx.Cont(c), FeatureIdx.Cat(k, v))   => catMoments(k).getOrElse((v, c), 0.0)
      case (FeatureIdx.Cat(k, v), FeatureIdx.Cont(c))   => catMoments(k).getOrElse((v, c), 0.0)
      case (FeatureIdx.Cat(k1, v1), FeatureIdx.Cat(k2, v2)) =>
        if (k1 == k2) { if (v1 == v2) catCnt(k1).getOrElse(v1, 0.0) else 0.0 }
        else catPairCnt.get((k1, k2)).map(_.getOrElse((v1, v2), 0.0))
          .orElse(catPairCnt.get((k2, k1)).map(_.getOrElse((v2, v1), 0.0)))
          .getOrElse(0.0)
    }
  }

  sealed trait FeatureIdx
  object FeatureIdx {
    case object Intercept extends FeatureIdx
    final case class Cont(attr: String) extends FeatureIdx
    final case class Cat(attr: String, value: String) extends FeatureIdx
  }

  /** Run the batch through a service and collect into a [[Covar]]. */
  def compute(service: AggService, cont: Seq[String], cat: Seq[String]): Covar = {
    val out = service.run(batch(cont, cat))
    collect(out, cont, cat)
  }

  /** Assemble service outputs (small aggregate tables) into a [[Covar]]. */
  def collect(out: Map[String, DataFrame], cont: Seq[String], cat: Seq[String]): Covar = {
    val sums = new BatchOutput(out(ScalarQ))
    val moments = cont.map(c => c -> sums.scalar(momentName(c))).toMap
    val prods = (for (i <- cont.indices; j <- i until cont.size)
      yield (cont(i), cont(j)) -> sums.scalar(prodName(cont(i), cont(j)))).toMap

    val perCat = cat.map(k => k -> new BatchOutput(out(catQ(k)))).toMap
    val catCnt = perCat.map { case (k, o) => k -> o.rows.map(r => o.key(r, k) -> o.num(r, "cnt")).toMap }
    val catMoments = perCat.map { case (k, o) =>
      k -> o.rows.flatMap(r => cont.map(c => (o.key(r, k), c) -> o.num(r, momentName(c)))).toMap
    }
    val catPairCnt = (for (i <- cat.indices; j <- (i + 1) until cat.size) yield {
      val (k1, k2) = (cat(i), cat(j))
      val o = new BatchOutput(out(catPairQ(k1, k2)))
      (k1, k2) -> o.rows.map(r => (o.key(r, k1), o.key(r, k2)) -> o.num(r, "cnt")).toMap
    }).toMap

    Covar(cont, cat, sums.scalar("cnt"), moments, prods, catCnt, catMoments, catPairCnt)
  }
}
