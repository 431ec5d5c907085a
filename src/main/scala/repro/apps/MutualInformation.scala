package repro.apps

import org.apache.spark.sql.DataFrame
import repro.core._

/** Pairwise mutual information and Chow-Liu structure learning (§2, eq. 7).
  *
  * The batch computes, for every pair of discrete attributes (Xi, Xj), the
  * count queries grouping by every subset of {Xi, Xj} — i.e. a 2-D count
  * data cube per pair, with the single-attribute and empty group-bys shared
  * across all pairs. MI is then the driver-side 4-ary function
  * f(α,β,γ,δ) = δ/α · log(α·δ / (β·γ)) summed over the pair's cells.
  */
object MutualInformation {

  val TotalQ = "mi_total"
  def singleQ(a: String): String          = s"mi_1_$a"
  def pairQ(a: String, b: String): String = s"mi_2_${a}__$b"

  /** Batch: 1 total count + n single-attribute counts + n(n-1)/2 pair counts. */
  def batch(attrs: Seq[String]): Seq[AggQuery] = {
    val total   = AggQuery(TotalQ, Seq.empty, Seq(NamedAgg("cnt", Seq.empty)))
    val singles = attrs.map(a => AggQuery(singleQ(a), Seq(a), Seq(NamedAgg("cnt", Seq.empty))))
    val pairs = for (i <- attrs.indices; j <- (i + 1) until attrs.size) yield
      AggQuery(pairQ(attrs(i), attrs(j)), Seq(attrs(i), attrs(j)), Seq(NamedAgg("cnt", Seq.empty)))
    (total +: singles) ++ pairs
  }

  def numAggregates(n: Int): Int = 1 + n + n * (n - 1) / 2

  /** Decode the batch output into MI values for every attribute pair. */
  def collect(out: Map[String, DataFrame], attrs: Seq[String]): Map[(String, String), Double] = {
    val total = new BatchOutput(out(TotalQ)).scalar("cnt")
    val marginals: Map[String, Map[String, Double]] = attrs.map { a =>
      val o = new BatchOutput(out(singleQ(a)))
      a -> o.rows.map(r => o.key(r, a) -> o.num(r, "cnt")).toMap
    }.toMap
    (for (i <- attrs.indices; j <- (i + 1) until attrs.size) yield {
      val (a, b) = (attrs(i), attrs(j))
      val cells  = new BatchOutput(out(pairQ(a, b)))
      val mi = cells.rows.map { r =>
        val (va, vb, delta) = (cells.key(r, a), cells.key(r, b), cells.num(r, "cnt"))
        val beta  = marginals(a)(va)
        val gamma = marginals(b)(vb)
        if (delta <= 0) 0.0 else delta / total * math.log(total * delta / (beta * gamma))
      }.sum
      (a, b) -> mi
    }).toMap
  }

  def compute(service: AggService, attrs: Seq[String]): Map[(String, String), Double] =
    collect(service.run(batch(attrs)), attrs)

  /** Chow-Liu: the maximum spanning tree over pairwise MI (Prim's algorithm),
    * greedily adding the highest-MI edge connecting a new node — the optimal
    * tree-shaped Bayesian network (§2).
    */
  def chowLiu(mi: Map[(String, String), Double], attrs: Seq[String]): Seq[(String, String)] = {
    def w(a: String, b: String): Double = mi.getOrElse((a, b), mi.getOrElse((b, a), 0.0))
    if (attrs.size < 2) return Seq.empty
    val inTree = scala.collection.mutable.LinkedHashSet(attrs.head)
    val edges  = scala.collection.mutable.ArrayBuffer[(String, String)]()
    while (inTree.size < attrs.size) {
      val (a, b, _) = (for (x <- inTree.iterator; y <- attrs if !inTree(y)) yield (x, y, w(x, y)))
        .maxBy(_._3)
      edges += ((a, b)); inTree += b
    }
    edges.toSeq
  }
}
