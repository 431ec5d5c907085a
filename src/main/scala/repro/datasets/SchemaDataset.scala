package repro.datasets

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types._
import repro.core.JoinTree

/** One of the paper's four evaluation databases (Appendix A), rebuilt as a
  * deterministic synthetic generator over the same schema and join tree.
  *
  * Substitution (documented in DESIGN.md §3): the original datasets are
  * proprietary (Retailer), Kaggle-hosted (Favorita, Yelp) or generated by the
  * TPC-DS toolkit — none available in this sealed image. The generators
  * preserve what the workloads exercise: schema shape (star/snowflake, fact +
  * dimensions, Yelp's many-to-many blowup), attribute classes (categorical vs
  * continuous), and key-referential structure. All numeric attributes are
  * *integers*, so double sums differ across engines only by summation-order
  * rounding, which the DuckDB oracle absorbs by comparing doubles to 12
  * significant digits.
  */
trait SchemaDataset {
  def name: String
  /** The join tree of Figure 6 for this dataset. */
  def tree: JoinTree
  /** Generate all relations at the given scale factor (deterministic in
    * (sf, seed)). Column types are ints/longs/strings/nothing exotic.
    */
  def load(spark: SparkSession, sf: Double, seed: Long = 42): Map[String, DataFrame]

  /** The fact relation (largest, partition-parallelized in the paper). */
  def fact: String
  /** Join keys — excluded from feature sets as in §B. */
  def keys: Seq[String]
  /** Continuous (integer-valued) feature attributes. */
  def continuous: Seq[String]
  /** Categorical feature attributes. */
  def categorical: Seq[String]
  /** Label for regression models (LR, regression tree). */
  def label: String
  /** Attributes for the pairwise mutual-information workload (§B: all
    * categorical plus some discrete continuous ones).
    */
  def miAttrs: Seq[String]
  /** Data-cube dimensions (3) and measures (5) (§B). */
  def cubeDims: Seq[String]
  def cubeMeasures: Seq[String]

  /** Relation cardinalities for root assignment / stats. */
  def sizes(dfs: Map[String, DataFrame]): Map[String, Long] =
    dfs.map { case (n, df) => n -> df.count() }
}

/** Shared generator helpers. */
object Gen {
  import org.apache.spark.sql.functions._
  import org.apache.spark.sql.Column

  /** Deterministic pseudo-random int in [0, n) derived from key columns — a
    * hash-based generator, so relations agree on shared attributes without
    * coordination and regeneration is reproducible.
    */
  def hint(n: Int, seed: Long, cols: Column*): Column =
    pmod(hash((cols :+ lit(seed)): _*).cast(LongType), lit(n.toLong)).cast(IntegerType)

  /** Deterministic categorical pick from `values`. */
  def hcat(values: Seq[String], seed: Long, cols: Column*): Column =
    element_at(array(values.map(lit): _*), hint(values.size, seed, cols: _*) + 1)

  def scaled(base: Long, sf: Double, min: Long = 1L): Long =
    math.max(min, (base * sf).toLong)
}
