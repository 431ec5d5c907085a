package repro.tables

import java.nio.file.{Files, Path}
import java.util.Comparator
import scala.util.Using
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.apps._
import repro.datasets._

/** The four aggregate-batch workloads of §4.1 (Count / Covar Matrix /
  * Regression-Tree Node / Mutual Information / Data Cube) instantiated per
  * dataset, plus shared bench plumbing (sizing, loading, environment knobs).
  */
object Workloads {

  /** Benchmark scale factor (fact tables: Retailer 80K rows at 0.02).
    * Overridable via REPRO_BENCH_SF; the default keeps the full five-table
    * bench under an hour on a 16-core laptop-class machine.
    */
  def benchSf: Double = sys.env.get("REPRO_BENCH_SF").map(_.toDouble).getOrElse(0.02)
  /** Tree depth for Tables 4–5. Paper: 4 (max 31 nodes); default 2 here to
    * bound bench time — set REPRO_TREE_DEPTH=4 for the paper-faithful run.
    */
  def treeDepth: Int = sys.env.get("REPRO_TREE_DEPTH").map(_.toInt).getOrElse(2)
  /** Buckets per continuous attribute. Paper: 20; default 10 here —
    * REPRO_TREE_BUCKETS=20 for the paper-faithful run.
    */
  def treeBuckets: Int = sys.env.get("REPRO_TREE_BUCKETS").map(_.toInt).getOrElse(10)

  val datasets: Seq[SchemaDataset] = Seq(Retailer, Favorita, Yelp, TpcDs)

  /** Load and persist a dataset; returns (dfs, sizes). Load time is excluded
    * from every measurement, as in the paper ("we do not report the times to
    * load the database into memory").
    */
  def loadPersisted(spark: SparkSession, ds: SchemaDataset, sf: Double)
      : (Map[String, DataFrame], Map[String, Long]) = {
    val dfs = ds.load(spark, sf).map { case (n, df) =>
      n -> df.persist(StorageLevel.MEMORY_AND_DISK)
    }
    (dfs, ds.sizes(dfs))
  }

  /** The single count query (Table 3's calibration row). */
  def countBatch: Seq[AggQuery] = Seq(AggQuery.count("count"))

  /** Covar matrix over all non-key attributes (§B setup). */
  def covarBatch(ds: SchemaDataset): Seq[AggQuery] =
    CovarMatrix.batch(ds.continuous, ds.categorical)

  /** One regression-tree node (the root): COUNT/SUM/SUM² for every candidate
    * condition — 20 per continuous attribute, one group-by query per
    * categorical attribute (eq. 8).
    */
  def rtNodeBatch(ds: SchemaDataset, dfs: Map[String, DataFrame]): Seq[AggQuery] = {
    val cont = ds.continuous.filterNot(_ == ds.label)
    val thr  = DecisionTree.bucketThresholds(dfs, ds.tree, cont, treeBuckets)
    DecisionTree.levelBatch(Seq(0 -> Seq.empty), cont, ds.categorical, ds.label,
      classification = false, thr, level = 0)
  }

  /** All-pairs mutual information over the dataset's discrete attributes. */
  def miBatch(ds: SchemaDataset): Seq[AggQuery] = MutualInformation.batch(ds.miAttrs)

  /** 3-dimensional, 5-measure data cube (§B setup). */
  def cubeBatch(ds: SchemaDataset): Seq[AggQuery] =
    DataCube.batch(ds.cubeDims, ds.cubeMeasures)

  /** The named workloads of Table 3, in paper order. */
  def batches(ds: SchemaDataset, dfs: Map[String, DataFrame]): Seq[(String, Seq[AggQuery])] = Seq(
    "Count"        -> countBatch,
    "Covar Matrix" -> covarBatch(ds),
    "RT Node"      -> rtNodeBatch(ds, dfs),
    "Mutual Info"  -> miBatch(ds),
    "Data Cube"    -> cubeBatch(ds),
  )

  /** Rough in-memory size of a DataFrame in MB: rows × Σ per-column width
    * (numeric widths by type, strings by average length). Good enough for
    * the Table 1/2 "size" columns, which the paper also reports coarsely.
    */
  def sizeMb(df: DataFrame, rows: Long): Double = {
    if (rows == 0) return 0.0
    val numericBytes = df.schema.map { f =>
      f.dataType.typeName match {
        case "integer" | "date" => 4.0
        case "long" | "double"  => 8.0
        case _                  => 0.0
      }
    }.sum
    // String columns measured separately (one flat agg, no deep expression
    // chain — outputs can have thousands of columns).
    val strCols = df.schema.filter(_.dataType.typeName == "string").map(_.name)
    val stringBytes =
      if (strCols.isEmpty) 0.0
      else {
        val aggs = strCols.map(c => avg(length(col(c)).cast("double")).as(c))
        val r = df.limit(10000).agg(aggs.head, aggs.tail: _*).collect()(0)
        strCols.indices.map(i => Option(r.get(i)).map(_.asInstanceOf[Number].doubleValue).getOrElse(0.0)).sum
      }
    rows * (numericBytes + stringBytes) / 1e6
  }

  /** Force full evaluation of a batch result: collect every output, as an
    * application would, one after the other. A shared view is filled by the
    * first output that reads it. Returns the number of rows collected.
    */
  def drain(out: Map[String, DataFrame]): Long =
    out.values.map(_.collect().length.toLong).sum

  /** The paper's PSQL data-prep steps (Tables 4–5), in Spark: materialize
    * the full join, then export a randomly shuffled copy (when `shuffle`)
    * and a plain copy as parquet. The copies live in a temporary directory
    * only while `use` runs; `use` gets the shuffled copy read back. The
    * directory is deleted afterwards, and on failure the join is unpersisted.
    * Returns the persisted join (the caller unpersists it), the timed steps
    * and `use`'s result.
    */
  def prepJoin[A](tree: JoinTree, dfs: Map[String, DataFrame], shuffle: Boolean)
                 (use: Option[DataFrame] => A): (DataFrame, Seq[(String, Double)], A) = {
    val joined = FlatJoinService.fullJoin(tree, dfs)
    val (_, tJoin) = Timing.timed { joined.persist(StorageLevel.MEMORY_AND_DISK).count() }
    val dir = Files.createTempDirectory("repro-export")
    try {
      val shuffled = Option.when(shuffle) {
        Timing.timed { joined.orderBy(rand(7)).write.parquet(s"$dir/shuffled") }._2
      }
      val (_, tExport) = Timing.timed { joined.write.parquet(s"$dir/export") }
      val steps = Seq("Join (materialize)" -> tJoin) ++
        shuffled.map("Join Shuffle+Export" -> _) :+ ("Join Export" -> tExport)
      (joined, steps, use(shuffled.map(_ => joined.sparkSession.read.parquet(s"$dir/shuffled"))))
    } catch { case e: Throwable => joined.unpersist(blocking = false); throw e }
    finally Using.resource(Files.walk(dir)) { paths =>
      paths.sorted(Comparator.reverseOrder[Path]()).forEach(Files.delete(_))
    }
  }

  /** Evaluate a batch per-query through the baseline, timing the whole run.
    * When `sampleCap` < number of queries, only an evenly-spaced sample is
    * executed and the total is extrapolated (flagged by the caller) — used
    * to bound the cold-join MonetDB-proxy runs.
    */
  def timeBaseline(svc: FlatJoinService, batch: Seq[AggQuery], sampleCap: Int = Int.MaxValue)
      : (Double, Boolean) = {
    val qs = if (batch.size <= sampleCap) batch
             else {
               val stride = batch.size.toDouble / sampleCap
               (0 until sampleCap).map(i => batch((i * stride).toInt))
             }
    val (_, t) = Timing.timed { qs.foreach(q => svc.runOne(q).collect()) }
    if (qs.size == batch.size) (t, false)
    else (t * batch.size / qs.size, true)
  }
}
