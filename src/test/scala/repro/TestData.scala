package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.datasets.SchemaDataset

/** Shared, cached tiny datasets for the test run (one JVM for all suites).
  *
  * SF=0.002 keeps every relation small enough for the DuckDB oracle's
  * row-by-row ingestion while still joining with realistic multiplicities.
  */
object TestData {
  val SF = 0.002

  private val cache = scala.collection.mutable.Map[(String, Double), Map[String, DataFrame]]()
  private val sizeCache = scala.collection.mutable.Map[(String, Double), Map[String, Long]]()

  def dfs(ds: SchemaDataset, spark: SparkSession, sf: Double = SF): Map[String, DataFrame] =
    synchronized {
      cache.getOrElseUpdate((ds.name, sf), {
        val m = ds.load(spark, sf).map { case (n, df) =>
          n -> df.persist(StorageLevel.MEMORY_AND_DISK)
        }
        m.values.foreach(_.count())
        m
      })
    }

  def sizes(ds: SchemaDataset, spark: SparkSession, sf: Double = SF): Map[String, Long] =
    synchronized {
      sizeCache.getOrElseUpdate((ds.name, sf), ds.sizes(dfs(ds, spark, sf)))
    }

  /** Oracle table list for a dataset: every relation by name. */
  def tables(ds: SchemaDataset, spark: SparkSession, sf: Double = SF): Seq[(String, DataFrame)] =
    dfs(ds, spark, sf).toSeq
}
