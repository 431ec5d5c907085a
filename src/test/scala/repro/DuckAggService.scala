package repro

import java.sql.Connection
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DoubleType, StringType, StructField, StructType}
import repro.core.{AggQuery, AggService, JoinTree, SqlGen}

/** Ground truth for the applications: each query of a batch is run by
  * DuckDB as its unoptimized SQL (`SqlGen.querySql`) over the raw tables that
  * `Oracle.connect` loaded into `conn`, and handed back as a Spark DataFrame
  * (group-by values as strings, aggregates as doubles), so that unchanged
  * application code decodes it. The caller closes `conn`.
  */
final class DuckAggService(spark: SparkSession, conn: Connection, tree: JoinTree) extends AggService {
  def run(batch: Seq[AggQuery]): Map[String, DataFrame] = batch.map { q =>
    val (_, rows) = Oracle.query(conn, SqlGen.querySql(tree, q))
    val nGb = q.groupBy.size
    val typed = rows.map(r => Row.fromSeq(r.toSeq.zipWithIndex.map {
      case (null, _)                  => null
      case (x, i) if i < nGb          => x.toString
      case (x: java.lang.Number, _)   => x.doubleValue
      case (x, _)                     => x.toString.toDouble
    }))
    val schema = StructType(q.groupBy.map(StructField(_, StringType)) ++
      q.aggs.map(a => StructField(a.name, DoubleType)))
    q.name -> spark.createDataFrame(typed.asJava, schema)
  }.toMap
}
