package repro.apps

import org.apache.spark.sql.{DataFrame, Row}

/** One query output of a batch, collected and read by column name: group-by
  * values as strings, aggregates as doubles (an empty SUM, null, reads 0).
  */
final class BatchOutput(df: DataFrame) {
  val rows: Seq[Row] = df.collect().toSeq
  private val index: Map[String, Int] = df.columns.zipWithIndex.toMap

  def key(r: Row, c: String): String = r.get(index(c)).toString

  def num(r: Row, c: String): Double = r.get(index(c)) match {
    case null                => 0.0
    case x: java.lang.Number => x.doubleValue()
    case x                   => x.toString.toDouble
  }

  /** An aggregate of a query without group-by, which has exactly one row. */
  def scalar(c: String): Double = num(rows.head, c)
}
