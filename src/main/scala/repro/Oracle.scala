package repro

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.{DataFrame, Row}
import scala.math.Ordering.Implicits.seqOrdering

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** Doubles compare to 12 significant digits: that absorbs the rounding
    * left by the engines' different summation orders, while a larger
    * difference shows at any magnitude.
    */
  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.12g"
          case f: Float             => f"${f.toDouble}%.12g"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.12g"
          case x                    => x.toString
        }
      })
      .sorted
  }

  /** A fresh in-memory DuckDB holding `tables`, every column as VARCHAR
    * (the SQL renderings of [[repro.core.Fx]] cast where they compute).
    * Collects each table once: keep them small.
    */
  def connect(tables: (String, DataFrame)*): Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      conn
    } catch { case e: Throwable => conn.close(); throw e }
  }

  /** Runs `sql`; returns the column labels and the rows. */
  def query(conn: Connection, sql: String): (Seq[String], Seq[Row]) = {
    val st = conn.createStatement
    try {
      val rs   = st.executeQuery(sql)
      val cols = (1 to rs.getMetaData.getColumnCount).map(rs.getMetaData.getColumnLabel)
      val rows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to cols.size).map(r.getObject)))
        .toList
      (cols, rows)
    } finally st.close()
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    val conn = connect(tables: _*)
    try {
      val (dCols, dRows) = query(conn, sql)
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
