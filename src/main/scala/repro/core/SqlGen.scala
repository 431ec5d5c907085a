package repro.core

/** Renders batch queries to DuckDB SQL over the raw input tables — used by
  * the correctness oracle (every LMFAO result is diffed against DuckDB
  * executing the *unoptimized* query) and for documentation.
  */
object SqlGen {

  /** `FROM r1 NATURAL JOIN r2 ...` in BFS order of the join tree. */
  def fromClause(tree: JoinTree): String =
    tree.bfsOrder(tree.relations.head.name).mkString(" NATURAL JOIN ")

  /** Full SELECT for one query of the batch. Output column names match the
    * query's group-by attributes and aggregate names exactly, as the oracle
    * requires.
    */
  def querySql(tree: JoinTree, q: AggQuery): String = {
    val sel = (q.groupBy ++ q.aggs.map(a => s"SUM(${a.productSql}) AS ${a.name}")).mkString(", ")
    val gb  = if (q.groupBy.isEmpty) "" else s" GROUP BY ${q.groupBy.mkString(", ")}"
    s"SELECT $sel FROM ${fromClause(tree)}$gb"
  }
}
