package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** A factor of a product aggregate: a function of at most one attribute.
  *
  * LMFAO's UDAFs are sums of products of functions (§1.1). Every workload in
  * the paper's evaluation (covar matrices, decision-tree node costs, mutual
  * information counts, cube measures) uses unary factors only, which is what
  * we model: constants, the identity, integer powers, and Kronecker-delta
  * indicator conditions. Each factor renders both to a Spark [[Column]]
  * (Catalyst expression — the "compiled" form) and to DuckDB SQL (for the
  * oracle and the per-query SQL baselines).
  */
sealed trait Fx {
  /** Attributes this factor reads (empty for constants, singleton otherwise). */
  def attrs: Set[String]
  /** Catalyst rendering. */
  def toCol: Column
  /** DuckDB SQL rendering (input tables are ingested as VARCHAR → cast). */
  def toSql: String
}

/** Constant function `f() = v`. */
final case class Cst(v: Double) extends Fx {
  def attrs: Set[String] = Set.empty
  def toCol: Column      = lit(v)
  def toSql: String      = s"CAST($v AS DOUBLE)"
}

/** Identity `f(X) = X` (numeric attribute). */
final case class Att(a: String) extends Fx {
  def attrs: Set[String] = Set(a)
  def toCol: Column      = col(a).cast("double")
  def toSql: String      = s"CAST($a AS DOUBLE)"
}

/** Integer power `f(X) = X^k`, k >= 1. */
final case class Pow(a: String, k: Int) extends Fx {
  require(k >= 1, s"Pow($a, $k): exponent must be >= 1")
  def attrs: Set[String] = Set(a)
  def toCol: Column      = Seq.fill(k)(col(a).cast("double")).reduce(_ * _)
  def toSql: String      = Seq.fill(k)(s"CAST($a AS DOUBLE)").mkString(" * ")
}

/** Indicator `f(X) = 1 if (X op v) else 0` — the Kronecker delta used for
  * decision-tree split conditions. `op` is one of `<, <=, >, >=, =, <>`.
  * `numeric = false` compares as strings (categorical equality splits).
  */
final case class Ind(a: String, op: String, v: String, numeric: Boolean = true) extends Fx {
  require(Ind.Ops(op), s"Ind($a, $op, $v): unsupported operator")
  def attrs: Set[String] = Set(a)
  def toCol: Column = {
    val lhs: Column = if (numeric) col(a).cast("double") else col(a).cast("string")
    val rhs: Column = if (numeric) lit(v.toDouble) else lit(v)
    val cond = op match {
      case "<"  => lhs < rhs
      case "<=" => lhs <= rhs
      case ">"  => lhs > rhs
      case ">=" => lhs >= rhs
      case "="  => lhs === rhs
      case "<>" => lhs =!= rhs
    }
    when(cond, 1.0d).otherwise(0.0d)
  }
  def toSql: String = {
    val lhs = if (numeric) s"CAST($a AS DOUBLE)" else a
    val rhs = if (numeric) v else s"'${v.replace("'", "''")}'"
    s"(CASE WHEN $lhs $op $rhs THEN 1.0 ELSE 0.0 END)"
  }
}

object Ind { val Ops: Set[String] = Set("<", "<=", ">", ">=", "=", "<>") }

/** One named SUM-of-a-product aggregate: `name = SUM(prod_1 * ... * prod_k)`.
  * An empty product is `SUM(1)`, i.e. a count.
  */
final case class NamedAgg(name: String, product: Seq[Fx]) {
  def attrs: Set[String] = product.flatMap(_.attrs).toSet
  /** Catalyst product expression (before the SUM). */
  def productCol: Column =
    if (product.isEmpty) lit(1.0d) else product.map(_.toCol).reduce(_ * _)
  /** SQL product expression (before the SUM). */
  def productSql: String =
    if (product.isEmpty) "1.0" else product.map(_.toSql).mkString(" * ")
}

/** One query of the batch, in the paper's compact form (1):
  * `Q(groupBy ; aggs) += R_1(...), ..., R_m(...)` over the natural join of
  * the whole database. Aggregate names must be unique within a query.
  */
final case class AggQuery(name: String, groupBy: Seq[String], aggs: Seq[NamedAgg]) {
  require(aggs.nonEmpty, s"query $name has no aggregates")
  require(aggs.map(_.name).distinct.size == aggs.size,
          s"query $name has duplicate aggregate names")
  require(groupBy.distinct.size == groupBy.size,
          s"query $name has duplicate group-by attributes")
  def attrs: Set[String] = groupBy.toSet ++ aggs.flatMap(_.attrs)
}

object AggQuery {
  /** Convenience: a plain `COUNT(*)` over the join. */
  def count(name: String = "cnt"): AggQuery =
    AggQuery(name, Seq.empty, Seq(NamedAgg("cnt", Seq.empty)))
}
