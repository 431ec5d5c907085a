package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}

/** The Fx AST: Catalyst rendering, SQL rendering, and their agreement
  * (checked through the DuckDB oracle on a small typed table).
  */
class AggregatesSpec extends SparkSpec {

  /** Draw `n` deterministic samples from a ScalaCheck generator (the
    * scalatest/scalacheck bridge artifact is not in the offline cache).
    */
  def samples[A](g: Gen[A], n: Int): Seq[A] =
    (0 until n).flatMap(i => g.apply(Gen.Parameters.default, Seed(i.toLong)))
  import org.apache.spark.sql.DataFrame

  lazy val df: DataFrame = {
    import spark.implicits._
    (1 to 200).map(i => (i.toLong, i % 13, s"s${i % 7}")).toDF("k", "x", "c")
      .persist()
  }

  test("Cst renders a constant") {
    val s = df.select(sum(Cst(2.5).toCol)).collect()(0).getDouble(0)
    assert(s == 2.5 * 200)
  }

  test("Att renders the identity") {
    val s = df.select(sum(Att("x").toCol)).collect()(0).getDouble(0)
    assert(s == (1 to 200).map(_ % 13).sum.toDouble)
  }

  test("Pow(.,2) squares") {
    val s = df.select(sum(Pow("x", 2).toCol)).collect()(0).getDouble(0)
    assert(s == (1 to 200).map(i => (i % 13) * (i % 13)).sum.toDouble)
  }

  test("Pow(.,1) equals Att") {
    val a = df.select(sum(Pow("x", 1).toCol)).collect()(0).getDouble(0)
    val b = df.select(sum(Att("x").toCol)).collect()(0).getDouble(0)
    assert(a == b)
  }

  test("Pow rejects exponent 0") {
    intercept[IllegalArgumentException](Pow("x", 0))
  }

  test("Ind rejects unknown operator") {
    intercept[IllegalArgumentException](Ind("x", "!=", "3"))
  }

  for (op <- Seq("<", "<=", ">", ">=", "=", "<>")) {
    test(s"Ind numeric '$op' matches a Scala-side count") {
      val s = df.select(sum(Ind("x", op, "6").toCol)).collect()(0).getDouble(0)
      val expected = (1 to 200).map(_ % 13).count { v =>
        op match {
          case "<" => v < 6; case "<=" => v <= 6; case ">" => v > 6
          case ">=" => v >= 6; case "=" => v == 6; case "<>" => v != 6
        }
      }
      assert(s == expected.toDouble)
    }
  }

  test("Ind categorical equality counts string matches") {
    val s = df.select(sum(Ind("c", "=", "s3", numeric = false).toCol)).collect()(0).getDouble(0)
    assert(s == (1 to 200).count(i => s"s${i % 7}" == "s3").toDouble)
  }

  test("NamedAgg empty product is COUNT(*)") {
    val s = df.select(sum(NamedAgg("cnt", Seq.empty).productCol)).collect()(0).getDouble(0)
    assert(s == 200.0)
  }

  test("NamedAgg product multiplies factors") {
    val s = df.select(sum(NamedAgg("a", Seq(Att("x"), Ind("x", ">", "6"))).productCol))
      .collect()(0).getDouble(0)
    assert(s == (1 to 200).map(_ % 13).filter(_ > 6).sum.toDouble)
  }

  test("AggQuery rejects duplicate aggregate names") {
    intercept[IllegalArgumentException] {
      AggQuery("q", Seq.empty, Seq(NamedAgg("a", Nil), NamedAgg("a", Nil)))
    }
  }

  test("AggQuery rejects duplicate group-by attributes") {
    intercept[IllegalArgumentException] {
      AggQuery("q", Seq("x", "x"), Seq(NamedAgg("a", Nil)))
    }
  }

  test("AggQuery.attrs unions group-by and aggregate attributes") {
    val q = AggQuery("q", Seq("c"), Seq(NamedAgg("a", Seq(Att("x"), Cst(1.0)))))
    assert(q.attrs == Set("c", "x"))
  }

  // --- SQL rendering agrees with Catalyst rendering via the oracle ---

  test("oracle: SUM of Att/Pow products over a single table") {
    val out = df.groupBy(col("c")).agg(
      sum(NamedAgg("s1", Seq(Att("x"))).productCol).as("s1"),
      sum(NamedAgg("s2", Seq(Pow("x", 2))).productCol).as("s2"),
      sum(NamedAgg("s3", Seq(Att("x"), Att("k"))).productCol).as("s3"),
    )
    Oracle.assertEquivalent(out,
      s"""SELECT c, SUM(${Att("x").toSql}) AS s1, SUM(${Pow("x", 2).toSql}) AS s2,
          SUM(${Att("x").toSql} * ${Att("k").toSql}) AS s3 FROM t GROUP BY c""",
      "t" -> df)
  }

  test("oracle: indicator products") {
    val agg = NamedAgg("a", Seq(Ind("x", "<=", "5"), Ind("c", "<>", "s2", numeric = false)))
    val out = df.agg(sum(agg.productCol).as("a"))
    Oracle.assertEquivalent(out, s"SELECT SUM(${agg.productSql}) AS a FROM t", "t" -> df)
  }

  test("oracle: categorical indicator on a value containing a quote") {
    import spark.implicits._
    val names = Seq("o'neil", "oneil", "o'neil", "o''neil").toDF("c")
    val agg = NamedAgg("a", Seq(Ind("c", "=", "o'neil", numeric = false)))
    val out = names.agg(sum(agg.productCol).as("a"))
    assert(out.collect()(0).getDouble(0) == 2.0)
    Oracle.assertEquivalent(out, s"SELECT SUM(${agg.productSql}) AS a FROM t", "t" -> names)
  }

  test("property: Ind numeric thresholds agree with filter-count (ScalaCheck)") {
    val cases = samples(Gen.zip(Gen.choose(-2, 15), Gen.oneOf("<", "<=", ">", ">=", "=", "<>")), 20)
    for ((t, op) <- cases) {
      val s = df.select(sum(Ind("x", op, t.toString).toCol)).collect()(0).getDouble(0)
      val expected = (1 to 200).map(_ % 13).count { v =>
        op match {
          case "<" => v < t; case "<=" => v <= t; case ">" => v > t
          case ">=" => v >= t; case "=" => v == t; case "<>" => v != t
        }
      }
      assert(s == expected.toDouble, s"op=$op t=$t")
    }
  }

  test("property: product of constants is the product (ScalaCheck)") {
    val cases = samples(Gen.zip(Gen.choose(-5.0, 5.0), Gen.choose(-5.0, 5.0)), 20)
    for ((a, b) <- cases) {
      val s = df.limit(1).select(NamedAgg("p", Seq(Cst(a), Cst(b))).productCol).collect()(0).getDouble(0)
      assert(math.abs(s - a * b) < 1e-12)
    }
  }
}
