package repro

/** The oracle itself: equal row multisets compare equal whatever order
  * either side returns them in, and unequal values do not.
  */
class OracleSpec extends SparkSpec {

  test("rows whose joined values collide are still sorted apart") {
    import spark.implicits._
    // The first two rows join to the same string without a separator, the
    // last two with a U+0001 separator. Both sides list each pair in
    // opposite orders, so a tied sort key leaves the sides misaligned.
    val sep = "\u0001"
    val df = Seq(("a", "bc"), ("ab", "c"), (s"a${sep}b", "c"), ("a", s"b${sep}c")).toDF("x", "y")
    Oracle.assertEquivalent(df,
      """SELECT * FROM (VALUES ('ab', 'c'), ('a', 'bc'),
                                ('a', 'b' || chr(1) || 'c'), ('a' || chr(1) || 'b', 'c')) t(x, y)""")
  }

  test("doubles that differ beyond the sixth decimal are a mismatch") {
    import spark.implicits._
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(Seq(1.0e-7).toDF("x"), "SELECT CAST(2.0e-7 AS DOUBLE) AS x")
    }
    assert(e.getMessage.contains("result mismatch"), e.getMessage)
  }
}
