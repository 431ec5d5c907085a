package repro.datasets

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.core.FlatJoinService

/** Generator sanity for all four synthetic databases: determinism, scaling,
  * referential structure, join-cardinality shape (Table 1 properties).
  */
class DatasetsSpec extends SparkSpec {
  val datasets: Seq[SchemaDataset] = Seq(Retailer, Favorita, Yelp, TpcDs)

  for (ds <- datasets) {
    lazy val dfs = TestData.dfs(ds, spark)

    test(s"${ds.name}: relations match the declared schema") {
      for (rel <- ds.tree.relations)
        assert(dfs(rel.name).columns.toSeq == rel.attrs, rel.name)
    }

    test(s"${ds.name}: generation is deterministic in (sf, seed)") {
      val again = ds.load(spark, TestData.SF)
      val rel = ds.tree.relations.head.name
      val a = dfs(rel).collect().map(_.toString).sorted
      val b = again(rel).collect().map(_.toString).sorted
      assert(a.toSeq == b.toSeq)
    }

    test(s"${ds.name}: a different seed changes the data") {
      val other = ds.load(spark, TestData.SF, seed = 123)
      val a = dfs(ds.fact).collect().map(_.toString).sorted
      val b = other(ds.fact).collect().map(_.toString).sorted
      assert(a.toSeq != b.toSeq)
    }

    test(s"${ds.name}: fact size scales with the scale factor") {
      val small = ds.load(spark, TestData.SF / 2)(ds.fact).count()
      val big   = dfs(ds.fact).count()
      assert(small < big)
    }

    test(s"${ds.name}: the fact table is the largest relation") {
      val sizes = TestData.sizes(ds, spark)
      assert(sizes(ds.fact) == sizes.values.max)
    }

    test(s"${ds.name}: full join preserves or expands the fact cardinality") {
      val factRows = dfs(ds.fact).count()
      val joinRows = FlatJoinService.fullJoin(ds.tree, dfs).count()
      assert(joinRows >= factRows, s"join=$joinRows fact=$factRows — dangling fact keys")
    }

    test(s"${ds.name}: no nulls in any relation") {
      for ((n, df) <- dfs) {
        val nulls = df.select(df.columns.toIndexedSeq.map(c => sum(when(col(c).isNull, 1).otherwise(0)).as(c)): _*)
          .collect()(0).toSeq.map(_.asInstanceOf[Long]).sum
        assert(nulls == 0L, s"relation $n has nulls")
      }
    }

    test(s"${ds.name}: continuous attributes are numeric, categorical are strings or small ints") {
      val flatCols = ds.tree.relations.flatMap(r => dfs(r.name).schema.map(f => f.name -> f.dataType)).toMap
      for (c <- ds.continuous)
        assert(Seq("integer", "long", "double").contains(flatCols(c).typeName), s"$c: ${flatCols(c)}")
    }

    test(s"${ds.name}: categorical attribute domains are small (one-hot friendly)") {
      val joined = FlatJoinService.fullJoin(ds.tree, dfs)
      for (k <- ds.categorical) {
        val dom = joined.select(col(k)).distinct().count()
        assert(dom <= 64, s"$k domain $dom")
      }
    }
  }

  test("Yelp: the full join blows up well beyond the fact (many-to-many, Table 1)") {
    val dfs = TestData.dfs(Yelp, spark)
    val factRows = dfs("Review").count()
    val joinRows = FlatJoinService.fullJoin(Yelp.tree, dfs).count()
    assert(joinRows > 5 * factRows, s"join=$joinRows fact=$factRows")
  }

  test("Retailer/Favorita/TPC-DS: join stays within ~1x of the fact (snowflake keys)") {
    for (ds <- Seq(Retailer, Favorita, TpcDs)) {
      val dfs = TestData.dfs(ds, spark)
      val factRows = dfs(ds.fact).count()
      val joinRows = FlatJoinService.fullJoin(ds.tree, dfs).count()
      assert(joinRows == factRows, s"${ds.name}: join=$joinRows fact=$factRows")
    }
  }

  test("Yelp: businesses have 2-6 categories and 3-7 attributes") {
    val dfs = TestData.dfs(Yelp, spark)
    val catCnt = dfs("Category").groupBy("business_id").count()
      .agg(min("count"), max("count")).collect()(0)
    assert(catCnt.getLong(0) >= 1 && catCnt.getLong(1) <= 6)
    val attCnt = dfs("Attribute").groupBy("business_id").count()
      .agg(min("count"), max("count")).collect()(0)
    assert(attCnt.getLong(0) >= 1 && attCnt.getLong(1) <= 7)
  }

  test("Favorita: transactions covers every (date, store) pair") {
    val dfs = TestData.dfs(Favorita, spark)
    val dates  = dfs("Oil").count()
    val stores = dfs("Stores").count()
    assert(dfs("Transactions").count() == dates * stores)
  }

  test("TPC-DS: classification label has both classes with signal") {
    val dfs = TestData.dfs(TpcDs, spark)
    val byClass = dfs("customer").groupBy("c_preferred_cust_flag").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(byClass.keySet == Set("Y", "N"))
    assert(byClass.values.forall(_ > 0))
  }
}
