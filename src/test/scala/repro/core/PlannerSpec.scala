package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.datasets.{Favorita, Retailer}

class PlannerSpec extends AnyFunSuite {

  def chain(n: Int): JoinTree = JoinTree(
    (1 until n).map(k => Relation(s"S$k", Seq(s"X$k", s"X${k + 1}"))),
    (1 until n - 1).map(k => s"S$k" -> s"S${k + 1}")).requireValid()

  def countQ(name: String, gb: String*): AggQuery =
    AggQuery(name, gb.toSeq, Seq(NamedAgg("cnt", Nil)))

  // ---------- decomposition shape ----------

  test("a single scalar count creates one view per relation") {
    val plan = Planner.planBatch(Favorita.tree, Seq(AggQuery.count("q")),
      forcedRoot = Some("Sales"))
    // One directional view per edge (5) + the output view at the root.
    assert(plan.views.size == 6)
    assert(plan.views.count(_.to.isDefined) == 5)
    assert(plan.outputs.size == 1)
  }

  test("directional views flow toward the root along each edge") {
    val plan = Planner.planBatch(Favorita.tree, Seq(AggQuery.count("q")),
      forcedRoot = Some("Sales"))
    val dirs = plan.views.filter(_.to.isDefined).map(v => (v.from, v.to.get)).toSet
    assert(dirs == Set(("Transactions", "Sales"), ("Holiday", "Sales"), ("Items", "Sales"),
      ("Stores", "Transactions"), ("Oil", "Transactions")))
  }

  test("view group-by attributes are the edge join attributes plus needed group-bys") {
    val plan = Planner.planBatch(Favorita.tree,
      Seq(countQ("q", "family")), forcedRoot = Some("Sales"))
    val itemsView = plan.views.find(v => v.from == "Items" && v.to.contains("Sales")).get
    assert(itemsView.groupBy.toSet == Set("item", "family"))
    val holView = plan.views.find(v => v.from == "Holiday" && v.to.contains("Sales")).get
    assert(holView.groupBy == Seq("date"))
  }

  test("aggregate factors are pushed to the relation that holds their attribute") {
    val q = AggQuery("q", Seq.empty,
      Seq(NamedAgg("a", Seq(Att("unitsales"), Att("oilprize")))))
    val plan = Planner.planBatch(Favorita.tree, Seq(q), forcedRoot = Some("Sales"))
    val oilView = plan.views.find(v => v.from == "Oil").get
    assert(oilView.aggs.exists(_.local == Seq(Att("oilprize"))))
    val out = plan.views(plan.outputs.head.view)
    assert(out.aggs.head.local == Seq(Att("unitsales")))
    // Transactions forwards Oil's aggregate without local factors.
    val txView = plan.views.find(v => v.from == "Transactions").get
    assert(txView.aggs.head.local.isEmpty)
    assert(txView.body.contains(oilView.id))
  }

  test("n-ary factors spanning subtrees are rejected") {
    // Binary factor simulated via a product would be fine; an Fx with two
    // attributes cannot exist in the current AST, but a factor whose single
    // attribute appears nowhere must be rejected upstream.
    val q = AggQuery("q", Seq.empty, Seq(NamedAgg("a", Seq(Att("nosuch")))))
    intercept[IllegalArgumentException] {
      Planner.planBatch(Favorita.tree, Seq(q))
    }
  }

  test("duplicate query names are rejected") {
    intercept[IllegalArgumentException] {
      Planner.planBatch(Favorita.tree, Seq(AggQuery.count("q"), AggQuery.count("q")))
    }
  }

  // ---------- merging ----------

  test("merge case (3): identical views for different queries are shared") {
    // Q1 and Q2 of Examples 3.1/3.2: same body, V_T/V_H/V_O/V_R shareable.
    val q1 = AggQuery("q1", Seq.empty, Seq(NamedAgg("a", Seq(Att("unitsales"), Att("oilprize")))))
    val q2 = AggQuery("q2", Seq("family"), Seq(NamedAgg("a", Seq(Att("oilprize")))))
    val plan = Planner.planBatch(Favorita.tree, Seq(q1, q2), forcedRoot = Some("Sales"))
    // The Transactions->Sales view (and below) is built once, not twice.
    assert(plan.views.count(v => v.from == "Transactions" && v.to.contains("Sales")) == 1)
    assert(plan.views.count(v => v.from == "Oil") == 1)
    val tx = plan.views.find(v => v.from == "Transactions").get
    assert(tx.aggs.size == 1) // exact same aggregate is reused by both queries
  }

  test("merge case (2): same view accumulates different aggregates") {
    val q1 = AggQuery("q1", Seq.empty, Seq(NamedAgg("a", Seq(Att("oilprize")))))
    val q2 = AggQuery("q2", Seq.empty, Seq(NamedAgg("a", Seq(Pow("oilprize", 2)))))
    val plan = Planner.planBatch(Favorita.tree, Seq(q1, q2), forcedRoot = Some("Sales"))
    val oil = plan.views.filter(_.from == "Oil")
    assert(oil.size == 1)
    assert(oil.head.aggs.size == 2) // g(price) and g²(price) merged into one view
  }

  test("merge case (1) precondition: group-by refinements stay separate views (Example 3.4 discussion)") {
    // The paper's Example 3.4 merges V_T and V_T' whose *bodies* differ only
    // because of the binary UDAF h(txns, city). With the unary-factor AST of
    // this reproduction, bodies inside one (edge, group-by) view are always
    // identical, so case-1 merging can never trigger from the planner: a
    // query grouping by city legitimately refines the view's group-by and
    // must stay a separate view. (A view has one body, `ViewSpec.body`, so a
    // view over two bodies cannot even be built.)
    val q1 = AggQuery("q1", Seq.empty, Seq(NamedAgg("a", Seq(Att("oilprize")))))
    val q3 = AggQuery("q3", Seq("city"), Seq(NamedAgg("a", Seq(Att("txns")))))
    val plan = Planner.planBatch(Favorita.tree, Seq(q1, q3), forcedRoot = Some("Sales"))
    val tx = plan.views.filter(v => v.from == "Transactions" && v.to.contains("Sales"))
    assert(tx.size == 2)
    assert(tx.map(_.groupBy.toSet).toSet == Set(Set("date", "store"), Set("date", "store", "city")))
    for (v <- plan.views)
      assert(v.body.forall(_ < v.id), v.toString)
  }

  test("unmerged planning (merge=false) creates one view per query per edge") {
    val qs = (1 to 3).map(i => AggQuery.count(s"q$i"))
    val merged   = Planner.planBatch(Favorita.tree, qs, forcedRoot = Some("Sales"))
    val unmerged = Planner.planBatch(Favorita.tree, qs, merge = false, forcedRoot = Some("Sales"))
    assert(merged.views.size == 6)          // shared across the 3 identical queries
    assert(unmerged.views.size == 3 * 6)    // 3 × (5 edges + output)
    // A query with several aggregates keeps one view per edge plus its
    // output, not one per aggregate and edge.
    val multi = AggQuery("m", Seq("family"), Seq(NamedAgg("c", Nil),
      NamedAgg("s", Seq(Att("txns"))), NamedAgg("p", Seq(Att("oilprize"), Att("unitsales")))))
    val perQuery = Planner.planBatch(Favorita.tree, Seq(multi, AggQuery.count("q")),
      merge = false, forcedRoot = Some("Sales"))
    assert(perQuery.views.size == 2 * 6)
    assert(perQuery.views.filter(_.from == "Oil").map(_.aggs.size).sorted == Seq(1, 2))
  }

  test("every view has one body, merged or not, on every application batch") {
    // One body per view: each aggregate names one child per body view, and
    // the body lists only views planned before this one.
    import repro.apps.{CovarMatrix, DataCube, DecisionTree, MutualInformation}
    import repro.datasets.{SchemaDataset, TpcDs, Yelp}
    for (ds <- Seq[SchemaDataset](Retailer, Favorita, Yelp, TpcDs)) {
      val cont = ds.continuous.filterNot(_ == ds.label)
      val thr  = cont.map(_ -> Seq(1.0, 5.0, 20.0)).toMap
      val (c1, c2, k1) = (cont.head, cont(1 % cont.size), ds.categorical.head)
      // A depth-2 level of three open nodes, with synthetic conditions.
      val level = Seq(
        3 -> Seq(Ind(c1, "<=", "15.0"), Ind(c2, "<=", "5.0")),
        4 -> Seq(Ind(c1, "<=", "15.0"), Ind(c2, ">", "5.0")),
        5 -> Seq(Ind(c1, ">", "15.0"), Ind(k1, "=", "x", numeric = false)))
      val batches = Seq(
        "covar" -> CovarMatrix.batch(ds.continuous, ds.categorical),
        "MI"    -> MutualInformation.batch(ds.miAttrs),
        "cube"  -> DataCube.batch(ds.cubeDims, ds.cubeMeasures),
        "RT"    -> DecisionTree.levelBatch(Seq(0 -> Seq.empty), cont, ds.categorical, ds.label,
          classification = false, thr, level = 0),
        "CART"  -> DecisionTree.levelBatch(level, cont, ds.categorical, ds.label,
          classification = false, thr, level = 2))
      for ((name, batch) <- batches; merge <- Seq(true, false)) {
        val plan = Planner.planBatch(ds.tree, batch, merge = merge)
        for (v <- plan.views) {
          assert(v.body.forall(_ < v.id), s"${ds.name} $name merge=$merge: $v reads ${v.body}")
          assert(v.aggs.forall(_.children.size == v.body.size), s"${ds.name} $name merge=$merge: $v")
        }
      }
    }
  }

  test("merge case (3) dedup keeps each view's aggregates distinct and named a0, a1, ... in order") {
    import repro.apps.CovarMatrix
    val F = Favorita.tree
    val singles = (1 to 6).map(i => countQ(s"q$i", s"X$i"))
    val pairs = for (i <- 1 to 6; j <- (i + 1) to 6) yield countQ(s"p${i}_$j", s"X$i", s"X$j")
    val chainCounts = (1 to 8).map(i => countQ(s"q$i", s"X$i"))
    val sales = Some("Sales")
    // Every batch planned above, with the A/I/V/G that the linear-scan dedup
    // (the planner before the hash index) gave for it.
    val cases: Seq[(Plan, PlanStats)] = Seq(
      Planner.planBatch(F, Seq(AggQuery.count("q")), forcedRoot = sales) -> PlanStats(1, 5, 6, 6),
      Planner.planBatch(F, Seq(countQ("q", "family")), forcedRoot = sales) -> PlanStats(1, 5, 6, 6),
      Planner.planBatch(F, Seq(AggQuery("q", Seq.empty,
        Seq(NamedAgg("a", Seq(Att("unitsales"), Att("oilprize")))))), forcedRoot = sales) -> PlanStats(1, 5, 6, 6),
      Planner.planBatch(F, Seq(
        AggQuery("q1", Seq.empty, Seq(NamedAgg("a", Seq(Att("unitsales"), Att("oilprize"))))),
        AggQuery("q2", Seq("family"), Seq(NamedAgg("a", Seq(Att("oilprize")))))),
        forcedRoot = sales) -> PlanStats(2, 6, 8, 6),
      Planner.planBatch(F, Seq(AggQuery("q1", Seq.empty, Seq(NamedAgg("a", Seq(Att("oilprize"))))),
        AggQuery("q2", Seq.empty, Seq(NamedAgg("a", Seq(Pow("oilprize", 2)))))),
        forcedRoot = sales) -> PlanStats(2, 7, 6, 6),
      Planner.planBatch(F, Seq(AggQuery("q1", Seq.empty, Seq(NamedAgg("a", Seq(Att("oilprize"))))),
        AggQuery("q3", Seq("city"), Seq(NamedAgg("a", Seq(Att("txns")))))),
        forcedRoot = sales) -> PlanStats(2, 8, 9, 6),
      Planner.planBatch(F, (1 to 3).map(i => AggQuery.count(s"q$i")), forcedRoot = sales) -> PlanStats(3, 5, 6, 6),
      Planner.planBatch(chain(8), chainCounts) -> PlanStats(8, 12, 20, 13),
      Planner.planBatch(chain(8), chainCounts, forcedRoot = Some("S1")) -> PlanStats(8, 27, 35, 7),
      Planner.planBatch(chain(6), singles) -> PlanStats(6, 8, 14, 9),
      Planner.planBatch(chain(6), singles ++ pairs) -> PlanStats(21, 18, 39, 9),
      Planner.planBatch(F, Seq(AggQuery("a", Seq.empty, Seq(NamedAgg("x", Nil), NamedAgg("y", Seq(Att("txns"))))),
        countQ("b", "family"))) -> PlanStats(3, 7, 7, 6),
      Planner.planBatch(F, Seq(AggQuery.count("a"), countQ("b", "family"), countQ("c", "city"))) ->
        PlanStats(3, 8, 11, 10),
      Planner.planBatch(F, Seq(AggQuery("q1", Seq.empty, Seq(NamedAgg("a", Seq(Att("unitsales"))))),
        countQ("q2", "family"))) -> PlanStats(2, 6, 7, 6),
      Planner.planBatch(Retailer.tree, CovarMatrix.batch(Retailer.continuous, Retailer.categorical)) ->
        PlanStats(815, 1146, 26, 7),
    )
    for ((plan, expected) <- cases) {
      assert(plan.stats == expected)
      for (v <- plan.views) {
        assert(v.aggs.map(_.name) == v.aggs.indices.map(i => s"a$i"), v.toString)
        assert(v.aggs.map(a => (a.local, a.children)).distinct.size == v.aggs.size, v.toString)
      }
      for (o <- plan.outputs; (_, agg) <- o.aggNames)
        assert(plan.views(o.view).aggs.exists(_.name == agg))
    }
  }

  test("a two-sibling CART level batch shares the views that carry no node condition") {
    import repro.apps.DecisionTree
    val cont = Seq("txns", "oilprize", "class")
    val thr  = cont.map(_ -> Seq(10.0, 20.0, 30.0)).toMap
    val sides = Seq(1 -> Seq(Ind("txns", "<=", "15.0")), 2 -> Seq(Ind("txns", ">", "15.0")))
    def plan(nodes: Seq[(Int, Seq[Fx])]): Plan = Planner.planBatch(Favorita.tree,
      DecisionTree.levelBatch(nodes, cont, Seq("perishable", "stype"), Favorita.label,
        classification = false, thr, level = 1))
    val both = plan(sides)
    val apart = sides.map(n => plan(Seq(n)))
    assert(both.stats.appAggs == apart.map(_.stats.appAggs).sum)
    assert(both.stats.intermediateAggs < apart.map(_.stats.intermediateAggs).sum,
      s"together ${both.stats}, apart ${apart.map(_.stats)}")
  }

  // ---------- Example 3.3: chain with per-query roots ----------

  test("chain counts with multi-root need O(n) linear views") {
    val n = 8
    val t  = chain(n)
    val qs = (1 to n).map(i => countQ(s"q$i", s"X$i"))
    val plan = Planner.planBatch(t, qs)
    // With per-query roots every view's group-by stays on a single attribute
    // pair boundary: no view carries two attributes from distant relations.
    for (v <- plan.views)
      assert(v.groupBy.size <= 2, s"view ${v.direction} group-by ${v.groupBy}")
    // Left/right sweep views are shared: strictly fewer views than the
    // single-root O(n²) expansion.
    val single = Planner.planBatch(t, qs, forcedRoot = Some("S1"))
    assert(plan.views.size < single.views.size)
    val wideSingle = single.views.map(_.groupBy.size).max
    assert(wideSingle >= 2, "single-root plan drags group-by attributes across the chain")
  }

  test("chain pair counts reuse the single-attribute sweep views") {
    val n = 6
    val t = chain(n)
    val singles = (1 to n).map(i => countQ(s"q$i", s"X$i"))
    val pairs = for (i <- 1 to n; j <- (i + 1) to n) yield countQ(s"p${i}_$j", s"X$i", s"X$j")
    val planSingles = Planner.planBatch(t, singles)
    val planBoth    = Planner.planBatch(t, singles ++ pairs)
    assert(planBoth.views.size > planSingles.views.size)
    assert(planBoth.stats.appAggs == singles.size + pairs.size)
  }

  // ---------- stats & groups ----------

  test("stats count application aggregates exactly") {
    val qs = Seq(
      AggQuery("a", Seq.empty, Seq(NamedAgg("x", Nil), NamedAgg("y", Seq(Att("txns"))))),
      countQ("b", "family"),
    )
    val plan = Planner.planBatch(Favorita.tree, qs)
    assert(plan.stats.appAggs == 3)
    assert(plan.stats.views == plan.views.size)
    assert(plan.stats.groups == plan.groups.size)
  }

  test("group DAG is acyclic: every dependency crosses to a smaller depth") {
    val qs = Seq(AggQuery.count("a"), countQ("b", "family"), countQ("c", "city"),
      countQ("d", "category" /* Yelp-free: use Favorita attr */))
    val plan = Planner.planBatch(Favorita.tree,
      qs.filter(_.attrs.subsetOf(Favorita.tree.allAttrs.toSet)))
    for (v <- plan.views; c <- v.body)
      assert(plan.depths(c) < plan.depths(v.id), s"view ${v.id} depends on $c")
  }

  test("groups partition the views") {
    val qs = Seq(AggQuery.count("a"), countQ("b", "family"), countQ("c", "city"))
    val plan = Planner.planBatch(Favorita.tree, qs)
    val grouped = plan.groups.flatMap(_._2)
    assert(grouped.sorted == plan.views.map(_.id).sorted)
  }

  test("multi-root on Favorita queries at different relations yields multiple groups per node when needed") {
    // Queries rooted at Items and at Sales force views in both directions on
    // the Sales–Items edge (the paper's Figure 3 scenario).
    val q1 = AggQuery("q1", Seq.empty, Seq(NamedAgg("a", Seq(Att("unitsales")))))
    val q2 = countQ("q2", "family")
    val plan = Planner.planBatch(Favorita.tree, Seq(q1, q2))
    val roots = plan.roots
    if (roots("q1") != roots("q2")) {
      val dirs = plan.views.filter(_.to.isDefined).map(v => (v.from, v.to.get))
      // At least one edge carries views in both directions.
      assert(dirs.exists { case (f, t0) => dirs.contains((t0, f)) })
    }
  }

  test("Retailer covar-sized batch consolidates thousands of edge views into tens (Table 2 shape)") {
    import repro.apps.CovarMatrix
    val batch = CovarMatrix.batch(Retailer.continuous, Retailer.categorical)
    val plan  = Planner.planBatch(Retailer.tree, batch)
    val naive = plan.stats.appAggs * Retailer.tree.edges.size
    assert(plan.stats.views < 100, s"views=${plan.stats.views}")
    assert(naive > 2000, "the unshared view count would be in the thousands")
    assert(plan.stats.appAggs == CovarMatrix.numAggregates(
      Retailer.continuous.size, Retailer.categorical.size))
  }
}
