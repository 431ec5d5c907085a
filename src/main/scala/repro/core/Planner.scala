package repro.core

import scala.collection.mutable

/** One aggregate carried by a view: the product of `local` factors (evaluated
  * on the view's own relation) and one aggregate column of each view of the
  * body: `children(i)` names an aggregate of view `body(i)` of the owning
  * [[ViewSpec]]. The executor computes `SUM(local_1 * ... * child_1 * ...)`.
  */
final case class ViewAgg(name: String, local: Seq[Fx], children: Seq[String])

/** A (merged) directional view (§3.2): flows `from` → `to` along a join-tree
  * edge, or is a query output view rooted at `from` when `to` is None.
  *
  * Its one body is `from` natural-joined with the views `body`, in id order
  * and all planned before it (smaller ids); every aggregate reads that body. One view
  * over different bodies — the paper's merge case (1), which needs a binary
  * UDAF such as h(txns, city) — therefore cannot be represented; with unary
  * factors it never arises. Aggregates accumulate across the batch (merge
  * cases 2 and 3).
  */
final class ViewSpec(val id: Int, val from: String, val to: Option[String],
                     val groupBy: Seq[String], val body: Seq[Int]) {
  val aggs: mutable.ArrayBuffer[ViewAgg] = mutable.ArrayBuffer.empty
  def direction: String = to.map(t => s"$from->$t").getOrElse(s"$from (root)")
  override def toString: String =
    s"V$id[$direction](${groupBy.mkString(",")}; ${aggs.size} aggs)"
}

/** Output binding for one application query: which view holds its result and
  * how the view's internal aggregate names map to the query's names.
  */
final case class OutputSpec(query: AggQuery, view: Int, aggNames: Seq[(String, String)])

/** Statistics mirroring paper Table 2: application aggregates (A), synthesized
  * intermediate aggregates (I), merged views (V), view groups (G).
  */
final case class PlanStats(appAggs: Int, intermediateAggs: Int, views: Int, groups: Int) {
  override def toString: String = s"A=$appAggs I=$intermediateAggs V=$views G=$groups"
}

/** The fully planned batch. View ids are a topological order of the view
  * DAG: `views(i)` has id `i` and its body lists only smaller ids, so a pass
  * in id order meets every view after the views it reads.
  */
final case class Plan(tree: JoinTree, views: IndexedSeq[ViewSpec], outputs: Seq[OutputSpec],
                      roots: Map[String, String]) {
  for ((v, i) <- views.zipWithIndex) {
    require(v.id == i, s"$v is at index $i")
    require(v.body.forall(b => 0 <= b && b < i), s"$v reads views ${v.body} not planned before it")
    require(v.aggs.forall(_.children.size == v.body.size),
      s"$v has an aggregate that does not name one child aggregate per body view")
  }

  /** Longest-path depth of each view in the view-dependency DAG, by id
    * (leaves = 0). A view only depends on views of strictly smaller depth.
    */
  lazy val depths: IndexedSeq[Int] =
    views.foldLeft(Vector.empty[Int])((d, v) => d :+ v.body.map(d).maxOption.fold(0)(_ + 1))

  /** View groups (§3.4): views out of the same node at the same dependency
    * depth. Within a group no view depends on another (they share a depth in
    * the longest-path layering), and the group DAG is acyclic by construction
    * since every dependency crosses to a strictly smaller depth.
    */
  lazy val groups: Seq[((String, Int), Seq[Int])] =
    views.groupBy(v => (v.from, depths(v.id))).view.mapValues(_.map(_.id).toSeq)
      .toSeq.sortBy { case ((n, d), _) => (d, n) }

  lazy val stats: PlanStats = {
    val a = outputs.map(_.aggNames.size).sum
    val outputViewIds = outputs.map(_.view).toSet
    val i = views.filter(v => !outputViewIds.contains(v.id)).map(_.aggs.size).sum
    PlanStats(a, i, views.size, groups.size)
  }

  def describe: String = {
    val sb = new StringBuilder
    sb ++= s"Plan over ${tree.relations.size} relations: $stats\n"
    for (((node, depth), vs) <- groups) {
      sb ++= s"  group(node=$node, depth=$depth): ${vs.map(views(_)).mkString(", ")}\n"
    }
    sb.result()
  }
}

/** Reference to one aggregate column of one view: `(view id, aggregate name)`. */
private final case class AggRef(view: Int, agg: String)

/** The Aggregate Pushdown + Merge Views layers (§§3.2–3.4).
  *
  * For a query `Q(F; a)` rooted at S with children C_1..C_k, each product
  * aggregate decomposes into one directional view per edge: the view at
  * C_i → S groups by `(F ∩ attrs(T_i)) ∪ joinAttrs(S, C_i)` and carries the
  * partial product of the factors whose attributes live in the subtree T_i
  * (recursively decomposed the same way). Factors over attributes of S stay
  * local; every child contributes at least a count (join multiplicity).
  * A view's children are planned before it, so view ids are a topological
  * order of the view DAG.
  *
  * Merging: views are memoized by (scope, node, direction, group-by, body)
  * and identical aggregates of a view are deduplicated — cases (3) and (2).
  * Case (1) cannot arise with unary factors (see [[ViewSpec]]). The scope is
  * empty with `merge = true` (default), so views are shared across the
  * batch; with `merge = false` it is the query name, so each query keeps its
  * own views, one per edge plus its output: the unshared AC/DC-style ablation.
  */
private final class Planner(tree: JoinTree, merge: Boolean) {
  private val specs = mutable.ArrayBuffer[ViewSpec]()
  private val memo  = mutable.Map[(Option[String], String, Option[String], Seq[String], Seq[Int]), Int]()
  private val outs  = mutable.ArrayBuffer[OutputSpec]()
  /** Aggregate name by (view id, local, children): merge case (3) lookups in
    * constant time, so planning stays linear in the width of a view.
    */
  private val aggIndex = mutable.HashMap[(Int, Seq[Fx], Seq[String]), String]()

  private def specFor(scope: Option[String], node: String, to: Option[String],
                      gb: Seq[String], body: Seq[Int]): ViewSpec =
    specs(memo.getOrElseUpdate((scope, node, to, gb, body), {
      val s = new ViewSpec(specs.size, node, to, gb, body); specs += s; s.id
    }))

  /** Plans the views from the neighbours of `node` other than `parent`, then
    * adds the aggregate over them to the view at `node`.
    */
  private def addAgg(scope: Option[String], node: String, parent: Option[String],
                     gb: Seq[String], gbNeeded: Set[String], product: Seq[Fx]): AggRef = {
    val (local, byChild) = split(node, parent, product)
    val kids = tree.adj(node).filter(c => !parent.contains(c))
      .map(c => viewFor(scope, c, node, gbNeeded, byChild.getOrElse(c, Seq.empty))).sortBy(_.view)
    val spec = specFor(scope, node, parent, gb, kids.map(_.view))
    val children = kids.map(_.agg)
    AggRef(spec.id, aggIndex.getOrElseUpdate((spec.id, local, children), {  // merge case (3)
      val a = ViewAgg(s"a${spec.aggs.size}", local, children); spec.aggs += a; a.name
    }))
  }

  /** Split a product into node-local factors and per-child-subtree factors. */
  private def split(node: String, parent: Option[String], product: Seq[Fx])
      : (Seq[Fx], Map[String, Seq[Fx]]) = {
    val nodeAttrs = tree.attrsOf(node)
    val neighbors = tree.adj(node).filter(n => !parent.contains(n))
    val (local, rest) = product.partition(_.attrs.forall(nodeAttrs.contains))
    val byChild = mutable.Map[String, Vector[Fx]]().withDefaultValue(Vector.empty)
    for (f <- rest) {
      val home = neighbors.find(c => f.attrs.forall(tree.subtreeAttrs(c, node).contains))
      home match {
        case Some(c) => byChild(c) :+= f
        case None => throw new IllegalArgumentException(
          s"factor over ${f.attrs.mkString(",")} not coverable from $node " +
          s"(n-ary factors spanning subtrees are unsupported)")
      }
    }
    (local, byChild.toMap)
  }

  /** Build (or merge into) the directional view `child → parent` carrying the
    * given partial product, returning a reference to its aggregate column.
    */
  private def viewFor(scope: Option[String], child: String, parent: String,
                      gbNeeded: Set[String], product: Seq[Fx]): AggRef = {
    val jA    = tree.joinAttrs(child, parent)
    val extra = (gbNeeded intersect tree.subtreeAttrs(child, parent)) diff jA.toSet
    addAgg(scope, child, Some(parent), jA ++ extra.toSeq.sorted, gbNeeded, product)
  }

  /** Plan one query of the batch at the given root. */
  def addQuery(q: AggQuery, root: String): Unit = {
    val known = tree.allAttrs.toSet
    val missing = q.attrs.diff(known)
    require(missing.isEmpty, s"query ${q.name} references unknown attributes: $missing")
    val scope = Option.when(!merge)(q.name)
    val refs  = q.aggs.map(na => addAgg(scope, root, None, q.groupBy.sorted, q.groupBy.toSet, na.product))
    outs += OutputSpec(q, refs.head.view, q.aggs.map(_.name).zip(refs.map(_.agg)))
  }

  def plan(roots: Map[String, String]): Plan = Plan(tree, specs.toIndexedSeq, outs.toSeq, roots)
}

object Planner {
  /** Plan a whole batch: assign roots (paper heuristic, or a forced single
    * root for the ablation) and decompose every query.
    */
  def planBatch(tree: JoinTree, queries: Seq[AggQuery],
                sizes: Map[String, Long] = Map.empty,
                merge: Boolean = true,
                forcedRoot: Option[String] = None): Plan = {
    require(queries.map(_.name).distinct.size == queries.size, "duplicate query names in batch")
    val roots = forcedRoot match {
      case Some(r) => queries.map(_.name -> r).toMap
      case None    => RootAssignment.assign(tree, queries, sizes)
    }
    val p = new Planner(tree, merge)
    queries.foreach(q => p.addQuery(q, roots(q.name)))
    p.plan(roots)
  }
}
