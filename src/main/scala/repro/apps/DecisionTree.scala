package repro.apps

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core._

/** CART decision trees (§2 eqs. 8–10, §4.2) driven entirely by aggregate
  * batches over the join — no training-set materialization.
  *
  * CART expands the tree one depth at a time, and each depth with an open
  * node issues ONE batch for all of its open nodes (the paper's "regression
  * tree node" workload, once per node, side by side as in PLANET's frontier
  * expansion):
  *  - regression (variance cost): COUNT/SUM(y)/SUM(y²) under each node's
  *    ancestor-condition product α, for the node total and for every
  *    candidate continuous threshold (scalar queries), plus one group-by
  *    query per categorical attribute (eq. 8 extended with a group-by);
  *  - classification (Gini): class-frequency counts, i.e. the same shape
  *    grouped by the label (eqs. 9–10).
  * Sibling nodes share the views that carry none of their conditions. The
  * root's totals come from its own batch; every other node's from its
  * parent's split, so a depth whose nodes are all closed runs no batch. With
  * `maxDepth = 0` the root's batch is its totals alone; under `minSplit` it
  * is the full batch, because the root's count is only known from it.
  *
  * The candidate conditions change between iterations with the data — the
  * paper's *dynamic functions*. Here each iteration plans fresh literal
  * Catalyst expressions (the analogue of recompiling the small dynamic C++
  * file), and only they change: through [[LmfaoService]] each level reuses
  * the previous level's cached views that none of its new conditions reach.
  *
  * The same driver runs against LMFAO or the flat-join baseline through
  * [[AggService]], so the two systems are split-for-split comparable.
  */
object DecisionTree {

  /** A chosen split: continuous `attr <= threshold` or categorical
    * `attr = value` (one-vs-rest, §2's per-category costs).
    */
  final case class Split(attr: String, isCat: Boolean, value: String, threshold: Double) {
    def leftFx: Fx  = if (isCat) Ind(attr, "=", value, numeric = false) else Ind(attr, "<=", threshold.toString)
    def rightFx: Fx = if (isCat) Ind(attr, "<>", value, numeric = false) else Ind(attr, ">", threshold.toString)
    override def toString: String =
      if (isCat) s"$attr = $value" else s"$attr <= $threshold"
  }

  /** Label statistics of a set of rows: under the key `""` the vector
    * (count, Σy, Σy²) for regression, per class the vector (count) for
    * classification.
    */
  final case class Stats(byClass: Map[String, Vector[Double]]) {
    def count: Double = byClass.values.map(_.head).sum

    /** Impurity: total squared error Σy² − (Σy)²/n (the paper's variance
      * cost), or n·Gini = n − Σ n_k²/n.
      */
    def cost: Double = byClass.get("") match {
      case Some(Vector(c, s, q)) => if (c <= 0) 0.0 else q - s * s / c
      case _ =>
        val n = count
        if (n <= 0) 0.0 else n - byClass.values.map(v => v.head * v.head).sum / n
    }

    /** The mean label, or the majority class (ties to the smaller name). */
    def prediction: String = byClass.get("") match {
      case Some(Vector(c, s, _)) => (s / c).toString
      case _                     => byClass.toSeq.sortBy(_._1).maxBy(_._2.head)._1
    }

    def -(o: Stats): Stats = Stats(byClass.map { case (k, v) =>
      k -> o.byClass.get(k).fold(v)(w => v.lazyZip(w).map(_ - _))
    })
  }

  /** A tree node with the label statistics of the rows it holds. */
  final class Node(val id: Int, val depth: Int, val conds: Seq[Fx], val stats: Stats) {
    var split: Option[Split] = None
    var left: Option[Node]   = None
    var right: Option[Node]  = None
    def count: Double = stats.count
    def prediction: String = stats.prediction
    def cost: Double = stats.cost
    def isLeaf: Boolean = split.isEmpty
    def nodes: Seq[Node] = this +: (left.toSeq ++ right.toSeq).flatMap(_.nodes)
  }

  final case class Params(maxDepth: Int = 4, minSplit: Double = 1000.0, buckets: Int = 20)

  final case class Tree(root: Node, classification: Boolean, label: String) {
    def size: Int = root.nodes.size
    def leaves: Int = root.nodes.count(_.isLeaf)

    /** Prediction as one nested Catalyst CASE expression. */
    def predictionCol: Column = {
      def rec(n: Node): Column = n.split match {
        case None => if (classification) lit(n.prediction) else lit(n.prediction.toDouble)
        case Some(s) => when(s.leftFx.toCol === 1.0, rec(n.left.get)).otherwise(rec(n.right.get))
      }
      rec(root)
    }

    def rmse(test: DataFrame): Double = math.sqrt(
      test.select(avg(pow(col(label).cast("double") - predictionCol, 2))).collect()(0).getDouble(0))

    def accuracy(test: DataFrame): Double =
      test.select(avg(when(col(label).cast("string") === predictionCol, 1.0).otherwise(0.0)))
        .collect()(0).getDouble(0)

    def describe: String = {
      def rec(n: Node, indent: String): String = n.split match {
        case None => s"$indent→ predict ${n.prediction} (n=${n.count})\n"
        case Some(s) =>
          s"$indent${s} (n=${n.count})\n" + rec(n.left.get, indent + "  ") + rec(n.right.get, indent + "  ")
      }
      rec(root, "")
    }
  }

  /** Aggregate-name suffixes of one label statistic: count, Σy, Σy². */
  private def statSuffixes(classification: Boolean): Seq[String] =
    if (classification) Seq("_c") else Seq("_c", "_s", "_q")

  /** Build the aggregate batch for open nodes, given as (id, conditions).
    * Returns the queries `dt_main_<level>` and `dt_cat_<attr>_<level>` (`train`
    * passes the depth); result decoding is keyed by the naming scheme
    * `t_<node>` (totals) and `l_<node>_<attrIdx>_<thresholdIdx>` (left side
    * of each candidate continuous split).
    */
  def levelBatch(nodes: Seq[(Int, Seq[Fx])], cont: Seq[String], cat: Seq[String], label: String,
                 classification: Boolean, thresholds: Map[String, Seq[Double]],
                 level: Int): Seq[AggQuery] = {
    def withLabel(p: Seq[Fx]): Seq[Seq[Fx]] =
      if (classification) Seq(p)
      else Seq(p, p :+ Att(label), p :+ Pow(label, 2))
    def stat(prefix: String, p: Seq[Fx]): Seq[NamedAgg] =
      statSuffixes(classification).map(prefix + _).zip(withLabel(p)).map { case (nm, f) => NamedAgg(nm, f) }

    val gbMain = if (classification) Seq(label) else Seq.empty[String]
    val mainAggs = nodes.flatMap { case (id, conds) =>
      val conts = for {
        (a, ai) <- cont.zipWithIndex
        (t, ti) <- thresholds(a).zipWithIndex
        agg     <- stat(s"l_${id}_${ai}_$ti", conds :+ Ind(a, "<=", t.toString))
      } yield agg
      stat(s"t_$id", conds) ++ conts
    }
    val main = AggQuery(s"dt_main_$level", gbMain, mainAggs)
    val perCat = cat.map { k =>
      AggQuery(s"dt_cat_${k}_$level", k +: gbMain,
        nodes.flatMap { case (id, conds) => stat(s"t_$id", conds) })
    }
    main +: perCat
  }

  /** Train a CART tree against an arbitrary aggregate service, one batch per
    * depth that has an open node.
    */
  def train(service: AggService, cont: Seq[String], cat: Seq[String], label: String,
            classification: Boolean, thresholds: Map[String, Seq[Double]],
            params: Params = Params()): Tree = {
    val suffixes = statSuffixes(classification)

    /** The label statistic `prefix` summed over `rows`, per class. */
    def stats(o: BatchOutput, rows: Seq[Row], prefix: String): Stats = Stats(rows.map { r =>
      (if (classification) o.key(r, label) else "") -> suffixes.map(sx => o.num(r, prefix + sx)).toVector
    }.toMap)

    /** Runs the batch of the nodes `open` (id, conditions) at `depth`;
      * returns each node's totals and its best split with the statistics of
      * both sides, if any split leaves rows on each side and lowers the cost.
      * At `maxDepth` (the root of a depth-0 tree) no node can split, so the
      * batch is the totals alone.
      */
    def evaluate(open: Seq[(Int, Seq[Fx])], depth: Int): Map[Int, (Stats, Option[(Split, Stats, Stats)])] = {
      val (splitCont, splitCat) = if (depth < params.maxDepth) (cont, cat) else (Nil, Nil)
      val out  = service.run(levelBatch(open, splitCont, splitCat, label, classification, thresholds, depth))
      val main = new BatchOutput(out(s"dt_main_$depth"))
      // Sorted for determinism: mirrored one-vs-rest splits on a binary
      // domain tie in cost, and both services must break ties alike.
      val cats = splitCat.map { k =>
        val o = new BatchOutput(out(s"dt_cat_${k}_$depth"))
        (k, o, o.rows.groupBy(o.key(_, k)).toSeq.sortBy(_._1))
      }
      open.map { case (id, _) =>
        val total = stats(main, main.rows, s"t_$id")
        val lefts = (for ((a, ai) <- splitCont.zipWithIndex; (t, ti) <- thresholds(a).zipWithIndex)
          yield Split(a, isCat = false, "", t) -> stats(main, main.rows, s"l_${id}_${ai}_$ti")) ++
          cats.flatMap { case (k, o, byValue) =>
            byValue.map { case (v, rows) => Split(k, isCat = true, v, 0.0) -> stats(o, rows, s"t_$id") }
          }
        var best: Option[(Split, Stats, Stats, Double)] = None
        for ((split, l) <- lefts) {
          val r = total - l
          val cost = l.cost + r.cost
          if (l.count >= 1 && r.count >= 1 && best.forall(cost < _._4 - 1e-12)) best = Some((split, l, r, cost))
        }
        id -> (total, best.collect { case (split, l, r, cost) if cost < total.cost - 1e-9 => (split, l, r) })
      }.toMap
    }

    def isOpen(n: Node): Boolean =
      n.depth < params.maxDepth && n.count >= params.minSplit && n.cost > 1e-9

    // The root's totals come from its own batch, which carries every
    // candidate split unless maxDepth is 0: whether the root reaches minSplit
    // is only known once its count is.
    val rootEval = evaluate(Seq(0 -> Seq.empty), 0)
    val root = new Node(0, 0, Seq.empty, rootEval(0)._1)
    var nextId = 1
    // Level by level, in id order, so node ids (which name each node's
    // aggregates) follow the breadth-first expansion order.
    var open  = Seq(root).filter(isOpen)
    var evals = rootEval
    while (open.nonEmpty) {
      val children = open.flatMap { n =>
        evals(n.id)._2.toSeq.flatMap { case (split, l, r) =>
          val ln = new Node(nextId, n.depth + 1, n.conds :+ split.leftFx, l)
          val rn = new Node(nextId + 1, n.depth + 1, n.conds :+ split.rightFx, r)
          nextId += 2
          n.split = Some(split); n.left = Some(ln); n.right = Some(rn)
          Seq(ln, rn)
        }
      }
      open = children.filter(isOpen)
      if (open.nonEmpty) evals = evaluate(open.map(n => n.id -> n.conds), open.head.depth)
    }
    Tree(root, classification, label)
  }

  /** Equi-width candidate thresholds over each attribute's [min, max] — the
    * paper bucketizes continuous attributes into 20 buckets (§B). Ranges come
    * from the attribute's home relation, never from the join.
    */
  def bucketThresholds(dfs: Map[String, DataFrame], tree: JoinTree,
                       attrs: Seq[String], buckets: Int = 20): Map[String, Seq[Double]] = {
    attrs.map { a =>
      val home = tree.relations.find(_.attrSet.contains(a)).get.name
      val r = dfs(home).select(min(col(a).cast("double")), max(col(a).cast("double"))).collect()(0)
      val (lo, hi) = (r.getDouble(0), r.getDouble(1))
      val ts =
        if (hi <= lo) Seq(lo)
        else (1 until buckets).map(i => lo + (hi - lo) * i / buckets).distinct
      a -> ts
    }.toMap
  }
}
