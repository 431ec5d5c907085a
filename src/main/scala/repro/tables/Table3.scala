package repro.tables

import scala.util.Using

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.datasets.SchemaDataset

/** Paper Table 3: wall-clock seconds for each aggregate-batch workload —
  * LMFAO vs the per-query baselines, with relative speedups.
  *
  * Baseline mapping (DESIGN.md §3): each engine receives the same list of
  * queries as LMFAO (one query per group-by set, multiple aggregates per
  * query) and evaluates them independently over the natural join:
  *  - "PQ-cached" (DBX proxy): the join is materialized once and reused;
  *  - "PQ-cold" (MonetDB proxy): the join is recomputed for every query;
  *    capped at `ColdSampleCap` sampled queries with extrapolation (marked
  *    `~`) to bound bench time.
  */
object Table3 {

  val ColdSampleCap = 8

  final case class Row(dataset: String, workload: String, system: String,
                       seconds: Double, speedupVsLmfao: Double, extrapolated: Boolean)

  def compute(spark: SparkSession, sf: Double = Workloads.benchSf,
              datasets: Seq[SchemaDataset] = Workloads.datasets): Seq[Row] =
    datasets.flatMap { ds =>
      val (dfs, sizes) = Workloads.loadPersisted(spark, ds, sf)
      val rows = Workloads.batches(ds, dfs).flatMap { case (wl, batch) =>
        // LMFAO: full layered pipeline, timed end to end (plan + execute).
        val (_, tL) = Using.resource(new LmfaoService(spark, ds.tree, dfs, sizes)) { lmfao =>
          Timing.timed { Workloads.drain(lmfao.run(batch)) }
        }

        // DBX proxy: per-query over a join materialized once (materialization
        // is part of its measured work).
        val cachedSvc = new FlatJoinService(spark, ds.tree, dfs, cached = true)
        val (_, tCachedTotal) = Using.resource(cachedSvc) { svc =>
          Timing.timed {
            svc.joined // forces materialization
            Workloads.timeBaseline(svc, batch)
          }
        }

        // MonetDB proxy: per-query, join recomputed every time (sampled).
        val coldSvc = new FlatJoinService(spark, ds.tree, dfs, cached = false)
        val (tCold, extrapolated) =
          Using.resource(coldSvc)(Workloads.timeBaseline(_, batch, ColdSampleCap))

        Seq(
          Row(ds.name, wl, "LMFAO", tL, 1.0, extrapolated = false),
          Row(ds.name, wl, "PQ-cached", tCachedTotal, tCachedTotal / tL, extrapolated = false),
          Row(ds.name, wl, "PQ-cold", tCold, tCold / tL, extrapolated),
        )
      }
      dfs.values.foreach(_.unpersist(blocking = false))
      rows
    }

  /** Figure 5-style ablation on one dataset: covar-matrix time with layers
    * switched off (single root / no merging).
    */
  def ablation(spark: SparkSession, ds: SchemaDataset, sf: Double = Workloads.benchSf)
      : Seq[(String, Double)] = {
    val (dfs, sizes) = Workloads.loadPersisted(spark, ds, sf)
    val batch = Workloads.covarBatch(ds)
    def run(tag: String, merge: Boolean, multiRoot: Boolean): (String, Double) = {
      val svc = new LmfaoService(spark, ds.tree, dfs, sizes, merge = merge, multiRoot = multiRoot)
      val (_, t) = Using.resource(svc)(svc => Timing.timed { Workloads.drain(svc.run(batch)) })
      tag -> t
    }
    val rows = Seq(
      run("unshared (AC/DC proxy)",   merge = false, multiRoot = false),
      run("+merging",                 merge = true,  multiRoot = false),
      run("+multi-root (full LMFAO)", merge = true,  multiRoot = true),
    )
    dfs.values.foreach(_.unpersist(blocking = false))
    rows
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb ++= "== Table 3: aggregate-batch wall time (seconds; speedup vs LMFAO) ==\n"
    sb ++= f"${"dataset"}%-10s ${"workload"}%-14s ${"system"}%-10s ${"sec"}%9s ${"vs LMFAO"}%9s\n"
    for (r <- rows) {
      val mark = if (r.extrapolated) "~" else " "
      sb ++= f"${r.dataset}%-10s ${r.workload}%-14s ${r.system}%-10s $mark${r.seconds}%8.2f ${r.speedupVsLmfao}%8.2fx\n"
    }
    sb.result()
  }
}
