package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.codegen.CodeGenerator
import org.apache.spark.storage.StorageLevel
import repro.core.{FlatJoinService, LmfaoService}

/** One benchmark run: a closed loop of application tasks over one workload.
  *
  * A single client thread issues the next task only after the previous one
  * has been decoded. The run sets up (session, data, service), builds the
  * DuckDB reference, takes the process's first LMFAO task, then spends the
  * given number of seconds on LMFAO tasks, warm and cold, and then on
  * baseline tasks.
  * Every task is checked against the reference outside its timing. With
  * `--trace 1` every other LMFAO task is traced at each layer boundary.
  *
  * The last line on stdout is the result object; see perfbench/README.md.
  */
object Main {

  /** Data set-ups per run; `setup_s` uses their median, with two their
    * mean. Two, not three, so that a run stays near a minute. */
  val SetupReps = 2
  /** Warm samples every run takes, however long they take. */
  val MinRounds = 3
  /** Cold samples every run takes: fewer than warm ones, as each costs a
    * whole compile and a run has to stay near a minute. */
  val MinColdRounds = 2
  /** Baseline samples every run takes. Its tasks are short, and the first
    * is nearly always the slowest, as the JIT meets the baseline's code
    * paths; the median of four leaves it out. */
  val MinFlatRounds = 4
  /** Shares of the window by which the cold and the last warm LMFAO tasks
    * end; the baseline takes the rest. */
  val ColdShare = 0.4
  val WarmShare = 0.7

  /** Empties Spark's generated-class cache, so that the next task compiles
    * every class of its batch again, as a batch new to the session does.
    * The cache is private to `CodeGenerator`; it is reached by reflection.
    */
  def emptyCodegenCache(): Unit = {
    val get = CodeGenerator.getClass.getDeclaredMethod("cache")
    get.setAccessible(true)
    val cache = get.invoke(CodeGenerator)
    cache.getClass.getMethod("invalidateAll").invoke(cache)
  }

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: Path, rev: String, sf: Option[Double])

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      Paths.get(kv.getOrElse("out", ".bench_build")), kv.getOrElse("rev", "unknown"),
      kv.get("sf").map(_.toDouble))
  }

  /** One finished, verified task. */
  final case class Sample(id: String, seconds: Double, probe: TaskProbe,
                          fromMs: Double, toMs: Double, compiles: Long, compileS: Double)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val wl = Workloads.byName(o.workload).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${o.workload}; known: ${Workloads.all.map(_.name).mkString(", ")}"))
    val sf = o.sf.getOrElse(wl.sf)
    val ds = wl.dataset
    val cores = Runtime.getRuntime.availableProcessors()
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime

    // ---- set-up: session, then data generated, persisted and counted ----
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", o.out.resolve("spark-warehouse").toAbsolutePath.toString)
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", (10L * 1024 * 1024).toString)
      .getOrCreate()
    val sc = spark.sparkContext
    // Where the run's wall time goes: seconds since JVM start at each step.
    val marks = mutable.LinkedHashMap[String, Double]()
    def mark(step: String): Unit = marks(step) = (System.currentTimeMillis() - jvmStartMs) / 1e3
    mark("session")
    val sessionS = marks("session")

    var dfs: Map[String, DataFrame] = Map.empty
    var sizes: Map[String, Long] = Map.empty
    var lmfao: LmfaoService = null
    val genS = (1 to SetupReps).map { _ =>
      dfs.values.foreach(_.unpersist(blocking = true))
      val t0 = System.nanoTime()
      dfs = ds.load(spark, sf, o.seed).map { case (n, df) => n -> df.persist(StorageLevel.MEMORY_AND_DISK) }
      sizes = ds.sizes(dfs)
      lmfao = new LmfaoService(spark, ds.tree, dfs, sizes)
      (System.nanoTime() - t0) / 1e9
    }
    val setupS = sessionS + median(genS)
    mark("setup")
    val inputRdds = sc.getPersistentRDDs.keySet.toSet

    // ---- reference: the same task over DuckDB (not timed) ----
    val task = wl.bind(dfs)
    val reference: Outcome = {
      val (duck, conn) = DuckService.load(spark, ds.tree, dfs)
      try task(duck) finally conn.close()
    }

    val tracer = new Tracer(sc)
    val sparkTrace = new SparkTrace
    val queryTrace = new QueryTrace
    if (o.trace) {
      sc.addSparkListener(sparkTrace)
      spark.listenerManager.register(queryTrace)
    }
    def probe(svc: repro.core.AggService, traced: Boolean) =
      new Probe(spark, svc, ds.tree, sizes, ds.fact, inputRdds, if (traced) Some(tracer) else None)
    val lmfaoPlain  = probe(lmfao, traced = false)
    val lmfaoTraced = probe(lmfao, traced = true)
    val flat        = new FlatJoinService(spark, ds.tree, dfs, cached = true)
    val flatProbe   = probe(flat, traced = o.trace)

    var attempted = 0
    val failures = mutable.ArrayBuffer[String]()
    val counter = mutable.Map[String, Int]().withDefaultValue(0)

    def attempt(system: String, p: Probe, traced: Boolean): Option[Sample] = {
      attempted += 1
      val id = s"$system-${counter(system)}"
      counter(system) += 1
      val c0 = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
      val ct0 = CodeGenerator.compileTime
      val fromMs = tracer.nowMs
      val t0 = System.nanoTime()
      val res = Try(if (traced) tracer.task(id, s"task.$system")(task(p)) else task(p))
      val wall = (System.nanoTime() - t0) / 1e9
      val toMs = tracer.nowMs
      val compiles = CodegenMetrics.METRIC_COMPILATION_TIME.getCount - c0
      val compileS = (CodeGenerator.compileTime - ct0) / 1e9
      val tp = p.finish()
      val verdict = res match {
        case Failure(e) => Some(s"threw $e")
        case Success(out) => out.mismatch(reference)
      }
      verdict match {
        case Some(why) => failures += s"$id: $why"; None
        case None => Some(Sample(id, wall - tp.excludedS, tp, fromMs, toMs, compiles, compileS))
      }
    }

    // ---- first task, then the window: LMFAO tasks, then baseline tasks ----
    // The process's first task also pays the JVM's own warm-up (class
    // loading, JIT), which on a shared host varies too much for one sample
    // to be a metric; it is reported in the summary only. Then one warm
    // task, the cold tasks, each right after Spark's generated-class cache
    // is emptied (Catalyst and every compile of the batch), and the other
    // warm tasks. The JIT is still settling over the first few tasks: the
    // early warm task is nearly always the slowest warm one, so the median
    // is set by the warm tasks after the cold ones, and the cold tasks run
    // on a JIT two tasks in rather than one.
    // The systems run in two blocks, not interleaved: they share Spark's
    // generated-code cache (100 classes), and the baseline's classes would
    // evict LMFAO's between its repeats, which a user of one system never sees.
    mark("reference")
    val first = attempt("lmfao", if (o.trace) lmfaoTraced else lmfaoPlain, o.trace)
    mark("first")
    val lm = mutable.ArrayBuffer[Sample]()
    val cold = mutable.ArrayBuffer[Sample]()
    val lmTraced = mutable.ArrayBuffer[Sample]()
    val fl = mutable.ArrayBuffer[Sample]()
    val windowStart = System.nanoTime()
    def elapsed = (System.nanoTime() - windowStart) / 1e9
    // Repeats `round` at least `min` times, then while the next round,
    // judged by the last one, should end by `until` seconds into the window.
    def block(until: Double, min: Int = MinRounds)(round: Int => Unit): Unit = {
      var rounds = 0
      var last = 0.0
      while (failures.isEmpty && (rounds < min || elapsed + last <= until)) {
        val start = elapsed
        round(rounds)
        rounds += 1
        last = elapsed - start
      }
    }
    def warm(i: Int): Unit = {
      // Traced and untraced tasks take turns going first.
      def traced(): Unit = if (o.trace) lmTraced ++= attempt("lmfao", lmfaoTraced, traced = true)
      if (i % 2 == 1) traced()
      lm ++= attempt("lmfao", lmfaoPlain, traced = false)
      if (i % 2 == 0) traced()
    }
    if (failures.isEmpty) warm(0)
    block(o.seconds * ColdShare, MinColdRounds) { _ =>
      emptyCodegenCache()
      cold ++= attempt("lmfao", if (o.trace) lmfaoTraced else lmfaoPlain, o.trace)
    }
    mark("cold_block")
    block(o.seconds * WarmShare, MinRounds - 1)(i => warm(i + 1))
    mark("warm_block")
    block(o.seconds, MinFlatRounds)(_ => fl ++= attempt("flat", flatProbe, o.trace))
    mark("flat_block")
    val joinRows = if (o.trace && failures.isEmpty) { val n = flat.joined.count(); flat.close(); n } else 0L

    // ---- report ----
    val metrics = mutable.LinkedHashMap[String, (Double, String)]()
    def put(name: String, v: Double, unit: String): Unit = metrics(name) = (v, unit)
    val ok = failures.isEmpty && first.isDefined && cold.nonEmpty && lm.nonEmpty && fl.nonEmpty && (!o.trace || lmTraced.nonEmpty)
    if (ok && !o.trace) {
      put("setup_s", setupS, "s")
      put("cold_s", median(cold.map(_.seconds).toSeq), "s")
      put("task_s", median(lm.map(_.seconds).toSeq), "s")
      put("flat_s", median(fl.map(_.seconds).toSeq), "s")
      put("cache_mb", median(lm.map(_.probe.peakCacheBytes / 1e6).toSeq), "MB")
    }
    if (ok && o.trace) {
      sparkTrace.quiesce()
      // Dataset actions become spans under their task: the Catalyst phases,
      // then the execution that follows them.
      for (s <- first.toSeq ++ cold ++ lmTraced ++ fl) {
        val root = tracer.spans.find(sp => sp.task == s.id && sp.parent == -1).map(_.id).getOrElse(-1)
        for (e <- queryTrace.within(s.fromMs, s.toMs)) {
          tracer.record("catalyst", s.id, root, e.startMs, e.endMs)
          tracer.record(s"action.${e.func}", s.id, root, e.endMs, e.endMs + e.durationS * 1e3)
        }
      }
      def m(f: Sample => Double): Double = median(lmTraced.map(f).toSeq)
      def collects(s: Sample) = queryTrace.within(s.fromMs, s.toMs).filter(_.func == "collect")
      def drainS(s: Sample) = collects(s).map(_.durationS).sum
      put("datasets.gen_s", median(genS), "s")
      put("datasets.fact_rows", sizes(ds.fact).toDouble, "count")
      put("roots.s", m(_.probe.rootsS), "s")
      put("roots.distinct", m(_.probe.roots.size.toDouble), "count")
      put("roots.at_fact", m(s => s.probe.rootedAtFact.toDouble / s.probe.queries), "frac")
      put("planner.s", m(s => s.probe.planOnlyS - s.probe.rootsS), "s")
      put("planner.app_aggs", m(_.probe.appAggs.toDouble), "count")
      put("planner.int_aggs", m(_.probe.intAggs.toDouble), "count")
      put("planner.views", m(_.probe.views.toDouble), "count")
      put("planner.groups", m(_.probe.groups.toDouble), "count")
      put("planner.max_view_aggs", m(_.probe.maxViewAggs.toDouble), "count")
      put("planner.fact_view_aggs", m(_.probe.factViewAggs.toDouble), "count")
      put("planner.batches", m(_.probe.batches.toDouble), "count")
      put("executor.s", m(s => s.probe.runS - s.probe.planOnlyS), "s")
      put("executor.drain_s", m(drainS), "s")
      put("executor.persisted", m(_.probe.persisted.toDouble), "count")
      put("catalyst.s", m(s => queryTrace.within(s.fromMs, s.toMs).map(_.catalystMs).sum / 1e3), "s")
      put("codegen.compiles", median(cold.map(_.compiles.toDouble).toSeq), "count")
      put("codegen.compile_s", median(cold.map(_.compileS).toSeq), "s")
      put("codegen.warm_compiles", m(_.compiles.toDouble), "count")
      def sp(f: SparkCounts => Double): Sample => Double = s => f(sparkTrace.counts(s.id))
      put("spark.jobs", m(sp(_.jobs)), "count")
      put("spark.stages", m(sp(_.stages)), "count")
      put("spark.tasks", m(sp(_.tasks)), "count")
      put("spark.task_s", m(sp(_.taskMs / 1e3)), "s")
      put("spark.gc_s", m(sp(_.gcMs / 1e3)), "s")
      put("spark.shuffle_mb", m(sp(_.shuffleBytes / 1e6)), "MB")
      put("spark.busy_frac", m(s => sparkTrace.counts(s.id).taskMs / 1e3 / (s.seconds * cores)), "frac")
      put("apps.decode_s", m(s => s.seconds - s.probe.runS - drainS(s)), "s")
      put("apps.rows", m(s => collects(s).map(_.rows).sum.toDouble), "count")
      put("flat.join_s", median(fl.map(_.probe.joinS).toSeq), "s")
      put("flat.join_rows", joinRows.toDouble, "count")
      put("flat.jobs", median(fl.map(s => sparkTrace.counts(s.id).jobs.toDouble).toSeq), "count")
      put("trace.task_s", m(_.seconds), "s")
      put("trace.overhead_s", m(_.seconds) - median(lm.map(_.seconds).toSeq), "s")
      writeSpans(o.out.resolve("traces").resolve(s"${wl.name}-seed${o.seed}.json"), tracer.spans.toSeq,
        sparkTrace.jobsBySpan)
    }

    val failed = failures.size
    val sparkVersion = spark.version
    spark.stop()
    mark("stop")
    val stamp = Json.obj(
      "workload" -> wl.name, "dataset" -> ds.name, "sf" -> sf, "seed" -> o.seed,
      "nproc" -> cores, "spark" -> sparkVersion, "rev" -> o.rev, "trace" -> o.trace,
      "seconds" -> o.seconds, "heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "shuffle_partitions" -> 8, "broadcast_threshold_mb" -> 10) ++
      wl.params.map { case (k, v) => k -> v }
    println(Json.render(Json.obj("stamp" -> stamp)))
    val n = lm.size
    println(Json.render(Json.obj("summary" -> Json.obj(
      "fail_frac" -> failed.toDouble / attempted, "task_n" -> n, "flat_n" -> fl.size,
      "traced_n" -> lmTraced.size, "cold_n" -> cold.size,
      "first_s" -> first.map(_.seconds).getOrElse(Double.NaN),
      // With fewer than 20 samples no percentile above the median has ten
      // samples beyond it.
      "task_p50_s" -> median(lm.map(_.seconds).toSeq),
      "task_max_s" -> (if (n > 0) lm.map(_.seconds).max else Double.NaN),
      "task_samples_s" -> lm.map(_.seconds).toSeq, "cold_samples_s" -> cold.map(_.seconds).toSeq,
      "flat_samples_s" -> fl.map(_.seconds).toSeq,
      "task_compiles" -> lm.map(_.compiles).toSeq, "cold_compiles" -> cold.map(_.compiles).toSeq,
      "step_end_s" -> Json.Obj(marks.toSeq),
      "failures" -> failures.take(5).toSeq))))
    println(Json.render(Json.obj(
      "correct" -> ok, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> Json.obj(metrics.toSeq.map { case (k, (v, u)) => k -> Json.obj("value" -> v, "unit" -> u) }: _*))))
    System.exit(if (ok) 0 else 1)
  }

  def writeSpans(path: Path, spans: Seq[Span], jobs: Map[Int, Int]): Unit = {
    Files.createDirectories(path.getParent)
    val lines = spans.sortBy(_.startMs).map(s => Json.render(Json.obj(
      "id" -> s.id, "name" -> s.name, "task" -> s.task, "parent" -> s.parent,
      "start_ms" -> s.startMs, "end_ms" -> s.endMs, "spark_jobs" -> jobs.getOrElse(s.id, 0))))
    Files.write(path, lines.mkString("[\n", ",\n", "\n]\n").getBytes("UTF-8"))
  }
}

/** Minimal JSON rendering for the result lines and the span file. */
object Json {
  final case class Obj(fields: Seq[(String, Any)]) {
    def ++(more: Seq[(String, Any)]): Obj = Obj(fields ++ more)
  }
  def obj(fields: (String, Any)*): Obj = Obj(fields)

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def render(v: Any): String = v match {
    case Obj(fs)    => fs.map { case (k, x) => s"${str(k)}: ${render(x)}" }.mkString("{", ", ", "}")
    case s: Seq[_]  => s.map(render).mkString("[", ", ", "]")
    case s: String  => str(s)
    case b: Boolean => b.toString
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float   => render(f.toDouble)
    case n: Number  => n.toString
    case null       => "null"
    case other      => str(other.toString)
  }
}
