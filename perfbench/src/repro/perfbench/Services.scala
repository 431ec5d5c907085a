package repro.perfbench

import java.sql.{Connection, DriverManager}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core._

/** What one task did inside the aggregate service, summed over its batches. */
final class TaskProbe {
  var batches = 0
  var runS = 0.0
  /** Benchmark bookkeeping inside the task (storage reads), taken off its time. */
  var excludedS = 0.0
  var peakCacheBytes = 0L
  var persisted = 0
  // Traced run only.
  var rootsS = 0.0
  var planOnlyS = 0.0
  var joinS = 0.0
  var appAggs = 0
  var intAggs = 0
  var views = 0
  var groups = 0
  var maxViewAggs = 0
  var factViewAggs = 0
  var queries = 0
  var rootedAtFact = 0
  val roots: mutable.Set[String] = mutable.Set.empty
}

/** The benchmark's [[AggService]] wrapper: the application calls it exactly
  * as it would call the engine, and it times each batch, samples LMFAO's
  * cached storage and, in the traced run, drives the planning layers from
  * outside (`RootAssignment.assign`, `LmfaoService.planOnly`, `Plan.stats`)
  * inside spans. Outputs are passed through untouched: the application
  * collects and decodes them itself.
  */
final class Probe(spark: SparkSession, inner: AggService, tree: JoinTree,
                  sizes: Map[String, Long], fact: String, inputRdds: Set[Int],
                  tracer: Option[Tracer]) extends AggService {
  private var cur = new TaskProbe

  private def clock[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e9)
  }

  private def span[A](name: String)(body: => A): A = tracer match {
    case Some(t) => t.span(name)(body)
    case None    => body
  }

  /** Bytes and RDD count of what LMFAO holds in Spark storage now, i.e.
    * every persisted RDD except the input relations.
    */
  private def sampleCache(): Unit = if (inner.isInstanceOf[LmfaoService]) {
    val (_, t) = clock {
      val held = spark.sparkContext.getRDDStorageInfo.filterNot(r => inputRdds(r.id))
      cur.peakCacheBytes = math.max(cur.peakCacheBytes, held.map(r => r.memSize + r.diskSize).sum)
      cur.persisted += held.length
    }
    cur.excludedS += t
  }

  private def planStats(lmfao: LmfaoService, batch: Seq[AggQuery]): Unit = {
    val (roots, tr) = clock(span("roots")(RootAssignment.assign(tree, batch, sizes)))
    val (plan, tp)  = clock(span("planner")(lmfao.planOnly(batch)))
    cur.rootsS += tr; cur.planOnlyS += tp
    val st = plan.stats
    cur.appAggs += st.appAggs; cur.intAggs += st.intermediateAggs
    cur.views += st.views; cur.groups += st.groups
    cur.maxViewAggs = math.max(cur.maxViewAggs, plan.views.map(_.aggs.size).max)
    cur.factViewAggs += plan.views.filter(_.from == fact).map(_.aggs.size).sum
    cur.queries += batch.size
    cur.rootedAtFact += batch.count(q => roots(q.name) == fact)
    cur.roots ++= roots.values
  }

  def run(batch: Seq[AggQuery]): Map[String, DataFrame] = {
    sampleCache()
    cur.batches += 1
    inner match {
      case l: LmfaoService if tracer.isDefined => planStats(l, batch)
      case f: FlatJoinService if tracer.isDefined => cur.joinS += clock(span("flat.join")(f.joined))._2
      case _ =>
    }
    val (out, t) = clock(span("service.run")(inner.run(batch)))
    cur.runS += t
    out
  }

  /** Ends the current task: samples storage, releases the service's cache
    * and returns what the task did.
    */
  def finish(): TaskProbe = {
    sampleCache()
    inner.close()
    val done = cur; cur = new TaskProbe; done
  }

  override def close(): Unit = inner.close()
}

/** The correctness reference: every query of a batch evaluated by DuckDB
  * over the generated tables with `SqlGen.querySql`, handed back as Spark
  * DataFrames, so that the unchanged application code decodes them.
  */
final class DuckService(spark: SparkSession, conn: Connection, tree: JoinTree,
                        types: Map[String, DataType]) extends AggService {
  def run(batch: Seq[AggQuery]): Map[String, DataFrame] = batch.map { q =>
    val st = conn.createStatement()
    try {
      val rs = st.executeQuery(SqlGen.querySql(tree, q))
      val nGb = q.groupBy.size
      val rows = mutable.ArrayBuffer[Row]()
      while (rs.next()) {
        val keys = (1 to nGb).map(rs.getObject)
        val aggs = q.aggs.indices.map(j => rs.getObject(nGb + j + 1) match {
          case null      => null
          case n: Number => n.doubleValue
          case x         => x.toString.toDouble
        })
        rows += Row.fromSeq(keys ++ aggs)
      }
      val schema = StructType(q.groupBy.map(a => StructField(a, types(a))) ++
        q.aggs.map(a => StructField(a.name, DoubleType)))
      q.name -> spark.createDataFrame(rows.asJava, schema)
    } finally st.close()
  }.toMap
}

object DuckService {
  /** Copies every relation into a fresh in-memory DuckDB with its column
    * types, and returns the service plus the connection to close.
    */
  def load(spark: SparkSession, tree: JoinTree, dfs: Map[String, DataFrame]): (DuckService, Connection) = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    val types = mutable.Map[String, DataType]()
    for ((name, df) <- dfs) {
      val fields = df.schema.fields
      def sqlType(t: DataType): String = t match {
        case IntegerType => "INTEGER"
        case LongType    => "BIGINT"
        case DoubleType  => "DOUBLE"
        case StringType  => "VARCHAR"
        case other       => throw new IllegalArgumentException(s"$name: unsupported column type $other")
      }
      fields.foreach(f => types(f.name) = f.dataType)
      val st = conn.createStatement()
      st.execute(s"CREATE TABLE $name (${fields.map(f => s"${f.name} ${sqlType(f.dataType)}").mkString(", ")})")
      st.close()
      val app = conn.asInstanceOf[org.duckdb.DuckDBConnection].createAppender("main", name)
      try df.collect().foreach { r =>
        app.beginRow()
        fields.indices.foreach { i =>
          if (r.isNullAt(i)) app.append(null: String)
          else fields(i).dataType match {
            case IntegerType => app.append(r.getInt(i))
            case LongType    => app.append(r.getLong(i))
            case DoubleType  => app.append(r.getDouble(i))
            case _           => app.append(r.getString(i))
          }
        }
        app.endRow()
      } finally app.close()
    }
    (new DuckService(spark, conn, tree, types.toMap), conn)
  }
}
