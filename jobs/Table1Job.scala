package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession builder for the spark-submit entrypoints. */
object JobSession {
  def build(name: String): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName(name)
    // Bench-style engine configuration (see bench.BenchBase): broadcast on,
    // few shuffle partitions — realistic for both LMFAO and the baselines.
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "8"))
    .getOrCreate()

  def sfFromArgs(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(repro.tables.Workloads.benchSf)
}

/** Reproduces paper Table 1 (dataset characteristics).
  * Usage: spark-submit --class repro.jobs.Table1Job repro.jar [sf]
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("lmfao-table1")
    println(repro.tables.Table1.render(
      repro.tables.Table1.compute(spark, JobSession.sfFromArgs(args))))
    spark.stop()
  }
}
