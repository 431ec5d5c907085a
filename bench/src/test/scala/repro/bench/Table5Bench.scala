package repro.bench

import repro.tables.{Table5, Workloads}

/** Reproduces paper Table 5: classification-tree training over TPC-DS. */
class Table5Bench extends BenchBase {

  lazy val rows = Table5.compute(spark, Workloads.benchSf)

  test("Table 5 renders prep and classification-tree rows") {
    emit("table5", Table5.render(rows) +
      s"(sf=${Workloads.benchSf}, depth=${Workloads.treeDepth}, buckets=${Workloads.treeBuckets})\n")
    assert(rows.count(_.task == "CT") == 3)
    assert(rows.count(_.task == "prep") == 2)
  }

  test("Table 5: both CART systems reach the same accuracy") {
    val ct = rows.filter(r => r.task == "CT" && r.note.contains("acc="))
    assert(ct.map(_.system) == Seq(s"Flat CART d=${Workloads.treeDepth} (MADlib proxy)",
      s"LMFAO CART d=${Workloads.treeDepth}"))
    val accs = ct.map(_.note.split("acc=")(1).toDouble)
    assert(accs.distinct.size == 1, s"accuracies differ: $accs")
  }

  test("Table 5 shape: the full tree costs more than a single node") {
    val ct = rows.filter(_.task == "CT")
    val one  = ct.find(_.system.contains("1 node")).get.seconds
    val full = ct.find(r => r.system.startsWith("Flat CART d=")).get.seconds
    assert(full > one)
  }
}
