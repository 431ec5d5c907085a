package repro.tables

import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.core.{FlatJoinService, JoinTree, Relation}

class WorkloadsSpec extends SparkSpec {

  /** Export directories of `prepJoin` currently in the temp directory. */
  def exportDirs(): Set[String] = {
    val listing = Files.list(Paths.get(System.getProperty("java.io.tmpdir")))
    try listing.iterator().asScala.map(_.getFileName.toString).filter(_.startsWith("repro-export")).toSet
    finally listing.close()
  }

  test("prepJoin deletes its export directory, and on failure releases the join") {
    import spark.implicits._
    val t = JoinTree(Seq(Relation("A", Seq("k", "x")), Relation("B", Seq("k", "y"))), Seq("A" -> "B"))
    val dfs = Map(
      "A" -> Seq((1, 2), (2, 3)).toDF("k", "x"),
      "B" -> Seq((1, 10), (1, 20), (2, 30)).toDF("k", "y"))
    val before = exportDirs()

    val (joined, steps, rows) = Workloads.prepJoin(t, dfs, shuffle = true)(_.get.count())
    assert(steps.map(_._1) == Seq("Join (materialize)", "Join Shuffle+Export", "Join Export"))
    assert(rows == 3 && joined.count() == 3)
    joined.unpersist(blocking = true)
    assert(exportDirs() == before)

    intercept[IllegalStateException] {
      Workloads.prepJoin(t, dfs, shuffle = false) { shuffled =>
        assert(shuffled.isEmpty)
        throw new IllegalStateException("use failed")
      }
    }
    assert(exportDirs() == before)
    assert(FlatJoinService.fullJoin(t, dfs).storageLevel == StorageLevel.NONE)
  }
}
