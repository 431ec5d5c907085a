package repro.core

/** Wall-clock helper for the benchmark suites. */
object Timing {
  /** Run `body`, return (result, seconds). */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}
