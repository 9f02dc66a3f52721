package org.apache.spark

/** Reaches the listener bus, which Spark keeps private to its own
  * package: the traced run must read task metrics only after every
  * event of the finished jobs has been delivered.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
