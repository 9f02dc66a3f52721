package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.forAll

/** Differential properties: [[Sofa.cluster]], which finds nearest
  * centers through its postings index, returns exactly the centers of
  * the scanning reference [[NaiveSofa.cluster]].
  */
object SofaProps extends Properties("Sofa") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(500)

  /** A stream item: a fresh vertex (weight 1) or a weighted center. */
  private final case class Item(vec: SparseVec, weight: Long)

  private final case class Instance(
      cfg: Sofa.Config,
      state: List[Item],
      stream: List[Item],
  )

  /** Mostly columns in `[0, n)`, a few outside it (input is unchecked). */
  private def genVec(n: Int): Gen[SparseVec] = {
    val col = Gen.frequency(12 -> Gen.choose(0, n - 1), 1 -> Gen.choose(-3, -1),
      1 -> Gen.choose(n, n + 3))
    Gen.choose(0, 8).flatMap(Gen.listOfN(_, col)).map(l => SparseVec.fromArray(l.toArray))
  }

  private val genInstance: Gen[Instance] = for {
    n <- Gen.choose(1, 30)
    k <- Gen.choose(1, 3)
    cMax <- Gen.choose(k + 1, k + 4)
    mgCapacity <- Gen.choose(1, 6)
    alpha <- Gen.oneOf(0.0, 0.1, 1.0)
    maxRestarts <- Gen.oneOf(0, 1, 64)
    seed <- Gen.choose(0L, 1000L)
    // Items are drawn from a small pool, so exact duplicates (distance
    // ties) are common; the pool may hold the empty vector.
    pool <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, genVec(n)))
    item = for {
      v <- Gen.oneOf(pool)
      w <- Gen.frequency(3 -> Gen.const(1L), 1 -> Gen.choose(2L, 20L))
    } yield Item(v, w)
    state <- Gen.choose(0, 20).flatMap(Gen.listOfN(_, item))
    stream <- Gen.choose(0, 40).flatMap(Gen.listOfN(_, item))
  } yield Instance(
    Sofa.Config(k, cMax, n, mgCapacity, alpha, seed, maxRestarts), state, stream)

  private def center(it: Item, cfg: Sofa.Config): Sofa.Center =
    new Sofa.Center(it.vec, it.weight, MisraGries.ofVector(it.vec, cfg.mgCapacity, it.weight))

  property("cluster equals the linear scan") = forAll(genInstance) { inst =>
    val cfg = inst.cfg
    // As in the stream state merge: earlier centers, with merged
    // sketches, replayed ahead of new items.
    val state = NaiveSofa.cluster(inst.state.iterator.map(center(_, cfg)), cfg)
    def items() = state.iterator.map(_.copyOf()) ++ inst.stream.iterator.map(center(_, cfg))
    val expected = NaiveSofa.cluster(items(), cfg)
    val actual = Sofa.cluster(items(), cfg)
    Prop(NaiveSofa.sameCenters(expected, actual)) :| s"$cfg: $expected vs $actual"
  }
}
