package repro.data

import repro.core._
import repro.sim.InTuple

/** The artificial 4-way linear join workload of Section VII.B:
  * R(a), S(a,b), T(b,c), U(c) with a mid-run change of data characteristics.
  * Rates are scaled down from the paper's 100k/s (Fig 8a) and 5M/s (Fig 8b)
  * testbed; the relative rate/selectivity shifts are preserved.
  */
object Artificial {

  val R = "R"; val S = "S"; val T = "T"; val U = "U"

  def catalog(parallelism: Int = 5): Catalog = Catalog.of(
    RelDef(R, Vector("a"), parallelism),
    RelDef(S, Vector("a", "b"), parallelism),
    RelDef(T, Vector("b", "c"), parallelism),
    RelDef(U, Vector("c"), parallelism),
  )

  def query(window: Double): Query = Query(
    "rstu",
    Set(R, S, T, U),
    Set(Pred.of(R, "a", S, "a"), Pred.of(S, "b", T, "b"), Pred.of(T, "c", U, "c")),
    window,
  )

  /** Deterministic per-tuple arrival jitter (fraction of a second; `gen`
    * scales it to at most half a second). Matching tuples of different
    * relations must not arrive at the same instant — otherwise, under network
    * delay, every probe would race its join partner's store operation and no
    * results would ever be observable.
    */
  private def jitter(relIdx: Int, k: Long): Double = {
    val h = (k * 0x9e3779b97f4a7c15L) ^ (relIdx * 0x2545f4914f6cdd1dL)
    math.floorMod(h, 1000000L) / 1000000.0
  }

  private def gen(rel: String, relIdx: Int, rate: Double, duration: Double)
                 (vals: (Long, Double) => Map[String, Long]): Vector[InTuple] = {
    val n = (rate * duration).toLong
    (0L until n).map { k =>
      val ts = k / rate + relIdx * 1e-7 + jitter(relIdx, k) * 0.5
      InTuple(rel, vals(k, ts), ts)
    }.toVector
  }

  /** Fig 8a input: equal rates; before `shiftAt` every index k forms exactly
    * one join result across the four relations. After the shift each S tuple
    * finds ~100 partners in R but none in T; each T tuple finds ~100 partners
    * in U but none in S (and symmetrically the query result is empty).
    */
  def fig8a(rate: Double, duration: Double, shiftAt: Double): Vector[InTuple] = {
    val pre = 2_000_000L; val preC = 3_000_000L
    val deadS = -1L; val deadT = -1_000_000_000L
    def grp(k: Long) = k / 100
    val r = gen(R, 0, rate, duration)((k, ts) =>
      Map("R.a" -> (if (ts < shiftAt) k else pre + grp(k))))
    val s = gen(S, 1, rate, duration)((k, ts) =>
      if (ts < shiftAt) Map("S.a" -> k, "S.b" -> k)
      else Map("S.a" -> (pre + grp(k)), "S.b" -> (deadS - k)))
    val t = gen(T, 2, rate, duration)((k, ts) =>
      if (ts < shiftAt) Map("T.b" -> k, "T.c" -> k)
      else Map("T.b" -> (deadT - k), "T.c" -> (preC + grp(k))))
    val u = gen(U, 3, rate, duration)((k, ts) =>
      Map("U.c" -> (if (ts < shiftAt) k else preC + grp(k))))
    (r ++ s ++ t ++ u).sortBy(_.ts)
  }

  /** Fig 8b input: R is `ratio`× faster than S, T, U. Each R tuple has one S
    * partner and S⋈T is 1:1; before `shiftAt` each T tuple finds ~`g`
    * partners in U (making the S⋈T⋈U intermediate large and its store
    * expensive to maintain), afterwards T⋈U is 1:1 — the intermediate gets
    * very small and materializing the STU store pays off.
    */
  def fig8b(rateR: Double, rateOthers: Double, duration: Double, shiftAt: Double,
            g: Long = 25): Vector[InTuple] = {
    val post = 5_000_000L
    val ratio = rateR / rateOthers
    val r = gen(R, 0, rateR, duration)((k, _) =>
      Map("R.a" -> (k / ratio.toLong)))
    val s = gen(S, 1, rateOthers, duration)((k, _) =>
      Map("S.a" -> k, "S.b" -> k))
    val t = gen(T, 2, rateOthers, duration)((k, ts) =>
      Map("T.b" -> k,
          "T.c" -> (if (ts < shiftAt) k / g else post + k)))
    val u = gen(U, 3, rateOthers, duration)((k, ts) =>
      Map("U.c" -> (if (ts < shiftAt) k / g else post + k)))
    (r ++ s ++ t ++ u).sortBy(_.ts)
  }

  /** Small, fully-joinable RSTU input for correctness tests: every index k
    * yields exactly one result; timestamps interleave the four relations.
    */
  def tiny(n: Int, window: Double = 5.0): Vector[InTuple] = {
    val rate = 10.0
    def mk(rel: String, i: Int, f: Long => Map[String, Long]) =
      gen(rel, i, rate, n / rate)((k, _) => f(k))
    (mk(R, 0, k => Map("R.a" -> k)) ++
      mk(S, 1, k => Map("S.a" -> k, "S.b" -> k)) ++
      mk(T, 2, k => Map("T.b" -> k, "T.c" -> k)) ++
      mk(U, 3, k => Map("U.c" -> k))).sortBy(_.ts)
  }
}
