"""Quantum polynomial invariants of torus knots as truncated series in x.

The three evaluators expand the closed torus-knot forms of the HOMFLY
polynomial (SU(N) fundamental), the Kauffman polynomial (SO(N) fundamental)
and the Jones / Akutsu-Wadati polynomial (SU(2), spin j/2) around t = 1 by
the substitution

    t = e^x        for SU(N) and SU(2),
    t = e^{x/2}    for SO(N),

with lambda = t^{N-1} for HOMFLY and lambda = t^{(N-1)/2} for Kauffman.
Conventions:

* q-factorials: (a) = t^a - 1 with (i)! = prod_{a=1..i} (t^a - 1) and
  (0)! = 1;  [p] = t^{p/2} - t^{-p/2} with [b]! = prod_{a=1..b} [a];
  [p;q] = t^{p/2} lambda^q - t^{-p/2} lambda^{-q}.
* The HOMFLY prefactor 1/(lambda t - 1) is cancelled symbolically against the
  j = 0 factor of prod_{j=-p..i} (lambda t - t^j), which every summand
  contains; no series division by lambda t - 1 ever happens.
* All series are computed at a concrete integer N (or j); the polynomial
  dependence on the parameter is recovered downstream by exact interpolation.
* m may be negative (the formulas stay well defined); n must be >= 1, which
  every knot reaches through the equivalence {n,m} ~ {-n,-m}.

Per-n kernels.  Each evaluator is a head times a sum sum_i A_i(x) e^{m rho_i x}
(Rosso-Jones form): the summands A_i (bracket prefix products, quotients by
q-factorials, m-free t-powers) and the rates rho_i depend only on n, the rank
N (or j) and the working width W = trunc_order + guard, and m enters only
through the exponentials.  So the x^d coefficients of the sum are polynomials
in m; :class:`MPolySeries` holds them as integer polynomials over one
denominator.  A kernel -- those polynomials plus the m-free part of the head
-- is built once per (family, n, N or j, W) and kept in a bounded cache; one
knot then costs one polynomial evaluation, the head's t-power and two series
operations, whatever n is.  The HOMFLY and Kauffman summands share their bracket
products and q-factorials as prefix products, so a kernel build costs O(n)
series products; the Akutsu-Wadati summands are bare t-powers, so its kernel
takes their Taylor coefficients straight from the exponents.  Turning the
summands into polynomials in m costs one pass over the degrees per (rate,
power of m), so a cold kernel plus its first evaluation costs about what one
evaluation with the m-dependent t-powers would.

This is exact, not an approximation: a product or quotient keeps the smaller
relative window of its operands and adds their valuations, so the order of
the factors changes no coefficient and no window, and the sum's window
(lowest and highest degree) follows from the summands' windows alone.  Every
error a build raises (a quotient short of guard terms, a zero divisor) comes
from the m-free part and is raised in the same order as by a direct
evaluation.

Each evaluator works internally at trunc_order + guard terms, checks at the
end that the requested order is still reliable, and returns the series cut at
trunc_order.  A normalized invariant must come out with min_degree 0 and
constant term exactly 1; anything else raises.
"""

from __future__ import annotations

import marshal
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial, lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

from .errors import CancellationFailure, SingularBracket, TruncationUnderflow
from .groups import Family, GroupInstance, su2, su_n
from .knots import TorusKnot, as_knot
from .series import TruncSeries, series_exp_linear

#: truncation defaults: coefficients are needed through x^6, and Laurent
#: cancellations in the quotients consume one extra term
DEFAULT_ORDER = 6
DEFAULT_GUARD = 2

#: kernels kept per process.  A solve round (the default plans at ten values
#: of n, one width) uses 180 keys.  The CLI request mix of the benchmark draws
#: about 650 distinct keys in 8,500 requests: 256 entries hit 39% of its
#: lookups in 0.38 MiB, all 650 would hit 69% in 0.93 MiB, and a miss costs
#: about one direct evaluation, so the smaller bound is kept
KERNEL_CACHE_SIZE = 256

KnotLike = Union[TorusKnot, tuple]


def qpower(exponent, scale, trunc_order: int) -> TruncSeries:
    """The series of t**exponent with t = exp(scale*x)."""
    if type(exponent) is int and type(scale) is int:
        return series_exp_linear(exponent * scale, trunc_order)
    return series_exp_linear(Fraction(exponent) * Fraction(scale), trunc_order)


class MPolySeries:
    """A truncated series in x whose coefficients are integer polynomials in m.

    The coefficient of x**(lo + k) at m is sum_l p_k[l] * m**l / den for
    k = 0..hi - lo, where p_k lists its k + 1 coefficients, ascending.
    p_0, p_1, .., p_{hi-lo} are kept one after another in one list, stored
    as :mod:`marshal` bytes: a cached kernel then costs the bytes of its
    integers, not an object per integer.  Immutable and shared through the
    kernel cache.
    """

    __slots__ = ("lo", "hi", "coeffs", "den")

    def __init__(self, lo: int, hi: int, den: int,
                 rows: Iterable[tuple[Union[int, Fraction], list]]):
        """sum_i A_i(x) * exp(m * rho_i * x) on degrees lo..hi, for (rho_i,
        row_i) pairs where row_i lists the integer numerators over den of
        A_i on those degrees.

        The x^k coefficient of A * exp(rho m x) is sum_j A[j] (rho m)^(k-j) / (k-j)!,
        so the m^l coefficient of the sum at x^k is sum_i A_i[k-l] rho_i^l / l!.
        With rho_i = r_i / q and E = hi - lo, rho^l / l! = r^l q^(E-l) (E!/l!)
        / (q^E E!).  Rows that share a rate are added first; the build then
        makes one pass over the degrees per (rate, power of m), and a zero
        rate reaches only m^0.
        """
        top = hi - lo
        by_rate: dict = {}
        for rho, row in rows:
            by_rate[rho] = list(map(add, by_rate[rho], row)) if rho in by_rate else row
        q = lcm(*(rho.denominator for rho in by_rate))
        weight = [1] * (top + 1)  # weight[l] = q**(top-l) * top!/l!
        for ell in range(top, 0, -1):
            weight[ell - 1] = weight[ell] * q * ell
        cols = [[0] * (top + 1 - ell) for ell in range(top + 1)]
        for rho, row in by_rate.items():
            r, power = rho.numerator * (q // rho.denominator), 1
            for ell in range(top + 1 if r else 1):
                w = power * weight[ell]
                cols[ell] = list(map(add, cols[ell], map(w.__mul__, row)))
                power *= r
        self.lo, self.hi, self.den = lo, hi, den * q ** top * factorial(top)
        self.coeffs = marshal.dumps([cols[ell][k - ell] for k in range(top + 1)
                                     for ell in range(k + 1)])

    @classmethod
    def from_series(cls, summands: Sequence[tuple[TruncSeries, Union[int, Fraction]]],
                    width: int) -> "MPolySeries":
        """sum_i A_i(x) * exp(m * rho_i * x) for (A_i, rho_i) pairs, with the
        window a running sum of those terms would have (the first pair is the
        sum's start, e.g. TruncSeries.zero(width) with rate 0): A_i * exp(...)
        is known on degrees A_i.min_degree .. min(A_i.trunc_order, width +
        A_i.min_degree)."""
        lo = min(a.min_degree for a, _ in summands)
        hi = min(min(a.trunc_order, width + a.min_degree) for a, _ in summands)
        den = lcm(*(a.den for a, _ in summands))
        rows = []  # each A over den on degrees lo..hi, zero below its window
        for a, rho in summands:
            scale = den // a.den
            row = [0] * (a.min_degree - lo) + [c * scale for c in a.nums]
            rows.append((rho, row[:hi - lo + 1]))
        return cls(lo, hi, den, rows)

    def at(self, m: int) -> TruncSeries:
        """The series at one value of m."""
        coeffs, top = iter(marshal.loads(self.coeffs)), self.hi - self.lo
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * m)
        nums = [sum(map(mul, islice(coeffs, k + 1), powers)) for k in range(top + 1)]
        return TruncSeries.from_numerators(self.lo, nums, self.den, self.hi)


def _finalize_normalized(raw: TruncSeries, trunc_order: int, what: str) -> TruncSeries:
    if raw.trunc_order < trunc_order:
        raise TruncationUnderflow(
            f"{what}: reliable only through x^{raw.trunc_order}, "
            f"needed x^{trunc_order}; increase guard terms"
        )
    out = raw.truncated(trunc_order)
    if out.min_degree < 0:
        raise CancellationFailure(f"{what}: residual pole of order {-out.min_degree}")
    if out.coefficient(0) != 1:
        raise CancellationFailure(
            f"{what}: constant term {out.coefficient(0)} != 1 (convention bug)"
        )
    return out


def _homfly_kernel(n: int, N: int, W: int) -> tuple[TruncSeries, MPolySeries]:
    """(1 - t)/(1 - t^n) and sum_i (-1)^i A_i t^{m i}, with
    A_i = prod_{j=-p..i, j != 0} (t^N - t^j) / ((i)! (p)!) * t^{p(p+1)/2}."""
    def t(a) -> TruncSeries:
        return qpower(a, 1, W)

    one = TruncSeries.one(W)
    tN = t(N)
    # prefix products: left[p] = prod_{j=1..p} (t^N - t^-j),
    # right[i] = prod_{j=1..i} (t^N - t^j) for i < N, fact[a] = (a)!
    left, right, fact = [one], [one], [one]
    for a in range(1, n):
        ta = t(a)
        left.append(left[-1] * (tN - t(-a)))
        fact.append(fact[-1] * (ta - one))
        if a < N:
            right.append(right[-1] * (tN - ta))
    head = one if n == 1 else (one - t(1)) / (one - t(n))
    summands = [(TruncSeries.zero(W), 0)]
    for i in range(n):
        p = n - 1 - i
        if -p <= N <= i:
            continue  # the factor (lambda t - t^N) vanishes identically
        # the j = 0 factor of prod_{j=-p..i} (lambda t - t^j) is cancelled
        # against the global 1/(lambda t - 1)
        term = (left[p] * right[i]) / (fact[i] * fact[p])
        if p:  # times t^0 = 1 would change nothing: the sum keeps W terms per summand
            term = term * t(p * (p + 1) // 2)
        summands.append((term if i % 2 == 0 else -term, i))
    return head, MPolySeries.from_series(summands, W)


def _kauffman_kernel(n: int, N: int, W: int) -> tuple[TruncSeries, MPolySeries]:
    """[1] / ([1] + [0;1]) and the (-1)^g summands of the Kauffman sum, with
    the m-dependent weight t^{-m(b-g)/2} lambda^{-m} as the exponential."""
    lam = Fraction(N - 1, 2)  # lambda = t^{(N-1)/2}, in t-exponent units

    def t(a) -> TruncSeries:
        return qpower(a, Fraction(1, 2), W)

    def br(p) -> TruncSeries:  # [p]
        return t(Fraction(p, 2)) - t(Fraction(-p, 2))

    def brq(p) -> TruncSeries:  # [p;1]
        return t(Fraction(p, 2) + lam) - t(Fraction(-p, 2) - lam)

    one = TruncSeries.one(W)
    brqs = {p: brq(p) for p in range(1 - n, n)}  # every [p;1] a summand uses
    # prefix products: neg[g] = prod_{j=-g..-1} [j;1], pos[b] = prod_{j=1..b} [j;1],
    # fact[a] = [a]!
    neg, pos, fact = [one], [one], [one]
    for a in range(1, n):
        neg.append(neg[-1] * brqs[-a])
        pos.append(pos[-1] * brqs[a])
        fact.append(fact[-1] * br(a))
    inv_br_n = one / br(n)
    head = br(1) / (br(1) + brqs[0])
    start = TruncSeries.constant(1, W) if n % 2 == 0 else TruncSeries.zero(W)
    summands = [(start, 0)]
    for g in range(n):
        b = n - 1 - g
        bracket = inv_br_n + one / brqs[b - g]
        numer = neg[g] * brqs[0] * pos[b]  # prod_{j=-g..b} [j;1]
        term = (bracket * numer) / (fact[b] * fact[g])
        rate = (Fraction(-(b - g), 2) - lam) / 2  # t^{-m(b-g)/2} lambda^{-m}, t = e^{x/2}
        summands.append((term if g % 2 == 0 else -term, rate))
    return head, MPolySeries.from_series(summands, W)


def _akutsu_wadati_kernel(n: int, j: int, W: int) -> tuple[TruncSeries, MPolySeries]:
    """t^{j+1} - 1 and sum_ell (t^{e1} - t^{e2}) with e1, e2 linear in m,
    built from the exponents: t^e = exp(e x) has the x^u coefficient
    e^u (W!/u!) / W!."""
    start = TruncSeries.zero(W)  # the window of the sum, and its errors for W < 0
    divisor = qpower(j + 1, 1, W) - TruncSeries.one(W)
    tail = [1] * (W + 1)  # tail[u] = W!/u!
    for u in range(W, 0, -1):
        tail[u - 1] = tail[u] * u

    def t(e: int, sign: int) -> list:  # sign * t^e over W!
        power, row = sign, []
        for w in tail:
            row.append(power * w)
            power *= e
        return row

    rows = []
    for ell in range(j + 1):
        # e1 = n(1 + m ell)(j - ell) + 1 + m ell, e2 = n(1 + m ell)(j - ell) + m(j - ell)
        base = n * (j - ell)
        rows.append((ell * (base + 1), t(base + 1, 1)))
        rows.append(((j - ell) * (n * ell + 1), t(base, -1)))
    return divisor, MPolySeries(start.min_degree, start.trunc_order, factorial(W), rows)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel(family: Family, n: int, parameter: int, W: int) -> tuple[TruncSeries, MPolySeries]:
    """The m-independent half of one evaluator: its m-free head series and
    its sum as polynomials in m.  Errors are not cached; they recur."""
    if family == Family.SU_N:
        return _homfly_kernel(n, parameter, W)
    if family == Family.SO_N:
        return _kauffman_kernel(n, parameter, W)
    return _akutsu_wadati_kernel(n, parameter, W)


def homfly_normalized(knot: KnotLike, N: int,
                      trunc_order: int = DEFAULT_ORDER,
                      guard: int = DEFAULT_GUARD) -> TruncSeries:
    """Series of the normalized torus-knot HOMFLY polynomial for SU(N)."""
    k = as_knot(knot).validate()
    n, m = k.n, k.m
    if n < 1:
        raise CancellationFailure(
            f"homfly needs n >= 1 (got {n}); apply the equivalence (n,m) ~ (-n,-m)"
        )
    if N < 2:
        raise ValueError("su_n needs N >= 2")
    W = trunc_order + guard
    head, total = _kernel(Family.SU_N, n, N, W)
    head = head * qpower(Fraction((m - 1) * (n - 1), 2) * (N - 1), 1, W)  # lambda^{(m-1)(n-1)/2}
    return _finalize_normalized(head * total.at(m), trunc_order, f"homfly({n},{m};N={N})")


def kauffman_normalized(knot: KnotLike, N: int,
                        trunc_order: int = DEFAULT_ORDER,
                        guard: int = DEFAULT_GUARD) -> TruncSeries:
    """Series of the normalized torus-knot Kauffman polynomial for SO(N).

    Needs N >= n + 2: the bracket [p;1] expands to a sinh of (p+N-1)x/4 and
    vanishes identically at p = 1 - N, which |p| <= n - 1 would reach for
    smaller N.
    """
    k = as_knot(knot).validate()
    n, m = k.n, k.m
    if n < 1:
        raise CancellationFailure(
            f"kauffman needs n >= 1 (got {n}); apply the equivalence (n,m) ~ (-n,-m)"
        )
    if N < n + 2:
        raise SingularBracket(
            f"so_n sampling needs N >= n + 2 = {n + 2} (got N={N}): "
            "a required bracket [p;1] would have vanishing leading term"
        )
    W = trunc_order + guard
    head, total = _kernel(Family.SO_N, n, N, W)
    head = head * qpower(Fraction(n * m * (N - 1), 2), Fraction(1, 2), W)  # lambda^{nm}
    return _finalize_normalized(head * total.at(m), trunc_order, f"kauffman({n},{m};N={N})")


def akutsu_wadati_normalized(knot: KnotLike, j: int,
                             trunc_order: int = DEFAULT_ORDER,
                             guard: int = DEFAULT_GUARD) -> TruncSeries:
    """Series of the normalized Jones (j=1) / Akutsu-Wadati (j>1) polynomial.

    The sum telescopes to t^{j+1} - 1 at n = 1, which is what makes the
    normalized unknot value exactly 1.
    """
    k = as_knot(knot).validate()
    n, m = k.n, k.m
    if n < 1:
        raise CancellationFailure(
            f"akutsu-wadati needs n >= 1 (got {n}); apply (n,m) ~ (-n,-m)"
        )
    if j < 1:
        raise ValueError("su2 needs j >= 1")
    W = trunc_order + guard
    divisor, total = _kernel(Family.SU2, n, j, W)
    res = total.at(m) / divisor
    res = res * qpower(Fraction(j * (n - 1) * (m - 1), 2), 1, W)
    return _finalize_normalized(res, trunc_order, f"akutsu-wadati({n},{m};j={j})")


@lru_cache(maxsize=128)
def unknot_factor(group: GroupInstance,
                  trunc_order: int = DEFAULT_ORDER,
                  guard: int = DEFAULT_GUARD) -> TruncSeries:
    """Quantum-dimension series of the unknot; constant term is the classical
    dimension (N, N, j+1, or N(j+1)).  It does not depend on the knot, so it
    is memoized per (group, trunc_order, guard)."""
    W = trunc_order + guard
    fam = group.family
    if fam == Family.SU_N:
        t = lambda a: qpower(a, 1, W)
        res = (t(Fraction(group.N, 2)) - t(Fraction(-group.N, 2))) / (
            t(Fraction(1, 2)) - t(Fraction(-1, 2)))
    elif fam == Family.SO_N:
        t = lambda a: qpower(a, Fraction(1, 2), W)
        lam = Fraction(group.N - 1, 2)
        res = 1 + (t(lam) - t(-lam)) / (t(Fraction(1, 2)) - t(Fraction(-1, 2)))
    elif fam == Family.SU2:
        t = lambda a: qpower(a, 1, W)
        res = (t(Fraction(group.j + 1, 2)) - t(Fraction(-(group.j + 1), 2))) / (
            t(Fraction(1, 2)) - t(Fraction(-1, 2)))
    elif fam == Family.PRODUCT:
        res = unknot_factor(su_n(group.N), trunc_order, guard) * \
            unknot_factor(su2(group.j), trunc_order, guard)
    else:
        raise ValueError(f"no unknot factor for {fam}")
    if res.trunc_order < trunc_order:
        raise TruncationUnderflow("unknot factor: increase guard terms")
    return res.truncated(trunc_order)


def normalized_series(knot: KnotLike, group: GroupInstance,
                      trunc_order: int = DEFAULT_ORDER,
                      guard: int = DEFAULT_GUARD) -> TruncSeries:
    """Normalized invariant series for any supported group instance.

    For the product group the normalized series is the product of the two
    normalized factors (unknot factors multiply, so normalization survives
    the product).
    """
    fam = group.family
    if fam == Family.SU_N:
        return homfly_normalized(knot, group.N, trunc_order, guard)
    if fam == Family.SO_N:
        return kauffman_normalized(knot, group.N, trunc_order, guard)
    if fam == Family.SU2:
        return akutsu_wadati_normalized(knot, group.j, trunc_order, guard)
    if fam == Family.PRODUCT:
        a = homfly_normalized(knot, group.N, trunc_order, guard)
        b = akutsu_wadati_normalized(knot, group.j, trunc_order, guard)
        return (a * b).truncated(trunc_order)
    raise ValueError(f"no evaluator for {fam}")


def unnormalized_series(knot: KnotLike, group: GroupInstance,
                        trunc_order: int = DEFAULT_ORDER,
                        guard: int = DEFAULT_GUARD) -> TruncSeries:
    """Wilson-line series: normalized invariant times the unknot factor.

    The product group factorizes as the product of the two unnormalized
    series.
    """
    if group.family == Family.PRODUCT:
        a = unnormalized_series(knot, su_n(group.N), trunc_order, guard)
        b = unnormalized_series(knot, su2(group.j), trunc_order, guard)
        return (a * b).truncated(trunc_order)
    norm = normalized_series(knot, group, trunc_order, guard)
    fac = unknot_factor(group, trunc_order, guard)
    return (norm * fac).truncated(trunc_order)
