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

The HOMFLY and Kauffman summands share their bracket products and
q-factorials: each evaluator builds the prefix products once, so one
evaluation costs O(n) series products rather than O(n^2).  This is exact, not
an approximation: a product or quotient keeps the smaller relative window of
its operands and adds their valuations, so the order of the factors changes
no coefficient and no window.

Each evaluator works internally at trunc_order + guard terms, checks at the
end that the requested order is still reliable, and returns the series cut at
trunc_order.  A normalized invariant must come out with min_degree 0 and
constant term exactly 1; anything else raises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import CancellationFailure, SingularBracket, TruncationUnderflow
from .groups import Family, GroupInstance, su2, su_n
from .knots import TorusKnot, as_knot
from .series import TruncSeries, series_exp_linear

#: truncation defaults: coefficients are needed through x^6, and Laurent
#: cancellations in the quotients consume one extra term
DEFAULT_ORDER = 6
DEFAULT_GUARD = 2

KnotLike = Union[TorusKnot, tuple]


def qpower(exponent, scale, trunc_order: int) -> TruncSeries:
    """The series of t**exponent with t = exp(scale*x)."""
    return series_exp_linear(Fraction(exponent) * Fraction(scale), trunc_order)


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
    head = head * t(Fraction((m - 1) * (n - 1), 2) * (N - 1))  # lambda^{(m-1)(n-1)/2}
    total = TruncSeries.zero(W)
    for i in range(n):
        p = n - 1 - i
        if -p <= N <= i:
            continue  # the factor (lambda t - t^N) vanishes identically
        # the j = 0 factor of prod_{j=-p..i} (lambda t - t^j) is cancelled
        # against the global 1/(lambda t - 1)
        term = ((left[p] * right[i]) / (fact[i] * fact[p])) \
            * t(m * i + Fraction(p * (p + 1), 2))
        total = total + (term if i % 2 == 0 else -term)
    return _finalize_normalized(head * total, trunc_order, f"homfly({n},{m};N={N})")


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
    head = (br(1) * t(Fraction(n * m) * lam)) / (br(1) + brqs[0])
    total = TruncSeries.constant(1, W) if n % 2 == 0 else TruncSeries.zero(W)
    for g in range(n):
        b = n - 1 - g
        weight = t(Fraction(-m * (b - g), 2) - m * lam)  # t^{-m(b-g)/2} lambda^{-m}
        bracket = inv_br_n + one / brqs[b - g]
        numer = neg[g] * brqs[0] * pos[b]  # prod_{j=-g..b} [j;1]
        term = ((bracket * numer) / (fact[b] * fact[g])) * weight
        total = total + (term if g % 2 == 0 else -term)
    return _finalize_normalized(head * total, trunc_order, f"kauffman({n},{m};N={N})")


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

    def t(a) -> TruncSeries:
        return qpower(a, 1, W)

    total = TruncSeries.zero(W)
    for ell in range(j + 1):
        base = n * (1 + m * ell) * (j - ell)
        e1 = base + 1 + m * ell
        e2 = base + m * (j - ell)
        if e1 == e2:
            continue  # identically zero summand
        total = total + (t(e1) - t(e2))
    res = total / (t(j + 1) - TruncSeries.one(W))
    res = res * t(Fraction(j * (n - 1) * (m - 1), 2))
    return _finalize_normalized(res, trunc_order, f"akutsu-wadati({n},{m};j={j})")


def unknot_factor(group: GroupInstance,
                  trunc_order: int = DEFAULT_ORDER,
                  guard: int = DEFAULT_GUARD) -> TruncSeries:
    """Quantum-dimension series of the unknot; constant term is the classical
    dimension (N, N, j+1, or N(j+1))."""
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
