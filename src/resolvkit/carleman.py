"""Calculus of Denjoy-Carleman growth sequences.

A :class:`GrowthSequence` is a positive weight sequence m_0, m_1, ... given
either in closed form (constant, or Gevrey power (k!)^s) or as a finite
prefix of rationals, optionally shifted (m^{+j} has terms m_{k+j}).

Every comparison is exact.  Irrational quantities such as (k!)^{1/2} or k-th
roots never get evaluated: any comparison of products of sequence terms is
restated as an integer or rational power comparison before deciding it, so
the verdicts carry no rounding assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .series import Jet, PolyMap, PivotError, implicit_solve, invert_map, mat_inv, substitute

CONSTANT = "constant"
GEVREY = "gevrey"
CUSTOM = "custom"


class GrowthSequence:
    """Weight sequence family with exact product comparisons."""

    __slots__ = ("kind", "s", "prefix", "shift")

    def __init__(self, kind, s=None, prefix=None, shift=0):
        if kind not in (CONSTANT, GEVREY, CUSTOM):
            raise ValueError(f"unknown growth-sequence kind {kind!r}")
        if kind == GEVREY:
            s = Fraction(s)
            if s <= 0:
                raise ValueError("Gevrey exponent must be positive")
        if kind == CUSTOM:
            prefix = tuple(Fraction(p) for p in prefix or ())
            if not prefix:
                raise ValueError("custom sequences need a nonempty prefix")
            if any(p <= 0 for p in prefix):
                raise ValueError("sequence terms must be positive")
        if shift < 0:
            raise ValueError("shift must be a natural number")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "shift", int(shift))

    def __setattr__(self, name, value):
        raise AttributeError("GrowthSequence is immutable")

    @classmethod
    def constant(cls) -> "GrowthSequence":
        return cls(CONSTANT)

    @classmethod
    def gevrey(cls, s) -> "GrowthSequence":
        return cls(GEVREY, s=s)

    @classmethod
    def custom(cls, prefix) -> "GrowthSequence":
        return cls(CUSTOM, prefix=prefix)

    def shifted(self, j: int = 1) -> "GrowthSequence":
        return GrowthSequence(self.kind, s=self.s, prefix=self.prefix, shift=self.shift + j)

    def __repr__(self):
        if self.kind == CONSTANT:
            body = "constant"
        elif self.kind == GEVREY:
            body = f"gevrey({self.s})"
        else:
            body = f"custom(len={len(self.prefix)})"
        if self.shift:
            body += f", shift=+{self.shift}"
        return f"GrowthSequence({body})"

    @property
    def available(self) -> int | None:
        """Largest index k for which m_k is accessible (None = unbounded)."""
        if self.kind == CUSTOM:
            return len(self.prefix) - 1 - self.shift
        return None

    def _check_index(self, k: int):
        if k < 0:
            raise IndexError("sequence index must be nonnegative")
        avail = self.available
        if avail is not None and k > avail:
            raise IndexError(
                f"term m_{k} is beyond the available prefix (max index {avail})"
            )

    def term(self, k: int) -> Fraction:
        """Exact value of m_k; raises for irrational Gevrey terms."""
        self._check_index(k)
        k = k + self.shift
        if self.kind == CONSTANT:
            return Fraction(1)
        if self.kind == CUSTOM:
            return self.prefix[k]
        if self.s.denominator == 1:
            return Fraction(factorial(k)) ** self.s.numerator
        if k <= 1:
            return Fraction(1)
        raise ValueError(
            f"({k}!)^{self.s} is irrational; use compare_products for exact comparisons"
        )

    def compare_products(self, lhs, rhs) -> int:
        """Compare prod m_k^e over the two sides; returns -1, 0 or 1.

        Each side is a list of (index, exponent) pairs with natural exponents.
        For Gevrey families the common positive exponent s cancels, so the
        comparison reduces to exact integer products of factorials.
        """
        for k, _ in list(lhs) + list(rhs):
            self._check_index(k)
        if self.kind == CONSTANT:
            return 0
        base = factorial if self.kind == GEVREY else self.prefix.__getitem__

        def product(side):
            value = 1
            for k, e in side:
                value *= base(k + self.shift) ** e
            return value

        left, right = product(lhs), product(rhs)
        return (left > right) - (left < right)


# -- structural tests ---------------------------------------------------------


@dataclass(frozen=True)
class LogConvexityResult:
    ok: bool
    witness: int | None  # first index k with m_{k+1}/m_k decreasing


def is_log_convex(m: GrowthSequence, depth: int) -> LogConvexityResult:
    """Check that the ratio sequence m_{k+1}/m_k is nondecreasing.

    Ratios r_0 .. r_{depth-1} are inspected; the first violating index is
    reported.  The ratio comparison r_{k-1} <= r_k is decided exactly as
    m_k^2 <= m_{k-1} m_{k+1}.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    avail = m.available
    if avail is not None and depth > avail:
        raise IndexError(f"depth {depth} exceeds available terms (max {avail})")
    for k in range(1, depth):
        if m.compare_products([(k, 2)], [(k - 1, 1), (k + 1, 1)]) > 0:
            return LogConvexityResult(False, k)
    return LogConvexityResult(True, None)


@dataclass(frozen=True)
class ConvexityConsequences:
    ok: bool
    product_rule_ok: bool  # m_j m_k <= m_0 m_{j+k}
    root_rule_ok: bool  # m_k^{k+1} <= m_0 m_{k+1}^k (k-th roots stated in powers)
    failures: tuple


def log_convexity_consequences(m: GrowthSequence, depth: int) -> ConvexityConsequences:
    """Verify the two standard consequences of log convexity up to depth.

    The root condition, nominally that m_k^{1/k} increases after dividing out
    m_0, is stated multiplicatively as m_k^{k+1} <= m_0 m_{k+1}^k so that only
    integer powers of rationals are ever compared.
    """
    conv = is_log_convex(m, max(2, depth))
    if not conv.ok:
        raise ValueError(f"sequence is not log convex (witness k={conv.witness})")
    failures = []
    prod_ok = True
    for j in range(depth + 1):
        for k in range(depth + 1 - j):
            if m.compare_products([(j, 1), (k, 1)], [(0, 1), (j + k, 1)]) > 0:
                prod_ok = False
                failures.append(("product", j, k))
    root_ok = True
    for k in range(1, depth):
        if m.compare_products([(k, k + 1)], [(0, 1), (k + 1, k)]) > 0:
            root_ok = False
            failures.append(("root", k))
    return ConvexityConsequences(prod_ok and root_ok, prod_ok, root_ok, tuple(failures))


QUASIANALYTIC = "quasianalytic"
NOT_QUASIANALYTIC = "not-quasianalytic"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SequenceVerdict:
    kind: str
    depth: int | None = None
    partial_sum: Fraction | None = None

    def __str__(self):
        if self.kind == INCONCLUSIVE:
            return f"inconclusive at depth {self.depth} (partial sum {self.partial_sum})"
        return self.kind


def quasianalytic_test(m: GrowthSequence, depth: int = 16) -> SequenceVerdict:
    """Divergence test for the series with summand m_k / ((k+1) m_{k+1}).

    Closed-form families are decided analytically: the constant sequence gives
    the harmonic series (divergent), while any Gevrey power s > 0 gives a
    summand 1/((k+1)^{1+s} ...) dominated by a convergent p-series.  Finite
    prefixes can never decide divergence, so custom sequences report the exact
    partial sum at the deepest computable index.
    """
    if m.kind == CONSTANT:
        return SequenceVerdict(QUASIANALYTIC)
    if m.kind == GEVREY:
        return SequenceVerdict(NOT_QUASIANALYTIC)
    K = min(depth, m.available)
    total = Fraction(0)
    for k in range(K):
        total += m.term(k) / ((k + 1) * m.term(k + 1))
    return SequenceVerdict(INCONCLUSIVE, depth=K, partial_sum=total)


@dataclass(frozen=True)
class DerivationClosureResult:
    verdict: str  # "closed" | "inconclusive"
    # for custom sequences: the empirical max of (m_{k+1}/m_k)^{1/k} as the
    # pair (ratio, k), compared exactly via cross powers
    max_ratio: Fraction | None = None
    max_index: int | None = None


def derivation_closure_test(m: GrowthSequence, depth: int = 16) -> DerivationClosureResult:
    """Boundedness of (m_{k+1}/m_k)^{1/k}, which closes the class under d/dx.

    Constant: ratio 1.  Gevrey s: the ratio grows like (k+1)^s, whose k-th
    root is bounded.  Custom: only an empirical maximum over the prefix can be
    reported, never a verdict.
    """
    if m.kind in (CONSTANT, GEVREY):
        return DerivationClosureResult("closed")
    avail = m.available
    best_k = None
    best_ratio = None
    for k in range(1, min(depth, avail) + 1):
        ratio = m.term(k + 1) / m.term(k) if k + 1 <= avail else None
        if ratio is None:
            break
        if best_k is None:
            best_k, best_ratio = k, ratio
            continue
        # (ratio)^{1/k} > (best)^{1/best_k}  <=>  ratio^best_k > best^k
        if ratio**best_k > best_ratio**k:
            best_k, best_ratio = k, ratio
    return DerivationClosureResult("inconclusive", max_ratio=best_ratio, max_index=best_k)


# -- composition and inversion constants --------------------------------------


@dataclass(frozen=True)
class CompositionConstants:
    C: Fraction
    D: Fraction
    certified_depth: int | None  # None when the value is exact in closed form


def composition_constants(a, b, c, d, m1, n: int, p: int, depth: int = 8) -> CompositionConstants:
    """Constants (C, D) dominating the decomposition sums lambda = b c m_1.

    For n = p = 1 the exact values C = b c m_1 and D = 1 + b c m_1 are
    returned.  In general the dominating series is expanded to ``depth`` and
    the smallest integer D with max_{|gamma|=k} H_gamma <= C D^k certified on
    that range is reported together with the certification depth.  The outer
    constants a and d scale the final coefficient bound a C (d D)^{|gamma|}
    and do not enter (C, D) themselves.
    """
    for v in (a, b, c, d, m1):
        if Fraction(v) <= 0:
            raise ValueError("all constants must be positive")
    lam = Fraction(b) * Fraction(c) * Fraction(m1)
    if n == 1 and p == 1:
        return CompositionConstants(lam, 1 + lam, None)
    from .faa_di_bruno import majorant_series

    H = majorant_series(lam, n, p, depth)
    C = max(Fraction(1), lam)
    D = 1
    for gamma, coeff in H.terms():
        k = sum(gamma)
        if k == 0:
            continue
        # smallest integer t with C t^k >= coeff
        while C * Fraction(D) ** k < coeff:
            D += 1
    return CompositionConstants(C, Fraction(D), depth)


def inverse_majorant(n: int, r, a, b, m: GrowthSequence, depth: int) -> Jet:
    """Solve the dominating fixed-point system for inverse-map coefficients.

    Returns the jet G (all n components coincide by symmetry) solving

        G = (r/m_1)(y_1 + ... + y_n) + Phi(G, ..., G),
        Phi(x) = sum_{|alpha| >= 2} n r a (m_1 b)^{|alpha|} x^alpha,

    to degree ``depth``.  Every coefficient of Phi depends on |alpha| only,
    and C(s + n - 1, n - 1) exponents alpha have |alpha| = s, so
    Phi(x, ..., x) = sum_s c_s x^s with c_s = n r a (m_1 b)^s C(s + n - 1,
    n - 1).  Hence G = g(y_1 + ... + y_n), where g solves the one-variable
    equation g(t) = (r/m_1) t + sum_{s=2}^{depth} c_s g(t)^s: the composite
    solves the n-variable system, whose solution is unique because its
    degree-k part depends only on lower-degree parts (Phi has order two).  So
    the jet is the one the n-variable solve gives, term for term, and its
    coefficients are G_gamma = g_|gamma| |gamma|!/gamma!.

    g is the root u of F(t, u) = (r/m_1) t - u + sum_s c_s u^s = 0, which
    :func:`resolvkit.series.implicit_solve` finds on the pivot dF/du(0) = -1,
    and is then expanded once at y_1 + ... + y_n.  Every coefficient of G is
    nonnegative; the degree-one coefficients are exactly r/m_1.
    """
    r, a, b = Fraction(r), Fraction(a), Fraction(b)
    if r <= 0 or a <= 0 or b <= 0:
        raise ValueError("constants must be positive")
    m1 = m.term(1)
    if depth == 0:
        return Jet.zero(n, 0)  # F has no pivot at truncation 0
    F = Jet(2, depth, {(1, 0): r / m1, (0, 1): -1} | {
        (0, s): n * r * a * (m1 * b) ** s * comb(s + n - 1, n - 1)
        for s in range(2, depth + 1)
    })
    g = implicit_solve(F, 1)
    total = Jet(n, depth, {tuple(int(j == i) for j in range(n)): 1 for i in range(n)})
    G = substitute(g, [total])
    for alpha, coeff in G.terms():
        if coeff < 0:
            raise AssertionError(f"majorant coefficient at {alpha} is negative")
    return G


def extract_inverse_constants(g: PolyMap, m: GrowthSequence):
    """Constants (r, a, b) for a polynomial map fixing 0, evaluated at 0.

    r bounds the entries of the inverse Jacobian at the origin; (a, b) bound
    the map coefficients of total degree >= 2 via |g_{i,alpha}| <= a b^{|alpha|}
    m_{|alpha|} (lower degrees do not enter the majorant).  a is anchored on
    the degree-two coefficients, then b is the smallest dyadic rational with
    denominator 2^10 covering the higher degrees.
    """
    n = len(g)
    if any(v != 0 for v in g.value_at_zero()):
        raise PivotError("map must fix the origin")
    theta = mat_inv(g.jacobian_at_zero())
    r = max(abs(x) for row in theta for x in row)
    if r == 0:
        raise AssertionError("inverse Jacobian cannot vanish entirely")
    needs = []  # (|alpha|, |coeff| / m_|alpha|)
    for comp in g.components:
        for alpha, coeff in comp.terms():
            s = sum(alpha)
            if s >= 2:
                needs.append((s, abs(coeff) / m.term(s)))
    if not needs:
        return r, Fraction(1), Fraction(1)
    a = max(
        [Fraction(1)] + [c for s, c in needs if s == 2]
    )
    den = 2**10

    def covers(bnum: int) -> bool:
        bb = Fraction(bnum, den)
        return all(c <= a * bb**s for s, c in needs)

    lo, hi = den, den  # b = 1 upward
    while not covers(hi):
        hi *= 2
        if hi > den * 2**40:
            raise AssertionError("no reasonable b covers the coefficients")
    while lo < hi:
        mid = (lo + hi) // 2
        if covers(mid):
            hi = mid
        else:
            lo = mid + 1
    return r, a, Fraction(lo, den)


def check_inverse_domination(g: PolyMap, m: GrowthSequence, depth: int):
    """Verify |(g^{-1})_{i,gamma}(0)| <= G_gamma m_|gamma| for |gamma| <= depth.

    Returns (ok, failures); the inverse is computed exactly with
    :func:`resolvkit.series.invert_map` and G solves the dominating system for
    the constants extracted from ``g``.
    """
    r, a, b = extract_inverse_constants(g, m)
    G = inverse_majorant(len(g), r, a, b, m, depth)
    trimmed = PolyMap([c.with_truncation(depth) for c in g.components])
    h = invert_map(trimmed)
    failures = []
    for i, comp in enumerate(h.components):
        for gamma, coeff in comp.terms():
            k = sum(gamma)
            if k == 0 or k > depth:
                continue
            bound = G.coeff(gamma) * m.term(k)
            if abs(coeff) > bound:
                failures.append((i, gamma, coeff, bound))
    return not failures, failures

