"""Composite-series coefficients by combinatorial enumeration.

The coefficient of u^gamma in f(g(u)) is a finite sum over decompositions

    gamma = |k_1| delta_1 + ... + |k_l| delta_l,

with pairwise distinct nonzero exponent vectors ``delta_i`` and nonzero
multiplier vectors ``k_i``; each decomposition contributes the multinomial
alpha!/(k_1! ... k_l!) with alpha = k_1 + ... + k_l, times f_alpha and the
products of chosen g-coefficients.  This module enumerates decompositions
canonically (deltas in graded-lex order) and expands, in closed form, the
dominating series obtained by replacing every coefficient with
lambda^{|alpha|}, whose terms are all nonzero.

:func:`compose_coefficient` sums the same terms but never builds the zero
ones: it walks only the nonzero coefficients of the inner tables that fit
under gamma, so its cost follows the tables' support, not the number of
decompositions.  :func:`enumerate_decompositions` is the reference the tests
compare it against.

Everything is exact; coefficient tables are plain dicts from exponent tuples
to Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm
from operator import le, sub

from .series import Jet, Multiindex, grlex_key, substitute

CoefficientTable = dict  # Multiindex -> Fraction


@dataclass(frozen=True)
class Decomposition:
    """One way of writing gamma as sum |k_i| * delta_i, deltas sorted grlex."""

    target: Multiindex
    pairs: tuple[tuple[Multiindex, Multiindex], ...]  # (delta_i, k_i)

    @property
    def alpha(self) -> Multiindex:
        p = len(self.pairs[0][1])
        out = [0] * p
        for _, k in self.pairs:
            for j, kj in enumerate(k):
                out[j] += kj
        return tuple(out)

    def multinomial(self) -> int:
        return multinomial_coefficient(self.alpha, [k for _, k in self.pairs])


def _box(gamma: Multiindex):
    """All nonzero multiindices <= gamma componentwise, in graded-lex order."""
    ranges = [range(g + 1) for g in gamma]
    out = [d for d in product(*ranges) if any(d)]
    out.sort(key=grlex_key)
    return out


@lru_cache(maxsize=256)
def _weighted_partitions(gamma: Multiindex):
    """Tuples ((delta, w), ...) with strictly increasing deltas, w >= 1.

    Each tuple satisfies sum w * delta = gamma.
    """
    deltas = _box(gamma)

    def rec(remaining, start):
        if not any(remaining):
            return [()]
        out = []
        for idx in range(start, len(deltas)):
            d = deltas[idx]
            if any(a > b for a, b in zip(d, remaining)):
                continue
            w = 1
            scaled = d
            while all(a <= b for a, b in zip(scaled, remaining)):
                rest = tuple(b - a for a, b in zip(scaled, remaining))
                for tail in rec(rest, idx + 1):
                    out.append(((d, w),) + tail)
                w += 1
                scaled = tuple(a + b for a, b in zip(scaled, d))
        return out

    return tuple(rec(gamma, 0))


def _compositions(total: int, parts: int):
    """All tuples in N^parts with the given sum, lexicographic order."""
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=256)
def _nonzero_compositions(total: int, parts: int):
    return tuple(k for k in _compositions(total, parts) if any(k))


def enumerate_decompositions(gamma, p: int) -> list[Decomposition]:
    """Complete duplicate-free list of decompositions of gamma.

    Multipliers k_i run over nonzero vectors in N^p; deltas within one
    decomposition are pairwise distinct and listed in graded-lex order, so the
    output order is deterministic.
    """
    gamma = tuple(int(g) for g in gamma)
    if not any(gamma):
        raise ValueError("decompositions are defined for nonzero gamma only")
    if p < 1:
        raise ValueError("p must be at least 1")
    out = []
    for shape in _weighted_partitions(gamma):
        choices = [_nonzero_compositions(w, p) for _, w in shape]
        for ks in product(*choices):
            pairs = tuple((d, k) for (d, _), k in zip(shape, ks))
            out.append(Decomposition(target=gamma, pairs=pairs))
    return out


def multinomial_coefficient(alpha, ks) -> int:
    """alpha! / (k_1! ... k_l!) for multiindices with sum k_i = alpha."""
    alpha = tuple(int(a) for a in alpha)
    ks = [tuple(int(x) for x in k) for k in ks]
    sums = [sum(k[j] for k in ks) for j in range(len(alpha))]
    if tuple(sums) != alpha:
        raise ValueError(f"multiindices {ks} do not sum to {alpha}")
    num = 1
    for a in alpha:
        num *= factorial(a)
    den = 1
    for k in ks:
        for x in k:
            den *= factorial(x)
    assert num % den == 0
    return num // den


def _check_tables(f_table, g_tables, gamma):
    """Reject argument shapes that would make the sum silently zero."""
    n, p = len(gamma), len(g_tables)
    if p < 1:
        raise ValueError("compose_coefficient needs at least one inner table")
    if any(g < 0 for g in gamma):
        raise ValueError(f"gamma {gamma} has a negative entry")
    for j, t in enumerate(g_tables):
        for key in t:
            if len(key) != n:
                raise ValueError(
                    f"inner table {j} has key {key} of length {len(key)}, "
                    f"but gamma {gamma} has length {n}"
                )
        if t.get((0,) * n, 0) != 0:
            raise ValueError("inner components must have zero constant term")
    for key in f_table:
        if len(key) != p:
            raise ValueError(
                f"outer table has key {key} of length {len(key)}, "
                f"but there are {p} inner tables"
            )


def compose_coefficient(f_table, g_tables, gamma) -> Fraction:
    """The gamma-coefficient of f(g) from coefficient tables alone.

    ``f_table`` maps N^p exponents to the coefficients of the outer series
    (centered at g(0)); ``g_tables`` is one table per component of the inner
    map, each with zero constant term.  Exactly matches the coefficient
    extracted from :func:`resolvkit.series.substitute` on the same data.

    Only terms that can be nonzero are visited.  An atom is a pair
    (delta, j) with g_j[delta] != 0 and delta <= gamma; a term is a multiset
    of atoms, atom (delta, j) taken m times, with sum m * delta = gamma.
    With alpha_j the sum of the m of the atoms of index j, it contributes
    alpha!/prod m! * f_alpha * prod g_j[delta]^m: the term of the
    decomposition with k_i = (the m of atom (delta_i, j))_j.  The walk takes
    the atoms in graded-lex order of delta, then j, and prunes as soon as
    the remaining exponent would go negative or |alpha| would pass the
    degree of f, so it is at most |gamma| deep.  The sum runs on integers:
    f over the lcm of its denominators, every g_j over one common lcm D,
    each term scaled to D^|gamma|; one ``Fraction`` is built at the end.
    The sum over :func:`enumerate_decompositions` is the reference the
    tests compare it against.
    """
    gamma = tuple(int(g) for g in gamma)
    _check_tables(f_table, g_tables, gamma)
    if not any(gamma):
        return Fraction(f_table.get((0,) * len(g_tables), 0))
    outer = {a: Fraction(c) for a, c in f_table.items() if c}
    # (delta, j) pairs are distinct, so the sort never compares coefficients
    atoms = sorted(
        (sum(delta), delta, j, Fraction(c))
        for j, t in enumerate(g_tables)
        for delta, c in t.items()
        if c and all(map(le, delta, gamma))
    )
    if not outer or not atoms:
        return Fraction(0)
    f_den = lcm(*[c.denominator for c in outer.values()])
    f_num = {a: c.numerator * (f_den // c.denominator) for a, c in outer.items()}
    g_den = lcm(*[c.denominator for *_, c in atoms])
    atoms = [
        (deg, delta, j, c.numerator * (g_den // c.denominator))
        for deg, delta, j, c in atoms
    ]
    size = sum(gamma)
    max_weight = min(size, max(map(sum, f_num)))
    # a term of weight |alpha| = w carries g_den^-w; scale it to g_den^-|gamma|
    scale = [g_den ** (size - w) for w in range(size + 1)]
    alpha = [0] * len(g_tables)
    total = 0

    def walk(start, rem, left, weight, acc):
        # acc = alpha!/prod m! * prod (g_den * g_j[delta])^m over the atoms taken
        nonlocal total
        if not left:
            fa = f_num.get(tuple(alpha))
            if fa:
                total += acc * fa * scale[weight]
            return
        for idx in range(start, len(atoms)):
            deg, delta, j, c = atoms[idx]
            if deg > left:
                break  # atoms are sorted by degree: no later one fits
            a0, r, w, m = alpha[j], rem, acc, 0
            while weight + m < max_weight:
                r = tuple(map(sub, r, delta))
                if min(r) < 0:
                    break
                m += 1
                # times c and (a0 + m) / m: the multinomial grows by C(a0 + m, m)
                w = w * c * (a0 + m) // m
                alpha[j] = a0 + m
                walk(idx + 1, r, left - m * deg, weight + m, w)
            alpha[j] = a0

    walk(0, gamma, size, 0, 1)
    return Fraction(total, f_den * g_den**size)


def majorant_series(lam, n: int, p: int, trunc: int) -> Jet:
    """Closed-form oracle: F(G, ..., G) expanded as a jet in n variables.

    F(z) = prod_j 1/(1 - lam z_j) in p variables takes the same value G in
    every argument, so F(G, ..., G) = (1 - lam G)^{-p} = f(G) with the
    one-variable series f(w) = sum_k C(k + p - 1, p - 1) lam^k w^k.  G(u) =
    prod_i 1/(1 - u_i) - 1 is the sum of u^alpha over every nonzero alpha.
    Both are exact to degree ``trunc`` and G has no constant term, so f(G)
    is the jet that substituting G into the dense p-variable F gives, term
    for term.
    """
    lam = Fraction(lam)
    f = Jet(1, trunc, {(k,): comb(k + p - 1, p - 1) * lam**k for k in range(trunc + 1)})
    G = Jet(n, trunc, {
        alpha: 1 for alpha in product(range(trunc + 1), repeat=n) if 0 < sum(alpha) <= trunc
    })
    return substitute(f, [G])


def jet_to_table(f: Jet) -> CoefficientTable:
    """Coefficient table of a jet (plain dict copy)."""
    return {a: c for a, c in f.terms()}
