"""Decomposition enumeration and composite coefficients against the series oracle."""

from fractions import Fraction
from itertools import product
import random
import re

from hypothesis import given, settings, strategies as st
import pytest

from resolvkit.faa_di_bruno import (
    compose_coefficient,
    enumerate_decompositions,
    jet_to_table,
    majorant_series,
    multinomial_coefficient,
)
from resolvkit.series import Jet, grlex_key, substitute


def brute_force_decompositions(gamma, p):
    """Independent generator: extend by one (delta, k) pair at a time.

    Deltas are kept strictly increasing in graded-lex order so each multiset
    appears exactly once; no memoization, no pruning.
    """
    deltas = [
        d
        for d in product(*[range(g + 1) for g in gamma])
        if any(d) and all(a <= b for a, b in zip(d, gamma))
    ]
    deltas.sort(key=grlex_key)
    ks_all = {}

    def nonzero_ks(w):
        if w not in ks_all:
            ks_all[w] = [
                k
                for k in product(*[range(w + 1)] * p)
                if sum(k) == w and any(k)
            ]
        return ks_all[w]

    results = []

    def rec(remaining, start, acc):
        if not any(remaining):
            results.append(tuple(acc))
            return
        for idx in range(start, len(deltas)):
            d = deltas[idx]
            w = 1
            while all(w * a <= b for a, b in zip(d, remaining)):
                rest = tuple(b - w * a for a, b in zip(d, remaining))
                for k in nonzero_ks(w):
                    rec(rest, idx + 1, acc + [(d, k)])
                w += 1

    rec(tuple(gamma), 0, [])
    return set(results)


class TestEnumeration:
    def test_degree_one(self):
        decs = enumerate_decompositions((1,), 1)
        assert len(decs) == 1
        assert decs[0].pairs == (((1,), (1,)),)

    def test_degree_two(self):
        decs = enumerate_decompositions((2,), 1)
        assert {d.pairs for d in decs} == {
            (((2,), (1,)),),
            (((1,), (2,)),),
        }

    def test_degree_three_count(self):
        # (3)*1, (1)*3, and (1)*1 + (2)*1; matches the partition count of 3
        assert len(enumerate_decompositions((3,), 1)) == 3

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            enumerate_decompositions((0, 0), 1)

    def test_brute_force_agreement(self):
        for n, p in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for gamma in product(range(7), repeat=n):
                if not any(gamma) or sum(gamma) > 6:
                    continue
                fast = {d.pairs for d in enumerate_decompositions(gamma, p)}
                brute = brute_force_decompositions(gamma, p)
                assert fast == brute, (n, p, gamma)

    def test_determinism(self):
        a = enumerate_decompositions((2, 1), 2)
        b = enumerate_decompositions((2, 1), 2)
        assert [d.pairs for d in a] == [d.pairs for d in b]


class TestMultinomial:
    def test_binomial(self):
        assert multinomial_coefficient((2,), [(1,), (1,)]) == 2

    def test_two_vars(self):
        # expand (a + b)^(1,1): the mixed term a^(1,0) b^(0,1) carries 1!1!/1!1! = 1
        assert multinomial_coefficient((1, 1), [(1, 0), (0, 1)]) == 1

    def test_single_block(self):
        assert multinomial_coefficient((3, 2), [(3, 2)]) == 1

    def test_mismatch(self):
        with pytest.raises(ValueError):
            multinomial_coefficient((2,), [(1,)])

    def test_multinomial_expansion_oracle(self):
        # (a + b)^alpha expanded termwise equals the multinomial sum, for a
        # couple of alphas, with symbolic a, b replaced by jets
        T = 6
        a = Jet(2, T, {(1, 0): 1})
        b = Jet(2, T, {(0, 1): 1})
        for alpha in [(2,), (3,)]:
            lhs = (a + b) ** alpha[0]
            total = Jet.zero(2, T)
            for k1 in range(alpha[0] + 1):
                k2 = alpha[0] - k1
                coeff = multinomial_coefficient(alpha, [(k1,), (k2,)]) if k1 and k2 else (
                    1 if (k1 == alpha[0] or k2 == alpha[0]) else 0
                )
                total = total + (a**k1 * b**k2).scale(coeff)
            assert lhs == total


class TestComposeCoefficient:
    def test_square_example(self):
        f = {(2,): Fraction(1)}
        g = [{(1,): Fraction(1), (2,): Fraction(1)}]
        assert compose_coefficient(f, g, (3,)) == 2

    def test_identity_outer(self):
        rng = random.Random(1)
        g = {(1,): Fraction(3, 2), (2,): Fraction(-1), (3,): Fraction(5)}
        f = {(1,): Fraction(1)}
        for gamma in [(1,), (2,), (3,)]:
            assert compose_coefficient(f, [g], gamma) == g[gamma]

    def test_product_outer(self):
        f = {(1, 1): Fraction(1)}
        g = [{(1,): Fraction(1)}, {(2,): Fraction(1)}]
        assert compose_coefficient(f, g, (3,)) == 1
        assert compose_coefficient(f, g, (2,)) == 0

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            compose_coefficient({(1,): Fraction(1)}, [{(0,): Fraction(1)}], (1,))

    def test_zero_gamma(self):
        f = {(0, 0): Fraction(3, 2), (1, 0): Fraction(1)}
        assert compose_coefficient(f, [{(1,): 1}, {(2,): 1}], (0,)) == Fraction(3, 2)

    @pytest.mark.parametrize("f, g, gamma, message", [
        ({(1,): 1}, [{(1,): 1}], (-1,), "negative entry"),
        ({(1,): 1}, [{(1, 0): 1}], (1, 2, -1), "negative entry"),
        # gamma shorter, then longer, than the inner tables' keys
        ({(1,): 1}, [{(1, 0): 1}], (1,), "key (1, 0) of length 2"),
        ({(1,): 1}, [{(1,): 1}], (1, 1), "key (1,) of length 1"),
        # outer keys shorter, then longer, than the number of inner tables
        ({(1,): 1}, [{(1,): 1}, {(2,): 1}], (2,), "outer table has key (1,)"),
        ({(1, 1): 1}, [{(1,): 1}], (2,), "outer table has key (1, 1)"),
        ({(1,): 1}, [], (1,), "at least one inner table"),
    ])
    def test_malformed_arguments_rejected(self, f, g, gamma, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            compose_coefficient(f, g, gamma)

    def test_oracle_equivalence_random(self):
        rng = random.Random(20)
        for _ in range(40):
            n = rng.randint(1, 3)
            p = rng.randint(1, 3)
            T = 6
            f = _random_poly(rng, p, 4, T)
            gs = []
            for _ in range(p):
                gj = _random_poly(rng, n, 4, T)
                gj = gj - Jet.constant(gj.constant_term, n, T)
                gs.append(gj)
            h = substitute(f, gs)
            ft = jet_to_table(f)
            gts = [jet_to_table(gj) for gj in gs]
            for gamma in _small_gammas(n, 6):
                assert compose_coefficient(ft, gts, gamma) == h.coeff(gamma)


SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)
# mixed denominators and explicit zeros, so tables rarely share a denominator
# and zero entries must be skipped, never taken as atoms
RATIONALS = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(-5, 6), Fraction(7)]
) | st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def compose_cases(draw):
    """Outer and inner tables and a nonzero gamma with |gamma| <= 6.

    gamma may have zero entries, the outer table is dense to a degree that
    may be below |gamma|, and the last inner table may be empty."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gamma = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)))
    if sum(gamma) > 6:
        gamma = tuple(min(g, 2) for g in gamma)
    f_deg = max(0, sum(gamma) - draw(st.integers(0, 2)))
    f = {
        a: draw(RATIONALS)
        for a in product(range(f_deg + 1), repeat=p) if sum(a) <= f_deg
    }
    g_exps = [d for d in product(*[range(g + 1) for g in gamma]) if any(d)]
    g_table = st.dictionaries(st.sampled_from(g_exps), RATIONALS, min_size=1, max_size=6)
    gs = [draw(g_table) for _ in range(p)]
    if draw(st.booleans()):
        gs[-1] = {}
    return f, gs, gamma


def decomposition_sum(f, gs, gamma):
    """Reference sum: one term for every decomposition, zero terms included."""
    total = Fraction(0)
    for dec in enumerate_decompositions(gamma, len(gs)):
        term = dec.multinomial() * Fraction(f.get(dec.alpha, 0))
        for delta, k in dec.pairs:
            for g, kj in zip(gs, k):
                term *= Fraction(g.get(delta, 0)) ** kj
        total += term
    return total


class TestComposeProperties:
    @SETTINGS
    @given(compose_cases())
    def test_matches_decomposition_sum(self, case):
        f, gs, gamma = case
        assert compose_coefficient(f, gs, gamma) == decomposition_sum(f, gs, gamma)

    @SETTINGS
    @given(compose_cases())
    def test_matches_substitute(self, case):
        f, gs, gamma = case
        n, p, T = len(gamma), len(gs), sum(gamma)
        h = substitute(Jet(p, T, f), [Jet(n, T, g) for g in gs])
        assert compose_coefficient(f, gs, gamma) == h.coeff(gamma)


def _random_poly(rng, nvars, deg, trunc):
    coeffs = {}
    for _ in range(8):
        alpha = tuple(rng.randint(0, deg) for _ in range(nvars))
        if sum(alpha) > deg:
            continue
        coeffs[alpha] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Jet(nvars, trunc, coeffs)


def _small_gammas(n, bound):
    out = [g for g in product(range(bound + 1), repeat=n) if 0 < sum(g) <= bound]
    out.sort(key=grlex_key)
    return out


def dense_majorant_series(lam, n, p, T):
    """Reference: G(u) = prod 1/(1 - u_i) - 1 and the dense p-variable
    F(z) = prod 1/(1 - lam z_j), both built as products of geometric series,
    and F(G, ..., G) by substitution."""
    lam = Fraction(lam)

    def geometric(nvars, i, ratio):
        return Jet(nvars, T, {
            tuple(e if j == i else 0 for j in range(nvars)): ratio**e for e in range(T + 1)
        })

    G = Jet.constant(1, n, T)
    for i in range(n):
        G = G * geometric(n, i, 1)
    F = Jet.constant(1, p, T)
    for j in range(p):
        F = F * geometric(p, j, lam)
    return substitute(F, [G - Jet.constant(1, n, T)] * p)


def majorant_sum(lam, gamma, p):
    """The majorant coefficient as its sum of multinomials * lambda^|alpha|."""
    return sum(d.multinomial() * lam ** sum(d.alpha) for d in enumerate_decompositions(gamma, p))


class TestMajorant:
    @pytest.mark.parametrize("lam", [Fraction(1, 2), 1, Fraction(7, 3)])
    def test_matches_dense_substitution(self, lam):
        for n, p, T in product((1, 2, 3), (1, 2, 3), (0, 1, 3, 6)):
            assert majorant_series(lam, n, p, T) == dense_majorant_series(lam, n, p, T), (n, p, T)

    def test_gamma_zero(self):
        assert majorant_series(1, 2, 2, 4).coeff((0, 0)) == 1

    def test_first_coefficient(self):
        assert majorant_series(1, 1, 1, 4).coeff((1,)) == 1
        assert majorant_sum(1, (1,), 1) == 1

    def test_second_coefficient_closed_form(self):
        # with n = p = 1 the closed form is (1-u)/(1-(1+lam)u):
        # coefficient k >= 1 equals lam (1+lam)^{k-1}
        for lam in [Fraction(1), Fraction(1, 2), Fraction(3)]:
            oracle = majorant_series(lam, 1, 1, 8)
            for k in range(1, 9):
                expected = lam * (1 + lam) ** (k - 1)
                assert oracle.coeff((k,)) == expected
                assert majorant_sum(lam, (k,), 1) == expected

    def test_generating_function_identity(self):
        for n, p in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for lam in [Fraction(1), Fraction(1, 2), Fraction(3)]:
                oracle = majorant_series(lam, n, p, 6)
                for gamma in _small_gammas(n, 6):
                    assert majorant_sum(lam, gamma, p) == oracle.coeff(
                        gamma
                    ), (n, p, lam, gamma)

    def test_positivity(self):
        oracle = majorant_series(Fraction(1, 2), 2, 2, 5)
        for gamma in _small_gammas(2, 5):
            assert oracle.coeff(gamma) > 0
