"""Growth-sequence structure tests, the key inequalities, and majorants."""

from fractions import Fraction
from itertools import product
from math import factorial, prod
import random

from hypothesis import example, given, settings, strategies as st
import pytest

from resolvkit.carleman import (
    GrowthSequence,
    INCONCLUSIVE,
    NOT_QUASIANALYTIC,
    QUASIANALYTIC,
    check_inverse_domination,
    composition_constants,
    derivation_closure_test,
    extract_inverse_constants,
    inverse_majorant,
    is_log_convex,
    log_convexity_consequences,
    quasianalytic_test,
)
from resolvkit.faa_di_bruno import enumerate_decompositions
from resolvkit.series import Jet, PolyMap, mat_det, substitute

from test_acceptance import childress_holds


FACTORIAL = GrowthSequence.gevrey(1)
CONST = GrowthSequence.constant()
GEVREY_HALF = GrowthSequence.gevrey(Fraction(1, 2))
GEVREY_TWO = GrowthSequence.gevrey(2)

FAMILIES = [CONST, GEVREY_HALF, FACTORIAL, GEVREY_TWO]


def partitions(n):
    """The partitions of n as (delta, k) pairs ((i,), (k_i,)), from the
    decompositions of (n,) with p = 1."""
    return [dec.pairs for dec in enumerate_decompositions((n,), 1)]


class TestLogConvexity:
    def test_factorial(self):
        assert is_log_convex(FACTORIAL, 50).ok

    def test_constant(self):
        assert is_log_convex(CONST, 50).ok

    def test_custom_violation(self):
        m = GrowthSequence.custom([1, 1, 3, 4])
        res = is_log_convex(m, 3)
        assert not res.ok
        assert res.witness == 2

    def test_depth_guard(self):
        m = GrowthSequence.custom([1, 1, 3, 4])
        with pytest.raises(IndexError):
            is_log_convex(m, 4)
        with pytest.raises(ValueError):
            is_log_convex(m, 1)

    def test_consequences_factorial(self):
        rep = log_convexity_consequences(FACTORIAL, 8)
        assert rep.ok and rep.product_rule_ok and rep.root_rule_ok
        # spot value: m_2 m_2 = 4 <= m_0 m_4 = 24
        assert FACTORIAL.compare_products([(2, 1), (2, 1)], [(0, 1), (4, 1)]) <= 0

    def test_consequences_at_zero(self):
        # j = 0: m_0 m_k = m_0 m_k exactly
        assert FACTORIAL.compare_products([(0, 1), (5, 1)], [(0, 1), (5, 1)]) == 0

    def test_consequences_constant_all_equal(self):
        rep = log_convexity_consequences(CONST, 8)
        assert rep.ok and not rep.failures

    def test_gevrey_half_consequences(self):
        assert log_convexity_consequences(GEVREY_HALF, 8).ok


class TestQuasianalytic:
    def test_constant(self):
        assert quasianalytic_test(CONST).kind == QUASIANALYTIC

    def test_gevrey_one(self):
        assert quasianalytic_test(FACTORIAL).kind == NOT_QUASIANALYTIC

    def test_custom_prefix(self):
        m = GrowthSequence.custom([1] * 10)
        v = quasianalytic_test(m, depth=64)
        assert v.kind == INCONCLUSIVE
        assert v.depth == 9
        # with m_k = 1 the partial sum is the 9th harmonic partial sum
        assert v.partial_sum == sum(Fraction(1, k + 1) for k in range(9))

    def test_shift_invariance_on_families(self):
        for m in FAMILIES:
            assert quasianalytic_test(m).kind == quasianalytic_test(m.shifted(1)).kind


class TestDerivationClosure:
    def test_constant(self):
        assert derivation_closure_test(CONST).verdict == "closed"

    def test_gevrey(self):
        assert derivation_closure_test(FACTORIAL).verdict == "closed"
        assert derivation_closure_test(GEVREY_HALF).verdict == "closed"

    def test_custom_reports_max(self):
        m = GrowthSequence.custom([1, 1, 2, 8])
        res = derivation_closure_test(m)
        assert res.verdict == "inconclusive"
        # ratios: r_1 = 2 at k=1, r_2 = 4 at k=2; 2^2 = 4 vs 4^1 = 4: tie keeps k=1
        assert res.max_index == 1
        assert res.max_ratio == 2


class TestChildress:
    def test_factorial_example(self):
        # n = 3, (k_1, k_2, k_3) = (1, 1, 0): m_2 m_1 m_2 = 4 <= m_1^2 m_3 = 6
        assert childress_holds(FACTORIAL, [((1,), (1,)), ((2,), (1,))])

    def test_kn_equals_one(self):
        for n in range(1, 6):
            assert childress_holds(FACTORIAL, [((n,), (1,))])

    def test_k1_equals_n(self):
        for n in range(1, 6):
            assert childress_holds(FACTORIAL, [((1,), (n,))])

    def test_constraint_violation(self):
        # the partitions of n are exactly the (k_1, ..., k_n) with sum i*k_i = n,
        # each listed once, so no tuple such as (2, 1, 0) for n = 3 is checked
        for n in range(1, 9):
            found = [
                tuple(dict((d[0], k[0]) for d, k in pairs).get(i, 0) for i in range(1, n + 1))
                for pairs in partitions(n)
            ]
            weighed = [
                ks for ks in product(*(range(n // i + 1) for i in range(1, n + 1)))
                if sum(i * k for i, k in enumerate(ks, 1)) == n
            ]
            assert sorted(found) == weighed

    def test_exhaustive_families(self):
        for m in FAMILIES:
            for n in range(1, 9):
                for pairs in partitions(n):
                    assert childress_holds(m, pairs), (m, n, pairs)

    def test_non_log_convex_search(self):
        # a deliberately non-log-convex sequence; search exhaustively for a
        # violation over n <= 6 and record the outcome either way (only the
        # positive direction above is asserted)
        m = GrowthSequence.custom([1, 1, 100, 100, 100, 100, 100])
        assert not is_log_convex(m, 6).ok
        found = None
        for n in range(1, 7):
            for pairs in partitions(n):
                if not childress_holds(m, pairs):
                    found = (n, pairs)
                    break
            if found:
                break
        # outcome recorded: either a violation exists or the inequality
        # happens to survive for this prefix
        assert found is None or len(found) == 2


class TestChildressBlocks:
    def test_equality_trivial(self):
        assert childress_holds(FACTORIAL, [((1,), (1,))])

    def test_alpha_two(self):
        # k = (2), delta = (1): m_2 m_1^2 = 2 <= m_1^2 m_2 = 2
        assert childress_holds(FACTORIAL, [((1,), (2,))])

    def test_two_blocks(self):
        # k_1 = k_2 = (1), delta_1 = (1), delta_2 = (2): 4 <= 6
        assert childress_holds(FACTORIAL, [((1,), (1,)), ((2,), (1,))])

    def test_random_instances(self):
        rng = random.Random(9)
        for _ in range(200):
            m = FAMILIES[rng.randrange(len(FAMILIES))]
            p = rng.randint(1, 3)
            n = rng.randint(1, 3)
            l = rng.randint(1, 3)
            ks, deltas = [], []
            for _ in range(l):
                k = tuple(rng.randint(0, 2) for _ in range(p))
                d = tuple(rng.randint(0, 2) for _ in range(n))
                if not any(k) or not any(d):
                    continue
                ks.append(k)
                deltas.append(d)
            if not ks:
                continue
            gamma_abs = sum(sum(k) * sum(d) for k, d in zip(ks, deltas))
            if gamma_abs > 8:
                continue
            assert childress_holds(m, list(zip(deltas, ks)))


class TestCompositionConstants:
    def test_one_var_exact(self):
        cc = composition_constants(1, 1, 1, 1, 1, 1, 1)
        assert (cc.C, cc.D) == (1, 2)
        assert cc.certified_depth is None

    def test_one_var_scaled(self):
        cc = composition_constants(1, 2, 3, 1, 1, 1, 1)
        assert (cc.C, cc.D) == (6, 7)

    def test_general_dominates(self):
        from resolvkit.faa_di_bruno import majorant_series

        cc = composition_constants(1, 1, 1, 1, 1, 2, 2, depth=8)
        H = majorant_series(1, 2, 2, 8)
        for gamma, coeff in H.terms():
            k = sum(gamma)
            if k:
                assert coeff <= cc.C * cc.D**k


POSITIVE = st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), 1, Fraction(5, 2)])


def dense_inverse_majorant(n, r, a, b, m, depth):
    """Reference: the same system solved in n variables, substituting G into
    the dense Phi (one term per alpha with 2 <= |alpha| <= depth) once a
    degree, with no use of its symmetry."""
    r, a, b, m1 = Fraction(r), Fraction(a), Fraction(b), m.term(1)
    G = Jet(n, depth, {
        tuple(1 if j == i else 0 for j in range(n)): r / m1 for i in range(n)
    })
    phi = Jet(n, depth, {
        alpha: n * r * a * (m1 * b) ** sum(alpha)
        for alpha in product(range(depth + 1), repeat=n)
        if 2 <= sum(alpha) <= depth
    })
    for k in range(2, depth + 1):
        step = substitute(phi.with_truncation(k), [G.with_truncation(k)] * n)
        G = G + Jet(n, depth, {al: v for al, v in step.terms() if sum(al) == k})
    return G


class TestInverseMajorant:
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 3), st.integers(0, 8), POSITIVE, POSITIVE, POSITIVE,
        st.sampled_from(FAMILIES),
    )
    def test_fixed_point(self, n, depth, r, a, b, m):
        """G = (r/m_1)(y_1 + ... + y_n) + Phi(G, ..., G) at the full depth."""
        G = inverse_majorant(n, r, a, b, m, depth)
        r, m1 = Fraction(r), m.term(1)
        linear = Jet(n, depth, {
            tuple(1 if j == i else 0 for j in range(n)): r / m1 for i in range(n)
        })
        phi = Jet(n, depth, {
            alpha: n * r * a * (m1 * b) ** sum(alpha)
            for alpha in product(range(depth + 1), repeat=n)
            if 2 <= sum(alpha) <= depth
        })
        assert G.trunc == depth
        assert G == linear + substitute(phi, [G] * n)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 4), st.integers(0, 9), POSITIVE, POSITIVE, POSITIVE,
        st.sampled_from(FAMILIES),
    )
    # the draws rarely reach the top of both ranges, where the dense solve is slow
    @example(1, 9, Fraction(5, 2), Fraction(2, 3), 1, GEVREY_TWO)
    @example(2, 9, Fraction(1, 2), Fraction(5, 2), Fraction(3, 4), FACTORIAL)
    @example(3, 9, Fraction(2, 3), 1, Fraction(5, 2), GEVREY_HALF)
    @example(4, 7, Fraction(3, 4), Fraction(1, 2), Fraction(2, 3), CONST)
    # past the widening of the packed keys above truncation 63
    @example(1, 66, 1, 1, 1, CONST)
    @example(2, 16, Fraction(1, 2), 1, Fraction(2, 3), GEVREY_TWO)
    def test_matches_dense_solve(self, n, depth, r, a, b, m):
        assert inverse_majorant(n, r, a, b, m, depth) == dense_inverse_majorant(
            n, r, a, b, m, depth
        )

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 4), st.integers(0, 9), POSITIVE, POSITIVE, POSITIVE,
        st.sampled_from(FAMILIES),
    )
    def test_symmetric_in_the_variables(self, n, depth, r, a, b, m):
        """G_gamma = g_|gamma| |gamma|!/gamma!, with g_s the coefficient of y_1^s."""
        G = inverse_majorant(n, r, a, b, m, depth)
        for gamma in product(range(depth + 1), repeat=n):
            s = sum(gamma)
            if s > depth:
                continue
            multinomial = factorial(s) // prod(factorial(x) for x in gamma)
            assert G.coeff(gamma) == G.coeff((s,) + (0,) * (n - 1)) * multinomial

    def test_linear_coefficients(self):
        G = inverse_majorant(2, Fraction(3), 1, 1, FACTORIAL, 5)
        assert G.coeff((1, 0)) == 3  # r / m_1 with m_1 = 1
        assert G.coeff((0, 1)) == 3

    def test_nonnegative(self):
        G = inverse_majorant(2, Fraction(1, 2), 2, 1, FACTORIAL, 6)
        assert all(c >= 0 for _, c in G.terms())

    def test_domination_concrete_map(self):
        x = Jet.variable(0, 2, 8)
        y = Jet.variable(1, 2, 8)
        g = PolyMap([x + y * y, y - x * x])
        ok, failures = check_inverse_domination(g, FACTORIAL, 6)
        assert ok, failures

    def test_domination_random_maps(self):
        rng = random.Random(14)
        done = 0
        while done < 8:
            comps = []
            for i in range(2):
                coeffs = {}
                for _ in range(4):
                    alpha = (rng.randint(0, 3), rng.randint(0, 3))
                    if not 1 <= sum(alpha) <= 3:
                        continue
                    coeffs[alpha] = Fraction(rng.randint(-3, 3))
                coeffs[(1 if i == 0 else 0, 0 if i == 0 else 1)] = Fraction(
                    rng.choice([1, -1, 2])
                )
                comps.append(Jet(2, 8, coeffs))
            g = PolyMap(comps)
            if mat_det(g.jacobian_at_zero()) == 0:
                continue
            ok, failures = check_inverse_domination(g, FACTORIAL, 6)
            assert ok, failures
            done += 1


class TestInverseBound1Var:
    """The one-variable inverse bound: the majorant g at n = 1."""

    def test_b1(self):
        # the degree-one bound g_1 m_1 is r, the size of the inverse's slope
        r = Fraction(3, 2)
        g = inverse_majorant(1, r, 1, 1, FACTORIAL, 3)
        assert g.coeff((1,)) * FACTORIAL.term(1) == r

    def test_c_constant(self):
        # c_2 = r a (m_1 b)^2 = 36 with r = a = 1, b = 3, m_1 = 2, so
        # g_2 = c_2 (r/m_1)^2 = 9
        m = GrowthSequence.custom([1, 2, 8, 48])
        assert inverse_majorant(1, 1, 1, 3, m, 2).coeff((2,)) == 9

    def test_b_search_doubles_then_bisects(self):
        # b = 1 does not cover 100 <= a b^3, so b doubles past the bound and
        # is bisected down to the least multiple of 1/1024 with b^3 >= 100
        f = PolyMap([Jet(1, 8, {(1,): 1, (3,): 100})])
        r, a, b = extract_inverse_constants(f, CONST)
        assert (r, a, b) == (1, 1, Fraction(4753, 1024))
        assert (b - Fraction(1, 1024)) ** 3 < 100 <= b**3
        ok, failures = check_inverse_domination(f, CONST, 6)
        assert ok, failures

    def test_domination_geometric_series(self):
        # f = x/(1-x): the inverse is y/(1+y), with |coefficients| = 1
        f = Jet(1, 8, {(k,): 1 for k in range(1, 9)})
        ok, failures = check_inverse_domination(PolyMap([f]), CONST, 6)
        assert ok, failures


class TestTermAccess:
    def test_gevrey_irrational_guard(self):
        with pytest.raises(ValueError):
            GEVREY_HALF.term(2)
        assert GEVREY_HALF.term(1) == 1

    def test_custom_bounds(self):
        m = GrowthSequence.custom([1, 2])
        with pytest.raises(IndexError):
            m.term(2)

    def test_shift(self):
        assert FACTORIAL.shifted(2).term(1) == 6  # (1+2)! = 6
