"""Jet arithmetic: contracts, worked examples, and randomized ring laws."""

from fractions import Fraction
from itertools import product
import json
from math import comb
import random

from hypothesis import assume, given, settings, strategies as st
import pytest

from resolvkit.blowup import Center, ChartMap
from resolvkit.series import (
    Jet,
    NotDivisibleError,
    PivotError,
    PolyMap,
    ShapeError,
    compose_maps,
    implicit_solve,
    invert_map,
    linear_change,
    mat_det,
    mat_inv,
    substitute,
)


def jet2(expr_coeffs, trunc=24):
    return Jet(2, trunc, expr_coeffs)


def x_(n=2, T=24):
    return Jet.variable(0, n, T)


def y_(n=2, T=24):
    return Jet.variable(1, n, T)


def random_jet(rng, nvars, trunc, deg, nterms=6):
    coeffs = {}
    for _ in range(nterms):
        alpha = tuple(rng.randint(0, deg) for _ in range(nvars))
        if sum(alpha) > deg:
            continue
        coeffs[alpha] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Jet(nvars, trunc, coeffs)


class TestMultiply:
    def test_difference_of_squares(self):
        one = Jet.constant(1, 2, 24)
        assert (one + x_()) * (one - x_()) == jet2({(0, 0): 1, (2, 0): -1})

    def test_annihilator(self):
        f = jet2({(1, 2): 3, (0, 0): -1})
        assert f * Jet.zero(2, 24) == Jet.zero(2, 24)

    def test_quartic_difference_at_t6(self):
        # hand oracle: (y^2 - x^3)(y^2 + x^3) = y^4 - x^6
        a = jet2({(0, 2): 1, (3, 0): -1}, trunc=6)
        b = jet2({(0, 2): 1, (3, 0): 1}, trunc=6)
        assert a * b == jet2({(0, 4): 1, (6, 0): -1}, trunc=6)

    def test_truncation_discards_high_degree(self):
        a = jet2({(3, 0): 1}, trunc=4)
        b = jet2({(2, 0): 1}, trunc=4)
        assert (a * b).is_zero()

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            jet2({(1, 0): 1}) * Jet.variable(0, 3, 24)
        with pytest.raises(ShapeError):
            jet2({(1, 0): 1}, trunc=10) * jet2({(1, 0): 1}, trunc=12)


class TestDerivative:
    def test_cusp_partial(self):
        cusp = jet2({(0, 2): 1, (3, 0): -1})
        assert cusp.partial(1) == jet2({(0, 1): 2}, trunc=23)

    def test_constant(self):
        assert Jet.constant(5, 2, 24).partial(0).is_zero()

    def test_iterated(self):
        f = jet2({(3, 1): 1})
        assert f.nth_partial(0, 3) == jet2({(0, 1): 6}, trunc=21)

    def test_truncation_decrement(self):
        assert jet2({(1, 1): 1}, trunc=5).partial(0).trunc == 4


class TestOrder:
    def test_cusp(self):
        assert jet2({(0, 2): 1, (3, 0): -1}).order() == 2

    def test_unit(self):
        assert jet2({(0, 0): 1, (1, 0): 1}).order() == 0

    def test_zero_jet(self):
        assert Jet.zero(2, 24).order() is None
        assert Jet.zero(2, 24).order_along((0,)) is None


class TestDivideByCoordinate:
    def test_simple(self):
        assert jet2({(1, 2): 1}).divide_by_coordinate(0) == jet2({(0, 2): 1}, trunc=23)

    def test_two_terms(self):
        f = jet2({(2, 0): 1, (1, 1): 1})
        assert f.divide_by_coordinate(0) == jet2({(1, 0): 1, (0, 1): 1}, trunc=23)

    def test_witness(self):
        f = jet2({(1, 0): 1, (0, 1): 1})
        with pytest.raises(NotDivisibleError) as err:
            f.divide_by_coordinate(0)
        assert err.value.witness == (0, 1)


class TestSubstitute:
    def test_identity_in_f(self):
        f = Jet.variable(0, 1, 24)
        g = jet2({(1, 0): 1, (0, 2): 5})
        assert substitute(f, [g]) == g

    def test_square_of_x_plus_x2(self):
        f = Jet.variable(0, 1, 24) ** 2
        g = Jet(1, 24, {(1,): 1, (2,): 1})
        expected = Jet(1, 24, {(2,): 1, (3,): 2, (4,): 1})
        assert substitute(f, [g]) == expected

    def test_product_map(self):
        f = Jet.variable(0, 2, 24) * Jet.variable(1, 2, 24)
        g1 = Jet(1, 24, {(1,): 1})
        g2 = Jet(1, 24, {(2,): 1})
        assert substitute(f, [g1, g2]) == Jet(1, 24, {(3,): 1})

    def test_component_count_mismatch(self):
        with pytest.raises(ShapeError):
            substitute(Jet.variable(0, 2, 24), [Jet.variable(0, 1, 24)])

    def test_recentering_base(self):
        # f(y) = y^2 at base 1 composed with g = 1 + x: (1 + x)^2
        f = Jet.variable(0, 1, 24) ** 2
        g = Jet(1, 24, {(0,): 1, (1,): 1})
        assert substitute(f, [g]) == Jet(1, 24, {(0,): 1, (1,): 2, (2,): 1})


class TestLinearChange:
    def test_identity(self):
        f = jet2({(0, 2): 1, (3, 0): -1})
        assert linear_change(f, [[1, 0], [0, 1]]) == f

    def test_swap(self):
        f = x_()
        assert linear_change(f, [[0, 1], [1, 0]]) == y_()

    def test_shear_on_xy(self):
        # x -> x, y -> x + y turns xy into x^2 + xy
        f = x_() * y_()
        out = linear_change(f, [[1, 0], [1, 1]])
        assert out == jet2({(2, 0): 1, (1, 1): 1})

    def test_singular_matrix(self):
        with pytest.raises(PivotError):
            linear_change(x_(), [[1, 1], [1, 1]])


class TestImplicitSolve:
    def test_parabola(self):
        z = jet2({(0, 1): 1, (2, 0): -1})  # y - x^2
        assert implicit_solve(z, 1) == Jet(1, 24, {(2,): 1})

    def test_quadratic_in_y(self):
        # z = y + y^2 - x: undetermined-coefficients oracle gives
        # x - x^2 + 2x^3 - 5x^4 + ...
        z = jet2({(0, 1): 1, (0, 2): 1, (1, 0): -1}, trunc=8)
        phi = implicit_solve(z, 1)
        assert phi.coeff((1,)) == 1
        assert phi.coeff((2,)) == -1
        assert phi.coeff((3,)) == 2
        assert phi.coeff((4,)) == -5

    def test_no_x_dependence(self):
        z = jet2({(0, 1): 1})
        assert implicit_solve(z, 1).is_zero()

    def test_zero_solution_with_higher_terms(self):
        # y + x y + y^3 vanishes on y = 0, whatever its terms of higher degree
        z = jet2({(0, 1): 1, (1, 1): 1, (0, 3): 1})
        assert implicit_solve(z, 1) == Jet.zero(1, 24)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            z = random_jet(rng, 2, 10, 4)
            z = z - Jet.constant(z.constant_term, 2, 10)
            z = z + Jet.variable(1, 2, 10)  # guarantee a pivot
            phi = implicit_solve(z, 1)
            assert phi.constant_term == 0  # the map (x, phi) fixes 0
            comp = substitute(z, [Jet.variable(0, 1, 10), phi])
            assert comp.is_zero()

    def test_pivot_errors(self):
        with pytest.raises(PivotError):
            implicit_solve(jet2({(0, 0): 1, (0, 1): 1}), 1)
        with pytest.raises(PivotError):
            implicit_solve(jet2({(0, 2): 1}), 1)
        with pytest.raises(PivotError):
            implicit_solve(jet2({(0, 2): 1, (1, 2): 1}), 1)  # y^2 + x y^2


def _homogeneous_product(a, b):
    """Product of two homogeneous polynomials held as {exponents: Fraction}."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(p + q for p, q in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def reference_implicit_solve(z: Jet, i: int) -> dict:
    """The solution phi of z(x', phi) = 0 by undetermined coefficients, in
    Fractions, as {exponents: coefficient}: degree k of phi cancels degree k
    of z(x', phi), where every term but the pivot's reads only the parts of
    phi of degree below k.  ``powers[e][d]`` is the degree-d part of phi^e."""
    T = z.trunc
    zero = (0,) * (z.nvars - 1)
    pivot = z.coeff(tuple(1 if j == i else 0 for j in range(z.nvars)))
    terms = [(a[:i] + a[i + 1 :], a[i], c) for a, c in z.terms() if sum(a) != 1 or a[i] != 1]
    top = max([e for _, e, _ in terms] + [1])
    powers = [[{} for _ in range(T + 1)] for _ in range(top + 1)]
    powers[0][0] = {zero: Fraction(1)}
    for k in range(1, T + 1):
        # phi has no constant term, so degree k of phi^e (e >= 2) reads only
        # the parts of phi of degree below k
        for e in range(2, top + 1):
            acc = {}
            for d1 in range(1, k):
                for b, c in _homogeneous_product(powers[1][d1], powers[e - 1][k - d1]).items():
                    acc[b] = acc.get(b, 0) + c
            powers[e][k] = acc
        defect = {}
        for rest, e, c in terms:
            d = k - sum(rest)
            if d >= 0:
                for b, cb in powers[e][d].items():
                    key = tuple(p + q for p, q in zip(rest, b))
                    defect[key] = defect.get(key, 0) + c * cb
        powers[1][k] = {b: -c / pivot for b, c in defect.items() if c}
    return {b: c for k in range(1, T + 1) for b, c in powers[1][k].items()}


def _dense_z(nvars, i, T, seed):
    """A dense z through 0 with pivot dz/dx_i(0) != 0 and mixed denominators,
    with every term of degree up to 3 (so dz/dx_i depends on x_i)."""
    rng = random.Random(seed)
    coeffs = {
        a: Fraction(rng.randint(-6, 6), rng.randint(1, 9))
        for a in product(range(4), repeat=nvars)
        if 1 <= sum(a) <= 3
    }
    coeffs[tuple(1 if j == i else 0 for j in range(nvars))] = Fraction(-3, 7)
    return Jet(nvars, T, coeffs)


SCHEDULE_TRUNCATIONS = [1, 2, 3, 4, 7, 8, 15, 16, 31, 32]


class TestImplicitSolveSchedule:
    """The Newton iteration against undetermined coefficients at truncations
    on and just past its doubling steps 1, 3, 7, 15, 31."""

    @pytest.mark.parametrize(
        "nvars, i, T",
        [(2, i, T) for i in (1, 0) for T in SCHEDULE_TRUNCATIONS]
        + [(3, 2, T) for T in SCHEDULE_TRUNCATIONS]
        + [(3, 0, T) for T in SCHEDULE_TRUNCATIONS if T <= 16],
    )
    def test_matches_undetermined_coefficients(self, nvars, i, T):
        z = _dense_z(nvars, i, T, seed=31 * nvars + T + i)
        phi = implicit_solve(z, i)
        assert phi.nvars == nvars - 1 and phi.trunc == T
        assert dict(phi.terms()) == reference_implicit_solve(z, i)

    def test_across_the_frame_width_change(self):
        # truncation 66 keys jets in wider digits than 63, where the
        # iteration before the last step stands
        z = _dense_z(2, 1, 66, seed=5)
        assert dict(implicit_solve(z, 1).terms()) == reference_implicit_solve(z, 1)


def reference_invert_map(g: PolyMap) -> PolyMap:
    """The inverse h of g = A x + tail by recomposition, round by round: round
    k (k = 2 .. T) composes the tail with h cut to truncation k, and the
    degree-k part of h becomes -A^-1 times the degree-k part of that
    composite.  Each round forms every product of lower degree again."""
    n, T = g.nvars, g.trunc
    Ainv = mat_inv(g.jacobian_at_zero())
    tail = PolyMap([Jet(n, T, {a: c for a, c in comp.terms() if sum(a) >= 2}) for comp in g])
    h = [dict(comp.terms()) for comp in PolyMap.from_matrix(Ainv, T)]
    for k in range(2, T + 1):
        composed = compose_maps(
            PolyMap([t.with_truncation(k) for t in tail]), PolyMap([Jet(n, k, hc) for hc in h])
        )
        tops = [{a: c for a, c in comp.terms() if sum(a) == k} for comp in composed]
        for hc, row in zip(h, Ainv):
            for a in set().union(*tops):
                c = -sum(r * top.get(a, 0) for r, top in zip(row, tops))
                if c:
                    hc[a] = c
    return PolyMap([Jet(n, T, hc) for hc in h])


def packed_form(m: PolyMap):
    """The stored numerators and denominator of each component."""
    return [(c._nums, c._den) for c in m]


class TestInvertMap:
    def test_unipotent_linear(self):
        g = PolyMap([x_() + y_(), y_()])
        h = invert_map(g)
        assert h == PolyMap([x_() - y_(), y_()])

    def test_one_var_series(self):
        g = PolyMap([Jet(1, 8, {(1,): 1, (2,): 1})])
        h = invert_map(g)
        # coincides with the implicit-solve oracle for y + y^2 - x
        assert h[0].coeff((1,)) == 1
        assert h[0].coeff((2,)) == -1
        assert h[0].coeff((3,)) == 2
        assert h[0].coeff((4,)) == -5

    def test_linear_matrix(self):
        A = [[2, 1], [1, 1]]
        g = PolyMap.from_matrix(A, 12)
        h = invert_map(g)
        assert h == PolyMap.from_matrix(mat_inv(A), 12)

    def test_round_trips_random(self):
        rng = random.Random(11)
        for _ in range(10):
            comps = []
            for i in range(2):
                f = random_jet(rng, 2, 8, 3)
                f = f - Jet.constant(f.constant_term, 2, 8)
                comps.append(f + Jet.variable(i, 2, 8))
            g = PolyMap(comps)
            if mat_det(g.jacobian_at_zero()) == 0:
                continue
            h = invert_map(g)
            assert compose_maps(g, h) == PolyMap.identity(2, 8)
            assert compose_maps(h, g) == PolyMap.identity(2, 8)

    def test_singular_jacobian(self):
        with pytest.raises(PivotError):
            invert_map(PolyMap([x_() + y_(), x_() + y_()]))

    def test_matches_recomposition_across_the_frame_width_change(self):
        # truncation 66 keys jets in wider digits than 63, where the
        # recomposition's earlier rounds stand
        g = PolyMap([Jet(1, 66, {(1,): Fraction(-2, 3), (2,): Fraction(1, 2), (5,): 3})])
        h = invert_map(g)
        assert packed_form(h) == packed_form(reference_invert_map(g))
        assert h[0].coeff((66,)) != 0


class TestFactorAndDecompose:
    def test_factor_power(self):
        f = jet2({(2, 2): 1, (3, 0): -1})  # u^2(v^2 - u) in (u, v)
        e, h = f.factor_coordinate_power(0)
        assert e == 2
        assert h == jet2({(0, 2): 1, (1, 0): -1}, trunc=22)

    def test_factor_zero_power(self):
        f = jet2({(0, 2): 1, (1, 0): -1})
        e, h = f.factor_coordinate_power(0)
        assert e == 0 and h == f

    def test_factor_other_coordinate(self):
        f = jet2({(3, 2): 1})
        e, h = f.factor_coordinate_power(1)
        assert e == 2
        assert h == jet2({(3, 0): 1}, trunc=22)

    def test_decompose_success(self):
        f = jet2({(2, 1): 1, (3, 1): 1})  # x^2 y (1 + x)
        alpha, u = f.monomial_unit_decompose()
        assert alpha == (2, 1)
        assert u == jet2({(0, 0): 1, (1, 0): 1}, trunc=21)

    def test_decompose_absent(self):
        assert (x_() + y_()).monomial_unit_decompose() is None

    def test_decompose_constant(self):
        alpha, u = Jet.constant(Fraction(5, 3), 2, 24).monomial_unit_decompose()
        assert alpha == (0, 0)
        assert u.constant_term == Fraction(5, 3)

    def test_zero_jet_errors(self):
        with pytest.raises(ValueError):
            Jet.zero(2, 24).factor_coordinate_power(0)
        with pytest.raises(ValueError):
            Jet.zero(2, 24).monomial_unit_decompose()


class TestRingLaws:
    def test_laws_random(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_jet(rng, 2, 10, 5)
            b = random_jet(rng, 2, 10, 5)
            c = random_jet(rng, 2, 10, 5)
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)

    def test_derivation_rule(self):
        rng = random.Random(4)
        for _ in range(25):
            a = random_jet(rng, 3, 9, 4)
            b = random_jet(rng, 3, 9, 4)
            i = rng.randrange(3)
            lhs = (a * b).partial(i)
            rhs = a.partial(i) * b.with_truncation(8) + a.with_truncation(8) * b.partial(i)
            assert lhs == rhs

    def test_division_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            h = random_jet(rng, 2, 9, 4)
            if h.is_zero():
                continue
            # f = x * h, written directly at T = 10
            f = Jet(2, 10, {(a[0] + 1, a[1]): c for a, c in h.terms()})
            q = f.divide_by_coordinate(0)
            back = Jet.variable(0, 2, 10) * Jet(2, 10, dict(q.terms()))
            assert back == f

    def test_order_additive(self):
        rng = random.Random(6)
        checked = 0
        while checked < 25:
            f = random_jet(rng, 2, 12, 4)
            g = random_jet(rng, 2, 12, 4)
            if f.is_zero() or g.is_zero():
                continue
            of, og = f.order(), g.order()
            if of + og > 12:
                continue
            assert (f * g).order() == of + og
            checked += 1


class TestMiscViews:
    def test_restrict_and_insert(self):
        f = jet2({(2, 1): 3, (0, 2): 1})
        r = f.restrict_set_zero(1)
        assert r == Jet(1, 24, {})
        r0 = f.restrict_set_zero(0)
        assert r0 == Jet(1, 24, {(2,): 1})
        assert r0.insert_var(0) == Jet(2, 24, {(0, 2): 1})

    def test_recenter(self):
        f = jet2({(2, 0): 1})  # x^2 at (1, 0): (x+1)^2
        assert f.recenter([1, 0]) == jet2({(0, 0): 1, (1, 0): 2, (2, 0): 1})

    def test_eval(self):
        f = jet2({(1, 1): 2, (0, 0): -1})
        assert f.eval_at([Fraction(1, 2), 3]) == 2

    def test_coeff_checks_its_exponent(self):
        f = Jet(2, 4, {(1, 0): 3})
        assert f.coeff((1, 0)) == 3 and f.coeff([0, 1]) == 0 and f.coeff((5, 0)) == 0
        for bad in [(1,), (1, -1), (1, 0, 0)]:
            with pytest.raises(ShapeError):
                f.coeff(bad)

    def test_matrix_helpers(self):
        assert mat_det([[1, 2], [3, 4]]) == -2
        assert mat_inv([[2, 0], [0, 4]]) == [
            [Fraction(1, 2), 0],
            [0, Fraction(1, 4)],
        ]

    def test_jacobian_det(self):
        pm = PolyMap([x_() * y_(), y_()])
        # d(xy)/dx * d(y)/dy - d(xy)/dy * d(y)/dx = y
        assert pm.jacobian_det() == jet2({(0, 1): 1}, trunc=23)

    def test_jacobian_at_zero_reads_the_linear_terms(self):
        pm = PolyMap([jet2({(1, 0): 2, (0, 1): Fraction(1, 3), (2, 0): 5}), x_() * y_() + y_()])
        assert pm.jacobian_at_zero() == [[2, Fraction(1, 3)], [0, 1]]


def _random_matrix(rng, n):
    """A rational n x n matrix; about half are made singular by a zero row, a
    repeated row, or a row that is a combination of two others."""
    rows = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)
    ]
    kind = rng.randrange(6)
    if kind == 0:
        rows[rng.randrange(n)] = [Fraction(0)] * n
    elif kind == 1 and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
    elif kind == 2 and n > 2:
        i, j, k = rng.sample(range(n), 3)
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows[i] = [a * p - q for p, q in zip(rows[j], rows[k])]
    return rows


def _fractions(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(r)] for r in range(m.rows)]


class TestExactLinearAlgebra:
    """mat_det and mat_inv share one elimination (series.row_reduce); sympy's
    exact rational matrices are the reference."""

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20)
        singular = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = _random_matrix(rng, n)
            ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
            det = ref.det()
            assert mat_det(rows) == Fraction(int(det.p), int(det.q)), rows
            if det == 0:
                singular += 1
                with pytest.raises(PivotError):
                    mat_inv(rows)
            else:
                assert mat_inv(rows) == _fractions(ref.inv()), rows
        assert 40 < singular < 160

    def test_row_swaps_set_the_sign(self):
        # each row pivots on the first free column: [[0,1],[1,0]] is an odd
        # permutation, the cyclic 3x3 an even one
        assert mat_det([[0, 1], [1, 0]]) == -1
        assert mat_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        assert mat_det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        assert mat_inv([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == [
            [0, 0, Fraction(1, 5)],
            [0, Fraction(1, 3), 0],
            [Fraction(1, 2), 0, 0],
        ]

    def test_empty_and_non_square(self):
        assert mat_det([]) == 1
        with pytest.raises(ShapeError):
            mat_det([[1, 2]])


# -- properties: operations keep the invariants of Jet(...) and the ring laws ---

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
# mixed denominators, so that operands rarely share one
RATIONALS = st.sampled_from(
    [Fraction(1, 2), Fraction(2, 3), Fraction(-3, 4), Fraction(-5, 6), Fraction(7)]
) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = RATIONALS.filter(bool)


@st.composite
def shapes(draw):
    return draw(st.integers(1, 3)), draw(st.integers(0, 8))


@st.composite
def jets(draw, shape, max_terms=6, constant=True):
    n, T = shape
    exps = st.tuples(*[st.integers(0, T) for _ in range(n)])
    terms = draw(st.dictionaries(exps, RATIONALS, max_size=max_terms))
    if not constant:
        terms.pop((0,) * n, None)
    return Jet(n, T, terms)


def jet_tuples(k, **kwargs):
    return shapes().flatmap(lambda s: st.tuples(*[jets(s, **kwargs)] * k))


def naive_mul(a, b):
    """Reference product: one Fraction multiply and add per pair of terms."""
    out = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= a.trunc:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return Jet(a.nvars, a.trunc, out)


def naive_substitute(f, comps):
    """Reference composite: sum of c * prod g_i^alpha_i, products by naive_mul."""
    n, T = comps[0].nvars, comps[0].trunc
    total = Jet.zero(n, T)
    for alpha, c in f.terms():
        term = Jet.constant(c, n, T)
        for g, e in zip(comps, alpha):
            for _ in range(e):
                term = naive_mul(term, g)
        total = total + term
    return total


def naive_recenter(f, point):
    """Reference f(x + point): expand every (x_j + p_j)^e by the binomial theorem."""
    out = {}
    for alpha, c in f.terms():
        parts = [((), c)]
        for p, e in zip(point, alpha):
            parts = [
                (b + (k,), v * comb(e, k) * Fraction(p) ** (e - k))
                for b, v in parts
                for k in range(e + 1)
            ]
        for b, v in parts:
            out[b] = out.get(b, Fraction(0)) + v
    return Jet(f.nvars, f.trunc, out)


def assert_clean(r):
    """r holds exactly what the validating constructor would make of it."""
    assert r == Jet(r.nvars, r.trunc, r.terms())
    assert all(type(a) is tuple and type(c) is Fraction for a, c in r.terms())


class TestKernelProperties:
    @SETTINGS
    @given(jet_tuples(2), RATIONALS, st.data())
    def test_results_are_clean(self, ab, scalar, data):
        a, b = ab
        n, T = a.nvars, a.trunc
        results = [a + b, a - b, -a, a * b, a.scale(scalar)]
        results.append(a.with_truncation(data.draw(st.integers(0, T))))
        results.append(a.recenter(data.draw(st.lists(RATIONALS, min_size=n, max_size=n))))
        results.append(a.restrict_set_zero(data.draw(st.integers(0, n - 1))))
        results.append(a.insert_var(data.draw(st.integers(0, n))))
        if T >= 1:
            results.append(a.partial(data.draw(st.integers(0, n - 1))))
        for r in results:
            assert_clean(r)

    @SETTINGS
    @given(jet_tuples(3))
    def test_ring_laws(self, abc):
        a, b, c = abc
        n, T = a.nvars, a.trunc
        one, zero = Jet.constant(1, n, T), Jet.zero(n, T)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c
        assert a + zero == a and a * one == a and a - a == zero
        assert a.scale(3) == Jet.constant(3, n, T) * a

    @SETTINGS
    @given(shapes(), st.integers(1, 3), st.data())
    def test_substitute(self, shape, p, data):
        """Clean results, and substitution into a map without constant term is
        a ring homomorphism."""
        n, T = shape
        f, g = data.draw(st.tuples(*[jets((p, T), max_terms=4)] * 2))
        m = data.draw(st.lists(jets(shape, max_terms=3, constant=False), min_size=p, max_size=p))
        sf, sg = substitute(f, m), substitute(g, m)
        assert_clean(sf)
        assert_clean(sg)
        assert substitute(f * g, m) == sf * sg
        assert substitute(f + g, m) == sf + sg
        shifted = [c + Jet.constant(data.draw(RATIONALS), n, T) for c in m]
        assert_clean(substitute(f, shifted))

    @SETTINGS
    @given(jet_tuples(2))
    def test_mul_matches_naive_fractions(self, ab):
        a, b = ab
        assert_clean(a * b)
        assert a * b == naive_mul(a, b)
        # the cross terms a*b and b*a cancel: no zero may be stored
        r = (a + b) * (a - b)
        assert_clean(r)
        assert r == naive_mul(a, a) - naive_mul(b, b)

    @SETTINGS
    @given(shapes(), st.integers(1, 3), st.data())
    def test_substitute_matches_naive_fractions(self, shape, p, data):
        n, T = shape
        f = data.draw(jets((p, T), max_terms=5))
        m = data.draw(st.lists(jets(shape, max_terms=3), min_size=p, max_size=p))
        r = substitute(f, m)
        assert_clean(r)
        assert r == naive_substitute(f, m)
        if p >= 2:
            # f and f with x_0, x_1 swapped agree on (m_0, m_0, ...): every
            # term of their difference cancels inside substitute
            swapped = Jet(p, T, {(a[1], a[0]) + a[2:]: c for a, c in f.terms()})
            r = substitute(f - swapped, [m[0]] * p)
            assert_clean(r)
            assert r.is_zero()

    @SETTINGS
    @given(st.integers(1, 3), st.integers(1, 8), st.data())
    def test_implicit_solve_round_trip(self, n, T, data):
        i = data.draw(st.integers(0, n - 1))
        z = data.draw(jets((n, T), constant=False))
        pivot = tuple(1 if j == i else 0 for j in range(n))
        z = z + Jet(n, T, {pivot: data.draw(NONZERO) - z.coeff(pivot)})
        phi = implicit_solve(z, i)
        assert_clean(phi)
        assert phi.trunc == T and phi.constant_term == 0
        comps = [Jet.variable(j, n - 1, T) for j in range(n - 1)]
        comps.insert(i, phi)
        assert substitute(z, comps).is_zero()  # the map fixes 0, as phi(0) = 0

    @SETTINGS
    @given(st.integers(1, 3), st.integers(1, 8), st.data())
    def test_invert_map_round_trip(self, n, T, data):
        row = st.lists(RATIONALS, min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        assume(mat_det(rows) != 0)
        highs = data.draw(st.lists(jets((n, T), max_terms=4), min_size=n, max_size=n))
        g = PolyMap([
            lc + Jet(n, T, {a: c for a, c in hc.terms() if sum(a) >= 2})
            for lc, hc in zip(PolyMap.from_matrix(rows, T).components, highs)
        ])
        h = invert_map(g)
        for c in h.components:
            assert_clean(c)
        assert compose_maps(g, h) == PolyMap.identity(n, T)
        assert compose_maps(h, g) == PolyMap.identity(n, T)

    @SETTINGS
    @given(st.integers(1, 3), st.data())
    def test_invert_map_matches_recomposition(self, n, data):
        T = data.draw(st.integers(3, 8 if n < 3 else 6))
        row = st.lists(RATIONALS, min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=n, max_size=n))
        assume(mat_det(rows) != 0)
        highs = data.draw(st.lists(jets((n, T), max_terms=3), min_size=n, max_size=n))
        g = PolyMap([
            lc + Jet(n, T, {a: c for a, c in hc.terms() if sum(a) >= 2})
            for lc, hc in zip(PolyMap.from_matrix(rows, T).components, highs)
        ])
        want = reference_invert_map(g)
        # an inverse with terms of degree T is no polynomial of lower degree
        assume(any(sum(a) == T for c in want for a, _ in c.terms()))
        assert packed_form(invert_map(g)) == packed_form(want)

    def test_substitute_cancellation_is_pruned(self):
        x, y = Jet.variable(0, 2, 6), Jet.variable(1, 2, 6)
        t = Jet.variable(0, 1, 6)
        r = substitute(x * x - x * y, [t, t])  # t^2 - t^2
        assert_clean(r)
        assert r.is_zero()

    @SETTINGS
    @given(jet_tuples(2), RATIONALS, st.data())
    def test_linear_operations_match_naive_fractions(self, ab, scalar, data):
        a, b = ab
        n, T = a.nvars, a.trunc
        ta, tb = dict(a.terms()), dict(b.terms())
        keys = set(ta) | set(tb)
        zero = Fraction(0)
        assert a + b == Jet(n, T, {k: ta.get(k, zero) + tb.get(k, zero) for k in keys})
        assert a - b == Jet(n, T, {k: ta.get(k, zero) - tb.get(k, zero) for k in keys})
        assert a.scale(scalar) == Jet(n, T, {k: c * scalar for k, c in ta.items()})
        t = data.draw(st.integers(0, T))
        assert a.with_truncation(t) == Jet(n, t, {k: c for k, c in ta.items() if sum(k) <= t})

    @SETTINGS
    @given(shapes().filter(lambda s: s[1] >= 1).flatmap(jets), st.data())
    def test_calculus_matches_naive_fractions(self, a, data):
        n, T = a.nvars, a.trunc
        i = data.draw(st.integers(0, n - 1))
        down = lambda k: k[:i] + (k[i] - 1,) + k[i + 1:]  # noqa: E731
        assert a.partial(i) == Jet(n, T - 1, {down(k): c * k[i] for k, c in a.terms() if k[i]})
        xa = Jet.variable(i, n, T) * a
        assert xa.divide_by_coordinate(i) == Jet(n, T - 1, {down(k): c for k, c in xa.terms()})
        if any(k[i] == 0 for k in a.support()):
            with pytest.raises(NotDivisibleError):
                a.divide_by_coordinate(i)

    @SETTINGS
    @given(shapes().flatmap(jets), st.data())
    def test_frame_changes_match_naive_fractions(self, a, data):
        n, T = a.nvars, a.trunc
        i = data.draw(st.integers(0, n - 1))
        assert a.restrict_set_zero(i) == Jet(
            n - 1, T, {k[:i] + k[i + 1:]: c for k, c in a.terms() if k[i] == 0}
        )
        pos = data.draw(st.integers(0, n))
        assert a.insert_var(pos) == Jet(n + 1, T, {k[:pos] + (0,) + k[pos:]: c for k, c in a.terms()})
        point = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        assert a.recenter(point) == naive_recenter(a, point)

    @SETTINGS
    @given(shapes().filter(lambda s: s[0] >= 2).flatmap(jets), st.data())
    def test_chart_pullback_matches_naive_fractions(self, a, data):
        n, T = a.nvars, a.trunc
        indices = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        i = data.draw(st.sampled_from(sorted(indices)))
        others = [j for j in indices if j != i]
        want = {}
        for k, c in a.terms():
            beta = list(k)
            beta[i] += sum(k[j] for j in others)
            want[tuple(beta)] = c
        assert ChartMap(Center(tuple(indices), n), i).pullback(a) == Jet(n, T, want)

    @SETTINGS
    @given(shapes().flatmap(jets), st.sampled_from(["", " ", "   "]))
    def test_json_text_is_the_json_dumps_of_the_terms(self, a, pad):
        terms = [[list(alpha), str(c)] for alpha, c in a.terms()]
        value = {"nvars": a.nvars, "terms": terms, "trunc": a.trunc}
        text = json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n" + pad)
        assert a.json_text(pad) == text

    @SETTINGS
    @given(shapes(), st.data())
    def test_from_ratios_follows_the_rules_of_jet(self, shape, data):
        # zeros and terms above the truncation drop; ratios need not be reduced
        n, T = shape
        exps = st.tuples(*[st.integers(0, T + 2) for _ in range(n)])
        coeffs = data.draw(st.dictionaries(exps, RATIONALS, max_size=8))
        scale = data.draw(st.integers(1, 6))
        ratios = {alpha: (c.numerator * scale, c.denominator * scale) for alpha, c in coeffs.items()}
        a = Jet.from_ratios(n, T, ratios)
        assert_clean(a)
        assert a == Jet(n, T, coeffs)
        for bad in [(0,) * (n + 1), (-1,) + (0,) * (n - 1)]:
            with pytest.raises(ShapeError):
                Jet.from_ratios(n, T, {bad: (1, 1)})

    @SETTINGS
    @given(jet_tuples(2), NONZERO)
    def test_equal_jets_hash_equal(self, ab, r):
        a, b = ab
        one = Jet.constant(1, a.nvars, a.trunc)
        for same in [(a + b) - b, a * one, a.scale(r).scale(1 / r), -(-a), Jet(a.nvars, a.trunc, a.terms())]:
            assert same == a and hash(same) == hash(a)

    def test_truncations_beyond_one_key_width(self):
        """Exponent digits widen above truncation 63: operations that lower
        the truncation across that width, and the solvers, still agree."""
        for T in (63, 64, 65, 70, 128):
            f = Jet(2, T, {(T - 1, 0): Fraction(1, 3), (1, T - 2): -2, (0, 1): 5, (T // 2, 0): 1})
            d = f.partial(0)
            assert d == Jet(2, T - 1, {(T - 2, 0): Fraction(T - 1, 3), (0, T - 2): -2, (T // 2 - 1, 0): T // 2})
            assert f.with_truncation(T - 2) == Jet(2, T - 2, {(0, 1): 5, (T // 2, 0): 1})
            x = Jet.variable(0, 2, T)
            assert (x * f).divide_by_coordinate(0) == f.with_truncation(T - 1)
            assert (x**3 * f).factor_coordinate_power(0) == (3, f.with_truncation(T - 3))
            assert (x * x).monomial_unit_decompose() == ((2, 0), Jet.constant(1, 2, T - 2))
            assert f.terms() == sorted(f.terms(), key=lambda t: (sum(t[0]), t[0]))
        T = 70
        z = Jet(2, T, {(0, 1): 1, (1, 0): -1, (2, 0): -1})  # y = x + x^2
        phi = implicit_solve(z, 1)
        assert phi == Jet(1, T, {(1,): 1, (2,): 1})
        g = PolyMap([Jet(1, T, {(1,): 1, (2,): 1})])
        h = invert_map(g)
        assert compose_maps(g, h) == PolyMap.identity(1, T)
        # the inverse of x + x^2 has coefficients (-1)^(k-1) C_(k-1) (Catalan)
        assert h[0].coeff((66,)) == -(comb(130, 65) // 66)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ShapeError):
            Jet(2, 4, {(1,): 1})
        with pytest.raises(ShapeError):
            Jet(2, 4, {(1, -1): 1})
        with pytest.raises(TypeError):
            Jet(2, 4, {(1, 0): 0.5})
        assert Jet(2, 2, {(1, 0): 1, (2, 1): 5, (0, 1): 0}).terms() == [((1, 0), Fraction(1))]
