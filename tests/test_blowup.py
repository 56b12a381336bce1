"""Chart pullbacks, transforms, derivative identities, crossings certificates."""

from fractions import Fraction
import random

import pytest

from resolvkit.blowup import (
    Center,
    ChartMap,
    ExceptionalLedger,
    LedgerEntry,
    MarkedFunction,
    ORIGIN_NEW,
    normal_crossings_check,
)
from resolvkit.series import Jet, compose_maps, substitute

from test_acceptance import derivative_transform_failures


T = 24


def jet2(coeffs, trunc=T):
    return Jet(2, trunc, coeffs)


CUSP = jet2({(0, 2): 1, (3, 0): -1})  # y^2 - x^3
ORIGIN2 = Center((0, 1), 2)


def oracle_pullback(f, chart):
    """Independent oracle: substitute the chart formulas via series code."""
    return substitute(f, chart.components(f.trunc))


def strict_transform(f, chart):
    """The exceptional power of the pullback and the strict transform."""
    return chart.pullback(f).factor_coordinate_power(chart.chart_index)


class TestPullback:
    def test_center_coordinate(self):
        chart = ChartMap(ORIGIN2, 0)
        x = Jet.variable(0, 2, T)
        assert chart.pullback(x) == x  # x = u in the u-chart

    def test_cusp_chart_x(self):
        chart = ChartMap(ORIGIN2, 0)  # x = u, y = u v
        out = chart.pullback(CUSP)
        assert out == jet2({(2, 2): 1, (3, 0): -1})
        assert out == oracle_pullback(CUSP, chart)

    def test_untouched_variable(self):
        center = Center((0, 1), 3)
        chart = ChartMap(center, 0)
        z = Jet.variable(2, 3, T)
        assert chart.pullback(z) == z

    def test_ring_homomorphism(self):
        rng = random.Random(2)
        chart = ChartMap(Center((0, 2), 3), 2)
        for _ in range(20):
            f = _random_jet(rng, 3, 10, 4)
            g = _random_jet(rng, 3, 10, 4)
            assert chart.pullback(f * g) == chart.pullback(f) * chart.pullback(g)
            assert chart.pullback(f + g) == chart.pullback(f) + chart.pullback(g)


def _random_jet(rng, nvars, trunc, deg, nterms=6):
    coeffs = {}
    for _ in range(nterms):
        alpha = tuple(rng.randint(0, deg) for _ in range(nvars))
        if sum(alpha) > deg:
            continue
        coeffs[alpha] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Jet(nvars, trunc, coeffs)


class TestOrderAlongCenter:
    def test_single_coordinate(self):
        f = jet2({(2, 3): 1})
        assert f.order_along(Center((0,), 2).indices) == 2

    def test_both_coordinates(self):
        f = jet2({(2, 3): 1})
        assert f.order_along(ORIGIN2.indices) == 5

    def test_min_over_terms(self):
        f = jet2({(2, 0): 1, (0, 3): 1})
        assert f.order_along(ORIGIN2.indices) == 2


class TestTransforms:
    def test_cusp_weak(self):
        chart = ChartMap(ORIGIN2, 0)
        assert strict_transform(CUSP, chart) == (2, jet2({(0, 2): 1, (1, 0): -1}, trunc=22))

    def test_circle_unit_transform(self):
        g = jet2({(2, 0): 1, (0, 2): 1})
        chart = ChartMap(ORIGIN2, 0)
        assert strict_transform(g, chart) == (2, jet2({(0, 0): 1, (0, 2): 1}, trunc=22))

    def test_coordinate_through_center(self):
        g = Jet.variable(0, 2, T)
        chart = ChartMap(ORIGIN2, 0)
        assert strict_transform(g, chart) == (1, Jet.constant(1, 2, T - 1))

    def test_strict_cusp_both_charts(self):
        d, g1 = strict_transform(CUSP, ChartMap(ORIGIN2, 0))
        assert d == 2 and g1 == jet2({(0, 2): 1, (1, 0): -1}, trunc=22)
        d, g2 = strict_transform(CUSP, ChartMap(ORIGIN2, 1))
        # x = u v, y = v: pullback v^2 - u^3 v^3 = v^2 (1 - u^3 v)
        assert d == 2 and g2 == jet2({(0, 0): 1, (3, 1): -1}, trunc=22)

    def test_strict_unit(self):
        g = jet2({(0, 0): 5, (1, 0): 1})
        d, out = strict_transform(g, ChartMap(ORIGIN2, 0))
        assert d == 0 and out == ChartMap(ORIGIN2, 0).pullback(g)

    def test_maximal_power_matches_center_order(self):
        rng = random.Random(8)
        done = 0
        while done < 20:
            f = _random_jet(rng, 2, 12, 5)
            if f.is_zero():
                continue
            mu = f.order_along(ORIGIN2.indices)
            if mu is None or mu < 1:
                continue
            for i in (0, 1):
                d, _ = strict_transform(f, ChartMap(ORIGIN2, i))
                assert d == mu
            done += 1


class TestDerivativeTransformIdentities:
    def test_worked_example(self):
        f = Jet(2, 12, {(1, 2): 1})  # x1 x2^2, center both coordinates
        assert not derivative_transform_failures(f, Center((0, 1), 2), 0, 2)

    def test_pure_power_identity(self):
        f = Jet(2, 12, {(3, 0): 1})
        assert not derivative_transform_failures(f, Center((0, 1), 2), 0, 3)

    def test_e_one_coordinate(self):
        f = Jet(2, 12, {(1, 0): 1})
        assert not derivative_transform_failures(f, Center((0, 1), 2), 0, 1)

    def test_random_instances(self):
        rng = random.Random(17)
        done = 0
        while done < 25:
            n = rng.randint(2, 4)
            idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            center = Center(idx, n)
            e = rng.randint(1, 3)
            coeffs = {}
            for _ in range(6):
                alpha = [rng.randint(0, 3) for _ in range(n)]
                if sum(alpha[i] for i in idx) < e:
                    alpha[idx[0]] += e  # force enough center order
                if sum(alpha) > 10:
                    continue
                coeffs[tuple(alpha)] = Fraction(rng.randint(-5, 5))
            f = Jet(n, 12, coeffs)
            if f.is_zero():
                continue
            mu = f.order_along(center.indices)
            if mu is None or mu < e:
                continue
            i = idx[rng.randrange(len(idx))]
            failures = derivative_transform_failures(f, center, i, e)
            assert not failures, (f, idx, i, e, failures)
            done += 1


class TestNormalCrossings:
    def test_coordinate_hyperplanes(self):
        x, y = Jet.variable(0, 2, T), Jet.variable(1, 2, T)
        assert normal_crossings_check([x, y]).ok

    def test_tangent_pair_fails(self):
        x = Jet.variable(0, 2, T)
        shifted = jet2({(1, 0): 1, (0, 2): 1})  # x + y^2
        rep = normal_crossings_check([x, shifted])
        assert not rep.ok

    def test_extra_tangential_contact(self):
        u = Jet.variable(0, 2, T)
        extra = jet2({(0, 2): 1, (1, 0): -1})  # v^2 - u
        assert not normal_crossings_check([u], extra=extra).ok

    def test_transverse_skew_passes(self):
        x = Jet.variable(0, 2, T)
        diag = jet2({(1, 0): 1, (0, 1): 1})
        assert normal_crossings_check([x, diag]).ok

    def test_not_through_origin_skipped(self):
        x = Jet.variable(0, 2, T)
        unit = jet2({(0, 0): 1, (1, 0): 1})
        rep = normal_crossings_check([x, unit])
        assert rep.ok and rep.assignments == ((0, 0),)

    def test_order_two_fails(self):
        assert not normal_crossings_check([CUSP]).ok

    @pytest.mark.parametrize(
        "rows, extra, assignments, reason",
        [
            # x + y pivots on x; x, reduced by it, is -y and pivots on y
            ([(1, 1), (1, 0)], None, ((0, 0), (1, 1)), None),
            # 2x + y takes x; the extra x, reduced to -y/2, takes y
            ([(2, 1)], (1, 0), ((0, 0), (1, 1)), None),
            # y, then x + y reduced to x, then z
            ([(0, 1, 0), (1, 1, 0), (0, 0, 1)], None, ((0, 1), (1, 0), (2, 2)), None),
            # x, y, then x + y reduces to zero: dependent at entry 2
            (
                [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
                None,
                ((0, 0), (1, 1)),
                "gradients are dependent at entry 2",
            ),
            # entry 0 is a unit and skipped; y + z takes y, z takes z, and y
            # reduced by both is zero
            (
                [None, (0, 1, 1), (0, 0, 1), (0, 1, 0)],
                None,
                ((1, 1), (2, 2)),
                "gradients are dependent at entry 3",
            ),
        ],
    )
    def test_pivot_assignments(self, rows, extra, assignments, reason):
        """Each entry through the origin in turn takes the first coordinate
        that no earlier entry took and on which its reduced gradient is
        nonzero."""

        def linear(row, n):
            if row is None:  # 1 + x: not through the origin
                return Jet(n, T, {(1,) + (0,) * (n - 1): 1, (0,) * n: 1})
            return Jet(n, T, {tuple(int(j == i) for j in range(n)): a for i, a in enumerate(row)})

        n = len(next(r for r in rows if r is not None))
        rep = normal_crossings_check(
            [linear(r, n) for r in rows], extra=None if extra is None else linear(extra, n)
        )
        assert (rep.ok, rep.assignments, rep.reason) == (reason is None, assignments, reason)

    def test_post_blowup_shape(self):
        # coordinate center crossing coordinate hyperplanes: strict transforms
        # plus the new exceptional pass the check in every chart
        hyps = [Jet.variable(0, 3, T), Jet.variable(2, 3, T)]
        center = Center((0, 1), 3)
        for i in center.indices:
            chart = ChartMap(center, i)
            fam = []
            for h in hyps:
                _, sh = strict_transform(h, chart)
                if sh.constant_term == 0:
                    fam.append(sh.with_truncation(T - 1))
            fam.append(Jet.variable(i, 3, T - 1))
            assert normal_crossings_check(fam).ok, i


def jacobian_determinant(charts, trunc):
    """Jacobian determinant of the composite of chart maps, first applied first."""
    composite = charts[0].components(trunc)
    for chart in charts[1:]:
        composite = compose_maps(composite, chart.components(trunc))
    return composite.jacobian_det()


class TestJacobian:
    def test_plane_chart(self):
        det = jacobian_determinant([ChartMap(ORIGIN2, 0)], 12)
        assert det == Jet(2, 11, {(1, 0): 1})

    def test_codim_one_identity(self):
        det = jacobian_determinant([ChartMap(Center((0,), 2), 0)], 12)
        assert det == Jet.constant(1, 2, 11)

    def test_composite_chain_rule(self):
        c1 = ChartMap(ORIGIN2, 0)
        c2 = ChartMap(ORIGIN2, 1)
        det = jacobian_determinant([c1, c2], 12)
        # chain rule oracle: det(J1 o m2) * det(J2)
        m1, m2 = c1.components(12), c2.components(12)
        oracle = substitute(m1.jacobian_det(), m2) * m2.jacobian_det().with_truncation(11)
        assert det == oracle
        assert det.monomial_unit_decompose() is not None

    def test_random_composites_monomial(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(2, 3)
            charts = []
            for _ in range(rng.randint(1, 3)):
                idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
                center = Center(idx, n)
                charts.append(ChartMap(center, idx[rng.randrange(len(idx))]))
            det = jacobian_determinant(charts, 10)
            dec = det.monomial_unit_decompose()
            assert dec is not None
            _, unit = dec
            assert abs(unit.constant_term) == 1 and len(unit.terms()) == 1


class TestLedger:
    def test_entry_invariant(self):
        with pytest.raises(ValueError):
            LedgerEntry(0, CUSP, ORIGIN_NEW)

    def test_through_origin(self):
        led = ExceptionalLedger(
            [
                LedgerEntry(0, Jet.variable(0, 2, T), ORIGIN_NEW),
                LedgerEntry(1, jet2({(0, 0): 1, (1, 0): 2}), ORIGIN_NEW),
            ]
        )
        assert [e.eid for e in led.through_origin()] == [0]
        assert led.watermark == 2

    def test_marked_function(self):
        with pytest.raises(ValueError):
            MarkedFunction(CUSP, 0)
