"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Everything here is oracle- or property-based and exact: zero tolerance on all
comparisons (rational arithmetic throughout).
"""

from fractions import Fraction
from itertools import product
import random

from resolvkit.blowup import (
    Center,
    ChartMap,
    ExceptionalLedger,
)
from resolvkit.carleman import (
    GrowthSequence,
    INCONCLUSIVE,
    NOT_QUASIANALYTIC,
    QUASIANALYTIC,
    check_inverse_domination,
    derivation_closure_test,
    is_log_convex,
    quasianalytic_test,
)
from resolvkit.faa_di_bruno import (
    compose_coefficient,
    enumerate_decompositions,
    jet_to_table,
    majorant_series,
)
from resolvkit.resolve import (
    RunConfig,
    monomialize_principal,
    rectilinearize,
    resolve_hypersurface,
    verify_resolution,
)
from resolvkit.resolve import _model
from resolvkit.resolve import coefficient_data
from resolvkit.series import Jet, PolyMap, grlex_key, mat_det, substitute


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {number:02d} {name}: {status}{suffix}")
    assert ok, f"acceptance criterion {number} failed: {name}"


def random_poly(rng, nvars, deg, trunc, terms=8, lo=-6, hi=6):
    coeffs = {}
    for _ in range(terms):
        alpha = tuple(rng.randint(0, deg) for _ in range(nvars))
        if sum(alpha) > deg:
            continue
        coeffs[alpha] = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
    return Jet(nvars, trunc, coeffs)


def gammas_up_to(n, bound):
    out = [g for g in product(range(bound + 1), repeat=n) if 0 < sum(g) <= bound]
    out.sort(key=grlex_key)
    return out


def childress_holds(m, pairs):
    """Exact check of m_|alpha| prod m_|delta|^|k| <= m_1^|alpha| m_|gamma|.

    ``pairs`` lists (delta, k) with alpha = sum k and gamma = sum |k| delta.
    For the pairs ((i,), (k_i,)) of a decomposition of (n,) with p = 1 this
    is the Childress inequality m_k m_1^{k_1} ... m_n^{k_n} <= m_1^k m_n.
    """
    a = sum(sum(k) for _, k in pairs)
    g = sum(sum(k) * sum(d) for d, k in pairs)
    lhs = [(a, 1)] + [(sum(d), sum(k)) for d, k in pairs]
    return m.compare_products(lhs, [(1, a), (g, 1)]) <= 0


def derivative_transform_failures(f, center, i, e):
    """The j whose identity fails in chart i, with h = (f o sigma) / y_i^e.

    For e >= 1 at most the order of f along the center:

      j not in center:   (df/dx_j o sigma) / y_i^{e-1} = y_i d/dy_j h
      j in center, != i: (df/dx_j o sigma) / y_i^{e-1} = d/dy_j h
      j = i:             (df/dx_i o sigma) / y_i^{e-1}
                             = e h + y_i d/dy_i h - sum_{j in center, != i} y_j d/dy_j h

    Each is an exact jet equality at the common truncation.
    """
    chart, n = ChartMap(center, i), f.nvars

    def divide(g, times):
        for _ in range(times):
            g = g.divide_by_coordinate(i)
        return g

    h = divide(chart.pullback(f), e)
    y = [Jet.variable(k, n, h.trunc - 1) for k in range(n)]
    failures = []
    for j in range(n):
        lhs = divide(chart.pullback(f.partial(j)), e - 1)
        if j == i:
            rhs = h.scale(e).with_truncation(h.trunc - 1) + y[i] * h.partial(i)
            for k in center.indices:
                if k != i:
                    rhs = rhs - y[k] * h.partial(k)
        elif j in center.indices:
            rhs = h.partial(j)
        else:
            rhs = y[i] * h.partial(j)
        t = min(lhs.trunc, rhs.trunc)
        if lhs.with_truncation(t) != rhs.with_truncation(t):
            failures.append(j)
    return failures


def test_01_faa_di_bruno_oracle_equivalence():
    rng = random.Random(2024)
    checked = 0
    pairs = 0
    while pairs < 200:
        n = rng.randint(1, 3)
        p = rng.randint(1, 3)
        f = random_poly(rng, p, 4, 6)
        gs = []
        for _ in range(p):
            gj = random_poly(rng, n, 4, 6)
            gs.append(gj - Jet.constant(gj.constant_term, n, 6))
        h = substitute(f, gs)
        ft = jet_to_table(f)
        gts = [jet_to_table(gj) for gj in gs]
        for gamma in gammas_up_to(n, 6):
            assert compose_coefficient(ft, gts, gamma) == h.coeff(gamma)
            checked += 1
        pairs += 1
    report(1, "composite-coefficient oracle equivalence", True, f"{checked} coefficients over 200 pairs")


def test_02_majorant_generating_function_identity():
    checked = 0
    for n, p in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for lam in (Fraction(1), Fraction(1, 2), Fraction(3)):
            oracle = majorant_series(lam, n, p, 8)
            for gamma in gammas_up_to(n, 8):
                decomposition_sum = sum(
                    d.multinomial() * lam ** sum(d.alpha)
                    for d in enumerate_decompositions(gamma, p)
                )
                assert decomposition_sum == oracle.coeff(gamma)
                checked += 1
    report(2, "majorant equals its closed form", True, f"{checked} coefficients")


def test_03_childress_and_blocks():
    families = [
        GrowthSequence.constant(),
        GrowthSequence.gevrey(Fraction(1, 2)),
        GrowthSequence.gevrey(1),
        GrowthSequence.gevrey(2),
    ]
    count = 0
    for m in families:
        for n in range(1, 9):
            for dec in enumerate_decompositions((n,), 1):
                assert childress_holds(m, dec.pairs)
                count += 1
    rng = random.Random(45)
    cor = 0
    while cor < 500:
        m = families[rng.randrange(len(families))]
        p = rng.randint(1, 3)
        n = rng.randint(1, 3)
        ks, deltas = [], []
        for _ in range(rng.randint(1, 3)):
            k = tuple(rng.randint(0, 2) for _ in range(p))
            d = tuple(rng.randint(0, 2) for _ in range(n))
            if any(k) and any(d):
                ks.append(k)
                deltas.append(d)
        if not ks:
            continue
        if sum(sum(k) * sum(d) for k, d in zip(ks, deltas)) > 8:
            continue
        assert childress_holds(m, list(zip(deltas, ks)))
        cor += 1
    report(3, "weighted-sequence inequalities", True, f"{count} partitions + {cor} random instances")


def test_04_inverse_majorant_domination():
    rng = random.Random(77)
    factorial_seq = GrowthSequence.gevrey(1)
    done = 0
    while done < 20:
        comps = []
        for i in range(2):
            coeffs = {}
            for _ in range(5):
                alpha = (rng.randint(0, 3), rng.randint(0, 3))
                if not 1 <= sum(alpha) <= 3:
                    continue
                coeffs[alpha] = Fraction(rng.randint(-3, 3))
            diag = [0, 0]
            diag[i] = 1
            coeffs[tuple(diag)] = Fraction(rng.choice([1, -1, 2, 3]))
            comps.append(Jet(2, 8, coeffs))
        g = PolyMap(comps)
        if mat_det(g.jacobian_at_zero()) == 0:
            continue
        ok, failures = check_inverse_domination(g, factorial_seq, 6)
        assert ok, failures
        done += 1
    report(4, "inverse-map majorant domination", True, "20 random maps, depth 6")


def test_05_derivative_transform_identities():
    rng = random.Random(2025)
    done = 0
    while done < 50:
        n = rng.randint(2, 4)
        idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        center = Center(idx, n)
        e = rng.randint(1, 3)
        coeffs = {}
        for _ in range(6):
            alpha = [rng.randint(0, 3) for _ in range(n)]
            if sum(alpha[i] for i in idx) < e:
                alpha[idx[0]] += e
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
        assert not derivative_transform_failures(f, center, i, e)
        done += 1
    report(5, "derivative transform identities", True, "50 random instances at T=12")


def test_06_center_order_equals_min_pointwise():
    rng = random.Random(31)
    pool = [
        Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3),
        Fraction(-2), Fraction(5), Fraction(1, 3), Fraction(-3), Fraction(7),
    ]
    done = 0
    while done < 50:
        n = rng.randint(2, 3)
        g = random_poly(rng, n, 5, 12)
        if g.is_zero():
            continue
        idx = tuple(sorted(rng.sample(range(n), rng.randint(1, n - 1))))
        center = Center(idx, n)
        mu = g.order_along(center.indices)
        orders = []
        for k in range(10):
            pt = [Fraction(0)] * n
            for j in range(n):
                if j not in idx:
                    pt[j] = pool[(k * 3 + j) % len(pool)]
            o = g.recenter(pt).order()
            if o is not None:
                orders.append(o)
        assert mu is not None and orders
        assert mu == min(orders), (g, idx, mu, orders)
        done += 1
    report(6, "center order equals min pointwise order", True, "50 random (g, C), 10 samples each")


def test_07_end_to_end_cusp_and_node():
    cusp = Jet(2, 24, {(0, 2): 1, (3, 0): -1})
    tree = resolve_hypersurface(cusp, var_names=["x", "y"])
    rep = verify_resolution(tree)
    ok = (
        tree.smooth_after() == 1
        and tree.blowup_count == 3
        and rep.all_passed
        and tree.all_leaves_passed
    )
    node = Jet(2, 24, {(0, 2): 1, (2, 0): -1})
    tree2 = resolve_hypersurface(node, var_names=["x", "y"])
    rep2 = verify_resolution(tree2)
    ok = ok and tree2.blowup_count == 1 and rep2.all_passed
    report(
        7,
        "cusp and node end to end",
        ok,
        f"cusp: smooth after {tree.smooth_after()}, verified after {tree.blowup_count}; "
        f"node: {tree2.blowup_count}",
    )


BUNDLED = [
    ("resolve", ["y^2 - x^3"]),
    ("resolve", ["y^2 - x^2"]),
    ("resolve", ["y - x^2"]),
    ("resolve", ["(y - x^2)^2 - x^5"]),
    ("resolve", ["y^2 - x^5"]),
    ("resolve", ["x^2 - y^2*z"]),
    ("resolve", ["y^3 + x^2*y + x^3"]),
    ("resolve", ["x*y"]),
    ("resolve", ["z^2 + x^2 - y^2"]),
    ("resolve", ["z^2 - x^2*y"]),
    ("resolve", ["z^2 + x^3 + y^3"]),
    ("monomialize", ["x^2*y^3"]),
    ("monomialize", ["y^2 - x^3"]),
    ("rectilinearize", ["x", "y"]),
    ("rectilinearize", ["x", "x + y"]),
    ("rectilinearize", ["y^2 - x^3"]),
    ("rectilinearize", ["x", "y", "x - y"]),
]


def _run_bundled(mode, exprs, config=None):
    from resolvkit.parse import parse_many

    jets, names = parse_many(exprs, None, (config or RunConfig()).truncation)
    config = config or RunConfig()
    if mode == "resolve":
        return resolve_hypersurface(jets[0], config, names)
    if mode == "monomialize":
        return monomialize_principal(jets[0], config, names)
    return rectilinearize(jets, config, names)


def test_08_budget_bound_on_bundled_examples():
    worst = 0
    for mode, exprs in BUNDLED:
        tree = _run_bundled(mode, exprs)
        for n in tree.nodes:
            if n.budget:
                assert n.budget["step"] <= n.budget["limit"], (mode, exprs, n.nid)
                worst = max(worst, n.budget["step"])
        assert verify_resolution(tree).all_passed, (mode, exprs)
    report(8, "per-phase blow-up budgets respected", True, f"max recorded step {worst}")


def test_09_coefficient_transform_commutation():
    rng = random.Random(99)
    done = 0
    while done < 30:
        n = rng.choice([2, 3])
        d = rng.choice([2, 3])
        coeffs = {tuple([0] * (n - 1)) + (d,): Fraction(1)}
        for q in range(d - 1):
            e = d - q + rng.randint(0, 1)
            alpha = [0] * n
            alpha[0] = e
            alpha[n - 1] = q
            coeffs[tuple(alpha)] = Fraction(rng.randint(1, 4))
        g = Jet(n, 14, coeffs)
        model = _model(g, ExceptionalLedger())
        cs, _ = coefficient_data(model, d)
        sub_center = Center((0,), n - 1)
        if any(
            mf is not None and mf.jet.order_along(sub_center.indices) < d - q
            for q, mf in cs.items()
        ):
            continue
        center = Center((0, n - 1), n)
        chart = ChartMap(center, 0)
        gp = chart.pullback(g)
        for _ in range(d):
            gp = gp.divide_by_coordinate(0)
        model2 = _model(gp, ExceptionalLedger())
        cs2, _ = coefficient_data(model2, d)
        contact_chart = ChartMap(sub_center, 0)
        for q, mf in cs.items():
            if mf is None:
                assert cs2[q] is None
                continue
            rhs = contact_chart.pullback(mf.jet)
            for _ in range(d - q):
                rhs = rhs.divide_by_coordinate(0)
            lhs = cs2[q].jet
            t = min(lhs.trunc, rhs.trunc)
            assert lhs.with_truncation(t) == rhs.with_truncation(t)
        done += 1
    report(9, "contact data commutes with blowing up", True, "30 prepared models")


def test_10_growth_sequence_classifications():
    const = GrowthSequence.constant()
    gevreys = [GrowthSequence.gevrey(s) for s in (Fraction(1, 2), 1, 2)]
    ok = quasianalytic_test(const).kind == QUASIANALYTIC
    for m in gevreys:
        ok = ok and quasianalytic_test(m).kind == NOT_QUASIANALYTIC
    for m in [const] + gevreys:
        ok = ok and is_log_convex(m, 32).ok
        ok = ok and derivation_closure_test(m).verdict == "closed"
    custom = GrowthSequence.custom([1, 1, 2, 6, 24, 120])
    verdict = quasianalytic_test(custom, depth=64)
    ok = ok and verdict.kind == INCONCLUSIVE and verdict.depth == 5
    expected = sum(
        custom.term(k) / ((k + 1) * custom.term(k + 1)) for k in range(5)
    )
    ok = ok and verdict.partial_sum == expected
    report(10, "growth-sequence classifications", ok)


def test_11_determinism_across_bundled_examples():
    for mode, exprs in BUNDLED:
        a = _run_bundled(mode, exprs).to_json()
        b = _run_bundled(mode, exprs).to_json()
        assert a == b, (mode, exprs)
    report(11, "byte-identical output across runs", True, f"{len(BUNDLED)} bundled examples")
