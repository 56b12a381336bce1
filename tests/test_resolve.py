"""Driver tests: preparation, coefficient data, monomial machinery, full runs."""

from fractions import Fraction
import json
import random

from hypothesis import assume, example, given, settings, strategies as st
import pytest

from resolvkit import resolve
from resolvkit.blowup import (
    Center,
    ChartMap,
    ExceptionalLedger,
    LedgerEntry,
    MarkedFunction,
)
from resolvkit.parse import parse_many
from resolvkit.resolve import (
    AlgorithmError,
    OmegaScaled,
    RunConfig,
    coefficient_data,
    least_omega,
    monomial_centers,
    monomialize_principal,
    prepare_local_model,
    rectilinearize,
    resolve_hypersurface,
    tree_from_json_dict,
    verify_resolution,
)
from resolvkit.resolve import (
    Preparation,
    _PhaseState,
    _apply_prep_model,
    _chart_model,
    _complete_basis,
    _lift_prep,
    _model,
    _omega_of,
    _write_json,
)
from resolvkit.series import Jet, PolyMap, ShapeError, compose_maps, linear_change, substitute


T = 24


def jet2(coeffs, trunc=T):
    return Jet(2, trunc, coeffs)


CUSP = jet2({(0, 2): 1, (3, 0): -1})
NODE = jet2({(0, 2): 1, (2, 0): -1})
EMPTY = ExceptionalLedger()


class TestPrepare:
    def test_cusp_no_work_needed(self):
        model, prep = prepare_local_model(CUSP, EMPTY)
        assert prep is None
        assert model.d == 2
        # the contact jet is d! x_n after normalization
        z = model.g.nth_partial(1, 1)
        assert z == jet2({(0, 1): 2}, trunc=23)

    def test_shear_example(self):
        # (y - x^2)^2 - x^5: the contact solution is x^2, the shear turns the
        # equation into y^2 - x^5
        g = jet2({(0, 2): 1, (2, 1): -2, (4, 0): 1, (5, 0): -1})
        model, prep = prepare_local_model(g, EMPTY)
        assert prep.matrix is None
        assert prep.shear == Jet(1, 23, {(2,): 1})
        assert model.g == jet2({(0, 2): 1, (5, 0): -1}, trunc=23)

    def test_pure_power(self):
        g = jet2({(0, 3): 1})  # y^3: already unit * x_n^3 shape
        model, prep = prepare_local_model(g, EMPTY)
        assert prep is None
        z = model.g.nth_partial(1, 2)
        assert z == jet2({(0, 1): 6}, trunc=22)

    def test_direction_search_swaps(self):
        g = jet2({(2, 0): 1, (1, 3): 1})  # x^2 + x y^3: needs the x direction
        model, prep = prepare_local_model(g, EMPTY)
        assert prep.matrix is not None
        assert model.g.coeff((0, 2)) != 0


class TestCoefficientData:
    def test_cusp(self):
        model, _ = prepare_local_model(CUSP, EMPTY)
        cs, bs = coefficient_data(model)
        assert set(cs) == {0}
        assert cs[0].jet == Jet(1, 24, {(3,): -1})
        assert cs[0].mark == 2
        assert bs == {}

    def test_after_shear(self):
        g = jet2({(0, 2): 1, (2, 1): -2, (4, 0): 1, (5, 0): -1})
        model, _ = prepare_local_model(g, EMPTY)
        cs, _ = coefficient_data(model)
        assert cs[0].jet == Jet(1, 23, {(5,): -1})

    def test_pure_power_all_zero(self):
        model, _ = prepare_local_model(jet2({(0, 4): 1}), EMPTY)
        cs, _ = coefficient_data(model)
        assert set(cs) == {0, 1, 2}
        assert all(v is None for v in cs.values())

    def test_geometric_smoothness_cases(self):
        # geometrically smooth: every contact coefficient vanishes
        m1, _ = prepare_local_model(CUSP, EMPTY)
        assert not all(v is None for v in coefficient_data(m1)[0].values())
        # (1 + x) y^2: both contact coefficients vanish
        m2, _ = prepare_local_model(jet2({(0, 2): 1, (1, 2): 1}), EMPTY)
        assert all(v is None for v in coefficient_data(m2)[0].values())


class TestPairLocus:
    # the nonvanishing marked data cut out the equimultiple locus of the
    # invariant pair inside the contact hypersurface
    def test_cusp_locus(self):
        model, _ = prepare_local_model(CUSP, EMPTY)
        cs, bs = coefficient_data(model)
        assert [q for q, mf in cs.items() if mf is not None] == [0]
        assert cs[0].jet == Jet(1, 24, {(3,): -1})
        assert cs[0].mark == 2
        assert bs == {}

    def test_pure_square_empty(self):
        model, _ = prepare_local_model(jet2({(0, 2): 1}), EMPTY)
        cs, bs = coefficient_data(model)
        assert all(mf is None for mf in cs.values())
        assert bs == {}

    def test_with_exceptional(self):
        led = ExceptionalLedger([LedgerEntry(0, Jet.variable(0, 2, T), "new")])
        model, _ = prepare_local_model(jet2({(0, 2): 1, (4, 0): 1}), led)
        cs, bs = coefficient_data(model)
        assert cs[0].jet == Jet(1, 24, {(4,): 1})
        assert cs[0].mark == 2
        assert bs[0].jet == Jet.variable(0, 1, T)
        assert bs[0].mark == 1


class TestOmegaMachinery:
    def test_cusp_omega(self):
        # exponent 3 with mark 2 at scale 2! = 2: scaled entry 3
        om = OmegaScaled((3,), 2)
        centers = monomial_centers(om)
        assert len(centers) == 1
        assert centers[0].indices == (0, 1)

    def test_two_entry_example(self):
        # (1/2, 2/3) scaled by 6: (3, 4); singletons fail, the pair qualifies
        om = OmegaScaled((3, 4), 6)
        centers = monomial_centers(om)
        assert [c.indices for c in centers] == [(0, 1, 2)]

    def test_boundary(self):
        om = OmegaScaled((2,), 2)
        assert monomial_centers(om)[0].indices == (0, 1)

    def test_update_rule(self):
        om = OmegaScaled((3,), 2)
        assert om.updated([0], 0).entries == (1,)
        om2 = OmegaScaled((3, 4), 6)
        assert om2.updated([0, 1], 0).entries == (1, 4)
        assert om2.updated([0, 1], 1).entries == (3, 1)

    def test_budget_bound_example(self):
        # cusp phase: d! |Omega| = 2 * 3/2 = 3 blow-ups at most
        assert OmegaScaled((3,), 2).total == 3

    def test_least_requires_total_order(self):
        with pytest.raises(AlgorithmError):
            least_omega(
                {
                    "a": OmegaScaled((2, 0), 2),
                    "b": OmegaScaled((0, 2), 2),
                }
            )

    def test_no_center_below_one(self):
        with pytest.raises(ValueError):
            monomial_centers(OmegaScaled((1,), 2))

    def test_comparability_is_judged_scaled(self):
        # at d = 3 (scale 6) a datum of mark m has its exponents scaled by 6/m
        phase = _PhaseState(d=3, front_entry=None, old_ids=(), c_keys=(1, 2), start_pair=(3, 0))

        def data(alpha1, alpha2):
            return {
                ("c", 1): MarkedFunction(Jet(2, T, {alpha1: 1}), 1),
                ("c", 2): MarkedFunction(Jet(2, T, {alpha2: 1}), 3),
            }

        # (1, 1) <= (4, 1) unscaled, but (6, 6) and (8, 2) are incomparable
        omegas, comparable = _omega_of(data((1, 1), (4, 1)), phase)
        assert [om.entries for om in omegas.values()] == [(6, 6), (8, 2)]
        assert not comparable
        # (1, 2) and (2, 1) are incomparable unscaled, but (6, 12) >= (4, 2)
        omegas, comparable = _omega_of(data((1, 2), (2, 1)), phase)
        assert [om.entries for om in omegas.values()] == [(6, 12), (4, 2)]
        assert comparable


class TestResolveRuns:
    def test_cusp_counts(self):
        tree = resolve_hypersurface(CUSP)
        assert tree.blowup_count == 3
        assert tree.smooth_after() == 1
        assert tree.all_leaves_passed
        assert verify_resolution(tree).all_passed

    def test_node_counts(self):
        tree = resolve_hypersurface(NODE)
        assert tree.blowup_count == 1
        assert tree.smooth_after() == 1
        assert verify_resolution(tree).all_passed

    def test_smooth_is_leaf_only(self):
        tree = resolve_hypersurface(jet2({(0, 1): 1, (2, 0): -1}))
        assert tree.blowup_count == 0
        assert len(tree.leaves()) == 1
        assert verify_resolution(tree).all_passed

    def test_unit_trivial(self):
        tree = resolve_hypersurface(jet2({(0, 0): 1, (1, 0): 1}))
        assert tree.blowup_count == 0
        assert verify_resolution(tree).all_passed

    def test_zero_records_assumption(self):
        tree = resolve_hypersurface(Jet.zero(2, T))
        assert len(tree.leaves()) == 1
        assert any("treated as 0" in a for _, a in tree.assumptions)
        assert verify_resolution(tree).all_passed

    def test_whitney_umbrella(self):
        tree = resolve_hypersurface(Jet(3, T, {(2, 0, 0): 1, (0, 2, 1): -1}))
        assert tree.blowup_count == 1
        assert verify_resolution(tree).all_passed

    def test_higher_cusp(self):
        tree = resolve_hypersurface(jet2({(0, 2): 1, (5, 0): -1}))
        assert verify_resolution(tree).all_passed
        assert tree.smooth_after() == 2

    def test_three_lines(self):
        tree = resolve_hypersurface(jet2({(0, 3): 1, (2, 1): 1, (3, 0): 1}))
        assert tree.blowup_count == 1
        assert verify_resolution(tree).all_passed

    def test_budget_bound_recorded(self):
        tree = resolve_hypersurface(CUSP)
        budgets = [n.budget for n in tree.nodes if n.budget]
        assert budgets
        assert all(b["step"] <= b["limit"] for b in budgets)
        # root phase budget is exactly d! |Omega| = 3
        assert max(b["limit"] for b in budgets) == 3

    def test_invariant_pair_monotone(self):
        for g in [CUSP, NODE, jet2({(0, 2): 1, (5, 0): -1})]:
            tree = resolve_hypersurface(g)
            by_id = {n.nid: n for n in tree.nodes}
            for n in tree.nodes:
                if n.parent_id is not None:
                    assert by_id[n.parent_id].pair[0] >= n.pair[0]

    def test_base_points(self):
        cfg = RunConfig(base_points=((0, 0), (1, 1)))
        tree = resolve_hypersurface(CUSP, cfg)
        roots = tree.roots()
        assert len(roots) == 2
        assert verify_resolution(tree).all_passed

    @pytest.mark.parametrize("drive", [resolve_hypersurface, monomialize_principal])
    @pytest.mark.parametrize("expr", ["y^2 - x^3", "x^2 + y^3 + z^3", "w^2 + x^2 + y^2 + z^2"])
    def test_every_node_has_list_children(self, drive, expr):
        # the walk that numbers a driven tree runs every stored step, those
        # of the lifted reductions of the last two germs included
        tree = drive(parse_many([expr])[0][0])
        assert all(type(n.children) is list for n in tree.nodes)
        assert all(c.parent_id == n.nid for n in tree.nodes for c in n.children)

    def test_budget_exhaustion(self):
        from resolvkit.resolve import BudgetError

        with pytest.raises(BudgetError):
            resolve_hypersurface(CUSP, RunConfig(max_blowups=1))


class TestMonomialize:
    def test_already_monomial(self):
        tree = monomialize_principal(jet2({(2, 3): 1}))
        assert tree.blowup_count == 0
        assert len(tree.leaves()) == 1
        assert tree.leaves()[0].leaf.get("monomial_exponents") == [2, 3]
        assert verify_resolution(tree).all_passed

    def test_cusp_leaves_monomial(self):
        tree = monomialize_principal(CUSP)
        rep = verify_resolution(tree)
        assert rep.all_passed
        assert all(a.total_monomial for a in rep.leaves)

    def test_unit(self):
        tree = monomialize_principal(jet2({(0, 0): 7}))
        assert tree.blowup_count == 0
        assert verify_resolution(tree).all_passed


class TestRectilinearize:
    def test_coordinate_axes(self):
        x, y = Jet.variable(0, 2, T), Jet.variable(1, 2, T)
        tree = rectilinearize([x, y])
        assert tree.blowup_count == 0
        assert verify_resolution(tree).all_passed

    def test_cusp_reuse(self):
        tree = rectilinearize([CUSP])
        assert tree.blowup_count == 3
        assert verify_resolution(tree).all_passed

    def test_two_lines_separate(self):
        x, y = Jet.variable(0, 2, T), Jet.variable(1, 2, T)
        tree = rectilinearize([x, x + y])
        assert tree.blowup_count == 1
        rep = verify_resolution(tree)
        assert rep.all_passed
        assert all(a.factors_ok for a in rep.leaves)

    def test_three_lines(self):
        x, y = Jet.variable(0, 2, T), Jet.variable(1, 2, T)
        tree = rectilinearize([x, y, x - y])
        assert verify_resolution(tree).all_passed


class TestDeterminismAndJson:
    def test_byte_identical(self):
        a = resolve_hypersurface(CUSP).to_json()
        b = resolve_hypersurface(CUSP).to_json()
        assert a == b

    def test_round_trip_verify(self):
        tree = resolve_hypersurface(jet2({(0, 2): 1, (5, 0): -1}))
        rep1 = verify_resolution(tree)
        tree2 = tree_from_json_dict(json.loads(tree.to_json()))
        rep2 = verify_resolution(tree2)
        assert [(a.leaf_id, a.passed) for a in rep1.leaves] == [
            (a.leaf_id, a.passed) for a in rep2.leaves
        ]
        assert rep1.all_passed and rep2.all_passed

    def test_to_json_is_the_json_dumps_of_to_json_dict(self):
        # to_json writes its jets from packed form; the dict it denotes,
        # json.loads of its text, written again by json.dumps gives the same text
        jets, names = parse_many(["(1 + 2*y - x^2)*(y^2-x^3)"], None, 20)
        tree = resolve_hypersurface(jets[0], RunConfig(truncation=20), names)
        text = tree.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1)

    def test_variable_names_must_match_the_germ(self):
        # the tree reader takes the frame from the names, so a drive never
        # writes a tree whose names and jets disagree
        with pytest.raises(ShapeError, match="1 variable names for a germ in 2 variables"):
            resolve_hypersurface(CUSP, var_names=["x"])

    def test_dot_emission(self):
        dot = resolve_hypersurface(CUSP).to_dot()
        assert dot.startswith("digraph")
        assert "palegreen" in dot


# strings with quotes, backslashes, control, non-ASCII and astral characters,
# and a lone surrogate
JSON_STRINGS = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "a\"b\\c", "\x00\x1f\x7f", "\n\t", "\u00e9", "\u2028", "\ud800", "\U0001f600"]
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([-(10**40), 10**40 + 1, 2**63, -1, 0])
    | JSON_STRINGS
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(-3, 40), max_size=4)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=24,
)


def _written(value) -> str:
    out = []
    _write_json(value, "", out)
    return "".join(out)


def _jet_object(j: Jet) -> dict:
    """The JSON object of a jet, built from its terms."""
    terms = [[list(a), str(c)] for a, c in j.terms()]
    return {"nvars": j.nvars, "trunc": j.trunc, "terms": terms}


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(JSON_VALUES)
    @example([True, 1, False, 0, None])
    @example({"b": [[], {}], "a": {"": [[[]]]}, "\u00e9": True})
    @example([[1, 2], [True, 2], [-(10**30)]])
    def test_matches_json_dumps(self, value):
        assert _written(value) == json.dumps(value, sort_keys=True, indent=1)

    def test_writes_a_jet_as_its_json_object(self):
        a = Jet(2, 70, {(0, 0): Fraction(-3, 4), (69, 1): 5, (1, 2): Fraction(1, 6)})
        b, c = Jet.zero(3, 4), Jet(0, 2, {(): 7})
        plain = {"b": [_jet_object(a), _jet_object(b)], "a": {"jet": _jet_object(c)}}
        value = {"b": [a, b], "a": {"jet": c}}
        assert _written(value) == json.dumps(plain, sort_keys=True, indent=1)

    @pytest.mark.parametrize(
        "value",
        [1.5, [0.0], {"a": float("nan")}, {1: "a"}, {None: 1}, {"a": {2: 0}}, Fraction(1, 2), (1, 2)],
    )
    def test_rejects_what_tree_json_does_not_hold(self, value):
        with pytest.raises(TypeError):
            _written(value)


class TestVerifyCatchesTruncatedTree:
    def test_tangential_stop_fails(self):
        tree = resolve_hypersurface(CUSP)
        data = json.loads(tree.to_json())
        keep = [nd for nd in data["nodes"] if nd["id"] in (0, 1)]
        strict = {"nvars": 2, "trunc": 22, "terms": [[[1, 0], "-1"], [[0, 2], "1"]]}
        leaf = {
            "id": 99,
            "parent": 1,
            "kind": "Leaf",
            "base_point": None,
            "prep": None,
            "center_indices": None,
            "chart_index": None,
            "identity": False,
            "invariant_pair": [1, 1],
            "s_total": 1,
            "omega_scaled": None,
            "assumptions": [],
            "budget": None,
            "blowup_index": 1,
            "leaf_checks": {
                "strict_order": 1,
                "crossings_ok": True,
                "passed": True,
                "strict_transform": strict,
                "ledger": [
                    {
                        "eid": 0,
                        "origin": "new",
                        "jet": {"nvars": 2, "trunc": 22, "terms": [[[1, 0], "1"]]},
                    }
                ],
            },
        }
        data["nodes"] = keep + [leaf]
        rep = verify_resolution(tree_from_json_dict(data))
        assert not rep.all_passed
        failing = rep.leaves[0]
        assert not failing.crossings_ok


def _scaled_first_entry(ledger):
    entries = list(ledger)
    e = entries[0]
    entries[0] = LedgerEntry(e.eid, e.jet.scale(Fraction(2)), e.origin)
    return ExceptionalLedger(entries, ledger.watermark)


class TestAuditRejectsPerturbedReplay:
    """Each check of the leaf audit fails when one element of the replay
    state handed to it is perturbed: (strict, ledger, maps, dets, peels)."""

    @pytest.mark.parametrize("perturb, reason", [
        (
            lambda s, lg, m, d, p: (s * Jet.variable(0, 2, s.trunc) ** 2, lg, m, d, p),
            "strict transform has order",
        ),
        (
            lambda s, lg, m, d, p: (s, _scaled_first_entry(lg), m, d, p),
            "ledger entry",
        ),
        (
            lambda s, lg, m, d, p: (s, lg, m, d, tuple((c, w + 1) for c, w in p)),
            "total transform does not match strict times exceptionals",
        ),
        (
            lambda s, lg, m, d, p: (s, lg, m, 2 * d, p),
            "Jacobian determinant does not match its chart factorization",
        ),
    ], ids=["order", "ledger", "total", "jacobian"])
    def test_each_leaf_fails_with_the_reason(self, monkeypatch, perturb, reason):
        audit = resolve._audit_leaf
        monkeypatch.setattr(
            resolve, "_audit_leaf", lambda tree, leaf, *state: audit(tree, leaf, *perturb(*state))
        )
        rep = verify_resolution(resolve_hypersurface(CUSP))
        assert not rep.all_passed
        assert [la.leaf_id for la in rep.leaves] == [4, 6, 8, 10]
        for la in rep.leaves:
            assert not la.passed
            assert any(r.startswith(reason) for r in la.reasons), la.reasons


class TestCommutation:
    def test_contact_data_commutes_with_blowup(self):
        rng = random.Random(99)
        done = 0
        while done < 12:
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
            model = _model(g, EMPTY)
            cs, _ = coefficient_data(model, d)
            sub_center = Center((0,), n - 1)
            if any(
                mf is not None
                and mf.jet.order_along(sub_center.indices) < d - q
                for q, mf in cs.items()
            ):
                continue
            center = Center((0, n - 1), n)
            chart = ChartMap(center, 0)
            gp = chart.pullback(g)
            for _ in range(d):
                gp = gp.divide_by_coordinate(0)
            model2 = _model(gp, EMPTY)
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


class TestChartPointExclusion:
    def test_order_drops_off_named_charts(self):
        # after blowing up the origin for the cusp, the contact-chart origin
        # and generic points of the exceptional there have order zero
        chart = ChartMap(Center((0, 1), 2), 1)
        d, strict = CUSP.coeff((0, 0)), None
        pulled = chart.pullback(CUSP)
        e, strict = pulled.factor_coordinate_power(1)
        assert e == 2
        assert strict.constant_term != 0  # unit at the chart origin
        for u0 in [Fraction(1), Fraction(-2), Fraction(1, 3)]:
            val = strict.eval_at([u0, 0])
            assert val != 0


class TestToMonomialCase:
    def test_cusp_already_monomial(self):
        # the cusp datum x^3 (mark 2) is already monomial: no reduction, the
        # root phase blows up at once with budget |(3,)| = 3 at scale 2! = 2
        root = resolve_hypersurface(CUSP).roots()[0]
        assert [ch.center for ch in root.children] == [(0, 1), (0, 1)]
        assert all(ch.budget == {"limit": 3, "step": 1} for ch in root.children)

    def test_cone_needs_reduction(self):
        cone = Jet(3, T, {(0, 0, 2): 1, (2, 0, 0): 1, (0, 2, 0): -1})
        tree = resolve_hypersurface(cone)
        assert verify_resolution(tree).all_passed
        # the data x^2 - y^2 are not monomial: the reduction blows up inside
        # the contact hypersurface {z = 0} before the monomial loop starts
        reduction = tree.roots()[0].children
        assert len(reduction) >= 2
        assert all(2 not in nd.center and nd.budget is None for nd in reduction)

    def test_monomial_step_cusp(self):
        tree = resolve_hypersurface(CUSP)
        by_chart = {nd.chart_index: nd for nd in tree.roots()[0].children}
        assert by_chart[0].center == (0, 1)
        # the germ at each chart origin: the root's prepared model through the
        # node's chart, with the order d = 2 divided out
        prepped, prep = prepare_local_model(CUSP, ExceptionalLedger())
        assert prep is None and all(nd.prep is None for nd in by_chart.values())
        g = {
            i: _chart_model(prepped, ChartMap(Center(nd.center, 2), i), 2).g
            for i, nd in by_chart.items()
        }
        assert g[0] == jet2({(0, 2): 1, (1, 0): -1}, trunc=22)
        assert g[1].is_unit()
        # chart 1 is a leaf at once, and holds that unit as its strict transform
        assert by_chart[1].children[0].leaf["strict_transform"] == g[1]
        assert OmegaScaled((3,), 2).updated([0], 0) == OmegaScaled((1,), 2)


class TestExceptionalOnlyEndgame:
    def test_tangent_exceptional_cluster_separates(self):
        # a unit hypersurface with two tangent exceptionals: the pure-ledger
        # endgame must separate them with contact blow-ups
        from resolvkit.resolve import _built, _continue, _model, _walk, RESOLVE
        from resolvkit.blowup import LedgerEntry

        g = Jet(2, 20, {(0, 0): 1, (1, 0): 1})  # unit
        led = ExceptionalLedger(
            [
                LedgerEntry(0, Jet.variable(0, 2, 20), "new"),
                LedgerEntry(1, Jet(2, 20, {(1, 0): 1, (0, 2): 1}), "new"),  # x + y^2
            ]
        )
        model = _model(g, led)
        # the walk runs each node's stored step, as _drive's numbering walk does
        walked = _walk(_continue(model, RESOLVE), lambda _, nd: _built(nd), None)
        leaves = [nd for nd, _ in walked if nd.kind == "Leaf"]
        assert leaves
        assert all(nd.leaf["passed"] for nd in leaves)


# -- the preparation map against the two-step route it replaced ---------------

PREP_SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)
PREP_RATIONALS = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
)


def two_step(f, prep):
    """f after ``prep`` the way it was once applied: ``linear_change`` by the
    matrix, then a second substitution shearing the last variable."""
    if prep.matrix is not None:
        f = linear_change(f, prep.matrix)
    if prep.shear is not None:
        n = f.nvars
        phi = prep.shear.insert_var(n - 1)
        t = min(f.trunc, phi.trunc)
        comps = [Jet.variable(j, n, t) for j in range(n - 1)]
        comps.append(Jet.variable(n - 1, n, t) + phi.with_truncation(t))
        f = substitute(f, comps)
    return f


def swap_matrix(n, pivot):
    """The permutation matrix exchanging x_pivot and x_n, as an absorb step
    builds it."""
    swap = {pivot: n - 1, n - 1: pivot}
    return tuple(tuple(Fraction(int(swap.get(r, r) == c)) for c in range(n)) for r in range(n))


@st.composite
def poly(draw, n, trunc, constant=True):
    exps = st.tuples(*[st.integers(0, trunc) for _ in range(n)])
    terms = draw(st.dictionaries(exps, PREP_RATIONALS, max_size=5))
    if not constant:
        terms.pop((0,) * n, None)
    return Jet(n, trunc, terms)


@st.composite
def invertible_matrices(draw, n):
    kind = draw(st.sampled_from(["none", "basis", "swap", "dense"]))
    if kind == "none":
        return None
    if kind == "basis":
        target = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
        return _complete_basis(tuple(target), n)
    if kind == "swap":
        return swap_matrix(n, draw(st.integers(0, n - 1)))
    # L U with L unit lower and U upper triangular, U with a nonzero diagonal
    entries = PREP_RATIONALS | st.just(Fraction(0))
    low = [[draw(entries) if c < r else Fraction(int(c == r)) for c in range(n)] for r in range(n)]
    up = [[draw(PREP_RATIONALS if c == r else entries) if c >= r else Fraction(0)
           for c in range(n)] for r in range(n)]
    return tuple(tuple(sum(low[r][k] * up[k][c] for k in range(n)) for c in range(n))
                 for r in range(n))


@st.composite
def preparations(draw, n):
    """A preparation in n variables: an invertible matrix or none, and a
    shear without constant term or none."""
    matrix = draw(invertible_matrices(n))
    shear = None
    if draw(st.booleans()):
        shear = draw(poly(n - 1, draw(st.integers(1, 6)), constant=False))
    return Preparation(matrix, shear)


class TestPreparationMap:
    """``Preparation.as_map`` gives what a linear change followed by a shear
    of the last variable gives, truncation included, whatever truncation the
    map is built at (at least the jet's)."""

    @PREP_SETTINGS
    @given(st.integers(2, 4), st.data())
    def test_as_map_is_linear_change_then_shear(self, n, data):
        prep = data.draw(preparations(n))
        f = data.draw(poly(n, data.draw(st.integers(1, 6))))
        for trunc in (f.trunc, f.trunc + data.draw(st.integers(1, 3))):
            # Jet equality includes the truncation
            assert substitute(f, prep.as_map(n, trunc)) == two_step(f, prep)

    @PREP_SETTINGS
    @given(st.integers(2, 4), st.data())
    def test_as_map_is_the_matrix_composed_with_the_shear(self, n, data):
        # the closed form sum_k M[i][k] x_k + M[i][n-1] phi is L(S(x)), with S
        # the identity at t = min(T, phi.trunc) and phi added to x_n
        prep = data.draw(preparations(n))
        T = data.draw(st.integers(0, 8))
        t = T if prep.shear is None else min(T, prep.shear.trunc)
        shear = list(PolyMap.identity(n, t).components)
        if prep.shear is not None:
            shear[n - 1] = shear[n - 1] + prep.shear.with_truncation(t).insert_var(n - 1)
        matrix = prep.matrix or tuple(
            tuple(Fraction(int(i == k)) for k in range(n)) for i in range(n)
        )
        expected = compose_maps(PolyMap.from_matrix(matrix, t), PolyMap(shear))
        assert prep.as_map(n, T) == expected and prep.as_map(n, T).trunc == t

    @PREP_SETTINGS
    @given(st.integers(2, 3), st.data())
    def test_lifted_as_map_is_linear_change_then_shear(self, n, data):
        lifted = _lift_prep(data.draw(preparations(n)))
        assume(lifted is not None)
        f = data.draw(poly(n + 1, data.draw(st.integers(1, 5))))
        out = substitute(f, lifted.as_map(n + 1, f.trunc))
        assert out == two_step(f, lifted)

    def test_model_jets_keep_their_truncations(self):
        # one map serves g and every ledger jet: each result keeps
        # min(jet.trunc, shear.trunc), as the two-step route gives it
        g = Jet(3, 12, {(2, 0, 0): 1, (0, 1, 2): -1, (0, 0, 3): 2})
        ledger = ExceptionalLedger([
            LedgerEntry(0, Jet(3, 7, {(1, 0, 0): 1, (0, 0, 2): 1}), "new"),
            LedgerEntry(1, Jet(3, 14, {(0, 1, 0): 1, (0, 0, 1): 1}), "new"),
        ])
        prep = Preparation(_complete_basis((1, 0, 2), 3), Jet(2, 10, {(1, 1): Fraction(1, 2)}))
        out = _apply_prep_model(_model(g, ledger), prep)
        assert out.g == two_step(g, prep) and out.g.trunc == 10
        assert [e.jet for e in out.ledger] == [two_step(e.jet, prep) for e in ledger]
        assert [e.jet.trunc for e in out.ledger] == [7, 10]
