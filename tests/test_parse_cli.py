"""Expression grammar and the batch front end."""

from fractions import Fraction
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys

import pytest

import resolvkit
from resolvkit import cli, resolve
from resolvkit.cli import main
from resolvkit.parse import ParseError, parse_many, parse_polynomial
from resolvkit.resolve import AlgorithmError
from resolvkit.series import Jet


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


class TestGrammar:
    def test_cusp(self):
        jet, names = parse_polynomial("y^2 - x^3")
        assert names == ["y", "x"]
        assert jet == Jet(2, 24, {(2, 0): 1, (0, 3): -1})

    def test_declared_order(self):
        jet, names = parse_polynomial("y^2 - x^3", var_names=["x", "y"])
        assert names == ["x", "y"]
        assert jet == Jet(2, 24, {(0, 2): 1, (3, 0): -1})

    def test_square_expansion(self):
        jet, names = parse_polynomial("(x + y)^2", var_names=["x", "y"])
        assert jet == Jet(2, 24, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_rational_coefficients(self):
        jet, _ = parse_polynomial("x/2 + 3/4", var_names=["x"])
        assert jet == Jet(1, 24, {(1,): Fraction(1, 2), (0,): Fraction(3, 4)})

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x^(1/2)")
        assert "non-integer exponent" in str(err.value)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^-2")

    def test_division_by_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/x")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + @")
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "argv, message",
        [
            # an exponent is evaluated like any constant: division by zero
            # there is the division error of a coefficient
            (["resolve", "x^(1/0)"], "division is only allowed by a nonzero constant (at position 4)"),
            # a variable in an exponent is named at the '^', even when it cancels
            (["resolve", "y^(x-x)"], "exponents must be constant expressions (at position 1)"),
            # each text is parsed once, in order: the first text's error is
            # reported before the second is read
            (["rectilinearize", "x )", "y $"], "unexpected trailing input ')' (at position 2)"),
        ],
    )
    def test_exponent_and_batch_errors(self, argv, message):
        assert run_cli(argv) == (4, f"error: {message}\n")

    def test_constant_exponent_expressions(self):
        jet, _ = parse_polynomial("x^(1+1) + y^(6/3 - 1)*x^(2*0) + x^(2^2/2)")
        assert jet == Jet(2, 24, {(2, 0): 2, (0, 1): 1})

    def test_numbered_variables(self):
        jet, names = parse_polynomial("x1*x2 - x3^2")
        assert names == ["x1", "x2", "x3"]
        assert jet.coeff((1, 1, 0)) == 1

    def test_shared_frame(self):
        jets, names = parse_many(["x", "x + y"])
        assert names == ["x", "y"]
        assert all(j.nvars == 2 for j in jets)

    def test_unary_minus(self):
        jet, _ = parse_polynomial("-x^2", var_names=["x"])
        assert jet == Jet(1, 24, {(2,): -1})

    @pytest.mark.parametrize(
        "names, message",
        [
            (["x", "y", ""], "variable '' is not a name"),
            (["x", "y", "2"], "variable '2' is not a name"),
            (["x", "y z"], "variable 'y z' is not a name"),
            (["x", "y$"], "variable 'y$' is not a name"),
            (["x", "x"], "variable 'x' is listed twice"),
        ],
    )
    def test_bad_variable_list(self, names, message):
        # a name in the list has no position in the expression
        with pytest.raises(ValueError) as err:
            parse_many(["x^2 - y^3"], names)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_fuzz_no_crashes(self):
        rng = random.Random(1234)
        alphabet = "xy123+-*/^()?. #\t"
        for _ in range(10_000):
            length = rng.randint(0, 24)
            text = "".join(rng.choice(alphabet) for _ in range(length))
            try:
                parse_polynomial(text)
            except ParseError:
                pass  # positioned error is the contract


class TestCliRuns:
    def test_resolve_cusp_exit_zero(self):
        code, text = run_cli(["resolve", "y^2 - x^3", "--emit", "json,dot,text", "--verify"])
        assert code == 0
        assert '"format": "resolvkit-tree/1"' in text
        assert "digraph" in text
        assert "verified: True" in text

    def test_spent_truncation_exits_three(self):
        # a contact coefficient vanishes mid-phase at T=16; T=24 is enough
        code, text = run_cli(["resolve", "y^4+x^4*y^3", "--truncation", "16"])
        assert code == 3
        assert text == (
            "error: contact coefficient q=1 vanished mid-phase to its certified "
            "degree 8; increase the truncation\n"
        )
        code, text = run_cli(["resolve", "y^4+x^4*y^3", "--truncation", "24", "--verify"])
        assert code == 0
        assert "verified: True" in text

    def test_shear_that_spends_the_truncation_exits_three(self):
        # a reduction germ of order 18 keeps 4 certified degrees after its
        # shear, too few for the unit check of its contact derivative
        code, text = run_cli(["resolve", "x*y*z"])
        assert (code, text) == (
            3,
            "error: the shear to the contact hypersurface left certified degree 4, "
            "below the order 18; increase the truncation\n",
        )

    def test_leading_minus_needs_double_dash(self):
        code, text = run_cli(["resolve", "-x^2+y^3"])
        assert code == 4
        assert text.startswith("error: the following arguments are required: expr\n")
        code, text = run_cli(["resolve", "--", "-x^2+y^3"])
        assert code == 0
        assert "blow-ups: 3" in text

    def test_dc_gevrey(self):
        code, text = run_cli(["dc", "gevrey:1"])
        assert code == 0
        assert "log-convex: yes" in text
        assert "not-quasianalytic" in text
        assert "derivation-closed: yes" in text

    def test_dc_constant(self):
        code, text = run_cli(["dc", "constant"])
        assert code == 0
        assert "quasianalytic: quasianalytic" in text

    def test_dc_custom(self):
        code, text = run_cli(["dc", "custom:1,1,3,4"])
        assert code == 0
        assert "log-convex: no (first violation at k=2)" in text
        assert "inconclusive" in text

    def test_dc_custom_prefix_too_short(self):
        for spec, terms in (("custom:1", 1), ("custom:1,2", 2)):
            code, text = run_cli(["dc", spec])
            assert code == 4
            assert text == f"error: a custom prefix needs at least 3 terms, not {terms}\n"

    def test_dc_negative_depth(self):
        for spec in ("gevrey:1", "custom:1,1,3,4"):
            code, text = run_cli(["dc", spec, "--depth", "-3"])
            assert code == 4
            assert text == "error: --depth must be nonnegative, not -3\n"

    def test_dc_depth_below_two_is_raised_to_two(self):
        _, at_two = run_cli(["dc", "custom:1,2,3", "--depth", "2"])
        for depth in ("0", "1"):
            code, text = run_cli(["dc", "custom:1,2,3", "--depth", depth])
            assert code == 0
            assert "None" not in text
            assert text == at_two

    def test_compose(self):
        code, text = run_cli(["compose", "y^2", "x + x^2", "--gamma", "3"])
        assert code == 0
        assert "coefficient at gamma=[3]: 2" in text
        assert "oracle-match: true" in text
        code, text = run_cli(["compose", "y^2", "x^13", "--gamma", "26", "--truncation", "30"])
        assert code == 0
        assert "coefficient at gamma=[26]: 1" in text
        assert "oracle-match: true" in text

    def test_compose_two_components(self):
        code, text = run_cli(["compose", "y1*y2", "x, x^2", "--gamma", "3"])
        assert code == 0
        assert "coefficient at gamma=[3]: 1" in text

    def test_compose_inner_constants(self):
        # (1 + x)^2 = 1 + 2x + x^2 and (1 + x + y)(2 - x) at (1, 1): the outer
        # series must be recentred at the inner map's value at the origin
        code, text = run_cli(["compose", "u^2", "1 + x", "--gamma", "1"])
        assert code == 0
        assert "coefficient at gamma=[1]: 2" in text
        code, text = run_cli(["compose", "u*v", "1 + x + y, 2 - x", "--gamma", "1,1"])
        assert code == 0
        assert "coefficient at gamma=[1, 1]: -1" in text
        assert "oracle-match: true" in text

    def test_compose_negative_gamma_exit_four(self):
        code, text = run_cli(["compose", "u^2", "x", "--gamma", "-1"])
        assert code == 4
        assert "negative entry" in text

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["resolve", "y^2-x^3", "--base-points", "1/0,0"], "zero denominator in '1/0'"),
            (["dc", "gevrey:1/0"], "zero denominator in '1/0'"),
            (["dc", "custom:1,2,1/0"], "zero denominator in '1/0'"),
            # a bad --vars entry would resolve another germ or fail on an index
            (["resolve", "x^2-y^3", "--vars", "x,y,"], "variable '' is not a name"),
            (["resolve", "x^2-y^3", "--vars", "x,y,2"], "variable '2' is not a name"),
            (["resolve", "x^2-y^3", "--vars", "x,x"], "variable 'x' is listed twice"),
            # the oracle's coefficient above the truncation is unknown, not 0
            (["compose", "y^2", "x^13", "--gamma", "26"],
             "|gamma| = 26 exceeds the truncation 24"),
            # errors with no position in an expression name none
            (["resolve", "y^2-x^3", "--emit", "json,xml"], "unknown emit formats: ['xml']"),
            (["resolve", "y^2-x^3", "--base-points", "0"],
             "base point '0' has 1 coordinates, expected 2"),
            (["compose", "y^2", "x", "--gamma", "1,2"], "gamma has 2 entries, expected 1"),
            (["compose", "y^2", "x,x^2", "--gamma", "2"],
             "outer series uses 1 variables but 2 inner components were given"),
            (["dc", "poly:1"], "unknown sequence family 'poly:1'"),
        ],
    )
    def test_bad_value_exit_four(self, argv, message):
        assert run_cli(argv) == (4, f"error: {message}\n")

    def test_input_error_exit_four(self):
        code, text = run_cli(["resolve", "x^(1/2)"])
        assert code == 4
        assert "non-integer exponent" in text

    def test_budget_exit_three(self):
        code, text = run_cli(["resolve", "y^2 - x^3", "--max-blowups", "1"])
        assert code == 3
        assert "budget" in text

    def test_verify_round_trip(self, tmp_path):
        out = tmp_path / "cusp"
        code, text = run_cli(
            ["resolve", "y^2 - x^3", "--emit", "json", "--out", str(out), "--verify"]
        )
        assert code == 0
        code2, text2 = run_cli(["verify", str(out) + ".json"])
        assert code2 == 0
        assert "verified: True" in text2
        # byte-identical reruns
        out2 = tmp_path / "cusp2"
        run_cli(["resolve", "y^2 - x^3", "--emit", "json", "--out", str(out2)])
        assert (tmp_path / "cusp.json").read_text() == (tmp_path / "cusp2.json").read_text()

    def test_verify_rejects_tampered_tree(self, tmp_path):
        out = tmp_path / "t"
        run_cli(["resolve", "y^2 - x^3", "--emit", "json", "--out", str(out)])
        data = json.loads((tmp_path / "t.json").read_text())
        keep = [nd for nd in data["nodes"] if nd["id"] in (0, 1)]
        strict = {"nvars": 2, "trunc": 22, "terms": [[[1, 0], "-1"], [[0, 2], "1"]]}
        keep.append(
            {
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
        )
        data["nodes"] = keep
        (tmp_path / "cut.json").write_text(json.dumps(data))
        code, text = run_cli(["verify", str(tmp_path / "cut.json")])
        assert code == 2
        assert "FAIL" in text

    def test_verify_rejects_tampered_composed_map(self, tmp_path):
        data = _cusp_tree(tmp_path)
        leaf = next(nd for nd in data["nodes"] if nd["kind"] == "Leaf")
        leaf["composed_map"][0]["terms"] = [[[5, 0], "7"]]
        del leaf["composed_map"][1]
        code, text = _verify_data(tmp_path, data)
        assert code == 2
        failing = [line for line in text.splitlines() if "FAIL" in line]
        assert failing == [
            f"leaf {leaf['id']}: FAIL (order=1, crossings=True, total=True, jacobian=True)"
            " reasons=['stored composed map differs from the replay']"
        ]
        assert "verified: False" in text

    def test_rectilinearize_cli(self):
        code, text = run_cli(
            ["rectilinearize", "x", "x + y", "--vars", "x,y", "--verify"]
        )
        assert code == 0
        assert "verified: True" in text

    def test_monomialize_cli(self):
        code, text = run_cli(["monomialize", "x^2*y^3", "--verify"])
        assert code == 0
        assert "blow-ups: 0" in text

    def test_usage_error_exit_four(self):
        code, text = run_cli(["resolve", "y^2-x^3", "--parallel"])
        assert code == 4
        assert text.startswith("error: unrecognized arguments: --parallel")
        code, text = run_cli(["resolve", "y^2-x^3", "--truncation", "abc"])
        assert code == 4
        assert "invalid int value" in text
        with pytest.raises(SystemExit) as exc:
            run_cli(["resolve", "--help"])
        assert exc.value.code == 0

    def test_repeated_main_matches_separate_runs(self, tmp_path):
        """One process builds the parser once; a usage error must not leave
        it unfit for the calls after it."""
        tree = str(tmp_path / "cusp")
        runs = [
            ["resolve", "y^2-x^3", "--parallel"],
            ["resolve", "y^2 - x^3", "--emit", "json", "--out", tree],
            ["verify", tree + ".json"],
            ["resolve", "y^2-x^3", "--truncation", "abc"],
            ["verify", tree + ".json"],
        ]
        in_process = [run_cli(argv) for argv in runs]
        src = os.path.dirname(os.path.dirname(resolvkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        separate = []
        for argv in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "resolvkit.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            separate.append((proc.returncode, proc.stdout))
        assert [code for code, _ in in_process] == [4, 0, 0, 4, 0]
        assert in_process == separate

    def test_algorithm_error_exit_five(self):
        code, text = run_cli(["resolve", "z^3-x*y"])
        assert code == 5
        assert text.startswith("error: ")
        assert "not monomial and comparable" in text


def spent_exceptional(blowup, degree):
    return (
        f"the exceptional of blow-up {blowup} on the root path is the zero jet to its "
        f"certified degree {degree}, too few degrees to compare exceptional factors"
    )


# runs whose leaf holds an exceptional that the drive's shears spent: node,
# and the exceptional's certified degree
SPENT_EXCEPTIONALS = [
    ("resolve", "y^3-x^5", 8, 7, 3),
    ("monomialize", "y^3-x^5", 8, 8, 3),
    ("resolve", "y^4-x^9", 13, 9, 5),
    ("monomialize", "y^4-x^9", 13, 10, 5),
    ("resolve", "(1+y)*(y^3-x^7)", 10, 8, 4),
    ("monomialize", "(1+y)*(y^3-x^7)", 10, 9, 4),
]


@pytest.mark.parametrize("mode, expr, trunc, node, degree", SPENT_EXCEPTIONALS)
def test_spent_exceptional_exits_three(tmp_path, mode, expr, trunc, node, degree):
    """The exceptional-core check of a leaf is undecided when an exceptional
    is zero to its certified degree: exit 3 under --verify and under verify,
    naming the node, the exceptional and the degree."""
    want = (3, f"error: node {node}: {spent_exceptional(1, degree)}\n")
    assert run_cli([mode, expr, "--truncation", str(trunc), "--verify"]) == want
    out = str(tmp_path / "t")
    assert run_cli([mode, expr, "--truncation", str(trunc), "--emit", "json", "--out", out])[0] == 0
    assert run_cli(["verify", str(tmp_path / "t.json")]) == want


def _cusp_tree(tmp_path):
    run_cli(["resolve", "y^2 - x^3", "--emit", "json", "--out", str(tmp_path / "cusp")])
    return json.loads((tmp_path / "cusp.json").read_text())


def _verify_data(tmp_path, data):
    (tmp_path / "edited.json").write_text(json.dumps(data))
    return run_cli(["verify", str(tmp_path / "edited.json")])


def _umbrella_tree(tmp_path):
    # a tree of the Whitney umbrella and a node of it with a 3x3 prep matrix
    run_cli(["resolve", "x^2 - y^2*z", "--emit", "json", "--out", str(tmp_path / "umbrella")])
    data = json.loads((tmp_path / "umbrella.json").read_text())
    node = next(nd for nd in data["nodes"] if nd["prep"] and nd["prep"]["matrix"])
    return data, node


class TestMalformedTree:
    def test_missing_config(self, tmp_path):
        data = _cusp_tree(tmp_path)
        del data["config"]
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "config" in text

    def test_wrong_format(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["format"] = "resolvkit-tree/0"
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "resolvkit-tree/0" in text

    def test_without_parallel_still_verifies(self, tmp_path):
        data = _cusp_tree(tmp_path)
        assert data["config"].pop("parallel") is False
        code, text = _verify_data(tmp_path, data)
        assert code == 0
        assert "verified: True" in text

    def test_prep_with_neither_matrix_nor_shear_reads_as_none(self, tmp_path):
        data = _cusp_tree(tmp_path)
        node = next(nd for nd in data["nodes"] if nd["kind"] == "BlowupChart" and not nd["prep"])
        node["prep"] = {"matrix": None, "shear": None}
        assert resolve.tree_from_json_dict(data).nodes[node["id"]].prep is None
        code, text = _verify_data(tmp_path, data)
        assert code == 0
        assert "verified: True" in text

    def test_missing_node_key(self, tmp_path):
        data = _cusp_tree(tmp_path)
        del data["nodes"][3]["kind"]
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "'kind'" in text

    def test_duplicate_node_id(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["nodes"][2]["id"] = 1
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "node id 1" in text

    def test_unknown_parent(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["nodes"][1]["parent"] = 42
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "parent 42" in text

    def test_node_id_not_an_integer(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["nodes"][2]["id"] = [2]
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "the id of node entry 2 is not an integer" in text

    def test_truncation_not_an_integer(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["config"]["truncation"] = "24"
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "config.truncation is not an integer" in text

    def test_jet_term_not_a_pair_of_exponents_and_coefficient(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["input"][0]["terms"][0] = [1, "2"]
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "input jet 0" in text

    def test_exponent_listed_twice(self, tmp_path):
        data = _cusp_tree(tmp_path)
        terms = data["input"][0]["terms"]
        assert terms[0] == [[2, 0], "1"]
        terms.insert(0, [[2, 0], "5"])
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (
            4, "error: tree JSON: input jet 0 lists exponent [2, 0] twice\n"
        )

    def test_coefficient_with_a_zero_denominator(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["input"][0]["terms"][0][1] = "3/0"
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (
            4, "error: tree JSON: a coefficient of input jet 0 is not a rational number\n"
        )

    @pytest.mark.parametrize("coefficient", ["1" * 5000, "1/" + "7" * 5000])
    def test_coefficient_with_more_digits_than_int_reads(self, tmp_path, coefficient):
        data = _cusp_tree(tmp_path)
        data["input"][0]["terms"][0][1] = coefficient
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (
            4, "error: tree JSON: a coefficient of input jet 0 is not a rational number\n"
        )

    def test_base_point_with_a_zero_denominator(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["nodes"][0]["base_point"] = ["1/0", "0"]
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (
            4, "error: tree JSON: the base point of node 0 is not a rational number\n"
        )

    def test_prep_matrix_entry_with_a_zero_denominator(self, tmp_path):
        data, node = _umbrella_tree(tmp_path)
        node["prep"]["matrix"][0][0] = "1/0"
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (
            4, f"error: tree JSON: the matrix of node {node['id']} is not a rational number\n"
        )

    def test_coefficient_forms_that_are_not_the_writers(self, tmp_path):
        # the writer's "p" and "p/q" are read by int(); any other form that
        # Fraction reads is still accepted, and the tree still verifies
        data = _cusp_tree(tmp_path)
        terms = data["input"][0]["terms"]
        assert [t[1] for t in terms] == ["1", "-1"]
        terms[0][1], terms[1][1] = " 2/2 ", "-1.0"
        code, text = _verify_data(tmp_path, data)
        assert code == 0
        assert "verified: True" in text

    def test_unknown_mode(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["mode"] = "bogus"
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "unknown mode 'bogus'" in text

    def test_base_point_of_the_wrong_length(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["nodes"][0]["base_point"] = ["1"]
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "the base point of node 0 has 1 coordinates, not 2" in text

    def test_input_jet_in_another_frame(self, tmp_path):
        # the frame is the number of variables, not the first input jet's
        data = _cusp_tree(tmp_path)
        jet = data["input"][0]
        jet["nvars"] = 3
        for term in jet["terms"]:
            term[0].append(0)
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "input jet 0 has 3 variables, not 2" in text
        data["variables"].append("z")
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "the base point of node 0 has 2 coordinates, not 3" in text
        data["input"].append(_cusp_tree(tmp_path)["input"][0])
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert "input jet 1 has 2 variables, not 3" in text

    def test_leaf_jet_in_another_frame(self, tmp_path):
        # a jet in another frame is an input error, not a leaf that fails
        data = _cusp_tree(tmp_path)
        node = next(nd for nd in data["nodes"] if nd["kind"] == "Leaf")
        node["leaf_checks"]["ledger"][0]["jet"] = {"nvars": 3, "trunc": 24, "terms": []}
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (
            4, f"error: tree JSON: a ledger jet of node {node['id']} has 3 variables, not 2\n"
        )

    def test_composed_map_not_a_list(self, tmp_path):
        data = _cusp_tree(tmp_path)
        leaf = next(nd for nd in data["nodes"] if nd["kind"] == "Leaf")
        leaf["composed_map"] = 5
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (
            4, f"error: tree JSON: the composed map of node {leaf['id']} is not a list\n"
        )

    def test_composed_map_term_with_a_negative_exponent(self, tmp_path):
        # read like every other jet of the tree: an input error naming the
        # component, not a leaf whose stored map differs from the replay
        data = _cusp_tree(tmp_path)
        leaf = next(nd for nd in data["nodes"] if nd["kind"] == "Leaf")
        leaf["composed_map"][1]["terms"].append([[-1, 0], "1"])
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert text.startswith(
            f"error: tree JSON: component 1 of the composed map of node {leaf['id']}: "
        )

    def test_huge_nvars_is_rejected_before_packing(self, tmp_path):
        # packing a jet in 100000 variables would take about 7.5 GB, so the
        # run is capped at 1.5 GB of address space: a jet packed before its
        # frame is checked ends in a MemoryError there, not in exit 4
        data = _cusp_tree(tmp_path)
        data["input"][0]["nvars"] = 100000
        (tmp_path / "edited.json").write_text(json.dumps(data))
        src = os.path.dirname(os.path.dirname(resolvkit.__file__))
        cap = 1_500_000_000
        proc = subprocess.run(
            [sys.executable, "-m", "resolvkit.cli", "verify", str(tmp_path / "edited.json")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (proc.returncode, proc.stdout) == (
            4, "error: tree JSON: input jet 0 has 100000 variables, not 2\n"
        )

    def test_singular_prep_matrix(self, tmp_path):
        data, node = _umbrella_tree(tmp_path)
        node["prep"]["matrix"][0] = ["0", "0", "0"]
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert f"the prep matrix of node {node['id']} is singular" in text

    def test_prep_matrix_of_the_wrong_size(self, tmp_path):
        data, node = _umbrella_tree(tmp_path)
        node["prep"]["matrix"] = [row[:2] for row in node["prep"]["matrix"][:2]]
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert f"the prep matrix of node {node['id']} is not 3x3" in text
        node["prep"]["matrix"] = [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]]
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert f"the prep matrix of node {node['id']} is not 3x3" in text

    def test_shear_in_the_wrong_frame(self, tmp_path):
        data, node = _umbrella_tree(tmp_path)
        node["prep"]["shear"] = {"nvars": 3, "trunc": 22, "terms": [[[0, 1, 1], "1"]]}
        code, text = _verify_data(tmp_path, data)
        assert code == 4
        assert f"the shear of node {node['id']} is not in 2 variables" in text

    @pytest.mark.parametrize("trunc, message", [
        # the replay breaks an invariant of the algorithm: a bad file, exit 4
        (4, "node 5: exceptional entry 1 vanished under pullback"),
    ])
    def test_input_truncation_edited(self, tmp_path, trunc, message):
        data = _cusp_tree(tmp_path)
        data["input"][0]["trunc"] = trunc
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (4, f"error: {message}\n")

    def test_input_truncation_edited_spends_an_exceptional(self, tmp_path):
        # at truncation 2 the replay holds, but the exceptional pulled forward
        # to leaf 6 is zero: its core check is undecided, exit 3
        data = _cusp_tree(tmp_path)
        data["input"][0]["trunc"] = 2
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (3, "error: node 6: " + spent_exceptional(1, 2) + "\n")

    def test_algorithm_error_in_the_audit(self, tmp_path, monkeypatch):
        # verify reads its tree from a file (exit 4); after a drive the tree
        # is the resolver's own, so the same error stays an internal one (exit 5)
        data = _cusp_tree(tmp_path)

        def broken(tree, leaf, *state):
            raise AlgorithmError("audit invariant")

        monkeypatch.setattr(resolve, "_audit_leaf", broken)
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (4, "error: node 4: audit invariant\n")
        code, text = run_cli(["resolve", "y^2 - x^3", "--verify"])
        assert (code, text) == (5, "error: node 4: audit invariant\n")

    def test_value_error_in_the_verify_after_a_run(self, tmp_path, monkeypatch):
        # the same ValueError is a bad file under verify (exit 4) and a fault
        # of the resolver when it checks the tree it just built (exit 5)
        data = _cusp_tree(tmp_path)

        def broken(tree):
            raise ValueError("node 3: replay fault")

        monkeypatch.setattr(cli, "verify_resolution", broken)
        code, text = _verify_data(tmp_path, data)
        assert (code, text) == (4, "error: node 3: replay fault\n")
        code, text = run_cli(["resolve", "y^2 - x^3", "--verify"])
        assert (code, text) == (5, "error: node 3: replay fault\n")


    @pytest.mark.parametrize(
        "center, chart, message",
        [
            ([], 0, "a center needs at least one coordinate index"),
            ([5], 5, "center indices (5,) out of range for 2 variables"),
            ([-1], -1, "center indices (-1,) out of range for 2 variables"),
            ([0, 1], 5, "chart index 5 is not a center index (0, 1)"),
        ],
    )
    def test_bad_center_or_chart_index(self, tmp_path, center, chart, message):
        data = _cusp_tree(tmp_path)
        node = data["nodes"][1]
        assert (node["center_indices"], node["chart_index"]) == ([0, 1], 0)
        node["center_indices"], node["chart_index"] = center, chart
        assert _verify_data(tmp_path, data) == (4, f"error: node 1: {message}\n")


class TestIncompleteTree:
    """Trees the reader accepts but whose charts do not cover the blow-ups."""

    def test_chart_subtree_removed(self, tmp_path):
        data = _cusp_tree(tmp_path)
        # nodes 9 and 10: chart 1 of the root blow-up and its leaf
        assert [nd["chart_index"] for nd in data["nodes"] if nd["parent"] == 0] == [0, 1]
        data["nodes"] = [nd for nd in data["nodes"] if nd["id"] not in (9, 10)]
        code, text = _verify_data(tmp_path, data)
        assert code == 2
        assert "the blow-up of node 0 along [0, 1] has the charts [0]" in text
        assert "verified: False" in text

    def test_no_nodes(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["nodes"] = []
        code, text = _verify_data(tmp_path, data)
        assert code == 2
        assert "the tree has no leaf" in text

    def test_inner_node_without_children(self, tmp_path):
        data = _cusp_tree(tmp_path)
        data["nodes"] = [nd for nd in data["nodes"] if nd["id"] != 10]
        code, text = _verify_data(tmp_path, data)
        assert code == 2
        assert "node 9 is not a leaf and has no children" in text

    def test_leaf_with_children(self, tmp_path):
        data = _cusp_tree(tmp_path)
        leaf = data["nodes"][4]
        assert leaf["kind"] == "Leaf"
        # a copy of the leaf below it replays to the same, passing, state
        data["nodes"].append(dict(leaf, id=11, parent=4))
        code, text = _verify_data(tmp_path, data)
        assert code == 2
        assert "node 4 is a leaf and has children" in text


    def test_leaf_with_a_preparation(self, tmp_path):
        # the replay applies no preparation at a leaf, so none may be stored
        data = _cusp_tree(tmp_path)
        leaf = data["nodes"][4]
        assert leaf["kind"] == "Leaf" and leaf["prep"] is None
        leaf["prep"] = {"matrix": [["0", "1"], ["1", "0"]], "shear": None}
        code, text = _verify_data(tmp_path, data)
        assert code == 2
        assert "tree: FAIL reasons=['node 4 is a leaf and has a preparation']" in text
        assert "verified: False" in text


class TestReplayWalk:
    """The verifier replays each root path once, depth first, without recursion."""

    def test_deep_chain_of_coordinate_changes(self, tmp_path):
        data = _cusp_tree(tmp_path)
        root, rest = data["nodes"][0], data["nodes"][1:]
        chain = []
        parent = root["id"]
        for nid in range(100, 1700):
            chain.append(
                dict(rest[0], id=nid, parent=parent, prep=None, center_indices=None,
                     chart_index=None, identity=True, budget=None, assumptions=[])
            )
            parent = nid
        for nd in rest:
            if nd["parent"] == root["id"]:
                nd["parent"] = parent
        data["nodes"] = [root] + chain + rest
        code, text = _verify_data(tmp_path, data)
        assert code == 0
        assert "verified: True" in text

    def test_parents_first_but_not_depth_first(self, tmp_path):
        data = _cusp_tree(tmp_path)
        _, expected = _verify_data(tmp_path, data)
        # breadth first: parents still precede their children
        order = [nd for nd in data["nodes"] if nd["parent"] is None]
        for nd in order:
            order.extend(ch for ch in data["nodes"] if ch["parent"] == nd["id"])
        data["nodes"] = order
        leaf_ids = [nd["id"] for nd in order if nd["kind"] == "Leaf"]
        assert leaf_ids == [10, 8, 4, 6]
        code, text = _verify_data(tmp_path, data)
        assert code == 0
        assert sorted(text.splitlines()) == sorted(expected.splitlines())
        # leaves are reported in file order
        reported = [line.split(":")[0] for line in text.splitlines() if line.startswith("leaf ")]
        assert reported == [f"leaf {nid}" for nid in leaf_ids]


class TestDeepNesting:
    """Input nested deeper than the recursion of the parser, the JSON decoder
    or the driver reaches ends in an exit code and one error line."""

    EXPRESSION = "error: an expression is nested too deeply (parentheses, powers or operators)\n"
    TREE_JSON = "error: tree JSON: the file nests arrays or objects too deeply\n"

    def test_parentheses(self):
        nested = "(" * 200 + "x" + ")" * 200 + "^2 - y^3"
        assert run_cli(["resolve", nested]) == (4, self.EXPRESSION)
        # 150 levels still parse, to the germ without parentheses
        nested = "(" * 150 + "x" + ")" * 150 + "^2 - y^3"
        assert run_cli(["resolve", nested]) == run_cli(["resolve", "x^2 - y^3"])

    def test_powers(self):
        assert run_cli(["resolve", "x" + "^1" * 2000 + " - y^2"]) == (4, self.EXPRESSION)

    @pytest.mark.parametrize("opener", ["[", '{"a":'])
    def test_tree_json(self, tmp_path, opener):
        path = tmp_path / "deep.json"
        path.write_text(opener * 1000)
        assert run_cli(["verify", str(path)]) == (4, self.TREE_JSON)

    def test_tree_json_500_deep_decodes(self, tmp_path):
        # to a value that is not a tree
        path = tmp_path / "deep.json"
        path.write_text("[" * 500 + "]" * 500)
        assert run_cli(["verify", str(path)]) == (4, "error: tree JSON: the tree is not an object\n")

    def test_drive(self):
        # the one path of y^2 - x^801 needs about 400 blow-ups
        argv = ["resolve", "y^2 - x^801", "--truncation", "805", "--max-blowups", "1000"]
        want = "error: a path of the resolution tree is nested too deeply for the recursive driver\n"
        assert run_cli(argv) == (3, want)

    def test_drive_250_deep_resolves(self):
        argv = ["resolve", "y^2 - x^501", "--truncation", "505", "--max-blowups", "400"]
        assert run_cli(argv) == (0, (
            "mode: resolve\n"
            "variables: y, x\n"
            "blow-ups: 252\n"
            "leaves: 253\n"
            "strict transform order <= 1 after: 250 blow-ups\n"
            "leaves passed (driver checks): True\n"
        ))
        # and its tree JSON keeps its bytes
        code, text = run_cli(argv + ["--emit", "json"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (code, digest[:16]) == (0, "d61d04b7986d1473")
