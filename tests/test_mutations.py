"""The verifier rejects corrupted trees.

Each mutation kind makes one change to the tree of a golden run (see
``test_golden.py``), in turn at every place of the tree where that kind
applies, and ``resolvkit verify`` must pass none of the mutated trees.  The
trees hold swap and cyclic permutation matrices and shears, so every kind
meets a site.

Left out on purpose: perturbing the top-degree term of a stored shear.  A
shear is stored to its own truncation, above the degree that any leaf below
it certifies, so no leaf check can see that term; one probe over corpus
trees found the verifier missing such a change 26 times in 82.
"""

import io
import json
from fractions import Fraction
from functools import cache

import pytest

from resolvkit.cli import main

GOLDEN_RUNS = {
    "resolve-cusp": ["resolve", "y^2 - x^3"],
    "resolve-z2-x5-y5": ["resolve", "z^2 - x^5 - y^5"],
    "monomialize-cusp": ["monomialize", "y^2 - x^3"],
    "rectilinearize-three-lines": ["rectilinearize", "x", "y", "x - y"],
    "monomialize-z2-x2y": ["monomialize", "z^2 - x^2*y"],
    "resolve-double-parabola": ["resolve", "(y-x^2)^2"],
    "monomialize-x-unit": ["monomialize", "x*(1+y)"],
}


@cache
def _tree_text(name):
    out = io.StringIO()
    assert main(GOLDEN_RUNS[name] + ["--emit", "json"], out=out) == 0
    return out.getvalue()


def _bump(term):
    """Add one to the coefficient of a jet term [exponents, coefficient]."""
    term[1] = str(Fraction(term[1]) + 1)


def _lowest_term(jet):
    return min(jet["terms"], key=lambda t: (sum(t[0]), t[0]))


# Each mutation kind takes the text of a tree and yields, for each place the
# kind applies to, the place and a freshly parsed tree changed there.


def flipped_chart(text):
    """Two sibling charts of one blow-up trade their chart indices."""
    for pos in range(len(json.loads(text)["nodes"])):
        data = json.loads(text)
        node = data["nodes"][pos]
        center = node["center_indices"] or []
        if len(center) < 2 or node["chart_index"] == center[-1]:
            continue
        other = center[center.index(node["chart_index"]) + 1]
        sibling = next(
            nd for nd in data["nodes"]
            if nd["parent"] == node["parent"]
            and nd["center_indices"] == center
            and nd["chart_index"] == other
        )
        node["chart_index"], sibling["chart_index"] = other, node["chart_index"]
        yield node["id"], data


def _ledger_sites(text, span):
    """(leaf id, ledger, k) for each run of ``span`` entries of a leaf ledger."""
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["kind"] == "Leaf":
            for k in range(len(node["leaf_checks"]["ledger"]) - span + 1):
                data = json.loads(text)
                yield data, node["id"], data["nodes"][pos]["leaf_checks"]["ledger"], k


def dropped_ledger_entry(text):
    for data, nid, ledger, k in _ledger_sites(text, 1):
        del ledger[k]
        yield (nid, k), data


def swapped_ledger_entries(text):
    for data, nid, ledger, k in _ledger_sites(text, 2):
        ledger[k], ledger[k + 1] = ledger[k + 1], ledger[k]
        yield (nid, k), data


def perturbed_prep_matrix_entry(text):
    for pos, node in enumerate(json.loads(text)["nodes"]):
        matrix = (node["prep"] or {}).get("matrix") or []
        for i, j in ((i, j) for i in range(len(matrix)) for j in range(len(matrix))):
            data = json.loads(text)
            row = data["nodes"][pos]["prep"]["matrix"][i]
            row[j] = str(Fraction(row[j]) + 1)
            yield (node["id"], i, j), data


def perturbed_lowest_shear_term(text):
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["prep"] and node["prep"]["shear"] and node["prep"]["shear"]["terms"]:
            data = json.loads(text)
            _bump(_lowest_term(data["nodes"][pos]["prep"]["shear"]))
            yield node["id"], data


def dropped_prep(text):
    """A node loses its preparation; a phase's preparation is stored on each
    chart of its first blow-up, and every one of them needs it."""
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["prep"] is not None:
            data = json.loads(text)
            data["nodes"][pos]["prep"] = None
            yield node["id"], data


def _swap_first_and_last(n):
    """The n x n permutation matrix that swaps the first and last variables."""
    return [[str(int({0: n - 1, n - 1: 0}.get(i, i) == j)) for j in range(n)] for i in range(n)]


def prep_on_leaf(text):
    """A leaf gains a preparation that swaps the first and last variables;
    nothing below a leaf would apply it."""
    swap = _swap_first_and_last(len(json.loads(text)["variables"]))
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["kind"] == "Leaf":
            data = json.loads(text)
            data["nodes"][pos]["prep"] = {"matrix": swap, "shear": None}
            yield node["id"], data


def fields_on_covering(text):
    """A covering piece gains a swap preparation, a center or a chart index;
    the replay reads only its base point."""
    n = len(json.loads(text)["variables"])
    fields = {
        "prep": {"matrix": _swap_first_and_last(n), "shear": None},
        "center_indices": list(range(n)),
        "chart_index": 0,
    }
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["kind"] == "CoveringPiece":
            for key, value in fields.items():
                data = json.loads(text)
                data["nodes"][pos][key] = value
                yield (node["id"], key), data


def base_point_on_chart(text):
    """A blow-up chart gains a base point, which the replay reads only on a
    covering piece."""
    n = len(json.loads(text)["variables"])
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["kind"] == "BlowupChart":
            data = json.loads(text)
            data["nodes"][pos]["base_point"] = [str(5 + 2 * k) for k in range(n)]
            yield node["id"], data


def perturbed_composed_map_term(text):
    for pos, node in enumerate(json.loads(text)["nodes"]):
        for k, component in enumerate(node.get("composed_map") or []):
            if component["terms"]:
                data = json.loads(text)
                _bump(_lowest_term(data["nodes"][pos]["composed_map"][k]))
                yield (node["id"], k), data


def moved_base_point(text):
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["base_point"] is not None:
            data = json.loads(text)
            point = data["nodes"][pos]["base_point"]
            point[0] = str(Fraction(point[0]) + 1)
            yield node["id"], data


def spliced_out_blowup(text):
    """A blow-up node is removed and its children hang from its parent."""
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["center_indices"] is not None:
            data = json.loads(text)
            del data["nodes"][pos]
            for nd in data["nodes"]:
                if nd["parent"] == node["id"]:
                    nd["parent"] = node["parent"]
            yield node["id"], data


def perturbed_leaf_strict_transform(text):
    for pos, node in enumerate(json.loads(text)["nodes"]):
        if node["kind"] == "Leaf" and node["leaf_checks"]["strict_transform"]["terms"]:
            data = json.loads(text)
            _bump(_lowest_term(data["nodes"][pos]["leaf_checks"]["strict_transform"]))
            yield node["id"], data


def perturbed_input_term(text):
    for k in range(len(json.loads(text)["input"][0]["terms"])):
        data = json.loads(text)
        _bump(data["input"][0]["terms"][k])
        yield k, data


MUTATIONS = [
    flipped_chart,
    dropped_ledger_entry,
    swapped_ledger_entries,
    perturbed_prep_matrix_entry,
    perturbed_lowest_shear_term,
    dropped_prep,
    moved_base_point,
    spliced_out_blowup,
    perturbed_leaf_strict_transform,
    perturbed_input_term,
    perturbed_composed_map_term,
    prep_on_leaf,
    fields_on_covering,
    base_point_on_chart,
]


@pytest.mark.parametrize("mutate", MUTATIONS, ids=[m.__name__ for m in MUTATIONS])
def test_verify_rejects_every_mutated_tree(mutate, tmp_path):
    path = tmp_path / "mutated.json"
    tried, passed = 0, []
    for name in GOLDEN_RUNS:
        for site, data in mutate(_tree_text(name)):
            path.write_text(json.dumps(data))
            tried += 1
            if main(["verify", str(path)], out=io.StringIO()) == 0:
                passed.append((name, site))
    assert tried and not passed, f"{len(passed)} of {tried} mutated trees verified: {passed}"


def test_unmutated_trees_verify(tmp_path):
    # the control: the same round trip through json passes on every tree
    path = tmp_path / "tree.json"
    for name in GOLDEN_RUNS:
        path.write_text(json.dumps(json.loads(_tree_text(name))))
        assert main(["verify", str(path)], out=io.StringIO()) == 0, name
