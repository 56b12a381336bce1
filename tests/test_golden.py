"""Byte identity of the tree JSON and of the class-calculus solvers.

Every speed-up of the kernel or the driver must leave ``to_json()`` byte for
byte as it was.  These SHA-256 digests pin it for a few bundled inputs and
one dense germ (whose drive runs ``implicit_solve`` on a dense jet), a
3-variable monomialization whose absorb step swaps variables and shears, a
monomialization absorbed at the root because its germ is already monomial, a
resolution whose phase ends in its contact blow-up, and two runs with base
points off the origin, pin the terms of ``implicit_solve``, ``invert_map``
and ``inverse_majorant`` on fixed inputs, and pin a few ``compose_coefficient``
values on fixed tables; a change that alters the JSON on purpose (a new
format) updates them in the same change and says why.  The output of
``resolvkit verify`` on each pinned tree is pinned too, since the verifier's
replay is the path every correctness claim rests on.

``tools/identity_runs.txt`` pins the printout of ``tools/identity_digest.py``:
one line per run of the bench corpus and of its extra runs, then four
digests.  A change that moves output on purpose rewrites that file, so its
diff names each run that moved.
"""

import hashlib
import io
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from resolvkit.carleman import GrowthSequence, inverse_majorant
from resolvkit.cli import main
from resolvkit.faa_di_bruno import compose_coefficient
from resolvkit.parse import parse_many
from resolvkit.resolve import (
    RunConfig,
    monomialize_principal,
    rectilinearize,
    resolve_hypersurface,
)
from resolvkit.series import Jet, PolyMap, implicit_solve, invert_map

RUNS = {
    "resolve": resolve_hypersurface,
    "monomialize": monomialize_principal,
    "rectilinearize": rectilinearize,
}

GOLDEN = [
    pytest.param(
        "resolve", ["y^2 - x^3"], 24,
        "f5bd8d93244a37dd11016b87384f48831494b7e7400f10363a30daf0add61413",
        "c3e260c536cfdf20b40bf6cace794b7b64ce6f82c5ce43ce464012812033d8df",
        id="resolve-cusp",
    ),
    pytest.param(
        "resolve", ["z^2 - x^5 - y^5"], 24,
        "793ebd9a151e2621ac214bb64bf16d2197d548826b7d15ad190396b370499aae",
        "75fab3beb33b40423a32f4aa4de2f6fc21f83ca97ac40854236bf6a7df086db5",
        id="resolve-z2-x5-y5",
    ),
    pytest.param(
        "monomialize", ["y^2 - x^3"], 24,
        "e41c59095ca4e4ea0a3caf7f71d3771342d45b6191c6d69a54b69519fc9a45cb",
        "1aac8bf5e19cf4ff4d903ed2b14e53865fe37b41da2dff16a2fb7650d906bf37",
        id="monomialize-cusp",
    ),
    pytest.param(
        "rectilinearize", ["x", "y", "x - y"], 24,
        "2002fd5ef8c2bbba6a6a97498f5fe67052a0eba8805d58a05bbd072a036cba30",
        "946f9a28d31a913f737a02362ec123630905aa8365e723f7a3d33001ce92b9af",
        id="rectilinearize-three-lines",
    ),
    pytest.param(
        "resolve", ["(1 + 2*y - x^2)*(y^2-x^3)"], 26,
        "0da8a2ca37703484b8b61acbdb3a4459a066fc80b655a48541447354d0347c85",
        "c3e260c536cfdf20b40bf6cace794b7b64ce6f82c5ce43ce464012812033d8df",
        id="resolve-dense-cusp-T26",
    ),
    # its absorb step applies a swap matrix and a nonzero shear in 3 variables
    pytest.param(
        "monomialize", ["z^2 - x^2*y"], 24,
        "68951199ccece101b0c608375a20a2af25a797102338f3af68df6e68aba52fe9",
        "9eba00c5874c83824136dd0f8f821e90be173a7ecf735cac6be2c48b2101e1bb",
        id="monomialize-z2-x2y",
    ),
    # no contact coefficient survives, so its phase ends in the contact blow-up
    pytest.param(
        "resolve", ["(y-x^2)^2"], 24,
        "8a36b7d961f26724d4776e10519454facd01328e43caa275131b1af28ee9414e",
        "f5f53bee62f34ab863fc725f6ea2f270cc44e48ea755ee60606aaac5e526275d",
        id="resolve-double-parabola",
    ),
    # already monomial at the root, of order 1: absorbed at once, by a swap
    pytest.param(
        "monomialize", ["x*(1+y)"], 24,
        "1505df95d1ca44317e691e44d64b879b0d490d7723d79ea8a190b82040c68b2b",
        "6c608506242104ed7d8a53af79ad4e4596dc5aab1d22bc72db3b328ea6abc90e",
        id="monomialize-x-unit",
    ),
]


def _tree(mode, exprs, trunc):
    jets, names = parse_many(exprs, None, trunc)
    arg = jets if mode == "rectilinearize" else jets[0]
    return RUNS[mode](arg, RunConfig(truncation=trunc), names)


@pytest.mark.parametrize("mode, exprs, trunc, digest, verify_digest", GOLDEN)
def test_tree_json_digest(mode, exprs, trunc, digest, verify_digest):
    tree = _tree(mode, exprs, trunc)
    assert hashlib.sha256(tree.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("mode, exprs, trunc, digest, verify_digest", GOLDEN)
def test_verify_output_digest(mode, exprs, trunc, digest, verify_digest, tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(_tree(mode, exprs, trunc).to_json())
    out = io.StringIO()
    assert main(["verify", str(path)], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == verify_digest


# Trees with a covering piece off the origin, made through the CLI's
# --base-points; the digest is of the file that --out writes.
BASE_POINT_GOLDEN = [
    pytest.param(
        ["resolve", "(y-1)^2-x^3", "--vars", "x,y", "--base-points", "0,0;0,1"],
        "ab333e87618fb3083edaa5090c230a386d9c3a539223a9e74a441c592bb7e054",
        "86298bd8d602655540f6f2bdfbd54f8a77e394a1634af77c3bb7770bbf8e002a",
        id="resolve-two-base-points",
    ),
    pytest.param(
        ["rectilinearize", "y^2-x^3", "y - 1 + x", "--vars", "x,y",
         "--base-points", "0,0;0,1;1,0"],
        "d7a8be81aa6b7a0cd87fffe294ca6add4ac17863bd5f9447948387250c22c07e",
        "0f1be8396847af988a6860a793fc55deae091cdf2eaf9de1b35da31853905dae",
        id="rectilinearize-three-base-points",
    ),
]


@pytest.mark.parametrize("argv, digest, verify_digest", BASE_POINT_GOLDEN)
def test_base_point_digests(argv, digest, verify_digest, tmp_path):
    prefix = str(tmp_path / "tree")
    assert main(argv + ["--emit", "json", "--out", prefix], out=io.StringIO()) == 0
    text = (tmp_path / "tree.json").read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    out = io.StringIO()
    assert main(["verify", prefix + ".json"], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == verify_digest


def _terms_digest(jets):
    text = repr([(j.nvars, j.trunc, j.terms()) for j in jets])
    return hashlib.sha256(text.encode()).hexdigest()


def test_invert_map_digest():
    # a map of the plane with invertible linear part and mixed denominators
    T = 11
    g = PolyMap([
        Jet(2, T, {(1, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3), (2, 0): 1,
                   (1, 1): Fraction(-3, 4), (0, 3): Fraction(1, 2)}),
        Jet(2, T, {(1, 0): Fraction(3, 2), (0, 1): 1, (0, 2): Fraction(2, 3),
                   (2, 1): -1, (4, 0): Fraction(-3, 4)}),
    ])
    assert _terms_digest(invert_map(g).components) == (
        "601db07449d20b03026575dce858c5df3b44ac5a8dcecd3a84d34906fb8e5d86"
    )


def test_implicit_solve_digest():
    # a dense 3-variable z with mixed denominators, solved for two of its
    # variables, and a 2-variable z at a truncation above 63, where jets key
    # their terms in wider digits
    z3 = Jet(3, 20, {a: Fraction(a[0] - 2 * a[1] + 3 * a[2] + 1, 1 + (a[0] + 2 * a[2]) % 5)
                     for a in product(range(4), repeat=3) if 1 <= sum(a) <= 3})
    z2 = Jet(2, 70, {(0, 1): Fraction(-2, 3), (1, 0): Fraction(1, 2), (0, 2): Fraction(3, 4),
                     (1, 1): -1, (3, 0): Fraction(5, 7), (0, 3): Fraction(1, 6)})
    solutions = [implicit_solve(z3, 1), implicit_solve(z3, 2), implicit_solve(z2, 1)]
    assert _terms_digest(solutions) == (
        "05acca6dd6ee9926210afdaf2c9a5fbc98609496435c3aa95bc9edb4656cccc4"
    )


def test_inverse_majorant_digest():
    G = inverse_majorant(2, Fraction(3, 2), Fraction(2, 3), Fraction(5, 4),
                         GrowthSequence.gevrey(1), 8)
    assert _terms_digest([G]) == (
        "96e4d0a817a0e4d4527bc9138110c7afee49d887a5761b9ce842240297651f58"
    )


def _table(nvars, lo, hi, coeff):
    return {
        a: coeff(*a)
        for a in product(range(hi + 1), repeat=nvars)
        if lo <= sum(a) <= hi
    }


def test_compose_coefficient_digest():
    # 3 inner components in 3 variables, every table dense with mixed
    # denominators and some explicit zeros, at six gammas of degree 7
    f = _table(3, 0, 7, lambda a, b, c: Fraction(a - 2 * b + c, 1 + (a + 2 * c) % 4))
    gs = [
        _table(3, 1, 3, lambda a, b, c, j=j: Fraction(j + a - b * c, 2 + (j + b) % 3))
        for j in range(3)
    ]
    gammas = [(7, 0, 0), (3, 2, 2), (0, 4, 3), (1, 1, 5), (2, 5, 0), (4, 0, 3)]
    text = repr([compose_coefficient(f, gs, gamma) for gamma in gammas])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "98f9724da5d56e2076a16b31c58804d746be91cceb8fa26d8df9aa2959de9c75"
    )


def test_identity_digest_runs():
    tools = Path(__file__).resolve().parent.parent / "tools"
    proc = subprocess.run(
        [sys.executable, str(tools / "identity_digest.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == (tools / "identity_runs.txt").read_text().splitlines()
