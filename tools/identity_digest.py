"""Print four SHA-256 digests that pin resolvkit's output byte for byte.

    python3 tools/identity_digest.py

Before the four digests it prints one line per ``cli.main`` run of
``corpus`` and ``extra``: the argv, the exit code, and the first 12 hex
digits of the SHA-256 of the run's output and of the output of ``verify``
on it (after ``verify``'s exit code).  ``diff`` of two such printouts names
each run whose output moved.

1. ``corpus``: over ``repr((argv, exit_code, stdout))`` of every ``cli.main``
   run on ``bench/corpus.resolve_corpus`` seeds 1 and 2 (90 runs).
2. ``verify``: over ``repr((argv, exit_code, stdout))`` with the argv of
   each of those runs and the exit code and output of ``cli.main(["verify",
   path])`` on the tree it wrote.
3. ``extra``: over the ``corpus`` and ``verify`` digests of EXTRA, runs
   that reach every route a coordinate preparation takes: an absorb step
   with a swap matrix and a shear, one on a germ that is already monomial
   at the root, covering pieces off the origin, and
   lifted preparations (two runs that exit 5), a phase that ends in its
   contact blow-up, and a run at truncation 70, whose ``implicit_solve``
   calls (at truncations 69 and 67) cross the widening of exponent keys
   above truncation 63.
4. ``class``: over the ``repr`` of the full result of every case of
   ``bench/corpus.class_calculus_inputs`` seeds 1 and 2: the value of
   ``compose_coefficient``, the terms of ``invert_map``, and for a
   domination case the ``ok`` flag and failures of
   ``check_inverse_domination`` (Gevrey order 1) with the terms of the G
   that ``inverse_majorant`` gives on the constants it extracts; then the
   terms of ``majorant_series`` on each of MAJORANTS.

A refactor that must not change the output runs this on the parent commit
and on the change and compares the four last lines.  ``tools/identity_runs.txt``
holds the printout of the current tree, and ``tests/test_golden.py`` checks
that this script still prints it; a change that moves output on purpose
rewrites that file with this script's printout, so its diff names each run
that moved.  The script imports
resolvkit from this checkout's ``src/`` and only reads ``bench/corpus.py``
(and the ``bench/oracle.py`` it imports).
"""

from __future__ import annotations

import hashlib
import io
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files under bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpus import ComposeCase, class_calculus_inputs, resolve_corpus  # noqa: E402

from resolvkit.carleman import (  # noqa: E402
    GrowthSequence,
    check_inverse_domination,
    extract_inverse_constants,
    inverse_majorant,
)
from resolvkit.cli import main  # noqa: E402
from resolvkit.faa_di_bruno import compose_coefficient, majorant_series  # noqa: E402
from resolvkit.series import Jet, PolyMap, invert_map  # noqa: E402

SEEDS = (1, 2)
EXTRA = [
    ["monomialize", "x - y^2"],
    ["monomialize", "x + y^2 + z^3"],
    ["monomialize", "z^2 - x^2*y"],
    ["rectilinearize", "y^2-x^3", "y - 1 + x", "--vars", "x,y",
     "--base-points", "0,0;0,1;1,0"],
    ["resolve", "z^3-x^2*y^2"],
    ["resolve", "z^2 - x^2 - y^3"],
    ["resolve", "(y-x^2)^2"],
    ["monomialize", "(y-x^2)^2"],
    ["resolve", "(1+x+y)*(y^2-x^3)", "--truncation", "70"],
    ["monomialize", "x*(1+y)"],
]
# (lambda, n, p, truncation) for majorant_series
MAJORANTS = [
    (Fraction(1, 2), 1, 3, 8),
    (1, 2, 2, 6),
    (Fraction(7, 3), 3, 3, 6),
    (Fraction(3, 2), 3, 1, 7),
]


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _short(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _hash_runs(argvs, path, lines):
    """Digests of the runs of ``argvs`` and of ``verify`` on each output;
    appends one line per run to ``lines``."""
    runs, verify = hashlib.sha256(), hashlib.sha256()
    for argv in argvs:
        code, text = _run(argv)
        runs.update(repr((argv, code, text)).encode())
        Path(path).write_text(text)
        vcode, vtext = _run(["verify", path])
        verify.update(repr((argv, vcode, vtext)).encode())
        lines.append(
            f"run {shlex.join(argv)} exit {code} {_short(text)} verify {vcode} {_short(vtext)}"
        )
    return runs.hexdigest(), verify.hexdigest()


def _class_result(case, m):
    if isinstance(case, ComposeCase):
        return compose_coefficient(case.f_table, list(case.g_tables), case.gamma)
    g = PolyMap([Jet(2, case.trunc, c) for c in case.comps])
    if case.kind == "invert":
        return [c.terms() for c in invert_map(g).components]
    G = inverse_majorant(len(g), *extract_inverse_constants(g, m), m, case.trunc)
    return check_inverse_domination(g, m, case.trunc), G.terms()


def class_digest():
    m, digest = GrowthSequence.gevrey(1), hashlib.sha256()
    for seed in SEEDS:
        for case in class_calculus_inputs(seed):
            digest.update(repr(_class_result(case, m)).encode())
    for args in MAJORANTS:
        digest.update(repr((args, majorant_series(*args).terms())).encode())
    return digest.hexdigest()


def digests(lines):
    """The four digests; one line per run is appended to ``lines``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "tree.json")
        corpus = [entry.argv() for seed in SEEDS for entry in resolve_corpus(seed)]
        corpus_runs, corpus_verify = _hash_runs(corpus, path, lines)
        extra_argvs = [argv + ["--emit", "json"] for argv in EXTRA]
        extra = hashlib.sha256("".join(_hash_runs(extra_argvs, path, lines)).encode())
    return {
        "corpus": corpus_runs,
        "verify": corpus_verify,
        "extra": extra.hexdigest(),
        "class": class_digest(),
    }


if __name__ == "__main__":
    runs = []
    named = digests(runs)
    for line in runs:
        print(line)
    for name, digest in named.items():
        print(f"{name} {digest}")
