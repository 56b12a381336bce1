"""Quick tests of the benchmark: its own arithmetic, its inputs, its spec, and
a tiny run of each workload (a few operations, one set-up)."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
import oracle
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
F = Fraction


def test_mul_cuts_at_the_truncation():
    a = {(1, 0): F(1), (0, 1): F(1)}  # x + y
    assert oracle.mul(a, a, 2) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert oracle.mul(a, a, 1) == {}


def test_substitute_expands_and_truncates():
    f = oracle.parse("y^2 - x^3", ["x", "y"])
    # x -> t^2, y -> t^3 kills the cusp
    assert oracle.substitute(f, [{(2,): F(1)}, {(3,): F(1)}], 1, 30) == {}
    # x -> x + y, y -> y, cut at degree 2
    got = oracle.substitute(f, [{(1, 0): F(1), (0, 1): F(1)}, {(0, 1): F(1)}], 2, 2)
    assert got == {(0, 2): 1}


def test_parse_expands_like_the_resolvkit_grammar():
    assert oracle.parse("-x^2 + 1/2*y", ["x", "y"]) == {(2, 0): -1, (0, 1): F(1, 2)}
    assert oracle.parse("(1+x)*(y^3-x^5)", ["x", "y"]) == {
        (0, 3): 1, (1, 3): 1, (5, 0): -1, (6, 0): -1,
    }


def test_monomial_times_unit():
    assert oracle.is_monomial_times_unit({(2, 1): F(1), (3, 1): F(5)})
    assert not oracle.is_monomial_times_unit({(1, 0): F(1), (0, 1): F(1)})
    # the known fault's leaf: y^9 (x + y/2)^3 is not monomial times unit
    p = oracle.parse("y^9*(x + y/2)^3", ["x", "y"])
    assert not oracle.is_monomial_times_unit(p)


def test_automorphism_inverse_is_exact():
    g, inv = oracle.automorphism([[1, 2], [-1, 1]], {2: F(3)}, {2: F(-1, 2)})
    ident = [{(1, 0): F(1)}, {(0, 1): F(1)}]
    assert oracle.compose_maps(g, inv, 10**6) == ident
    assert oracle.compose_maps(inv, g, 10**6) == ident


def test_corpus_is_a_function_of_the_seed():
    a, b = corpus.resolve_corpus(3), corpus.resolve_corpus(3)
    assert a == b and a != corpus.resolve_corpus(4)
    assert len(a) == 17 + 5 + 3 + 1 + 2 + len(corpus.FAULT_DENSE) + len(corpus.DENSE_SLOTS)
    faults = [e for e in a if e.known_fault]
    assert [e.kind for e in faults] == ["fault"] * 4
    # failing inputs do not depend on the seed
    assert faults == [e for e in corpus.resolve_corpus(4) if e.known_fault]
    c = corpus.class_calculus_inputs(3)
    assert c == corpus.class_calculus_inputs(3) and c != corpus.class_calculus_inputs(4)


def test_round_sizes_put_percentiles_inside_one_input():
    """With N operations a round, p50 and p90 fall at ranks 0.5 N and 0.9 N
    of each round's sorted costs; N = 5 (mod 10) puts both halfway through
    one input's repeats instead of between two inputs."""
    assert len(corpus.resolve_corpus(1)) % 10 == 5
    assert len(corpus.class_calculus_inputs(1)) % 10 == 5


def test_spec_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.METRICS.items())
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mib",
    ]


@pytest.fixture
def keep_modules():
    """run.fresh_import replaces resolvkit's modules; put the old ones back."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "resolvkit"}
    yield
    for k in [k for k in sys.modules if k.split(".")[0] == "resolvkit"]:
        del sys.modules[k]
    sys.modules.update(saved)


TINY_RESOLVE = [
    corpus.Entry("resolve", ("y^2 - x^3",)),
    corpus.Entry("rectilinearize", ("x", "x + y")),
]


def _tiny_classes(seed):
    g, inv = oracle.automorphism([[1, 1], [0, 1]], {2: F(1)}, {2: F(2)})
    f = {(0, 0, 0): F(1), (1, 1, 0): F(2), (0, 0, 2): F(-1)}
    gs = tuple({(1, 0, 0): F(1), (0, 1, 1): F(3)} for _ in range(3))
    return [
        corpus.ComposeCase(f, gs, (1, 1, 0)),
        corpus.MapCase("invert", tuple(g), tuple(inv), 5),
        corpus.MapCase("domination", tuple(g), tuple(inv), 3),
    ]


@pytest.mark.parametrize("workload", ["resolve", "audit", "class-calculus"])
def test_tiny_run(workload, keep_modules, monkeypatch, capsys):
    monkeypatch.setattr(corpus, "resolve_corpus", lambda seed: TINY_RESOLVE)
    monkeypatch.setattr(corpus, "class_calculus_inputs", _tiny_classes)
    plain = run.run(workload, 1, 0, 0, setups=1, min_ops=1)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mib",
    ]
    traced = [run.run(workload, 1, 0, 1, setups=1, min_ops=1) for _ in range(2)]
    assert all(t["correct"] for t in traced)
    assert list(traced[0]["metrics"]) == list(spans.METRICS)
    counts = [
        {k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"} for t in traced
    ]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", ["resolve", "audit"])
def test_known_fault_is_counted_failed_not_incorrect(workload, keep_modules, monkeypatch, capsys):
    fault = corpus.Entry("resolve", (corpus.KNOWN_FAULT,), kind="fault")
    monkeypatch.setattr(corpus, "resolve_corpus", lambda seed: [TINY_RESOLVE[0], fault])
    result = run.run(workload, 1, 0, 0, setups=1, min_ops=1)
    assert result["correct"]
    assert 2 * result["failed"] == result["attempted"]
