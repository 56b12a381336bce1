"""Inputs of the three workloads, made from the seed alone.

Nothing here imports resolvkit: the program under test receives only the
expressions, tables and maps built below.  Each seeded family has a fixed
plan of slots (the shape of every input and its truncation) and the seed
draws the coefficients, so that every seed gives inputs of about the same
cost and the same verifier verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from oracle import automorphism

DEFAULT_T = 24

# The 17 inputs of BUNDLED in tests/test_acceptance.py.
BUNDLED = [
    ("resolve", ("y^2 - x^3",)),
    ("resolve", ("y^2 - x^2",)),
    ("resolve", ("y - x^2",)),
    ("resolve", ("(y - x^2)^2 - x^5",)),
    ("resolve", ("y^2 - x^5",)),
    ("resolve", ("x^2 - y^2*z",)),
    ("resolve", ("y^3 + x^2*y + x^3",)),
    ("resolve", ("x*y",)),
    ("resolve", ("z^2 + x^2 - y^2",)),
    ("resolve", ("z^2 - x^2*y",)),
    ("resolve", ("z^2 + x^3 + y^3",)),
    ("monomialize", ("x^2*y^3",)),
    ("monomialize", ("y^2 - x^3",)),
    ("rectilinearize", ("x", "y")),
    ("rectilinearize", ("x", "x + y")),
    ("rectilinearize", ("y^2 - x^3",)),
    ("rectilinearize", ("x", "y", "x - y")),
]

# Curve probes that resolve and verify, surfaces (z^2+x^3+y^3 is already
# bundled), and the 4-variable A1 germ.
PROBES = ["y^3-x^5", "y^2-x^7", "y^3-x^7", "y^4-x^9", "(y^2-x^3)*(y^2+x^3)"]
SURFACES = ["z^2-x^5-y^5", "x^2+y^2+z^2", "z^2-x*y"]
A1_4VAR = "x1^2+x2^2+x3^2+x4^2"

# The known verifier fault: a unit times y^3-x^5.  The resolver marks every
# leaf passed; the verifier rejects leaf 9 (resolve: "an exceptional factor of
# the Jacobian is not in the ledger") or leaf 10 (monomialize: "total
# transform is not monomial times unit").  These four inputs are fixed, not
# seeded, so that every run fails the same share of its operations.  The
# fault does not hang on the coefficients: each of the 20 units 1 + c x
# (T=24) and 1 + c y + c' x y (T=28) with c, c' in COEFFS fails the same way.
KNOWN_FAULT = "(1+x)*(y^3-x^5)"
FAULT_DENSE = [("(1 - x)*(y^3-x^5)", 24), ("(1 + y + 2*x*y)*(y^3-x^5)", 28)]

# Dense slots: (germ, truncation, monomials of the unit 1 + sum c_m m).  The
# seed draws each c_m from COEFFS.  Every draw of every slot resolves and
# verifies (checked over all of them).  The last four are cheap (about 15 ms)
# and sit below the median of the sparse costs, so that latency_p50_ms lands
# inside a run of close costs, not at a gap between two inputs.
DENSE_SLOTS = [
    ("y^2-x^3", 24, ("y", "x^2")),
    ("y^2-x^3", 26, ("y", "x^2")),
    ("y^2-x^3", 30, ("x*y",)),
    ("y^2-x^5", 26, ("x", "y")),
    ("y^2-x^5", 30, ("x^2", "x*y")),
    ("y^2-x^7", 28, ("x", "y")),
    ("y^2-x^7", 32, ("x", "y")),
    ("(y - x^2)^2 - x^5", 28, ("y",)),
    ("x*y", 24, ("y", "y^2")),
    ("(y^2-x^3)*(y^2+x^3)", 32, ("y",)),
    ("y^4-x^9", 24, ("x", "x*y")),
    ("y^4-x^9", 28, ("x",)),
    ("y^3-x^7", 24, ("x*y",)),
    ("y^3-x^7", 26, ("x^2",)),
    ("y^4-x^9", 26, ("x^2",)),
]
COEFFS = (1, -1, 2, -2)


@dataclass(frozen=True)
class Entry:
    """One resolvkit run: mode, expressions, truncation."""

    mode: str
    exprs: tuple
    trunc: int = DEFAULT_T
    kind: str = "sparse"  # sparse | fault | dense

    def argv(self):
        out = [self.mode, *self.exprs, "--emit", "json"]
        if self.trunc != DEFAULT_T:
            out += ["--truncation", str(self.trunc)]
        return out

    @property
    def known_fault(self):
        return self.kind == "fault"

    @property
    def label(self):
        return f"{self.mode} {' | '.join(self.exprs)} T={self.trunc}"


def _unit(rng, monomials):
    terms = []
    for m in monomials:
        c = rng.choice(COEFFS)
        terms.append(f"{'-' if c < 0 else '+'} {abs(c)}*{m}")
    return "1 " + " ".join(terms)


def resolve_corpus(seed: int):
    """The resolve workload's entries for one seed, in run order."""
    rng = random.Random(seed)
    out = [Entry(mode, exprs) for mode, exprs in BUNDLED]
    out += [Entry("resolve", (e,)) for e in PROBES + SURFACES + [A1_4VAR]]
    out += [
        Entry(mode, (KNOWN_FAULT,), kind="fault")
        for mode in ("resolve", "monomialize")
    ]
    out += [Entry("resolve", (e,), t, kind="fault") for e, t in FAULT_DENSE]
    for germ, trunc, monomials in DENSE_SLOTS:
        out.append(Entry("resolve", (f"({_unit(rng, monomials)})*({germ})",), trunc, kind="dense"))
    return out


# -- class calculus -------------------------------------------------------------

# compose_coefficient slots: n = p = 3 and |gamma| = 7.  The supports of the
# tables come from PLAN_SEED (fixed), the seed draws only their coefficients,
# so every seed runs the same decompositions against the same table hits.
COMPOSE_GAMMAS = [
    (3, 2, 2), (2, 2, 3), (2, 3, 2), (4, 2, 1), (1, 2, 4), (2, 1, 4),
    (3, 3, 1), (1, 3, 3), (3, 1, 3), (5, 1, 1), (1, 5, 1),
]
COMPOSE_TERMS = (24, 16)  # terms of the outer table, of each inner table
PLAN_SEED = 20010108
INVERT_TRUNCS = (8, 8, 8, 9, 9, 10, 10, 11)
DOMINATION_DEPTHS = (6, 7, 7, 7, 7, 8)
SMALL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))


@dataclass(frozen=True)
class ComposeCase:
    f_table: dict
    g_tables: tuple
    gamma: tuple


@dataclass(frozen=True)
class MapCase:
    kind: str  # invert | domination
    comps: tuple  # exact polynomial components of g
    inverse: tuple  # exact polynomial components of g^-1
    trunc: int  # invert_map truncation, or domination depth


def _support(plan, nvars, lo, hi, count, top):
    """``count`` exponents with degrees in [lo, hi], one of them of degree
    ``top``, so that the table's degree (and its cost) is fixed."""
    exps = [e for e in product(range(hi + 1), repeat=nvars) if lo <= sum(e) <= hi]
    chosen = {plan.choice([e for e in exps if sum(e) == top])}
    while len(chosen) < count:
        chosen.add(plan.choice(exps))
    return sorted(chosen)


def _automorphism(rng):
    """Signs drawn from the seed; the magnitudes are fixed, so every draw
    costs about the same.  The linear part is (1/2) U with U unimodular."""
    s1, s2, s3 = (rng.choice((1, -1)) for _ in range(3))
    rows = [[Fraction(s1, 2), Fraction(s2, 2)], [Fraction(s3, 2), Fraction(s1 * s2 * s3)]]
    return automorphism(rows, {2: Fraction(rng.choice((1, -1)), 2)}, {2: Fraction(rng.choice((3, -3)), 2)})


def class_calculus_inputs(seed: int):
    """The class-calculus workload's cases for one seed, in run order."""
    plan, rng = random.Random(PLAN_SEED), random.Random(seed)
    cases = []
    for gamma in COMPOSE_GAMMAS:
        f = _support(plan, 3, 0, 7, COMPOSE_TERMS[0], 7)
        gs = [_support(plan, 3, 1, 7, COMPOSE_TERMS[1], 1) for _ in range(3)]
        cases.append(ComposeCase(
            {e: rng.choice(SMALL) for e in f},
            tuple({e: rng.choice(SMALL) for e in g} for g in gs),
            gamma,
        ))
    for trunc in INVERT_TRUNCS:
        g, inv = _automorphism(rng)
        cases.append(MapCase("invert", tuple(g), tuple(inv), trunc))
    for depth in DOMINATION_DEPTHS:
        g, inv = _automorphism(rng)
        cases.append(MapCase("domination", tuple(g), tuple(inv), depth))
    return cases
