"""The three workloads: their operations and the checks on their outputs.

A workload is built once per set-up from freshly imported resolvkit modules
(``mods``).  ``ops`` is one round: the run repeats whole rounds.  After the
timed phase, :meth:`check` decides which operations failed (a failure is the
same on every repeat, so ``failed`` is a fixed share of ``attempted``) and
lists every problem found by the checks.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
from fractions import Fraction

import corpus
import oracle


class Op:
    """One operation of a round; keeps its first result to compare repeats."""

    def __init__(self, label, fn, data=None):
        self.label, self.fn, self.data = label, fn, data
        self.first = None
        self.repeats_differ = False
        self.raised = None

    def note(self, result):
        if isinstance(result, Exception):
            self.raised = self.raised or f"{type(result).__name__}: {result}"
            result = repr(result)
        if self.first is None:
            self.first = result
        elif result != self.first:
            self.repeats_differ = True


def _cli(mods, argv):
    def run():
        buf = io.StringIO()
        rc = mods.cli.main(argv, out=buf)
        return rc, buf.getvalue()

    return run


def _common_problems(ops):
    out = []
    for op in ops:
        if op.raised:
            out.append(f"{op.label}: raised {op.raised}")
        if op.repeats_differ:
            out.append(f"{op.label}: output differs between repeats")
    return out


# -- checks on a resolution tree ---------------------------------------------------


def library_audit(mods, text):
    """leaf id -> (passed, reasons) from verify_resolution on the tree read
    back from its JSON."""
    tree = mods.resolve.tree_from_json_dict(json.loads(text))
    return {la.leaf_id: (la.passed, la.reasons) for la in mods.resolve.verify_resolution(tree).leaves}


def report_audit(report):
    """leaf id -> (passed, reasons) from the text that ``verify`` prints."""
    out = {}
    for line in report.splitlines():
        m = re.match(r"leaf (\d+): (PASS|FAIL) \(.*?\)(?: reasons=(\[.*\]))?$", line)
        if m:
            out[int(m[1])] = (m[2] == "PASS", tuple(ast.literal_eval(m[3] or "[]")))
    return out


def judge_tree(entry, text, audits):
    """Verdict on one tree JSON: the verifier's per-leaf ``audits`` plus the
    checks made with the benchmark's own arithmetic.  Returns (verdict,
    problems, notes); a problem is a disagreement that no verdict explains."""
    data = json.loads(text)
    problems, notes, own_ok = [], [], True
    names = data["variables"]
    n = len(names)
    trunc = data["config"]["truncation"]
    factors = [oracle.truncate(oracle.parse(e, names), trunc) for e in entry.exprs]
    if entry.mode == "rectilinearize":
        product = {(0,) * n: 1}
        for f in factors:
            product = oracle.mul(product, f, trunc)
        expected_inputs = [product] + factors
    else:
        expected_inputs = factors
    stored_inputs = [oracle.from_json(j)[0] for j in data["input"]]
    if stored_inputs != expected_inputs:
        problems.append("stored input differs from the benchmark's own expansion")
    nodes = {nd["id"]: nd for nd in data["nodes"]}
    leaves = [nd for nd in data["nodes"] if nd["kind"] == "Leaf"]
    if sorted(audits) != sorted(nd["id"] for nd in leaves):
        problems.append("the verifier's report does not cover exactly the tree's leaves")
        return False, problems, notes
    for nd in leaves:
        root = nd
        while root["parent"] is not None:
            root = nodes[root["parent"]]
        base = [Fraction(b) for b in (root["base_point"] or [0] * n)]
        comps = [oracle.from_json(c) for c in nd["composed_map"]]
        if [c.get((0,) * n, 0) for c, _ in comps] != base:
            own_ok = False
            problems.append(f"leaf {nd['id']}: composed map does not send 0 to {base}")
        if entry.mode == "resolve":
            strict, _ = oracle.from_json(nd["leaf_checks"]["strict_transform"])
            if strict and oracle.order(strict) > 1:
                own_ok = False
                problems.append(f"leaf {nd['id']}: stored strict transform has order > 1")
            continue
        # monomial modes: every input factor pulls back to monomial * unit
        t = min(tc for _, tc in comps)
        reasons = audits[nd["id"]][1]
        for k, f in enumerate(factors):
            pulled = oracle.substitute(f, [c for c, _ in comps], n, t)
            if not pulled:  # vanishes up to the truncation: nothing to decide
                continue
            mono = oracle.is_monomial_times_unit(pulled)
            reason = (
                "total transform is not monomial times unit"
                if entry.mode == "monomialize"
                else f"input factor {k} is not monomial times unit"
            )
            if mono == (reason in reasons):
                problems.append(
                    f"leaf {nd['id']}: own arithmetic says monomial={mono}, the verifier disagrees"
                )
            if not mono:
                own_ok = False
                notes.append(
                    f"leaf {nd['id']}: pulled-back factor {k} is not monomial times unit; "
                    f"its lowest-degree part is {format_poly(oracle.leading_form(pulled), names)}"
                )
    all_passed = True
    for leaf_id, (passed, reasons) in sorted(audits.items()):
        if not passed:
            all_passed = False
            notes.append(f"verifier rejects leaf {leaf_id}: {'; '.join(reasons)}")
    return all_passed and own_ok, problems, notes


def format_poly(p, names):
    terms = []
    for e, c in sorted(p.items(), key=lambda t: (sum(t[0]), [-x for x in t[0]])):
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(names, e) if k)
        terms.append(f"{c}" + (f"*{mono}" if mono else ""))
    return " + ".join(terms) or "0"


def _tree_problems(entry, failed, problems):
    out = [f"{entry.label}: {p}" for p in problems]
    if failed and not entry.known_fault:
        out.append(f"{entry.label}: failed, and not a known fault")
    return out


# -- workloads ---------------------------------------------------------------------


class ResolveWorkload:
    """cli.main resolve / monomialize / rectilinearize --emit json, no --verify."""

    name = "resolve"

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        self.entries = corpus.resolve_corpus(seed)
        self.ops = [Op(e.label, _cli(mods, e.argv()), e) for e in self.entries]
        for op in self.ops:  # warm-up round; its outputs are the references
            op.note(op.fn())

    def check(self):
        failed, problems, notes = set(), _common_problems(self.ops), []
        for i, op in enumerate(self.ops):
            entry = op.data
            rc, text = op.first if isinstance(op.first, tuple) else (None, "")
            if rc != 0:
                failed.add(i)
                problems.append(f"{entry.label}: exit code {rc}")
                continue
            verdict, tree_problems, tree_notes = judge_tree(
                entry, text, library_audit(self.mods, text)
            )
            if not verdict:
                failed.add(i)
            problems += _tree_problems(entry, not verdict, tree_problems)
            notes += [f"{entry.label}: {x}" for x in tree_notes]
        return failed, problems, notes


class AuditWorkload:
    """cli.main verify FILE on trees made by the program from the resolve
    corpus of the same seed."""

    name = "audit"

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        self.entries = corpus.resolve_corpus(seed)
        self.paths, self.texts = [], []
        for i, e in enumerate(self.entries):
            prefix = os.path.join(workdir, f"tree{i:02d}")
            rc = mods.cli.main(e.argv() + ["--out", prefix], out=io.StringIO())
            if rc != 0:
                raise RuntimeError(f"{e.label}: making the audit tree exited {rc}")
            with open(prefix + ".json") as fh:
                self.texts.append(fh.read())
            self.paths.append(prefix + ".json")
        self.workdir = workdir
        self.ops = [
            Op(e.label, _cli(mods, ["verify", p]), e) for e, p in zip(self.entries, self.paths)
        ]
        self.ops[0].note(self.ops[0].fn())  # warm-up

    def check(self):
        failed, problems, notes = set(), _common_problems(self.ops), []
        for i, (op, text) in enumerate(zip(self.ops, self.texts)):
            entry = op.data
            rc, report = op.first if isinstance(op.first, tuple) else (None, "")
            if rc != 0:
                failed.add(i)
            verdict, tree_problems, _ = judge_tree(entry, text, report_audit(report))
            problems += _tree_problems(entry, rc != 0, tree_problems)
            if (rc == 0) != verdict:
                problems.append(f"{entry.label}: verify exited {rc}, the checks say {verdict}")
        problems += self._flipped_chart_problems()
        return failed, problems, notes

    def _flipped_chart_problems(self):
        """A cusp tree with one chart index flipped must be rejected."""
        data = json.loads(self.texts[0])
        node = next(nd for nd in data["nodes"] if nd["chart_index"] is not None)
        node["chart_index"] = 1 - node["chart_index"]
        path = os.path.join(self.workdir, "flipped.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        rc = self.mods.cli.main(["verify", path], out=io.StringIO())
        return [] if rc == 2 else [f"a tree with a flipped chart index: verify exited {rc}, not 2"]


class ClassCalculusWorkload:
    """compose_coefficient, invert_map and check_inverse_domination."""

    name = "class-calculus"

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        self.cases = corpus.class_calculus_inputs(seed)
        self.ops = [self._op(c) for c in self.cases]
        for op in self.ops:  # warm-up: fills the decomposition cache, the only one
            if isinstance(op.data, corpus.ComposeCase):
                op.note(op.fn())

    def _op(self, case):
        m = self.mods
        if isinstance(case, corpus.ComposeCase):
            return Op(
                f"compose_coefficient gamma={case.gamma}",
                lambda: m.faa_di_bruno.compose_coefficient(case.f_table, list(case.g_tables), case.gamma),
                case,
            )
        g = m.series.PolyMap([m.series.Jet(2, case.trunc, c) for c in case.comps])
        if case.kind == "invert":
            return Op(f"invert_map T={case.trunc}", lambda: m.series.invert_map(g), case)
        gevrey1 = m.carleman.GrowthSequence.gevrey(1)
        return Op(
            f"check_inverse_domination depth={case.trunc}",
            lambda: m.carleman.check_inverse_domination(g, gevrey1, case.trunc),
            case,
        )

    def check(self):
        failed, problems = set(), _common_problems(self.ops)
        for i, op in enumerate(self.ops):
            case, got = op.data, op.first
            if op.raised:
                failed.add(i)
                continue
            if isinstance(case, corpus.ComposeCase):
                own = oracle.substitute(case.f_table, list(case.g_tables), 3, sum(case.gamma))
                ok = got == own.get(case.gamma, 0)
            elif case.kind == "invert":
                want = [oracle.truncate(c, case.trunc) for c in case.inverse]
                ok = got.trunc == case.trunc and [dict(c.terms()) for c in got.components] == want
            else:
                ok = got[0] is True
            if not ok:
                problems.append(f"{op.label}: result differs from the benchmark's own")
        return failed, problems, []


WORKLOADS = {w.name: w for w in (ResolveWorkload, AuditWorkload, ClassCalculusWorkload)}
