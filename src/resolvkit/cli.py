"""Batch command line front end.

Subcommands: resolve, monomialize, rectilinearize (desingularization runs
emitting JSON/DOT/text artifacts), compose (composite-series coefficient with
an independent cross-check), dc (growth-sequence analysis), and verify
(re-audit of a stored tree).

Exit codes: 0 success with all checks passed, 2 a verifier or compose check
failed (a report is still emitted), 3 truncation or blow-up budget
exhausted (in a run, or in the verifier when an exceptional is spent to its
certified degree), or a resolution path nested too deeply for the recursive
driver, 4 input error (including a malformed tree JSON, a tree whose replay in
``verify`` breaks an invariant of the algorithm, a bad command line, and an
expression or tree JSON nested too deeply to read), 5 an internal invariant of
the algorithm failed in a run (the input is not yet supported).
All output is deterministic: maps are serialized in sorted key order.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .carleman import (
    GrowthSequence,
    derivation_closure_test,
    is_log_convex,
    log_convexity_consequences,
    quasianalytic_test,
)
from .faa_di_bruno import compose_coefficient, jet_to_table
from .parse import ParseError, parse_many, parse_polynomial
from .resolve import (
    AlgorithmError,
    BudgetError,
    MONOMIALIZE,
    RECTILINEARIZE,
    RESOLVE,
    RunConfig,
    monomialize_principal,
    rectilinearize,
    resolve_hypersurface,
    tree_from_json_dict,
    verify_resolution,
)
from .series import Jet, ShapeError, TruncationError, substitute

EXIT_OK = 0
EXIT_CHECKS_FAILED = 2
EXIT_RESOURCES = 3
EXIT_INPUT = 4
EXIT_ALGORITHM = 5


class UsageError(Exception):
    """A bad command line: an input error, not argparse's exit 2."""


class _ArgumentParser(argparse.ArgumentParser):
    # subparsers are made with the class of their parent, so they raise too
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    unchanged, and building it (about 1.7 ms) would cost every call of main."""
    ap = _ArgumentParser(
        prog="resolvkit",
        description="exact resolution of singularities for polynomial jets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_run_options(p, many=False):
        if many:
            p.add_argument("exprs", nargs="+", help="polynomial expressions")
        else:
            p.add_argument("expr", help="polynomial expression, e.g. 'y^2 - x^3'")
        p.add_argument("--vars", help="comma-separated variable order")
        p.add_argument("--truncation", type=int, default=RunConfig.truncation)
        p.add_argument("--max-blowups", type=int, default=RunConfig.max_blowups)
        p.add_argument(
            "--base-points",
            help="semicolon-separated rational points, e.g. '0,0;1,0'",
        )
        p.add_argument("--emit", default="text", help="comma subset of json,dot,text")
        p.add_argument("--out", help="artifact path prefix (default: stdout)")
        p.add_argument("--verify", action="store_true", help="re-audit the finished tree")

    add_run_options(sub.add_parser("resolve", help="resolve a hypersurface germ"))
    add_run_options(sub.add_parser("monomialize", help="principalize: pullback becomes monomial"))
    add_run_options(sub.add_parser("rectilinearize", help="turn zero sets into coordinate unions"), many=True)

    pc = sub.add_parser("compose", help="composite-series coefficient with oracle check")
    pc.add_argument("outer", help="outer series, e.g. 'y^2'")
    pc.add_argument("inner", help="comma-separated inner components, e.g. 'x + x^2'")
    pc.add_argument("--gamma", required=True, help="target exponent, e.g. '3' or '2,1'")
    pc.add_argument("--truncation", type=int, default=RunConfig.truncation)

    pd = sub.add_parser("dc", help="growth-sequence analysis")
    pd.add_argument("family", help="constant | gevrey:<s> | custom:<comma-list>")
    pd.add_argument("--depth", type=int, default=16)

    pv = sub.add_parser("verify", help="re-audit a stored tree JSON")
    pv.add_argument("tree", help="path to a tree JSON file")
    return ap


def _fraction(text: str) -> Fraction:
    """A rational from the command line; "1/0" is an input error, not a crash."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def _parse_base_points(raw, names):
    if not raw:
        return ()
    points = []
    for chunk in raw.split(";"):
        coords = [_fraction(c) for c in chunk.split(",")]
        if len(coords) != len(names):
            raise UsageError(
                f"base point {chunk!r} has {len(coords)} coordinates, expected {len(names)}"
            )
        points.append(tuple(coords))
    return tuple(points)


def _emit_tree(tree, report, args, out):
    emit = [e.strip() for e in args.emit.split(",") if e.strip()]
    unknown = set(emit) - {"json", "dot", "text"}
    if unknown:
        raise UsageError(f"unknown emit formats: {sorted(unknown)}")
    artifacts = {}
    if "json" in emit:
        artifacts["json"] = tree.to_json() + "\n"
    if "dot" in emit:
        artifacts["dot"] = tree.to_dot()
    if "text" in emit:
        lines = [
            f"mode: {tree.mode}",
            f"variables: {', '.join(tree.var_names)}",
            f"blow-ups: {tree.blowup_count}",
            f"leaves: {len(tree.leaves())}",
        ]
        if tree.mode == RESOLVE:
            lines.append(
                f"strict transform order <= 1 after: {tree.smooth_after()} blow-ups"
            )
        for nid, text in tree.assumptions:
            lines.append(f"assumption (node {nid}): {text}")
        if report is not None:
            lines.extend(report.lines())
            lines.append(f"verified: {report.all_passed}")
        else:
            lines.append(f"leaves passed (driver checks): {tree.all_leaves_passed}")
        artifacts["text"] = "\n".join(lines) + "\n"
    if args.out:
        for kind, payload in sorted(artifacts.items()):
            suffix = {"json": ".json", "dot": ".dot", "text": ".txt"}[kind]
            with open(args.out + suffix, "w") as fh:
                fh.write(payload)
            print(f"wrote {args.out + suffix}", file=out)
    else:
        for kind, payload in sorted(artifacts.items()):
            out.write(payload)


def _cmd_run(args, mode, out):
    trunc = args.truncation
    var_names = [v.strip() for v in args.vars.split(",")] if args.vars else None
    if mode == RECTILINEARIZE:
        jets, names = parse_many(args.exprs, var_names, trunc)
    else:
        jet, names = parse_polynomial(args.expr, var_names, trunc)
        jets = [jet]
    config = RunConfig(
        truncation=trunc,
        max_blowups=args.max_blowups,
        base_points=_parse_base_points(args.base_points, names),
    )
    if mode == RESOLVE:
        tree = resolve_hypersurface(jets[0], config, names)
    elif mode == MONOMIALIZE:
        tree = monomialize_principal(jets[0], config, names)
    else:
        tree = rectilinearize(jets, config, names)
    report = None
    if args.verify:
        try:
            report = verify_resolution(tree)
        except ValueError as exc:
            # the tree is the drive's own, not this command's input: a replay
            # that rejects it shows a fault of the resolver, not a bad input
            raise AlgorithmError(str(exc)) from None
    _emit_tree(tree, report, args, out)
    if report is not None and not report.all_passed:
        return EXIT_CHECKS_FAILED
    return EXIT_OK


def _cmd_compose(args, out):
    trunc = args.truncation
    inner_texts = [t.strip() for t in args.inner.split(",")]
    inner, names = parse_many(inner_texts, None, trunc)
    outer, outer_names = parse_polynomial(args.outer, None, trunc)
    if outer.nvars != len(inner):
        raise UsageError(
            f"outer series uses {outer.nvars} variables but {len(inner)} inner "
            "components were given"
        )
    gamma = tuple(int(g) for g in args.gamma.split(","))
    if len(gamma) != len(names):
        raise UsageError(f"gamma has {len(gamma)} entries, expected {len(names)}")
    if sum(gamma) > trunc:
        # coefficients above the truncation are unknown, not zero
        raise UsageError(f"|gamma| = {sum(gamma)} exceeds the truncation {trunc}")
    # f(g) = f(g(0) + (g - g(0))): recentre f at g(0), shift g to vanish there
    constants = [c.constant_term for c in inner]
    shifted = [c - Jet.constant(b, c.nvars, c.trunc) for c, b in zip(inner, constants)]
    coeff = compose_coefficient(
        jet_to_table(outer.recenter(constants)), [jet_to_table(c) for c in shifted], gamma
    )
    oracle = substitute(outer, inner).coeff(gamma)
    match = coeff == oracle
    print(f"coefficient at gamma={list(gamma)}: {coeff}", file=out)
    print(f"substitute oracle: {oracle}", file=out)
    print(f"oracle-match: {str(match).lower()}", file=out)
    return EXIT_OK if match else EXIT_CHECKS_FAILED


def _parse_family(spec: str) -> GrowthSequence:
    if spec == "constant":
        return GrowthSequence.constant()
    if spec.startswith("gevrey:"):
        return GrowthSequence.gevrey(_fraction(spec.split(":", 1)[1]))
    if spec.startswith("custom:"):
        parts = [_fraction(p) for p in spec.split(":", 1)[1].split(",")]
        return GrowthSequence.custom(parts)
    raise UsageError(f"unknown sequence family {spec!r}")


def _cmd_dc(args, out):
    if args.depth < 0:
        raise UsageError(f"--depth must be nonnegative, not {args.depth}")
    depth = max(2, args.depth)  # the least depth log-convexity needs, for all three tests
    m = _parse_family(args.family)
    if m.kind == "custom":
        if len(m.prefix) < 3:  # log-convexity compares m_1^2 with m_0 m_2
            raise ValueError(f"a custom prefix needs at least 3 terms, not {len(m.prefix)}")
        depth = min(depth, len(m.prefix) - 1)
    conv = is_log_convex(m, depth)
    if conv.ok:
        print("log-convex: yes", file=out)
        cons = log_convexity_consequences(m, min(depth, 8))
        print(f"product rule m_j m_k <= m_0 m_(j+k): {'ok' if cons.product_rule_ok else 'FAIL'}", file=out)
        print(f"root growth m_k^(k+1) <= m_0 m_(k+1)^k: {'ok' if cons.root_rule_ok else 'FAIL'}", file=out)
    else:
        print(f"log-convex: no (first violation at k={conv.witness})", file=out)
    qa = quasianalytic_test(m, depth)
    print(f"quasianalytic: {qa}", file=out)
    dc = derivation_closure_test(m, depth)
    if dc.verdict == "closed":
        print("derivation-closed: yes", file=out)
    else:
        print(
            "derivation-closed: inconclusive "
            f"(empirical max ratio {dc.max_ratio} at k={dc.max_index})",
            file=out,
        )
    return EXIT_OK


def _cmd_verify(args, out):
    with open(args.tree) as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # the decoder recurses once a level
            raise ValueError("tree JSON: the file nests arrays or objects too deeply") from None
    tree = tree_from_json_dict(data)
    try:
        report = verify_resolution(tree)
    except AlgorithmError as exc:
        # the tree is this command's input: a replay that breaks an invariant
        # of the algorithm shows a bad file, not a fault of the resolver
        raise ValueError(str(exc)) from None
    for line in report.lines():
        print(line, file=out)
    for nid, text in report.assumptions:
        print(f"assumption (node {nid}): {text}", file=out)
    print(f"verified: {report.all_passed}", file=out)
    return EXIT_OK if report.all_passed else EXIT_CHECKS_FAILED


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "resolve":
            return _cmd_run(args, RESOLVE, out)
        if args.command == "monomialize":
            return _cmd_run(args, MONOMIALIZE, out)
        if args.command == "rectilinearize":
            return _cmd_run(args, RECTILINEARIZE, out)
        if args.command == "compose":
            return _cmd_compose(args, out)
        if args.command == "dc":
            return _cmd_dc(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        raise AssertionError("unreachable")
    except (TruncationError, BudgetError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_RESOURCES
    except (UsageError, ParseError, ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_INPUT
    except AlgorithmError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_ALGORITHM


if __name__ == "__main__":
    sys.exit(main())
