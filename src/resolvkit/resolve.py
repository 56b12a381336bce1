"""Constructive desingularization of hypersurface germs, with audited trees.

The driver works on germs at chart origins, entirely in exact arithmetic.
One *phase* consists of: a coordinate preparation (a linear change making the
pure derivative of top order nonvanishing, then a shear moving the maximal
contact hypersurface onto {x_n = 0}), extraction of marked coefficient data on
the contact hypersurface, a reduction making all data monomial times unit
(recursively, in one fewer variable, lifted back up chart by chart), and a
loop of combinatorially chosen blow-ups that strictly decreases the scaled
exponent data until the local invariant pair drops.

Every zero test on a jet is only "zero up to the certified truncation"; each
such decision is recorded in the output tree as an auditable assumption.  The
tree carries enough per-node data (preparation, center, chart index) for an
independent replay: the verifier recomputes every leaf from the input and the
chart formulas alone, without reusing any driver state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count, product
from json.encoder import encode_basestring_ascii
from math import factorial

from .blowup import (
    Center,
    ChartMap,
    ExceptionalLedger,
    LedgerEntry,
    MarkedFunction,
    ORIGIN_NEW,
    ORIGIN_STRICT,
    normal_crossings_check,
)
from .series import (
    Jet,
    PolyMap,
    ShapeError,
    TruncationError,
    compose_maps,
    default_names,
    implicit_solve,
    mat_det,
    substitute,
)

RESOLVE = "resolve"
MONOMIALIZE = "monomialize"
RECTILINEARIZE = "rectilinearize"


class BudgetError(RuntimeError):
    """A blow-up budget (per path or per phase stretch) was exhausted."""


class AlgorithmError(AssertionError):
    """An internal invariant failed; the run aborts rather than guess."""


@dataclass(frozen=True)
class RunConfig:
    truncation: int = 24
    max_blowups: int = 64
    base_points: tuple = ()

    def __post_init__(self):
        if self.truncation < 4:
            raise ValueError("truncation must be at least 4")
        if self.max_blowups < 1:
            raise ValueError("max_blowups must be at least 1")


# -- scaled exponent vectors ----------------------------------------------------


@dataclass(frozen=True)
class OmegaScaled:
    """Rational exponent vector stored as naturals scaled by the phase factorial."""

    entries: tuple
    scale: int

    def __post_init__(self):
        if self.scale < 1 or any(e < 0 for e in self.entries):
            raise ValueError("scaled exponents must be natural numbers")

    @property
    def total(self) -> int:
        return sum(self.entries)

    def le(self, other: "OmegaScaled") -> bool:
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def updated(self, center_positions, i: int) -> "OmegaScaled":
        """Exponent update in chart i: entry i becomes the center sum minus one."""
        s = sum(self.entries[j] for j in center_positions)
        new = s - self.scale
        if new < 0:
            raise AlgorithmError("exponent update went negative; data were not comparable")
        entries = list(self.entries)
        entries[i] = new
        return OmegaScaled(tuple(entries), self.scale)


def least_omega(omegas: dict):
    """Key and value of the componentwise least vector; aborts if none exists."""
    items = sorted(omegas.items(), key=lambda kv: (kv[1].entries, str(kv[0])))
    key, om = items[0]
    for _, o2 in items[1:]:
        if not om.le(o2):
            raise AlgorithmError(
                f"exponent data are not totally ordered: {om.entries} vs {o2.entries}"
            )
    return key, om


def monomial_centers(omega: OmegaScaled) -> list:
    """Minimal index sets with scaled sum at least the scale, as ambient centers.

    Entries index the contact-hypersurface coordinates 0..m-1; the returned
    centers live in the ambient m+1 variables with the contact coordinate m
    adjoined.  Ordered by (size, indices); the first is the canonical pick.
    """
    m = len(omega.entries)
    out = []
    for size in range(1, m + 1):
        for I in combinations(range(m), size):
            s = sum(omega.entries[j] for j in I)
            if s >= omega.scale and all(s - omega.scale < omega.entries[i] for i in I):
                out.append(Center(tuple(I) + (m,), m + 1))
    if not out:
        raise ValueError("total exponent below one: the invariant pair already dropped")
    return out


# -- local models ----------------------------------------------------------------


@dataclass(frozen=True)
class LocalModel:
    """Snapshot of one germ: defining jet, exceptional ledger, invariants."""

    g: Jet
    ledger: ExceptionalLedger
    d: int
    s: int

    @property
    def nvars(self) -> int:
        return self.g.nvars


def _model(g: Jet, ledger: ExceptionalLedger) -> LocalModel:
    return LocalModel(g, ledger, g.order() or 0, len(ledger.through_origin()))


@dataclass(frozen=True)
class Preparation:
    """Coordinate work preceding a phase: optional linear change M, then a
    shear x_n -> x_n + phi of the last variable by a series phi in the others.

    ``as_map`` is the one definition of its action, written in closed form;
    the resolver, the verifier's replay and the tree writer all apply a
    preparation through that map."""

    matrix: tuple | None
    shear: Jet | None  # jet in the first n-1 variables; not both None

    @cached_property
    def det(self) -> Fraction:
        """det M, or 1 when there is no matrix; computed once, for the tree
        reader's singular check and the verifier's replay alike."""
        return Fraction(1) if self.matrix is None else mat_det(self.matrix)

    def as_map(self, n: int, trunc: int) -> PolyMap:
        """Parent coordinates as functions of the prepared coordinates:
        component i is sum_k M[i][k] x_k + M[i][n-1] phi, with M the identity
        when there is no matrix and phi zero when there is no shear, at
        truncation min(trunc, phi.trunc)."""
        matrix = self.matrix or tuple(
            tuple(Fraction(int(i == k)) for k in range(n)) for i in range(n)
        )
        if self.shear is None:
            return PolyMap.from_matrix(matrix, trunc)
        t = min(trunc, self.shear.trunc)
        phi = self.shear.with_truncation(t).insert_var(n - 1)
        lin = PolyMap.from_matrix(matrix, t)
        return PolyMap([c + phi.scale(row[n - 1]) for c, row in zip(lin.components, matrix)])


def _apply_prep(prep: Preparation, g: Jet, ledger: ExceptionalLedger, trunc: int = 0):
    """g and the ledger's jets in the prepared coordinates, and the map that
    took them there.  The map is built once, at the largest of their
    truncations and ``trunc``, so that each result keeps
    min(jet.trunc, shear.trunc)."""
    step = prep.as_map(g.nvars, max([trunc, g.trunc] + [e.jet.trunc for e in ledger]))
    return substitute(g, step), ledger.map_jets(lambda jet: substitute(jet, step)), step


def _apply_prep_model(model: LocalModel, prep: Preparation) -> LocalModel:
    g, ledger, _ = _apply_prep(prep, model.g, model.ledger)
    return _model(g, ledger)


def _shear_to_contact(model: LocalModel, matrix, d: int):
    """The preparation of the linear change ``matrix`` (if any) followed by
    the shear of the last variable that makes the (d-1)-th pure derivative in
    it vanish exactly on {x_n = 0}, and the model it prepares; None and the
    model itself when there is neither.  The shear is solved on g after the
    linear change alone; the whole preparation then acts once on g and the
    ledger."""
    n, g = model.nvars, model.g
    if matrix is not None:
        g = substitute(g, PolyMap.from_matrix(matrix, g.trunc))
    phi = implicit_solve(g.nth_partial(n - 1, d - 1), n - 1)
    shear = None if phi.is_zero() else phi
    if matrix is None and shear is None:
        return model, None
    prep = Preparation(matrix, shear)
    return _apply_prep_model(model, prep), prep


def _direction_candidates(n: int, cap: int):
    """Deterministic order: current last variable, the other standard
    directions, then integer vectors of increasing max-norm."""
    yield tuple(1 if j == n - 1 else 0 for j in range(n))
    for i in range(n - 1):
        yield tuple(1 if j == i else 0 for j in range(n))
    for bound in range(1, cap + 1):
        for v in product(range(-bound, bound + 1), repeat=n):
            if max(abs(a) for a in v) != bound:
                continue
            nz = next((a for a in v if a != 0), 0)
            if nz < 0:
                continue
            if sum(1 for a in v if a != 0) == 1:
                continue
            yield v


def _complete_basis(target, n: int):
    """Matrix whose last column is the nonzero target direction, after the
    standard basis vectors in ascending order but the one at the target's
    last nonzero index; that entry of the target keeps the matrix invertible."""
    k = max(j for j, a in enumerate(target) if a != 0)
    cols = [[Fraction(int(r == j)) for r in range(n)] for j in range(n) if j != k]
    cols.append([Fraction(a) for a in target])
    return tuple(tuple(col[r] for col in cols) for r in range(n))


def prepare_local_model(g: Jet, ledger: ExceptionalLedger):
    """Arrange coordinates so the pure order-d derivative in the last variable
    is a unit and the contact hypersurface is exactly {x_n = 0}, with d the
    order of g.

    Returns ``(model, preparation)``, the preparation None when the
    coordinates need no change.  The direction search is deterministic; when
    the contact solution is the zero jet no shear is applied and no certified
    degrees are spent.
    """
    if g.is_zero():
        raise ValueError("cannot prepare the zero jet")
    d = g.order()
    n = g.nvars
    if d < 1:
        raise ValueError("preparation needs a vanishing germ")
    if d >= g.trunc:
        raise TruncationError(f"order {d} is too close to the certified degree {g.trunc}")
    form = g.with_truncation(d)  # the degree-d form, as d is at most the order
    direction = None
    for v in _direction_candidates(n, cap=d + 2):
        if form.eval_at(v) != 0:
            direction = v
            break
    if direction is None:
        raise AlgorithmError("no direction found for a nonzero form")
    # no linear change when the direction is the last axis
    matrix = _complete_basis(direction, n) if any(direction[:-1]) else None
    model, prep = _shear_to_contact(_model(g, ledger), matrix, d)
    if model.g.trunc < d:  # the unit check below needs d - 1 derivatives and a division
        raise TruncationError(
            f"the shear to the contact hypersurface left certified degree "
            f"{model.g.trunc}, below the order {d}; increase the truncation"
        )
    u = model.g.nth_partial(n - 1, d - 1).divide_by_coordinate(n - 1)
    if u.constant_term == 0:
        raise AlgorithmError("contact normalization failed to produce a unit")
    return model, prep


def coefficient_data(model: LocalModel, d: int | None = None):
    """Marked restrictions to the contact hypersurface {x_n = 0}.

    Returns ``(cs, bs)``: cs[q] is the restriction of the q-th pure derivative
    of g with mark d - q for q = 0..d-2 (None when zero up to truncation), and
    bs[eid] the restriction of each through-origin exceptional with mark 1.
    """
    d = model.d if d is None else d
    n = model.nvars
    cs = {}
    for q in range(0, max(0, d - 1)):
        f = model.g if q == 0 else f.partial(n - 1)
        jet = f.restrict_set_zero(n - 1)
        cs[q] = None if jet.is_zero() else MarkedFunction(jet, d - q)
    bs = {}
    for entry in model.ledger.through_origin():
        jet = entry.jet.restrict_set_zero(n - 1)
        bs[entry.eid] = None if jet.is_zero() else MarkedFunction(jet, 1)
    return cs, bs


# -- tree -------------------------------------------------------------------------

KIND_COVERING = "CoveringPiece"
KIND_BLOWUP = "BlowupChart"
KIND_LEAF = "Leaf"
TREE_FORMAT = "resolvkit-tree/1"


@dataclass(eq=False, slots=True)
class Node:
    kind: str
    children: list = ()
    base_point: tuple | None = None
    prep: Preparation | None = None
    center: tuple | None = None
    chart_index: int | None = None
    identity: bool = False
    pair: tuple | None = None
    s_total: int | None = None
    omega: dict | None = None
    assumptions: list = ()
    budget: dict | None = None
    leaf: dict | None = None
    nid: int | None = None
    parent_id: int | None = None
    blowup_index: int = 0
    composed_map: list | None = None  # a leaf's, as read from tree JSON

    def __post_init__(self):
        self.children = list(self.children)
        self.assumptions = list(self.assumptions)


def _walk(roots, step, start):
    """Fold ``step(state, node)`` down every path from ``roots``, depth first,
    yielding each node with the state after it; a prefix shared by several
    leaves is folded once.  An explicit stack, not recursion, so that chains
    deeper than the recursion limit replay too."""
    stack = [(root, start) for root in reversed(roots)]
    while stack:
        node, state = stack.pop()
        state = step(state, node)
        yield node, state
        stack.extend((child, state) for child in reversed(node.children))


class ResolutionTree:
    """Finished run: nodes with parent links, depth first unless read from JSON."""

    def __init__(self, mode, config, input_jets, var_names, nodes):
        self.mode = mode
        self.config = config
        self.input_jets = tuple(input_jets)
        self.var_names = tuple(var_names)
        self.nodes = nodes

    def roots(self):
        return [n for n in self.nodes if n.parent_id is None]

    def leaves(self):
        return [n for n in self.nodes if n.kind == KIND_LEAF]

    @property
    def blowup_count(self) -> int:
        """Number of blow-up events: sibling chart nodes count once."""
        events = {
            n.parent_id for n in self.nodes if n.kind == KIND_BLOWUP and not n.identity
        }
        return len(events)

    @property
    def assumptions(self):
        return [(n.nid, a) for n in self.nodes for a in n.assumptions]

    @property
    def all_leaves_passed(self) -> bool:
        return all(n.leaf and n.leaf.get("passed") for n in self.leaves())

    def smooth_after(self) -> int:
        """Blow-ups needed before the strict transform has order at most one
        at every chart origin from there on (maximized over leaves)."""

        def first_smooth(k, node):
            if k is None and node.pair is not None and node.pair[0] <= 1:
                return node.blowup_index
            return k

        best = 0
        for node, k in _walk(self.roots(), first_smooth, None):
            if node.kind == KIND_LEAF:
                best = max(best, node.blowup_index + 1 if k is None else k)
        return best

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """The tree JSON of format ``/1``: exactly the text of
        ``json.dumps(json.loads(self.to_json()), sort_keys=True, indent=1)``,
        with sorted keys, one space of indent a level and non-ASCII characters
        escaped, so that a tree's bytes are a stable digest.  Its jets stay
        :class:`Jet` objects in the dict that :func:`_write_json` walks, which
        writes each one's text straight from its packed numerators
        (:meth:`Jet.json_text`)."""
        # input coordinates as explicit formulas in each leaf's coordinates
        n = self.input_jets[0].nvars

        def compose(composed, node):
            # A chart is a monomial map, so it composes here as a key shift
            # (ChartMap.pullback) and a base point as a recentering.
            # verify_resolution composes its chart steps through the general
            # substitute on purpose: it builds the strict transform by
            # ChartMap.pullback, so its total-transform check cross-checks
            # the pullback against substitute.
            if node.kind == KIND_COVERING:
                base = node.base_point
                if not any(base or ()):
                    return composed
                return PolyMap([c.recenter(base) for c in composed.components])
            if node.kind == KIND_LEAF:
                return composed
            if node.prep is not None:
                composed = compose_maps(composed, node.prep.as_map(n, composed.trunc))
            if node.center is not None:
                chart = ChartMap(Center(tuple(node.center), n), node.chart_index)
                composed = PolyMap([chart.pullback(c) for c in composed.components])
            return composed

        start = PolyMap.identity(n, self.input_jets[0].trunc)
        composed_maps = {
            node.nid: list(composed.components)
            for node, composed in _walk(self.roots(), compose, start)
            if node.kind == KIND_LEAF
        }
        nodes = []
        for node in self.nodes:
            nd = _node_json(node)
            if node.kind == KIND_LEAF:
                nd["composed_map"] = composed_maps[node.nid]
            nodes.append(nd)
        tree = {
            "format": TREE_FORMAT,
            "mode": self.mode,
            "config": {
                "truncation": self.config.truncation,
                "max_blowups": self.config.max_blowups,
                "parallel": False,  # fixed in format /1; the reader ignores it
            },
            "variables": list(self.var_names),
            "input": list(self.input_jets),
            "nodes": nodes,
            "summary": {
                "blowup_count": self.blowup_count,
                "leaf_count": len(self.leaves()),
                "smooth_after": self.smooth_after(),
                "all_leaves_passed": self.all_leaves_passed,
                "assumption_count": len(self.assumptions),
            },
        }
        out = []
        _write_json(tree, "", out)
        return "".join(out)

    def to_dot(self) -> str:
        lines = ["digraph resolution {", "  node [shape=box, fontsize=10];"]
        for n in self.nodes:
            if n.kind == KIND_LEAF:
                ok = bool(n.leaf and n.leaf.get("passed"))
                color = "palegreen" if ok else "lightcoral"
                lines.append(
                    f'  n{n.nid} [label="leaf {n.nid}\\npair={n.pair}", '
                    f"style=filled, fillcolor={color}];"
                )
            elif n.kind == KIND_BLOWUP:
                tag = "identity " if n.identity else ""
                ctr = "coordinate change" if n.center is None else f"center={list(n.center)} chart={n.chart_index}"
                lines.append(
                    f'  n{n.nid} [label="{tag}blow-up {n.nid}\\n{ctr}\\npair={n.pair}"];'
                )
            else:
                base = None if n.base_point is None else [str(x) for x in n.base_point]
                lines.append(f'  n{n.nid} [label="piece {n.nid}\\nbase={base}"];')
        for n in self.nodes:
            if n.parent_id is not None:
                lines.append(f"  n{n.parent_id} -> n{n.nid};")
        lines.append("}")
        return "\n".join(lines) + "\n"


# the text of a value of these exact types
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _write_json(value, pad: str, out: list) -> None:
    """Append to ``out`` the text that ``json.dumps(value, sort_keys=True,
    indent=1)`` writes for ``value`` nested at the indent ``pad``.

    Only the types tree JSON holds are written: dicts with ``str`` keys,
    lists, strings, ints, booleans and None, and a :class:`Jet` as the object
    of its ``nvars``, ``trunc`` and ``terms`` (:meth:`Jet.json_text`).
    Anything else, such as a float or a non-``str`` key, raises TypeError."""
    text = _JSON_SCALARS.get(type(value))
    if text is not None:
        out.append(text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + " "
        lead = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"tree JSON keys are strings, not {type(key).__name__}")
            out.append(f"{lead}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], inner, out)
            lead = ",\n" + inner
        out.append(f"\n{pad}}}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = pad + " "
        lead = "[\n" + inner
        for v in value:
            out.append(lead)
            _write_json(v, inner, out)
            lead = ",\n" + inner
        out.append(f"\n{pad}]")
    elif isinstance(value, Jet):
        out.append(value.json_text(pad))
    else:
        raise TypeError(f"tree JSON cannot hold a {type(value).__name__}")


def _jet_from_json(d, where: str, nvars: int, wrong_frame: str = "") -> Jet:
    """Read a jet in ``nvars`` variables with the checks of the validating
    ``Jet(...)``; a bad value raises ValueError naming ``where`` (another
    nvars first, as packing costs the square of it, with the text
    ``wrong_frame`` if given).  The coefficients are read as integer ratios
    (:func:`_ratio`) and packed by :meth:`Jet.from_ratios`.  An exponent
    listed twice is a ValueError: the writer lists each once, and ``Jet(...)``
    would sum such terms where a plain map keeps the later one."""
    _require(d, ("nvars", "trunc", "terms"), where)
    if _int(d["nvars"], f"nvars of {where}") != nvars:
        wrong_frame = wrong_frame or f"{where} has {d['nvars']} variables, not {nvars}"
        raise ValueError(f"tree JSON: {wrong_frame}")
    exponent, coefficient = f"an exponent of {where}", f"a coefficient of {where}"
    ratios = {}
    for t in _list(d["terms"], f"the terms of {where}"):
        if not (isinstance(t, list) and len(t) == 2):
            raise ValueError(f"tree JSON: a term of {where} is not [exponents, coefficient]")
        alpha = _ints(t[0], exponent)
        if alpha in ratios:
            raise ValueError(f"tree JSON: {where} lists exponent {list(alpha)} twice")
        ratios[alpha] = _ratio(t[1], coefficient)
    trunc = _int(d["trunc"], f"trunc of {where}")
    try:
        return Jet.from_ratios(nvars, trunc, ratios)
    except ShapeError as exc:
        raise ValueError(f"tree JSON: {where}: {exc}") from None


def _node_json(n: Node) -> dict:
    prep = None
    if n.prep is not None:
        prep = {
            "matrix": None
            if n.prep.matrix is None
            else [[str(x) for x in row] for row in n.prep.matrix],
            "shear": n.prep.shear,
        }
    leaf = None
    if n.leaf is not None:
        leaf = dict(n.leaf)
        leaf["ledger"] = [
            {"eid": e.eid, "origin": e.origin, "jet": e.jet} for e in n.leaf["ledger"]
        ]
    return {
        "id": n.nid,
        "parent": n.parent_id,
        "kind": n.kind,
        "base_point": None if n.base_point is None else [str(x) for x in n.base_point],
        "prep": prep,
        "center_indices": None if n.center is None else list(n.center),
        "chart_index": n.chart_index,
        "identity": n.identity,
        "invariant_pair": None if n.pair is None else list(n.pair),
        "s_total": n.s_total,
        "omega_scaled": n.omega,
        "assumptions": list(n.assumptions),
        "budget": n.budget,
        "blowup_index": n.blowup_index,
        "leaf_checks": leaf,
    }


_TREE_KEYS = ("format", "mode", "config", "variables", "input", "nodes")
_NODE_KEYS = tuple(_node_json(Node(KIND_LEAF)))


def _require(d, keys, where: str):
    """Raise ValueError naming ``where`` unless d is an object with all keys."""
    if not isinstance(d, dict):
        raise ValueError(f"tree JSON: {where} is not an object")
    for k in keys:
        if k not in d:
            raise ValueError(f"tree JSON: {where} has no key {k!r}")


def _int(v, where: str) -> int:
    if type(v) is not int:  # bool is an int subclass, and not a count
        raise ValueError(f"tree JSON: {where} is not an integer")
    return v


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"tree JSON: {where} is not a list")
    return v


def _ratio(v, where: str) -> tuple[int, int]:
    """A rational written as a string (as the writer does) or an integer, as
    its numerator and a positive denominator.  The writer's forms "p" and
    "p/q" (decimal digits, with a leading minus sign on p) are read by
    ``int``; any other text goes through ``Fraction``."""
    if type(v) is str:
        num, slash, den = v.partition("/")
        if (num.isdecimal() or num[:1] == "-" and num[1:].isdecimal()) and (
            den.isdecimal() or not slash
        ):
            try:
                p, q = int(num), int(den) if slash else 1
                if q:
                    return p, q
            except ValueError:  # more digits than int() reads; Fraction fails too
                pass
    if type(v) in (str, int):
        try:
            r = Fraction(v)
            return r.numerator, r.denominator
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"tree JSON: {where} is not a rational number")


def _ints(v, where: str) -> tuple:
    for x in _list(v, where):
        if type(x) is not int:
            _int(x, where)  # raises
    return tuple(v)


def _rationals(v, where: str) -> tuple:
    return tuple(Fraction(*_ratio(x, where)) for x in _list(v, where))


def _matrix(v, where: str) -> tuple:
    return tuple(_rationals(row, where) for row in _list(v, where))


def _opt(v, read, where: str):
    """``None`` as it is, any other value through ``read``."""
    return None if v is None else read(v, where)


def tree_from_json_dict(data: dict) -> "ResolutionTree":
    """Rebuild a tree object from its JSON form for re-auditing.

    Raises ValueError, naming the key or node id, on a wrong format, an
    unknown mode, a missing key, a value of the wrong type, a duplicate node
    id, a parent that does not precede its child, a jet, base point or prep
    matrix not in the frame of ``variables``, a singular prep matrix, a shear
    not in one variable fewer, or a jet that lists one exponent twice.  Jets
    are read with the checks of the validating ``Jet(...)``.
    """
    _require(data, _TREE_KEYS, "the tree")
    if data["format"] != TREE_FORMAT:
        raise ValueError(f"tree JSON: format {data['format']!r} is not {TREE_FORMAT!r}")
    if data["mode"] not in (RESOLVE, MONOMIALIZE, RECTILINEARIZE):
        raise ValueError(f"tree JSON: unknown mode {data['mode']!r}")
    _require(data["config"], ("truncation", "max_blowups"), "config")
    cfg = RunConfig(
        truncation=_int(data["config"]["truncation"], "config.truncation"),
        max_blowups=_int(data["config"]["max_blowups"], "config.max_blowups"),
    )
    inputs = _list(data["input"], "input")
    if not inputs:
        raise ValueError("tree JSON: input is empty")
    var_names = _list(data["variables"], "variables")
    n = len(var_names)
    input_jets = [_jet_from_json(j, f"input jet {k}", n) for k, j in enumerate(inputs)]
    nodes, by_id = [], {}
    for pos, nd in enumerate(_list(data["nodes"], "nodes")):
        _require(nd, _NODE_KEYS, f"node entry {pos}")
        nid = _int(nd["id"], f"the id of node entry {pos}")
        where = f"node {nid}"
        parent_id = _opt(nd["parent"], _int, f"the parent of {where}")
        if nid in by_id:
            raise ValueError(f"tree JSON: node id {nid} occurs twice")
        # a parent must come first: this links children in one pass and
        # rules out parent cycles, so the replay walk reaches every node
        if parent_id is not None and parent_id not in by_id:
            raise ValueError(
                f"tree JSON: node {nid} names parent {parent_id}, which does not precede it"
            )
        if nd["kind"] not in (KIND_COVERING, KIND_BLOWUP, KIND_LEAF):
            raise ValueError(f"tree JSON: {where} has unknown kind {nd['kind']!r}")
        prep = None
        if nd["prep"] is not None:
            _require(nd["prep"], ("matrix", "shear"), f"the prep of {where}")
            matrix = _opt(nd["prep"]["matrix"], _matrix, f"the matrix of {where}")
            if matrix is not None and (len(matrix) != n or any(len(r) != n for r in matrix)):
                raise ValueError(f"tree JSON: the prep matrix of {where} is not {n}x{n}")
            shear = nd["prep"]["shear"]
            if shear is not None:
                frame = f"the shear of {where} is not in {n - 1} variables"
                shear = _jet_from_json(shear, f"the shear of {where}", n - 1, frame)
            if matrix is not None or shear is not None:
                prep = Preparation(matrix, shear)
                if prep.det == 0:
                    raise ValueError(f"tree JSON: the prep matrix of {where} is singular")
        leaf = nd["leaf_checks"]
        if leaf is not None:
            _require(leaf, ("strict_transform", "ledger"), f"the leaf checks of {where}")
            ledger = []
            for e in _list(leaf["ledger"], f"the ledger of {where}"):
                _require(e, ("eid", "jet", "origin"), f"a ledger entry of {where}")
                jet = _jet_from_json(e["jet"], f"a ledger jet of {where}", n)
                ledger.append(LedgerEntry(e["eid"], jet, e["origin"]))
            strict = _jet_from_json(leaf["strict_transform"], f"the strict transform of {where}", n)
            leaf = dict(leaf, strict_transform=strict, ledger=ledger)
        composed_map = nd.get("composed_map")
        if composed_map is not None:
            composed_map = [
                _jet_from_json(c, f"component {k} of the composed map of {where}", n)
                for k, c in enumerate(_list(composed_map, f"the composed map of {where}"))
            ]
        base_point = _opt(nd["base_point"], _rationals, f"the base point of {where}")
        if base_point is not None and len(base_point) != n:
            raise ValueError(
                f"tree JSON: the base point of {where} has {len(base_point)} "
                f"coordinates, not {n}"
            )
        node = Node(
            nd["kind"],
            base_point=base_point,
            prep=prep,
            center=_opt(nd["center_indices"], _ints, f"the center of {where}"),
            chart_index=_opt(nd["chart_index"], _int, f"the chart index of {where}"),
            identity=nd["identity"],
            pair=_opt(nd["invariant_pair"], _ints, f"the invariant pair of {where}"),
            s_total=nd["s_total"],
            omega=nd["omega_scaled"],
            assumptions=_list(nd["assumptions"], f"the assumptions of {where}"),
            budget=nd["budget"],
            leaf=leaf,
            nid=nid,
            parent_id=parent_id,
            blowup_index=nd["blowup_index"],
            composed_map=composed_map,
        )
        if parent_id is not None:
            by_id[parent_id].children.append(node)
        by_id[nid] = node
        nodes.append(node)
    return ResolutionTree(data["mode"], cfg, input_jets, var_names, nodes)


# -- the driver ---------------------------------------------------------------------


@dataclass
class _Ctx:
    config: RunConfig
    mode: str


@dataclass(frozen=True)
class _PhaseState:
    """What a phase fixes at its start: the order d (0 on the exceptional
    front ``front_entry``), the old exceptionals and active contact
    coefficients whose data it reduces, the pair it must not exceed, and the
    budget of the current stretch of monomial blow-ups with the steps spent."""

    d: int
    front_entry: int | None
    old_ids: tuple
    c_keys: tuple
    start_pair: tuple
    stretch_limit: int = 0
    stretch_step: int = 0

    @property
    def scale(self) -> int:  # 1 on an exceptional front, as 0! = 1! = 1
        return factorial(self.d)


def _transform_ledger(ledger: ExceptionalLedger, chart: ChartMap, trunc: int):
    """Strict transforms through one chart, with departed entries dropped,
    then the chart's new exceptional {y_i = 0} at truncation ``trunc``."""
    entries = []
    for e in ledger:
        pulled = chart.pullback(e.jet)
        if pulled.is_zero():
            raise AlgorithmError(f"exceptional entry {e.eid} vanished under pullback")
        power, core = pulled.factor_coordinate_power(chart.chart_index)
        if power > 1:
            raise AlgorithmError(f"exceptional entry {e.eid} is not smooth along the center")
        if core.constant_term != 0:
            continue
        entries.append(LedgerEntry(e.eid, core, ORIGIN_STRICT))
    y = Jet.variable(chart.chart_index, chart.nvars, trunc)
    entries.append(LedgerEntry(ledger.watermark, y, ORIGIN_NEW))
    return ExceptionalLedger(entries, ledger.watermark)


def _chart_model(model: LocalModel, chart: ChartMap, divide: int):
    """The model at the origin of one chart: the pullback of g with ``divide``
    powers of the exceptional coordinate taken out, and the ledger through it."""
    g = chart.pullback(model.g)
    for _ in range(divide):
        g = g.divide_by_coordinate(chart.chart_index)
    return _model(g, _transform_ledger(model.ledger, chart, g.trunc))


def _pair_at(model: LocalModel, phase: _PhaseState | None):
    if phase is None:
        return (model.d, model.s)
    through = {e.eid for e in model.ledger.through_origin()}
    return (model.d, len([i for i in phase.old_ids if i in through]))


def _blowup_node(model, phase, chart, prep=None, assumptions=(), budget=None):
    """The node of one blow-up chart, or of a coordinate change when ``chart``
    is None, whose origin carries ``model``."""
    return Node(
        KIND_BLOWUP,
        prep=prep,
        center=None if chart is None else chart.center.indices,
        chart_index=None if chart is None else chart.chart_index,
        identity=chart is None or chart.center.is_identity_blowup,
        pair=_pair_at(model, phase),
        s_total=model.s,
        assumptions=assumptions,
        budget=budget,
    )


def _check_path_budget(ctx: _Ctx, depth: int):
    if depth > ctx.config.max_blowups:
        raise BudgetError(
            f"a path exceeded the configured blow-up budget ({ctx.config.max_blowups})"
        )


def _leaf_node(model: LocalModel, assumptions=(), **extra):
    """The leaf at an origin whose checks the driver passed; ``extra`` adds
    keys to its leaf checks."""
    checks = {
        "strict_order": model.g.order(),
        "crossings_ok": True,
        "passed": True,
        "strict_transform": model.g,
        "ledger": list(model.ledger),
        **extra,
    }
    return Node(
        KIND_LEAF,
        pair=(model.d, model.s),
        s_total=model.s,
        leaf=checks,
        assumptions=assumptions,
    )


def _continue(model: LocalModel, ctx: _Ctx, depth: int):
    """Decide what happens at this chart origin; returns the child nodes.

    For d <= 1 one crossings report decides: when it passes, the origin is a
    leaf, and in the monomial modes a strict transform of order one is
    absorbed there at once (:func:`_absorb`).  Otherwise a phase starts, on
    the strict transform or, when d is 0, on the newest exceptional."""
    g = model.g
    if g.is_zero():
        assumption = f"input treated as 0 (certified to degree {g.trunc})"
        return [_leaf_node(model, [assumption], degenerate_zero=True)]
    if model.d <= 1:
        crossings = _crossings(model, model.d)
        if crossings.ok:
            if model.d == 1 and ctx.mode != RESOLVE:
                return [_absorb(model, crossings)]
            return [_leaf_node(model)]
    front = max(e.eid for e in model.ledger.through_origin()) if model.d == 0 else None
    return _phase(model, ctx, depth, front_entry=front)


def _crossings(model: LocalModel, d: int):
    """The crossings report of the exceptionals through the origin, together
    with the strict transform when ``d`` is 1."""
    through = [e.jet for e in model.ledger.through_origin()]
    return normal_crossings_check(through, extra=model.g if d == 1 else None)


def _phase(model: LocalModel, ctx: _Ctx, depth: int, front_entry: int | None):
    """One full phase: preparation, data, reduction, monomial-case loop."""
    if front_entry is None:
        d_front = model.d
        _check_trunc(model.g, d_front + 2)
        prepped, prep = prepare_local_model(model.g, model.ledger)
    else:
        d_front = 1
        front = next(e.jet for e in model.ledger if e.eid == front_entry)
        _check_trunc(front, 3)
        _, prep = prepare_local_model(front, ExceptionalLedger())
        prepped = model if prep is None else _apply_prep_model(model, prep)
    assumptions = []
    cs, bs = coefficient_data(prepped, d_front)
    bs.pop(front_entry, None)
    for q, mf in sorted(cs.items()):
        if mf is None:
            assumptions.append(
                f"contact coefficient q={q} treated as 0 "
                f"(certified to degree {prepped.g.trunc - q})"
            )
    for eid, mf in sorted(bs.items()):
        if mf is None:
            t = next(e.jet.trunc for e in prepped.ledger if e.eid == eid)
            assumptions.append(
                f"exceptional restriction id={eid} treated as 0 (certified to degree {t})"
            )
    old_ids = tuple(
        e.eid for e in prepped.ledger.through_origin() if e.eid != front_entry
    )
    phase = _PhaseState(
        d=prepped.d if front_entry is None else 0,
        front_entry=front_entry,
        old_ids=old_ids,
        c_keys=tuple(q for q, mf in sorted(cs.items()) if mf is not None),
        start_pair=(prepped.d, len(old_ids)),
    )
    data = _active_data(cs, bs, phase, prepped.g.trunc)
    if not data:
        nodes = _finish_phase_no_data(prepped, phase, ctx, depth)
    else:
        omegas, comparable = _omega_of(data, phase)
        if omegas is not None and comparable:
            nodes = _monomial_loop(prepped, phase, omegas, ctx, depth)
        else:
            nodes = _reduce_then_loop(prepped, prep, phase, data, ctx, depth, assumptions)
    # the phase's preparation and assumptions go on each node it emits first:
    # every chart of its first blow-up, its contact blow-up, or a first lifted
    # node, which keeps its lifted preparation when the phase has none
    for node in nodes:
        if prep is not None:
            node.prep = prep
        node.assumptions = assumptions + node.assumptions
    return nodes


def _check_trunc(g: Jet, need: int):
    if g.trunc < need:
        raise TruncationError(
            f"certified degree {g.trunc} is too small (need at least {need})"
        )


def _active_data(cs, bs, phase: _PhaseState, trunc: int):
    """The phase's data among ``cs, bs``, the coefficient data of a model
    whose g has truncation ``trunc``: the contact coefficients active at its
    start, and its old exceptionals not tangent to {x_n = 0} (a tangent one
    is left to the contact blow-up at the end)."""
    data = {}
    for q in phase.c_keys:
        if cs[q] is None:
            raise TruncationError(
                f"contact coefficient q={q} vanished mid-phase to its certified "
                f"degree {trunc - q}; increase the truncation"
            )
        data[("c", q)] = cs[q]
    for eid in phase.old_ids:
        if bs.get(eid) is not None:
            data[("b", eid)] = bs[eid]
    return data


def _omega_of(data, phase: _PhaseState):
    """Decompose each datum once, in key order: the scaled exponent vector of
    each and whether those vectors are pairwise comparable, or None and the
    key of the first datum that is not monomial times unit."""
    omegas = {}
    for key, mf in sorted(data.items()):
        dec = mf.jet.monomial_unit_decompose()
        if dec is None:
            return None, key
        factor = phase.scale // mf.mark
        omegas[key] = OmegaScaled(tuple(e * factor for e in dec[0]), phase.scale)
    comparable = all(a.le(b) or b.le(a) for a in omegas.values() for b in omegas.values())
    return omegas, comparable


def _omega_json(omegas, phase):
    return {
        "scale": phase.scale,
        "entries": {f"{k[0]}{k[1]}": list(v.entries) for k, v in sorted(omegas.items())},
    }


def _reduction_product(data, scale: int, assumptions):
    """Product of the powered data and their pairwise nonzero differences."""
    items = sorted(data.items())
    powered = []
    for key, mf in items:
        powered.append((key, mf.jet ** (scale // mf.mark)))
    t = min(pj.trunc for _, pj in powered)
    prod_jet = Jet.constant(1, powered[0][1].nvars, t)
    for _, pj in powered:
        prod_jet = prod_jet * pj.with_truncation(t)
    for i in range(len(powered)):
        for j in range(i + 1, len(powered)):
            diff = powered[i][1].with_truncation(t) - powered[j][1].with_truncation(t)
            if diff.is_zero():
                assumptions.append(
                    f"difference of data {powered[i][0]} and {powered[j][0]} "
                    f"treated as 0 (certified to degree {t})"
                )
                continue
            prod_jet = prod_jet * diff
    if prod_jet.is_zero():
        raise TruncationError(
            "the reduction product vanishes to the certified degree; "
            "increase the truncation"
        )
    return prod_jet


def _reduce_then_loop(prepped, prep, phase, data, ctx, depth, assumptions):
    """Monomialize the data by a lower-dimensional run, lifted chart by chart;
    ``assumptions`` gains the reduction's.  The top lifted nodes will carry
    the phase's ``prep``, so none of them may carry a lifted one too."""
    prod_jet = _reduction_product(data, phase.scale, assumptions)
    sub_ctx = _Ctx(config=ctx.config, mode=MONOMIALIZE)
    sub_children = _run_germ(prod_jet, sub_ctx, depth)
    if prep is not None and any(sd.prep is not None for sd in sub_children):
        raise AlgorithmError("two coordinate preparations met at one node")
    return _lift_walk(sub_children, prepped, phase, ctx, depth)


def _lift_prep(prep: Preparation | None):
    if prep is None:
        return None
    matrix = None
    if prep.matrix is not None:
        m = len(prep.matrix)
        rows = [tuple(list(row) + [Fraction(0)]) for row in prep.matrix]
        rows.append(tuple([Fraction(0)] * m + [Fraction(1)]))
        matrix = tuple(rows)
    shear = None
    if prep.shear is not None:
        shear = prep.shear.insert_var(prep.shear.nvars)
    return Preparation(matrix, shear)


def _lift_transform(sd: Node, umodel: LocalModel):
    """Apply one lifted reduction step to the ambient model.

    Returns ``(child_model, lifted_prep, chart)``; for a pure coordinate
    change the chart is None and the child is the transformed model itself.
    """
    lifted_prep = _lift_prep(sd.prep)
    work = umodel if lifted_prep is None else _apply_prep_model(umodel, lifted_prep)
    if sd.center is None:
        return work, lifted_prep, None
    chart = ChartMap(Center(tuple(sd.center), work.nvars), sd.chart_index)
    if work.g.order_along(chart.center.indices) not in (0, None):
        raise AlgorithmError("a lifted center met the hypersurface equimultiply")
    return _chart_model(work, chart, 0), lifted_prep, chart


def _lift_walk(sub_nodes, umodel, phase, ctx, depth):
    """Mirror a reduction subtree in the ambient frame, then resume the phase."""
    out = []
    for sd in sub_nodes:
        if sd.kind == KIND_LEAF:
            data = _active_data(*coefficient_data(umodel, phase.d), phase, umodel.g.trunc)
            if not data:
                out.extend(_finish_phase_no_data(umodel, phase, ctx, depth))
                continue
            omegas, comparable = _omega_of(data, phase)
            if omegas is None or not comparable:
                raise AlgorithmError(
                    "reduction finished but the data are not monomial and comparable"
                )
            out.extend(_monomial_loop(umodel, phase, omegas, ctx, depth))
            continue
        if sd.kind != KIND_BLOWUP:
            raise AlgorithmError("unexpected node kind inside a reduction subtree")
        child_model, lifted_prep, chart = _lift_transform(sd, umodel)
        if chart is not None:
            _check_path_budget(ctx, depth + 1)
        node = _blowup_node(child_model, phase, chart, lifted_prep, sd.assumptions)
        node.children = _lift_walk(
            sd.children, child_model, phase, ctx, depth + (0 if sd.center is None else 1)
        )
        out.append(node)
    return out


def _finish_phase_no_data(model, phase, ctx, depth):
    """No active data at this origin: either finished, or one contact blow-up."""
    n = model.nvars
    tangent = any(
        e.eid != phase.front_entry and e.jet.restrict_set_zero(n - 1).is_zero()
        for e in model.ledger.through_origin()
    )
    # an endgame front (d = 0) must itself be absorbed to break the crossing
    needs_contact = tangent or phase.d >= 2 or not _crossings(model, phase.d).ok
    if not needs_contact:
        return _continue(model, ctx, depth)
    chart = ChartMap(Center((n - 1,), n), n - 1)
    child_model = _chart_model(model, chart, phase.d)
    _check_path_budget(ctx, depth + 1)
    node = _blowup_node(child_model, phase, chart)
    node.children = _continue(child_model, ctx, depth + 1)
    return [node]


def _monomial_loop(model, phase, omegas, ctx, depth):
    """Blow up combinatorial centers until the invariant pair drops."""
    _, omega = least_omega(omegas)
    if omega.total < omega.scale:
        raise AlgorithmError("monomial loop entered although the pair dropped")
    if phase.stretch_limit == 0:
        phase = replace(phase, stretch_limit=omega.total, stretch_step=0)
    if phase.stretch_step >= phase.stretch_limit:
        raise BudgetError(
            f"phase stretch exceeded its budget of {phase.stretch_limit} blow-ups"
        )
    center = monomial_centers(omega)[0]
    return [_monomial_child(model, center, i, omegas, phase, ctx, depth) for i in center.indices]


def _monomial_child(model, center, i, omegas, phase, ctx, depth):
    """Blow up ``center`` in chart i and continue from the chart origin."""
    m = model.nvars - 1
    chart = ChartMap(center, i)
    if phase.front_entry is None:
        if model.g.order_along(center.indices) != phase.d:
            raise AlgorithmError("the chosen center is not equimultiple for the hypersurface")
    child = _chart_model(model, chart, phase.d)
    positions = [j for j in center.indices if j != m]
    predicted = {} if i == m else {k: om.updated(positions, i) for k, om in omegas.items()}
    _check_path_budget(ctx, depth + 1)
    budget = {"limit": phase.stretch_limit, "step": phase.stretch_step + 1}
    node = _blowup_node(child, phase, chart, budget=budget)
    if tuple(node.pair) > tuple(phase.start_pair):
        raise AlgorithmError(
            f"invariant pair increased: {phase.start_pair} -> {node.pair}"
        )
    if phase.front_entry is None and child.d > phase.d:
        raise AlgorithmError("the order increased across a blow-up")
    through = {e.eid for e in child.ledger.through_origin()}
    front = phase.front_entry
    front_persists = child.d == phase.d if front is None else front in through
    if i == m and phase.front_entry is None and child.d >= max(phase.d, 1):
        raise AlgorithmError("the order failed to drop in the contact chart")
    if i == m or not front_persists:
        node.children = _continue(child, ctx, depth + 1)
        return node
    data = _active_data(*coefficient_data(child, phase.d), phase, child.g.trunc)
    if not data:
        node.children = _finish_phase_no_data(child, phase, ctx, depth + 1)
        return node
    omegas2, key = _omega_of(data, phase)
    if omegas2 is None:
        raise AlgorithmError(f"datum {key} is not monomial times unit")
    for key, om in omegas2.items():
        if key in predicted and predicted[key].entries != om.entries:
            raise AlgorithmError(
                f"exponent bookkeeping mismatch at {key}: predicted "
                f"{predicted[key].entries}, recomputed {om.entries}"
            )
    node.omega = _omega_json(omegas2, phase)
    # The front persists, so every datum keeps its scaled total at least the
    # scale: a c-datum restricts a derivative of order q of a g of order d, so
    # its terms have degree at least its mark d - q, and a b-datum restricts
    # a through-origin exceptional, of mark 1, with no constant term.
    dropped = set(phase.old_ids) - through
    if dropped:
        phase = replace(
            phase,
            old_ids=tuple(x for x in phase.old_ids if x not in dropped),
            stretch_limit=0,
            stretch_step=0,
        )
    else:
        phase = replace(phase, stretch_step=phase.stretch_step + 1)
    node.children = _monomial_loop(child, phase, omegas2, ctx, depth + 1)
    return node


def _run_germ(g: Jet, ctx: _Ctx, depth: int):
    """Entry point for one germ, with no exceptionals yet, at the origin of
    the current frame.  In the monomial modes a germ that is already monomial
    times unit is a leaf, absorbed at once when it has order one."""
    model = _model(g, ExceptionalLedger())
    dec = None if ctx.mode == RESOLVE or g.is_zero() else g.monomial_unit_decompose()
    if dec is None:
        return _continue(model, ctx, depth)
    if model.d == 1:  # a smooth germ alone always crosses normally
        return [_absorb(model, _crossings(model, 1))]
    return [_leaf_node(model, monomial_exponents=list(dec[0]))]


def _absorb(model: LocalModel, crossings):
    """The node of the identity blow-up that absorbs a leaf's smooth strict
    transform in the monomial modes, with the absorbed leaf as its child.

    ``crossings`` is the leaf's passed report, the strict transform last; its
    pivot is swapped to the last variable and a shear makes the strict
    transform that variable, so the blow-up along it leaves the pullback a
    monomial times a unit.
    """
    pivot = crossings.assignments[-1][1]
    n = model.nvars
    matrix = None
    if pivot != n - 1:  # swap the pivot variable with the last one
        swap = {pivot: n - 1, n - 1: pivot}
        matrix = tuple(
            tuple(Fraction(int(swap.get(r, r) == c)) for c in range(n)) for r in range(n)
        )
    work, prep = _shear_to_contact(model, matrix, 1)
    chart = ChartMap(Center((n - 1,), n), n - 1)
    child_model = _chart_model(work, chart, 1)
    if child_model.g.constant_term == 0:
        raise AlgorithmError("absorbing the strict transform failed")
    blow = _blowup_node(child_model, None, chart, prep)
    blow.children = [_leaf_node(child_model, absorbed=True)]
    return blow


def _root_nodes(g: Jet, ctx: _Ctx):
    n = g.nvars
    base_points = ctx.config.base_points or (tuple([0] * n),)
    roots = []
    for pt in base_points:
        pt = tuple(Fraction(p) for p in pt)
        if len(pt) != n:
            raise ShapeError("base point dimension mismatch")
        g0 = g if all(p == 0 for p in pt) else g.recenter(pt)
        model = _model(g0, ExceptionalLedger())
        piece = Node(KIND_COVERING, base_point=pt, pair=(model.d, model.s), s_total=model.s)
        piece.children = _run_germ(g0, ctx, depth=0)
        roots.append(piece)
    return roots


def _drive(mode: str, g: Jet, input_jets, config: RunConfig | None, var_names):
    """Run ``mode`` on the germ g; the tree records ``input_jets``."""
    config = config or RunConfig()
    names = tuple(var_names) if var_names else tuple(default_names(g.nvars))
    if len(names) != g.nvars:  # the tree reader takes its frame from the names
        raise ShapeError(f"{len(names)} variable names for a germ in {g.nvars} variables")
    try:
        roots = _root_nodes(g, _Ctx(config=config, mode=mode))
    except RecursionError:  # the driver recurses a few frames a blow-up
        raise BudgetError(
            "a path of the resolution tree is nested too deeply for the recursive driver"
        ) from None
    ids = count()

    def number(state, node):
        # state: the parent's id and the blow-up events on the path above
        parent_id, blowups = state
        if node.kind == KIND_BLOWUP and not node.identity:
            blowups += 1
        node.nid, node.parent_id, node.blowup_index = next(ids), parent_id, blowups
        return node.nid, blowups

    nodes = [node for node, _ in _walk(roots, number, (None, 0))]
    return ResolutionTree(mode, config, input_jets, names, nodes)


def resolve_hypersurface(g: Jet, config: RunConfig | None = None, var_names=None) -> ResolutionTree:
    """Resolve the hypersurface germ g = 0: at every leaf origin the final
    strict transform has order at most one and crosses the accumulated
    exceptionals (and the Jacobian divisor) normally."""
    return _drive(RESOLVE, g, [g], config, var_names)


def monomialize_principal(g: Jet, config: RunConfig | None = None, var_names=None) -> ResolutionTree:
    """Resolve and then absorb the smooth strict transform: the full pullback
    of g is a monomial times a unit in every leaf chart."""
    return _drive(MONOMIALIZE, g, [g], config, var_names)


def rectilinearize(gs, config: RunConfig | None = None, var_names=None) -> ResolutionTree:
    """Monomialize the product of the inputs; each input then pulls back to a
    monomial times a unit in every leaf chart, so its zero set becomes a union
    of coordinate hyperplanes there."""
    gs = list(gs)
    if not gs:
        raise ValueError("rectilinearize needs at least one input")
    prod_jet = gs[0]
    for g in gs[1:]:
        prod_jet = prod_jet * g
    return _drive(RECTILINEARIZE, prod_jet, [prod_jet] + gs, config, var_names)


# -- independent verification --------------------------------------------------------


@dataclass
class LeafAudit:
    leaf_id: int
    passed: bool
    strict_order: int | None
    crossings_ok: bool
    total_monomial: bool
    jacobian_ok: bool
    factors_ok: bool
    reasons: tuple


@dataclass
class VerifyReport:
    all_passed: bool
    leaves: tuple
    assumptions: tuple
    structure: tuple = ()  # reasons the tree's shape is incomplete

    def lines(self):
        out = []
        if self.structure:
            out.append(f"tree: FAIL reasons={list(self.structure)}")
        for la in self.leaves:
            status = "PASS" if la.passed else "FAIL"
            out.append(
                f"leaf {la.leaf_id}: {status} (order={la.strict_order}, "
                f"crossings={la.crossings_ok}, total={la.total_monomial}, "
                f"jacobian={la.jacobian_ok})"
                + ("" if la.passed else f" reasons={list(la.reasons)}")
            )
        return out


def _structure_problems(tree: ResolutionTree) -> list:
    """Charts missing from the tree: the children of a node that carry one
    center must be exactly one chart per center index, a node has children
    exactly when it is not a leaf, and the tree needs a leaf.  A leaf with a
    preparation is a problem too: the replay would not apply it."""
    out = []
    for node in tree.nodes:
        if node.kind != KIND_LEAF and not node.children:
            out.append(f"node {node.nid} is not a leaf and has no children")
        if node.kind == KIND_LEAF and node.children:
            out.append(f"node {node.nid} is a leaf and has children")
        if node.kind == KIND_LEAF and node.prep is not None:
            out.append(f"node {node.nid} is a leaf and has a preparation")
        charts = {}
        for child in node.children:
            if child.center is not None:
                charts.setdefault(child.center, []).append(child.chart_index)
        for center, indices in charts.items():
            if len(indices) != len(set(center)) or set(indices) != set(center):
                out.append(
                    f"the blow-up of node {node.nid} along {list(center)} "
                    f"has the charts {indices}"
                )
    if not tree.leaves():
        out.append("the tree has no leaf")
    return out


def verify_resolution(tree: ResolutionTree) -> VerifyReport:
    """Replay the whole tree from the input and re-check every leaf.

    The replay uses only chart formulas, preparations, and base points stored
    on the nodes, in one walk down each root path: strict transforms are
    recomputed by factoring maximal exceptional powers from pullbacks, ledgers
    are rebuilt entry by entry, and the composed map (for the total transform
    and the Jacobian determinant) is carried forward with each blow-up's
    exceptional variable.  One preparation map per node serves all three.
    The stored leaf snapshots (and the composed map of a leaf read from tree
    JSON) must match the recomputation exactly, and the tree must hold every
    chart of each blow-up it records.  An error raised
    while replaying or auditing a node is raised again naming the node.
    """
    g_input = tree.input_jets[0]
    n = g_input.nvars

    def replay(state, node):
        # maps: the composed map's n components, then the exceptional
        # variable of each blow-up so far; peels: its codimension and power
        strict, ledger, maps, dets, peels = state
        if node.kind == KIND_COVERING:
            base = node.base_point or tuple([Fraction(0)] * n)
            recentered = [c.recenter(base) for c in maps.components[:n]]
            maps = PolyMap(recentered + list(maps.components[n:]))
            return strict.recenter(base), ledger, maps, dets, peels
        if node.kind == KIND_LEAF:
            return state
        # step: the parent's coordinates as functions of this node's
        prep, step = node.prep, None
        if prep is not None:
            strict, ledger, step = _apply_prep(prep, strict, ledger, maps.trunc)
            dets *= prep.det
        if node.center is not None:
            chart = ChartMap(Center(tuple(node.center), n), node.chart_index)
            pulled = chart.pullback(strict)
            if pulled.is_zero():
                power, strict = 0, pulled
            else:
                power, strict = pulled.factor_coordinate_power(chart.chart_index)
            ledger = _transform_ledger(ledger, chart, strict.trunc)
            chart_map = chart.components(maps.trunc)
            step = chart_map if step is None else compose_maps(step, chart_map)
            peels += ((chart.center.codim, power),)
        if step is not None:
            maps = compose_maps(maps, step)
        if node.center is not None:  # the new exceptional variable, y_i
            maps = PolyMap(maps.components + (Jet.variable(node.chart_index, n, maps.trunc),))
        return strict, ledger, maps, dets, peels

    def named(node, fn, *args):
        """fn(*args), with the node's id put in front of any error it raises."""
        try:
            return fn(*args)
        except (AlgorithmError, ValueError, RuntimeError) as exc:
            exc.args = (f"node {node.nid}: {exc}",)
            raise

    start = (g_input, ExceptionalLedger(), PolyMap.identity(n, g_input.trunc), Fraction(1), ())
    audits = {
        node.nid: named(node, _audit_leaf, tree, node, *state)
        for node, state in _walk(tree.roots(), lambda st, nd: named(nd, replay, st, nd), start)
        if node.kind == KIND_LEAF
    }
    structure = _structure_problems(tree)
    leaves = tuple(audits[leaf.nid] for leaf in tree.leaves())
    return VerifyReport(
        all_passed=not structure and all(a.passed for a in leaves),
        leaves=leaves,
        assumptions=tuple(tree.assumptions),
        structure=tuple(structure),
    )


def _strip_coordinate_factors(jet: Jet, what: str) -> Jet:
    """The jet with every power of a coordinate divided out.  A jet that is
    zero to its certified degree has no such form there, so the check that
    reads it is undecided: TruncationError, naming ``what``."""
    if jet.is_zero():
        raise TruncationError(
            f"{what} is the zero jet to its certified degree {jet.trunc}, "
            "too few degrees to compare exceptional factors"
        )
    for i in range(jet.nvars):
        _, jet = jet.factor_coordinate_power(i)
    return jet


def _agree(a: Jet, b: Jet) -> bool:
    """Whether two jets are equal at the smaller of their truncations."""
    t = min(a.trunc, b.trunc)
    return a.with_truncation(t) == b.with_truncation(t)


def _times_powers(jet: Jet, powers) -> Jet:
    """jet times pv**k for each (pv, k) of ``powers`` with k > 0, each
    product at the smaller truncation of its factors."""
    for pv, k in powers:
        if k > 0:
            t = min(jet.trunc, pv.trunc)
            jet = jet.with_truncation(t) * (pv.with_truncation(t) ** k)
    return jet


def _audit_leaf(tree, leaf, strict, ledger, maps, dets, peels) -> LeafAudit:
    """Check one leaf against the state the replay carried down its root path.

    The first n components of ``maps`` are the composed map to the input
    frame.  The others are, for each blow-up of the path from the root down,
    its exceptional variable pulled forward through every later step, in the
    leaf's coordinates at the composed map's truncation; ``peels`` holds the
    codimension of its center and the power divided out of the strict
    transform there.

    The strict transform, the ledger and (on a leaf read from tree JSON that
    has one) the composed map the writer stored must match the replay.  Every
    failed check appends a reason, and the leaf passes when there is none."""
    g_input = tree.input_jets[0]
    n = g_input.nvars
    composed = PolyMap(maps.components[:n])
    exceptionals = [(e, codim, power) for e, (codim, power) in zip(maps.components[n:], peels)]
    reasons = []
    # stored-vs-recomputed comparison
    stored = leaf.leaf or {}
    st = stored.get("strict_transform")
    if st is not None and not _agree(st, strict):
        reasons.append("stored strict transform differs from the replay")
    stored_ledger = stored.get("ledger")
    if stored_ledger is not None:
        if len(stored_ledger) != len(ledger):
            reasons.append("stored ledger size differs from the replay")
        else:
            for a, b in zip(stored_ledger, ledger):
                if a.eid != b.eid or not _agree(a.jet, b.jet):
                    reasons.append(f"ledger entry {a.eid} differs from the replay")
                    break
    stored_map = leaf.composed_map
    if stored_map is not None and stored_map != list(composed.components):
        reasons.append("stored composed map differs from the replay")
    # leaf conditions (mode dependent: resolution wants a smooth strict
    # transform, monomialization wants the whole pullback monomial)
    monomial_mode = tree.mode in (MONOMIALIZE, RECTILINEARIZE)
    strict_order = strict.order()
    smooth_check = not monomial_mode and not strict.is_zero()
    if smooth_check and strict_order > 1:
        reasons.append(f"strict transform has order {strict_order}")
    through_entries = ledger.through_origin()
    through = [e.jet for e in through_entries]
    extra = strict if smooth_check and strict_order == 1 else None
    rep = normal_crossings_check(through, extra=extra)
    crossings_ok = rep.ok
    if not rep.ok:
        reasons.append(f"normal crossings failed: {rep.reason}")
    # total transform: must equal the strict transform times the peeled
    # exceptional powers, and be monomial times unit in monomial modes
    total = substitute(g_input, composed)
    total_ok = _agree(total, _times_powers(strict, [(pv, p) for pv, _, p in exceptionals]))
    if not total_ok:
        reasons.append("total transform does not match strict times exceptionals")
    if monomial_mode and not total.is_zero():
        if total.monomial_unit_decompose() is None:
            total_ok = False
            reasons.append("total transform is not monomial times unit")
    # Jacobian determinant: chain-rule factorization over the charts
    det_jet = composed.jacobian_det()
    rhs = Jet.constant(dets, n, det_jet.trunc)
    jac_ok = _agree(det_jet, _times_powers(rhs, [(pv, c - 1) for pv, c, _ in exceptionals]))
    if not jac_ok:
        reasons.append("Jacobian determinant does not match its chart factorization")
    else:
        cores = [
            _strip_coordinate_factors(e.jet, f"ledger entry {e.eid}")
            for e in through_entries
        ]
        for k, (core, codim, _) in enumerate(exceptionals):
            if codim <= 1:
                continue
            what = f"the exceptional of blow-up {k + 1} on the root path"
            core = _strip_coordinate_factors(core, what)
            if core.is_unit():
                continue
            tt = min([core.trunc] + [c.trunc for c in cores]) if cores else core.trunc
            if not any(core.with_truncation(tt) == c.with_truncation(tt) for c in cores):
                jac_ok = False
                reasons.append("an exceptional factor of the Jacobian is not in the ledger")
                break
    # per-factor checks for rectilinearization
    factors_ok = True
    if tree.mode == RECTILINEARIZE:
        for k, f in enumerate(tree.input_jets[1:]):
            pf = substitute(f, composed)
            if pf.is_zero() or pf.monomial_unit_decompose() is None:
                factors_ok = False
                reasons.append(f"input factor {k} is not monomial times unit")
    return LeafAudit(
        leaf_id=leaf.nid,
        passed=not reasons,
        strict_order=strict_order,
        crossings_ok=crossings_ok,
        total_monomial=total_ok,
        jacobian_ok=jac_ok,
        factors_ok=factors_ok,
        reasons=tuple(reasons),
    )
