"""Blow-up charts, transforms along them, and crossings bookkeeping.

A blow-up center here is always a coordinate subspace {x_i = 0, i in I}.  The
preimage is covered by one chart per index i in I, with the substitution

    x_i = y_i,   x_j = y_i y_j (j in I, j != i),   x_j = y_j (j not in I).

The chart substitution is degree-nondecreasing monomial by monomial, so a
pullback keeps its truncation; dividing out the exceptional coordinate y_i
costs one certified degree per power, as everywhere else in the library.

Codimension-one centers are permitted: the chart map degenerates to the
identity, but the exceptional coordinate and the transforms still make sense.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import (
    Jet,
    PolyMap,
    ShapeError,
    compose_maps,  # noqa: F401  (bench/spans.py wraps blowup.compose_maps by name)
    row_reduce,
)


@dataclass(frozen=True)
class Center:
    """A coordinate-subspace center {x_i = 0, i in indices} in n variables."""

    indices: tuple[int, ...]
    nvars: int

    def __post_init__(self):
        idx = tuple(sorted(set(int(i) for i in self.indices)))
        if not idx:
            raise ShapeError("a center needs at least one coordinate index")
        if idx[0] < 0 or idx[-1] >= self.nvars:
            raise ShapeError(f"center indices {idx} out of range for {self.nvars} variables")
        object.__setattr__(self, "indices", idx)

    @property
    def codim(self) -> int:
        return len(self.indices)

    @property
    def is_identity_blowup(self) -> bool:
        return self.codim == 1


@dataclass(frozen=True)
class ChartMap:
    """One chart of the blow-up along a center; chart_index is in the center."""

    center: Center
    chart_index: int

    def __post_init__(self):
        if self.chart_index not in self.center.indices:
            raise ShapeError(
                f"chart index {self.chart_index} is not a center index {self.center.indices}"
            )

    @property
    def nvars(self) -> int:
        return self.center.nvars

    def pullback(self, f: Jet) -> Jet:
        """f composed with the chart substitution, at the same truncation."""
        if f.nvars != self.nvars:
            raise ShapeError("jet frame does not match the chart")
        i = self.chart_index
        return f.chart_pullback(i, [j for j in self.center.indices if j != i])

    def components(self, trunc: int) -> PolyMap:
        """The chart substitution as an exact polynomial map (parent of child)."""
        n = self.nvars
        i = self.chart_index
        comps = []
        for j in range(n):
            if j == i or j not in self.center.indices:
                comps.append(Jet.variable(j, n, trunc))
            else:
                comps.append(Jet.variable(i, n, trunc) * Jet.variable(j, n, trunc))
        return PolyMap(comps)


# -- exceptional bookkeeping ---------------------------------------------------

ORIGIN_STRICT = "strict-transform"
ORIGIN_NEW = "new"


@dataclass(frozen=True)
class LedgerEntry:
    """One tracked exceptional hypersurface in current chart coordinates."""

    eid: int
    jet: Jet
    origin: str  # ORIGIN_STRICT or ORIGIN_NEW

    def __post_init__(self):
        o = self.jet.order()
        if o is not None and o > 1:
            raise ValueError(
                f"exceptional entry {self.eid} is not smooth at the origin (order {o})"
            )

    @property
    def through_origin(self) -> bool:
        return self.jet.constant_term == 0 and not self.jet.is_zero()


class ExceptionalLedger:
    """Immutable ordered collection of exceptional hypersurfaces.

    Entry ids are never reused along a resolution path: the ledger carries a
    watermark that survives even when every entry departs from a chart.
    """

    __slots__ = ("entries", "watermark")

    def __init__(self, entries=(), watermark=0):
        entries = tuple(entries)
        object.__setattr__(self, "entries", entries)
        top = max((e.eid for e in entries), default=-1) + 1
        object.__setattr__(self, "watermark", max(watermark, top))

    def __setattr__(self, name, value):
        raise AttributeError("ExceptionalLedger is immutable")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def through_origin(self):
        return [e for e in self.entries if e.through_origin]

    def map_jets(self, fn) -> "ExceptionalLedger":
        """Apply a coordinate transformation to every defining jet."""
        return ExceptionalLedger(
            (LedgerEntry(e.eid, fn(e.jet), e.origin) for e in self.entries),
            self.watermark,
        )


@dataclass(frozen=True)
class MarkedFunction:
    """A jet with an assigned multiplicity mark (required vanishing order)."""

    jet: Jet
    mark: int

    def __post_init__(self):
        if self.mark < 1:
            raise ValueError("marks start at 1")


@dataclass(frozen=True)
class CrossingsReport:
    ok: bool
    assignments: tuple  # (position, coordinate) for entries through the origin
    reason: str | None = None


def normal_crossings_check(jets, extra: Jet | None = None) -> CrossingsReport:
    """Certify that the given hypersurfaces cross normally at the origin.

    Entries not vanishing at the origin are skipped (no constraint there).
    Every entry through the origin must have order exactly one and the
    gradients at the origin must be linearly independent; that is exactly the
    existence of a coordinate system where each becomes a coordinate
    hyperplane.  The report carries a pivot assignment for readability.
    """
    family = list(jets)
    if extra is not None:
        family.append(extra)
    rows = []
    tags = []
    for pos, f in enumerate(family):
        if f.is_zero():
            return CrossingsReport(False, (), f"entry {pos} vanishes identically to truncation")
        if f.constant_term != 0:
            continue
        o = f.order()
        if o != 1:
            return CrossingsReport(False, (), f"entry {pos} has order {o} at the origin")
        rows.append(list(f.gradient_at_zero()))
        tags.append(pos)
    _, pivots = row_reduce(rows, len(rows[0]) if rows else 0)
    assignments = []
    for pos, col in zip(tags, pivots):
        if col is None:
            return CrossingsReport(
                False, tuple(assignments), f"gradients are dependent at entry {pos}"
            )
        assignments.append((pos, col))
    return CrossingsReport(True, tuple(assignments), None)
