"""resolvkit: exact resolution of singularities for truncated power series.

Library layout:

- :mod:`resolvkit.series`        exact jets and maps over the rationals
- :mod:`resolvkit.faa_di_bruno`  composite-series coefficients, combinatorially
- :mod:`resolvkit.carleman`      growth-sequence calculus and majorants
- :mod:`resolvkit.blowup`        blow-up charts, transforms, crossings checks
- :mod:`resolvkit.resolve`       the desingularization driver and its trees
- :mod:`resolvkit.parse`         polynomial expression parser
- :mod:`resolvkit.cli`           batch command line front end
"""

from .series import (
    Jet,
    PolyMap,
    ShapeError,
    NotDivisibleError,
    PivotError,
    TruncationError,
    substitute,
    linear_change,
    implicit_solve,
    invert_map,
)
from .blowup import (
    Center,
    ChartMap,
    ExceptionalLedger,
    LedgerEntry,
    MarkedFunction,
    normal_crossings_check,
)
from .carleman import GrowthSequence
from .parse import ParseError, parse_polynomial
from .resolve import (
    ResolutionTree,
    RunConfig,
    monomialize_principal,
    rectilinearize,
    resolve_hypersurface,
    verify_resolution,
)

__all__ = [
    "Jet",
    "PolyMap",
    "ShapeError",
    "NotDivisibleError",
    "PivotError",
    "TruncationError",
    "substitute",
    "linear_change",
    "implicit_solve",
    "invert_map",
    "Center",
    "ChartMap",
    "ExceptionalLedger",
    "LedgerEntry",
    "MarkedFunction",
    "normal_crossings_check",
    "GrowthSequence",
    "ParseError",
    "parse_polynomial",
    "ResolutionTree",
    "RunConfig",
    "monomialize_principal",
    "rectilinearize",
    "resolve_hypersurface",
    "verify_resolution",
]

__version__ = "0.1.0"
