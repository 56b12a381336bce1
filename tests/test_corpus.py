"""Today's outcome of ``resolve --verify`` on the surface list.

Each entry pins the exit code and a piece of the last line printed, with the
reason next to it.  Most 3- and 4-variable germs still abort where the lift
of a reduction subtree meets the phase preparation ("two coordinate
preparations met at one node"); a fix of that lift is expected to turn
these entries into verified resolutions, one reviewed entry at a time.
"""

import io

import pytest

from resolvkit.cli import main

VERIFIED = "verified: True"
TWO_PREPS = "error: two coordinate preparations met at one node"
NOT_COMPARABLE = "error: reduction finished but the data are not monomial and comparable"
PRODUCT_VANISHES = "error: the reduction product vanishes to the certified degree"

# (name, expression, truncation, exit code, a piece of the last line, reason)
CORPUS = [
    ("A1", "x^2+y^2+z^2", 24, 0, VERIFIED, "no phase needs a preparation"),
    ("A2", "x^2+y^2+z^3", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("A3", "x^2+y^2+z^4", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("A4", "x^2+y^2+z^5", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("D4", "x^2+y^3+z^3", 24, 0, VERIFIED, "no lift meets a phase preparation"),
    ("D4'", "x^2+y^2*z+z^3", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("D5", "x^2+y^2*z+z^4", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("D6", "x^2+y^2*z+z^5", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("E6", "x^2+y^3+z^4", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("E7", "x^2+y^3+y*z^3", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("E8", "x^2+y^3+z^5", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("BP345", "x^3+y^4+z^5", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    ("umbrella", "x^2-y^2*z", 24, 0, VERIFIED, "one blow-up after a linear change"),
    (
        "xyz", "x*y*z", 24, 3,
        "error: the shear to the contact hypersurface left certified degree 4, "
        "below the order 18",
        "a reduction germ of order 18 spends its degrees on the shear",
    ),
    ("z3-xy", "z^3-x*y", 24, 5, NOT_COMPARABLE, "the lifted data end incomparable"),
    ("4var-A1", "w^2+x^2+y^2+z^2", 24, 0, VERIFIED, "no phase needs a preparation"),
    ("4var-A2", "w^2+x^2+y^2+z^3", 24, 5, TWO_PREPS, "the lift meets the phase preparation"),
    (
        "unit-cone", "(1+x+y+z)*(z^2-x^2-y^2)", 24, 5, TWO_PREPS,
        "the lift meets the phase preparation",
    ),
    (
        "omega-1", "2*y^6*z^6 + 2*x^4 + 2*x*y^6*z^2", 16, 3, PRODUCT_VANISHES,
        "scaled data not comparable; the reduction product needs more degrees",
    ),
    (
        "omega-2", "3*x^4*y + 3*x^3*z + z^3", 16, 3, PRODUCT_VANISHES,
        "scaled data not comparable; the reduction product needs more degrees",
    ),
    (
        "omega-3", "x^6 - 2*x^4*y^3*z^3 + 3*y^2*z^6", 16, 5, NOT_COMPARABLE,
        "scaled data comparable, but the 3-variable lift ends incomparable",
    ),
]


@pytest.mark.parametrize(
    "expr, trunc, code, piece, reason", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS]
)
def test_surface_outcome(expr, trunc, code, piece, reason):
    buf = io.StringIO()
    got = main(["resolve", expr, "--truncation", str(trunc), "--verify"], out=buf)
    last = buf.getvalue().splitlines()[-1]
    assert (got, piece in last) == (code, True), (reason, last)
