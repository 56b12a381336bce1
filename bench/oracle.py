"""Exact polynomial arithmetic of the benchmark's own, used to check outputs.

It shares no code with ``resolvkit.series``: a polynomial is a plain dict
from exponent tuples to nonzero ``Fraction`` coefficients, and every product
is cut at a total degree ``trunc``.  Truncated products of jets known up to
``trunc`` are themselves known up to ``trunc``, so substituting jets into a
polynomial is exact at every degree ``<= trunc``.
"""

from __future__ import annotations

import ast
from fractions import Fraction


def clean(p):
    return {e: c for e, c in p.items() if c}


def add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return clean(out)


def truncate(p, trunc):
    return {e: c for e, c in p.items() if sum(e) <= trunc}


def mul(a, b, trunc):
    """Product of a and b, keeping total degree <= trunc."""
    out = {}
    bs = [(e, sum(e), c) for e, c in b.items()]
    for ea, ca in a.items():
        room = trunc - sum(ea)
        for eb, db, cb in bs:
            if db <= room:
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return clean(out)


def variable(i, n):
    return {tuple(1 if j == i else 0 for j in range(n)): Fraction(1)}


def constant(c, n):
    return clean({(0,) * n: Fraction(c)})


def substitute(f, comps, n, trunc):
    """f(comps[0], ..., comps[p-1]) up to total degree trunc.

    ``f`` is an exact polynomial in p variables; each component is a
    polynomial (or a jet known to ``trunc``) in the same n variables.
    """
    powers = [[constant(1, n), c] for c in comps]
    out = {}
    for e, c in f.items():
        term = constant(c, n)
        for i, k in enumerate(e):
            while len(powers[i]) <= k:
                powers[i].append(mul(powers[i][-1], comps[i], trunc))
            if k:
                term = mul(term, powers[i][k], trunc)
        for a, v in term.items():
            out[a] = out.get(a, 0) + v
    return clean(out)


def order(p):
    """Lowest total degree present; None for the zero polynomial."""
    return min((sum(e) for e in p), default=None)


def is_monomial_times_unit(p):
    """True when p = x^a * u with u(0) != 0, i.e. the componentwise minimum
    exponent of the support is itself in the support."""
    if not p:
        return False
    n = len(next(iter(p)))
    low = tuple(min(e[i] for e in p) for i in range(n))
    return low in p


def leading_form(p):
    """The terms of lowest total degree."""
    d = order(p)
    return {e: c for e, c in p.items() if sum(e) == d}


def from_json(d):
    """(polynomial, truncation) of a jet in resolvkit's tree JSON."""
    return {tuple(e): Fraction(c) for e, c in d["terms"]}, d["trunc"]


def parse(text, names):
    """Expand an expression over + - * / ^ and parentheses, in the
    variables ``names``; division only by nonzero constants.  ``^`` binds
    as Python's ``**`` does, which is also how resolvkit's grammar reads it."""
    n = len(names)
    index = {v: i for i, v in enumerate(names)}

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return constant(node.value, n)
        if isinstance(node, ast.Name) and node.id in index:
            return variable(index[node.id], n)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return {e: -c for e, c in ev(node.operand).items()}
        if isinstance(node, ast.BinOp):
            left = ev(node.left)
            if isinstance(node.op, ast.Pow):
                k = node.right
                if not (isinstance(k, ast.Constant) and isinstance(k.value, int) and k.value >= 0):
                    raise ValueError(f"bad exponent in {text!r}")
                out = constant(1, n)
                for _ in range(k.value):
                    out = mul(out, left, 10**9)
                return out
            right = ev(node.right)
            if isinstance(node.op, ast.Add):
                return add(left, right)
            if isinstance(node.op, ast.Sub):
                return add(left, right, -1)
            if isinstance(node.op, ast.Mult):
                return mul(left, right, 10**9)
            if isinstance(node.op, ast.Div):
                if set(right) - {(0,) * n} or not right:
                    raise ValueError(f"division by a non-constant in {text!r}")
                return {e: c / right[(0,) * n] for e, c in left.items()}
        raise ValueError(f"unsupported expression {text!r}")

    return ev(ast.parse(text.replace("^", "**"), mode="eval"))


# -- maps ----------------------------------------------------------------------


def compose_maps(outer, inner, trunc):
    """outer(inner(x)) for square maps, component by component."""
    return [substitute(c, inner, len(inner), trunc) for c in outer]


def linear_map(rows):
    n = len(rows)
    return [clean({tuple(1 if j == k else 0 for j in range(n)): Fraction(rows[i][k]) for k in range(n)}) for i in range(n)]


def inverse_2x2(rows):
    (a, b), (c, d) = rows
    det = Fraction(a) * d - Fraction(b) * c
    if det == 0:
        raise ValueError("singular matrix")
    return [[d / det, -b / det], [-c / det, a / det]]


def automorphism(rows, p, q):
    """A polynomial automorphism of the plane and its exact inverse.

    g = L o sigma o tau with tau(x, y) = (x, y + p(x)), sigma(x, y) =
    (x + q(y), y) and L the invertible linear map ``rows``; ``p`` and ``q``
    are one-variable polynomials given as {exponent: coefficient}.  Returns
    (g, g^-1), both as exact component lists.
    """
    big = 10**9
    x, y = variable(0, 2), variable(1, 2)
    px = {(e, 0): Fraction(c) for e, c in p.items()}
    qy = {(0, e): Fraction(c) for e, c in q.items()}
    tau = [x, add(y, px)]
    sigma = [add(x, qy), y]
    g = compose_maps(linear_map(rows), compose_maps(sigma, tau, big), big)
    tau_inv = [x, add(y, px, -1)]
    sigma_inv = [add(x, qy, -1), y]
    inv = compose_maps(tau_inv, compose_maps(sigma_inv, linear_map(inverse_2x2(rows)), big), big)
    return g, inv
