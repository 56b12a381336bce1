"""Exact arithmetic on truncated multivariate power series over the rationals.

The basic value is a :class:`Jet`: a finite map from exponent multiindices to
nonzero rational coefficients together with a truncation degree ``T``.  A jet
represents its underlying function only up to total degree ``T``; coefficients
of higher-order terms are unknown, not zero.  Operations that lose degree
information (differentiation, division by a coordinate) return jets with a
smaller recorded truncation instead of silently padding.

All coefficients are ``fractions.Fraction`` values; there is no floating point
anywhere in this module.  Jets are immutable after construction and every
operation is a pure function, so values can be shared freely between tasks.

``Jet(...)`` validates and normalizes whatever it is given; it is the only way
in for outside data (parsed expressions, tree JSON, user code).  The private
``Jet._trusted`` wraps a dict without looking at it, and only the operations
of this module use it, on dicts that are clean by construction: tuple keys of
the right length with nonnegative entries of total degree at most ``trunc``,
and nonzero ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, itemgetter

Multiindex = tuple[int, ...]


class ShapeError(ValueError):
    """Operands disagree on variable count or truncation."""


class NotDivisibleError(ValueError):
    """Division by a coordinate failed; carries a witness monomial."""

    def __init__(self, message: str, witness: Multiindex):
        super().__init__(message)
        self.witness = witness


class PivotError(ValueError):
    """A required pivot (constant term, derivative, Jacobian) vanishes."""


class TruncationError(RuntimeError):
    """Not enough certified degrees remain to perform the operation."""


def grlex_key(alpha: Multiindex):
    """Sort key: graded order with lexicographic tie break."""
    return (sum(alpha), alpha)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


class OrderResult:
    """Order of a jet at the origin: finite value or above the truncation.

    ``Finite(k)`` means the lowest stored term has total degree ``k``; the
    zero jet gives ``AboveTruncation`` since a nonzero term of higher degree
    cannot be ruled out from the stored data.
    """

    __slots__ = ("value",)

    def __init__(self, value: int | None = None):
        self.value = value

    @classmethod
    def finite(cls, k: int) -> "OrderResult":
        return cls(int(k))

    @classmethod
    def above_truncation(cls) -> "OrderResult":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __eq__(self, other):
        return isinstance(other, OrderResult) and self.value == other.value

    def __hash__(self):
        return hash(("OrderResult", self.value))

    def __repr__(self):
        if self.value is None:
            return "AboveTruncation"
        return f"Finite({self.value})"


class Jet:
    """Truncated power series with exact rational coefficients.

    ``coeffs`` maps exponent tuples (one entry per variable) to nonzero
    Fractions; zero coefficients and terms above the truncation are pruned on
    construction, so equality is map equality at equal shape.
    """

    __slots__ = ("nvars", "trunc", "_c")

    def __init__(self, nvars: int, trunc: int, coeffs=None):
        if nvars < 0:
            raise ShapeError("nvars must be nonnegative")
        if trunc < 0:
            raise ShapeError("truncation must be nonnegative")
        clean: dict[Multiindex, Fraction] = {}
        if coeffs:
            for alpha, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != nvars or any(a < 0 for a in alpha):
                    raise ShapeError(f"bad multiindex {alpha} for {nvars} variables")
                if sum(alpha) > trunc:
                    continue
                c = _frac(c)
                if c == 0:
                    continue
                prev = clean.get(alpha)
                clean[alpha] = c if prev is None else prev + c
                if clean[alpha] == 0:
                    del clean[alpha]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_c", clean)

    @classmethod
    def _trusted(cls, nvars: int, trunc: int, clean: dict) -> "Jet":
        """Wrap ``clean`` as it is, without validation; the jet owns it.

        For this module's operations only: ``clean`` must already satisfy
        every invariant that ``__init__`` establishes.
        """
        jet = object.__new__(cls)
        object.__setattr__(jet, "nvars", nvars)
        object.__setattr__(jet, "trunc", trunc)
        object.__setattr__(jet, "_c", clean)
        return jet

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "Jet":
        return cls(nvars, trunc)

    @classmethod
    def constant(cls, value, nvars: int, trunc: int) -> "Jet":
        return cls(nvars, trunc, {(0,) * nvars: _frac(value)})

    @classmethod
    def variable(cls, i: int, nvars: int, trunc: int) -> "Jet":
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} out of range for {nvars} variables")
        alpha = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, trunc, {alpha: Fraction(1)})

    @classmethod
    def monomial(cls, alpha, coeff, trunc: int) -> "Jet":
        alpha = tuple(int(a) for a in alpha)
        return cls(len(alpha), trunc, {alpha: _frac(coeff)})

    # -- basic views -------------------------------------------------------

    def coeff(self, alpha) -> Fraction:
        return self._c.get(tuple(alpha), Fraction(0))

    def terms(self):
        """Stored (multiindex, coefficient) pairs in graded-lex order."""
        return [(a, self._c[a]) for a in sorted(self._c, key=grlex_key)]

    def support(self):
        return sorted(self._c, key=grlex_key)

    def is_zero(self) -> bool:
        return not self._c

    @property
    def constant_term(self) -> Fraction:
        return self._c.get((0,) * self.nvars, Fraction(0))

    def is_unit(self) -> bool:
        """Nonzero constant term (invertible as a germ at the origin)."""
        return self.constant_term != 0

    def __eq__(self, other):
        return (
            isinstance(other, Jet)
            and self.nvars == other.nvars
            and self.trunc == other.trunc
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.nvars, self.trunc, frozenset(self._c.items())))

    def __repr__(self):
        return f"Jet({self.nvars} vars, T={self.trunc}, {format_jet(self)})"

    def __str__(self):
        return format_jet(self)

    # -- ring operations ---------------------------------------------------

    def _check_shape(self, other: "Jet"):
        if self.nvars != other.nvars or self.trunc != other.trunc:
            raise ShapeError(
                f"shape mismatch: ({self.nvars} vars, T={self.trunc}) vs "
                f"({other.nvars} vars, T={other.trunc})"
            )

    def __add__(self, other: "Jet") -> "Jet":
        self._check_shape(other)
        out = dict(self._c)
        for a, c in other._c.items():
            s = out.get(a, Fraction(0)) + c
            if s == 0:
                out.pop(a, None)
            else:
                out[a] = s
        return Jet._trusted(self.nvars, self.trunc, out)

    def __neg__(self) -> "Jet":
        return Jet._trusted(self.nvars, self.trunc, {a: -c for a, c in self._c.items()})

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def scale(self, r) -> "Jet":
        r = _frac(r)
        if r == 0:
            return Jet.zero(self.nvars, self.trunc)
        return Jet._trusted(self.nvars, self.trunc, {a: c * r for a, c in self._c.items()})

    def __mul__(self, other: "Jet") -> "Jet":
        self._check_shape(other)
        T = self.trunc
        # other's terms by degree, so each row stops at the first one too high
        bs = sorted(((sum(b), b, cb) for b, cb in other._c.items()), key=itemgetter(0))
        out: dict[Multiindex, Fraction] = {}
        for a, ca in self._c.items():
            room = T - sum(a)
            for db, b, cb in bs:
                if db > room:
                    break
                key = tuple(map(add, a, b))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Jet._trusted(self.nvars, T, out)

    def __pow__(self, e: int) -> "Jet":
        if not isinstance(e, int) or e < 0:
            raise ValueError("jet exponent must be a nonnegative integer")
        result = Jet.constant(1, self.nvars, self.trunc)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def with_truncation(self, trunc: int) -> "Jet":
        """Project down to a smaller truncation (raising is not allowed)."""
        if trunc > self.trunc:
            raise TruncationError(
                f"cannot raise truncation from {self.trunc} to {trunc}"
            )
        if trunc == self.trunc:
            return self
        return Jet._trusted(
            self.nvars, trunc, {a: c for a, c in self._c.items() if sum(a) <= trunc}
        )

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Jet":
        """Formal partial derivative; the result is certified to T - 1."""
        if not 0 <= i < self.nvars:
            raise ShapeError(f"variable index {i} out of range")
        if self.trunc < 1:
            raise TruncationError("cannot differentiate a jet of truncation 0")
        out = {}
        for a, c in self._c.items():
            if a[i] == 0:
                continue
            b = list(a)
            b[i] -= 1
            out[tuple(b)] = c * a[i]
        return Jet._trusted(self.nvars, self.trunc - 1, out)

    def nth_partial(self, i: int, q: int) -> "Jet":
        f = self
        for _ in range(q):
            f = f.partial(i)
        return f

    def order(self) -> OrderResult:
        """Order at the origin (lowest stored total degree)."""
        if not self._c:
            return OrderResult.above_truncation()
        return OrderResult.finite(min(sum(a) for a in self._c))

    def order_along(self, indices) -> OrderResult:
        """Order along the coordinate subspace {x_i = 0, i in indices}."""
        idx = sorted(set(indices))
        if not self._c:
            return OrderResult.above_truncation()
        return OrderResult.finite(min(sum(a[i] for i in idx) for a in self._c))

    def eval_at(self, point) -> Fraction:
        point = [_frac(p) for p in point]
        if len(point) != self.nvars:
            raise ShapeError("point dimension mismatch")
        total = Fraction(0)
        for a, c in self._c.items():
            v = c
            for p, e in zip(point, a):
                if e:
                    v *= p**e
            total += v
        return total

    def gradient_at_zero(self) -> tuple[Fraction, ...]:
        grad = []
        for i in range(self.nvars):
            alpha = tuple(1 if j == i else 0 for j in range(self.nvars))
            grad.append(self._c.get(alpha, Fraction(0)))
        return tuple(grad)

    # -- division and factorization ----------------------------------------

    def divide_by_coordinate(self, i: int) -> "Jet":
        """Exact division by x_i; requires the restriction to x_i = 0 to vanish."""
        if not 0 <= i < self.nvars:
            raise ShapeError(f"variable index {i} out of range")
        if self.trunc < 1:
            raise TruncationError("cannot divide a jet of truncation 0")
        out = {}
        for a, c in self._c.items():
            if a[i] == 0:
                raise NotDivisibleError(
                    f"not divisible by x{i}: witness monomial {a}", a
                )
            b = list(a)
            b[i] -= 1
            out[tuple(b)] = c
        return Jet._trusted(self.nvars, self.trunc - 1, out)

    def factor_coordinate_power(self, i: int) -> tuple[int, "Jet"]:
        """Largest e with x_i^e dividing this jet, and the exact quotient."""
        if self.is_zero():
            raise ValueError("factor_coordinate_power is undefined on the zero jet")
        e = min(a[i] for a in self._c)
        h = self
        for _ in range(e):
            h = h.divide_by_coordinate(i)
        return e, h

    def monomial_unit_decompose(self):
        """Write the jet as x^alpha * u with u(0) != 0, if possible.

        Returns ``(alpha, u)`` where alpha is the componentwise minimum of the
        stored exponents, or ``None`` when the quotient has zero constant term
        (no monomial-times-unit form in the current coordinates).
        """
        if self.is_zero():
            raise ValueError("monomial_unit_decompose is undefined on the zero jet")
        alpha = tuple(min(a[i] for a in self._c) for i in range(self.nvars))
        u = self
        for i, e in enumerate(alpha):
            for _ in range(e):
                u = u.divide_by_coordinate(i)
        if u.constant_term == 0:
            return None
        return alpha, u

    # -- variable surgery ---------------------------------------------------

    def restrict_set_zero(self, i: int) -> "Jet":
        """Set x_i = 0 and drop that variable from the frame."""
        if not 0 <= i < self.nvars:
            raise ShapeError(f"variable index {i} out of range")
        out = {}
        for a, c in self._c.items():
            if a[i] != 0:
                continue
            out[a[:i] + a[i + 1 :]] = c
        return Jet._trusted(self.nvars - 1, self.trunc, out)

    def insert_var(self, pos: int) -> "Jet":
        """Embed into one more variable, inserted at position ``pos``."""
        if not 0 <= pos <= self.nvars:
            raise ShapeError("insertion position out of range")
        out = {a[:pos] + (0,) + a[pos:]: c for a, c in self._c.items()}
        return Jet._trusted(self.nvars + 1, self.trunc, out)

    def recenter(self, point) -> "Jet":
        """Translate the frame: returns the jet of f(x + point).

        The jet is treated as an exact polynomial representative, so the
        truncation is preserved.
        """
        point = [_frac(p) for p in point]
        if len(point) != self.nvars:
            raise ShapeError("point dimension mismatch")
        coeffs = dict(self._c)
        for i, p in enumerate(point):
            if p == 0:
                continue
            out: dict[Multiindex, Fraction] = {}
            for a, c in coeffs.items():
                e = a[i]
                pw = Fraction(1)
                for j in range(e, -1, -1):
                    b = a[:i] + (j,) + a[i + 1 :]
                    v = c * comb(e, j) * pw
                    s = out.get(b, Fraction(0)) + v
                    if s == 0:
                        out.pop(b, None)
                    else:
                        out[b] = s
                    pw *= p
            coeffs = out
        return Jet._trusted(self.nvars, self.trunc, coeffs)


def format_jet(jet: Jet, names=None) -> str:
    """Human-readable form, terms in graded-lex order."""
    if jet.is_zero():
        return "0"
    if names is None:
        names = default_names(jet.nvars)
    parts = []
    for alpha, c in jet.terms():
        factors = []
        for name, e in zip(names, alpha):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def default_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{i + 1}" for i in range(n)]


# -- exact linear algebra on Fractions --------------------------------------


def mat_det(rows) -> Fraction:
    m = [[_frac(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeError("determinant needs a square matrix")
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def mat_inv(rows):
    m = [[_frac(x) for x in row] for row in rows]
    n = len(m)
    aug = [m[r] + [Fraction(1 if c == r else 0) for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise PivotError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# -- maps --------------------------------------------------------------------


class PolyMap:
    """A tuple of jets sharing one frame: a map from n-space to p-space."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ShapeError("a PolyMap needs at least one component")
        n, T = components[0].nvars, components[0].trunc
        for c in components:
            if c.nvars != n or c.trunc != T:
                raise ShapeError("PolyMap components disagree on shape")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    @classmethod
    def identity(cls, n: int, trunc: int) -> "PolyMap":
        return cls([Jet.variable(i, n, trunc) for i in range(n)])

    @classmethod
    def from_matrix(cls, rows, trunc: int) -> "PolyMap":
        n = len(rows)
        comps = []
        for row in rows:
            comps.append(
                Jet(
                    n,
                    trunc,
                    {
                        tuple(1 if j == k else 0 for j in range(n)): _frac(a)
                        for k, a in enumerate(row)
                    },
                )
            )
        return cls(comps)

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def trunc(self) -> int:
        return self.components[0].trunc

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i) -> Jet:
        return self.components[i]

    def __eq__(self, other):
        return isinstance(other, PolyMap) and self.components == other.components

    def __repr__(self):
        return "PolyMap(" + "; ".join(str(c) for c in self.components) + ")"

    def value_at_zero(self):
        return tuple(c.constant_term for c in self.components)

    def jacobian(self):
        """Matrix of jets d(component_i)/d(x_j)."""
        return [
            [c.partial(j) for j in range(self.nvars)] for c in self.components
        ]

    def jacobian_at_zero(self):
        return [
            [c.partial(j).constant_term for j in range(self.nvars)]
            for c in self.components
        ]

    def jacobian_det(self) -> Jet:
        """Determinant of the Jacobian matrix, as a jet (certified to T - 1)."""
        jac = self.jacobian()
        return _jet_det(jac)


def _jet_det(m) -> Jet:
    n = len(m)
    if n == 1:
        return m[0][0]
    sample = m[0][0]
    total = Jet.zero(sample.nvars, sample.trunc)
    sign = 1
    for k in range(n):
        minor = [row[:k] + row[k + 1 :] for row in m[1:]]
        term = m[0][k] * _jet_det(minor)
        total = total + (term if sign > 0 else -term)
        sign = -sign
    return total


def substitute(f: Jet, g, base=None) -> Jet:
    """Truncated composite f(g_1, ..., g_p) with exact coefficients.

    ``g`` is a PolyMap (or list of jets) whose component count matches the
    variable count of ``f``.  ``base`` defaults to g(0); when nonzero, ``f``
    is recentered at ``base`` before substitution.  The result is certified
    to the smallest truncation among the inputs.
    """
    comps = list(g.components) if isinstance(g, PolyMap) else list(g)
    if len(comps) != f.nvars:
        raise ShapeError(
            f"component-count mismatch: f has {f.nvars} variables, map has {len(comps)}"
        )
    n = comps[0].nvars
    T = min([f.trunc] + [c.trunc for c in comps])
    comps = [c.with_truncation(T) for c in comps]
    if base is None:
        base = [c.constant_term for c in comps]
    else:
        base = [_frac(b) for b in base]
        if len(base) != len(comps):
            raise ShapeError("base point dimension does not match component count")
        for b, c in zip(base, comps):
            if c.constant_term != b:
                raise ShapeError("base point does not match map value at the origin")
    if any(b != 0 for b in base):
        f = f.recenter(base)
    f = f.with_truncation(T)
    shifted = [c - Jet.constant(b, n, T) if b else c for c, b in zip(comps, base)]
    # powers[i][k] = shifted_i ** k for k >= 1, built on demand
    powers: list[list[Jet | None]] = [[None, h] for h in shifted]
    zero = (0,) * n
    out: dict[Multiindex, Fraction] = {}
    for alpha, c in f._c.items():
        prod = None
        for i, e in enumerate(alpha):
            if e:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(pw[-1] * pw[1])
                prod = pw[e] if prod is None else prod * pw[e]
        for key, v in prod._c.items() if prod is not None else [(zero, 1)]:
            s = out.get(key, 0) + c * v
            if s:
                out[key] = s
            else:
                del out[key]
    return Jet._trusted(n, T, out)


def compose_maps(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """Map composition outer(inner(x)), component by component."""
    return PolyMap([substitute(c, inner) for c in outer.components])


def linear_change(f: Jet, rows) -> Jet:
    """Exact substitution x -> A x for an invertible rational matrix A."""
    n = f.nvars
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ShapeError("matrix shape does not match the jet frame")
    if mat_det(rows) == 0:
        raise PivotError("linear change requires an invertible matrix")
    # new variable k contributes column k: x_old_j = sum_k A[j][k] x_new_k
    return substitute(f, PolyMap.from_matrix(rows, f.trunc), base=[0] * n)


def implicit_solve(z: Jet, i: int) -> Jet:
    """Solve z = 0 for x_i near the origin by undetermined coefficients.

    Requires z(0) = 0 and a nonzero pivot dz/dx_i(0).  Returns the jet of the
    solution in the remaining variables (original order, x_i removed), at the
    truncation of ``z``; z(x, phi(x)) vanishes to that degree.
    """
    if not 0 <= i < z.nvars:
        raise ShapeError(f"variable index {i} out of range")
    if z.constant_term != 0:
        raise PivotError("implicit solve requires z(0) = 0")
    pivot_alpha = tuple(1 if j == i else 0 for j in range(z.nvars))
    c = z.coeff(pivot_alpha)
    if c == 0:
        raise PivotError("implicit solve requires a nonzero pivot dz/dx_i(0)")
    n, T = z.nvars, z.trunc
    m = n - 1
    phi = Jet.zero(m, T)
    for k in range(1, T + 1):
        # plug the current approximation in and cancel the degree-k defect
        comps = []
        pos = 0
        for j in range(n):
            if j == i:
                comps.append(phi)
            else:
                comps.append(Jet.variable(pos, m, T))
                pos += 1
        r = substitute(z, comps, base=[0] * n)
        defect = {a: v for a, v in r.terms() if sum(a) == k}
        if not defect:
            continue
        phi = phi + Jet(m, T, {a: -v / c for a, v in defect.items()})
    return phi


def invert_map(g: PolyMap) -> PolyMap:
    """Compositional inverse of a map fixing 0 with invertible Jacobian.

    Computed degree by degree: with g = A x + higher, iterate
    h <- A^{-1} (y - (g - A x)(h)); after T rounds the inverse is exact to
    the working truncation, and both g(h) and h(g) are the identity jet.
    """
    n = len(g)
    if g.nvars != n:
        raise ShapeError("invert_map needs as many components as variables")
    if any(b != 0 for b in g.value_at_zero()):
        raise PivotError("invert_map requires g(0) = 0")
    T = g.trunc
    A = g.jacobian_at_zero()
    if mat_det(A) == 0:
        raise PivotError("invert_map requires an invertible Jacobian at 0")
    Ainv = mat_inv(A)
    linear_part = PolyMap.from_matrix(A, T)
    tail = PolyMap([gc - lc for gc, lc in zip(g.components, linear_part.components)])
    h = PolyMap.from_matrix(Ainv, T)
    ident = PolyMap.identity(n, T)
    for _ in range(T - 1):
        corr = compose_maps(tail, h)
        adjusted = [ic - cc for ic, cc in zip(ident.components, corr.components)]
        new_comps = []
        for row in Ainv:
            acc = Jet.zero(n, T)
            for a, comp in zip(row, adjusted):
                if a != 0:
                    acc = acc + comp.scale(a)
            new_comps.append(acc)
        new = PolyMap(new_comps)
        if new == h:
            break
        h = new
    return h
