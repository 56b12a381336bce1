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
of this module and ``blowup.ChartMap.pullback`` use it, on dicts that are
clean by construction: tuple keys of the right length with nonnegative
entries of total degree at most ``trunc``, and nonzero ``Fraction`` values.

The inner loops of ``Jet.__mul__`` and :func:`substitute` run on integers:
each operand is put over the lcm of its denominators and its exponents are
packed into one ``int`` (see :class:`_Frame`), so a term of a product costs
one ``int`` multiply and one ``int`` add, with no gcd.  Each nonzero result
coefficient becomes one reduced ``Fraction`` on the way out; every jet that
leaves those loops holds ``Fraction`` values only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod as _prod
from operator import mul

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


def _check_frame(nvars: int, trunc: int):
    if nvars < 0:
        raise ShapeError("nvars must be nonnegative")
    if trunc < 0:
        raise ShapeError("truncation must be nonnegative")


def _unit_vector(i: int, nvars: int) -> Multiindex:
    return tuple(1 if j == i else 0 for j in range(nvars))


class _Frame:
    """Packing of the exponents of one frame (``nvars``, ``trunc``) into ints.

    ``alpha`` packs to ``|alpha| * top + sum_i alpha_i * base**i`` with
    ``base = trunc + 1`` and ``top = base**nvars``.  Within the truncation no
    digit carries, so the key of a product term is the sum of its factors'
    keys, and ``|alpha| + |beta| <= trunc`` exactly when the sum of their keys
    is below ``limit = (trunc + 1) * top``.  Sorting keys sorts by degree.
    """

    __slots__ = ("nvars", "base", "top", "weights", "limit")

    def __init__(self, nvars: int, trunc: int):
        self.nvars = nvars
        self.base = trunc + 1
        self.top = self.base**nvars
        self.weights = tuple(self.base**i + self.top for i in range(nvars))
        self.limit = (trunc + 1) * self.top

    def numerators(self, coeffs: dict) -> tuple[dict[int, int], int]:
        """``coeffs`` over the lcm of its denominators: packed key -> integer
        numerator, and that lcm."""
        den = lcm(*[c.denominator for c in coeffs.values()])
        w = self.weights
        return {
            sum(map(mul, a, w)): c.numerator * (den // c.denominator)
            for a, c in coeffs.items()
        }, den

    def fractions(self, nums: dict[int, int], den: int) -> dict[Multiindex, Fraction]:
        """Back to exponent tuples and reduced Fractions, dropping zeros."""
        base, top, n = self.base, self.top, self.nvars
        out = {}
        for key, v in nums.items():
            if v:
                key %= top
                alpha = []
                for _ in range(n):
                    key, e = divmod(key, base)
                    alpha.append(e)
                out[tuple(alpha)] = Fraction(v, den)
        return out


_frame = lru_cache(maxsize=256)(_Frame)


def _mul_numerators(a: dict[int, int], b: dict[int, int], limit: int) -> dict[int, int]:
    """Product of two packed numerator dicts, cut at the frame's truncation.

    Terms that cancel stay in the result as zeros."""
    bs = sorted(b.items())
    out: dict[int, int] = {}
    get = out.get
    for ka, va in a.items():
        room = limit - ka
        for kb, vb in bs:
            if kb >= room:
                break
            key = ka + kb
            out[key] = get(key, 0) + va * vb
    return out


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
        _check_frame(nvars, trunc)
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

        For this module's operations and ``ChartMap.pullback`` only: ``clean``
        must already satisfy every invariant that ``__init__`` establishes.
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
        value = _frac(value)
        _check_frame(nvars, trunc)
        return cls._trusted(nvars, trunc, {(0,) * nvars: value} if value else {})

    @classmethod
    def variable(cls, i: int, nvars: int, trunc: int) -> "Jet":
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} out of range for {nvars} variables")
        _check_frame(nvars, trunc)
        return cls._trusted(nvars, trunc, {_unit_vector(i, nvars): Fraction(1)} if trunc else {})

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
        frame = _frame(self.nvars, self.trunc)
        a, da = frame.numerators(self._c)
        b, db = frame.numerators(other._c)
        out = _mul_numerators(a, b, frame.limit)
        return Jet._trusted(self.nvars, self.trunc, frame.fractions(out, da * db))

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
            grad.append(self._c.get(_unit_vector(i, self.nvars), Fraction(0)))
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
        """The linear map whose component i is sum_k rows[i][k] x_k."""
        n = len(rows)
        comps = []
        for row in rows:
            row = [_frac(a) for a in row]
            _check_frame(n, trunc)
            if len(row) != n:
                raise ShapeError("from_matrix needs a square matrix")
            coeffs = {_unit_vector(k, n): a for k, a in enumerate(row) if a} if trunc else {}
            comps.append(Jet._trusted(n, trunc, coeffs))
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
    frame = _frame(n, T)
    limit = frame.limit
    # packed numerators of the shifted components over their denominators;
    # the term c x^alpha then has denominator c.den * prod_i dens_i^alpha_i
    shifted = [
        frame.numerators((c - Jet.constant(b, n, T) if b else c)._c)
        for c, b in zip(comps, base)
    ]
    dens = [d for _, d in shifted]
    terms = [
        (alpha, c, c.denominator * _prod(map(pow, dens, alpha))) for alpha, c in f._c.items()
    ]
    den = lcm(*[d for _, _, d in terms])
    # powers[i][k] = numerators of shifted_i ** k for k >= 1, built on demand
    powers = [[None, h] for h, _ in shifted]
    out: dict[int, int] = {}
    get = out.get
    for alpha, c, d in terms:
        prod = None
        for i, e in enumerate(alpha):
            if e:
                pw = powers[i]
                while len(pw) <= e:
                    pw.append(_mul_numerators(pw[-1], pw[1], limit))
                prod = pw[e] if prod is None else _mul_numerators(prod, pw[e], limit)
        scale = c.numerator * (den // d)
        for key, v in prod.items() if prod is not None else [(0, 1)]:
            out[key] = get(key, 0) + scale * v
    return Jet._trusted(n, T, frame.fractions(out, den))


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

    Round k (k = 1 .. T) substitutes the solution found so far, of degree
    below k, into ``z`` at truncation k and cancels the degree-k defect, which
    is all that round can certify; no round works beyond truncation k, and no
    convergence test is needed.
    """
    if not 0 <= i < z.nvars:
        raise ShapeError(f"variable index {i} out of range")
    if z.constant_term != 0:
        raise PivotError("implicit solve requires z(0) = 0")
    c = z.coeff(_unit_vector(i, z.nvars))
    if c == 0:
        raise PivotError("implicit solve requires a nonzero pivot dz/dx_i(0)")
    n, T = z.nvars, z.trunc
    m = n - 1
    phi: dict[Multiindex, Fraction] = {}
    for k in range(1, T + 1):
        comps = [Jet.variable(j, m, k) for j in range(m)]
        comps.insert(i, Jet._trusted(m, k, dict(phi)))
        r = substitute(z.with_truncation(k), comps, base=[0] * n)
        for a, v in r._c.items():
            if sum(a) == k:
                phi[a] = -v / c
    return Jet._trusted(m, T, phi)


def invert_map(g: PolyMap) -> PolyMap:
    """Compositional inverse of a map fixing 0 with invertible Jacobian.

    With g = A x + tail, the inverse h solves h = A^{-1} (y - tail(h)).  The
    tail has order two, so the degree-k part of h depends only on its parts
    of lower degree: round k (k = 2 .. T) composes the tail and h cut to
    truncation k and keeps the degree-k part.  The inverse is unique, so the
    T - 1 rounds give it exactly to the working truncation, with no
    convergence test; both g(h) and h(g) are the identity jet.
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
    h = [dict(c._c) for c in PolyMap.from_matrix(Ainv, T).components]
    for k in range(2, T + 1):
        hk = PolyMap([Jet._trusted(n, k, dict(d)) for d in h])
        corr = compose_maps(PolyMap([c.with_truncation(k) for c in tail.components]), hk)
        tops = [[(a, v) for a, v in cc._c.items() if sum(a) == k] for cc in corr.components]
        for row, d in zip(Ainv, h):
            acc: dict[Multiindex, Fraction] = {}
            for coef, top in zip(row, tops):
                if coef:
                    for a, v in top:
                        acc[a] = acc.get(a, 0) - coef * v
            d.update((a, v) for a, v in acc.items() if v)
    return PolyMap([Jet._trusted(n, T, d) for d in h])
