"""Exact arithmetic on truncated multivariate power series over the rationals.

The basic value is a :class:`Jet`: a finite map from exponent multiindices to
nonzero rational coefficients together with a truncation degree ``T``.  A jet
represents its underlying function only up to total degree ``T``; coefficients
of higher-order terms are unknown, not zero.  Operations that lose degree
information (differentiation, division by a coordinate) return jets with a
smaller recorded truncation instead of silently padding.

A jet stores its coefficients as integer numerators over one positive common
denominator: a dict from packed exponent key (see :class:`_Frame`) to nonzero
``int`` numerator, and the denominator.  The form is canonical: no zero
numerator is stored, and no factor is common to the denominator and every
numerator.  So two jets of one frame are equal exactly when their dicts and
denominators are, and ``hash`` agrees.  Every operation of this module reads
and writes that form with integer arithmetic only: a term of a product costs
one ``int`` multiply and one ``int`` add, and a result is brought back to
canonical form by one gcd over its numerators.

``Fraction`` appears only at the public boundary.  ``Jet(...)`` validates and
normalizes whatever it is given (parsed expressions, tree JSON, user code) and
packs it; ``terms``, ``coeff``, ``support``, ``constant_term``,
``gradient_at_zero``, ``eval_at`` and :func:`format_jet` convert on the way
out.  There is no floating point anywhere in this module.  Jets are immutable
after construction and every operation is a pure function, so values can be
shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod as _prod
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
    """Packed exponent keys of the frame (``nvars``, ``trunc``).

    Each exponent takes one digit of ``shift`` bits, and ``alpha`` packs to
    ``|alpha| * top + sum_i alpha_i << offsets[i]`` with ``top = 2**(shift *
    nvars)`` and ``offsets[i] = shift * (nvars - 1 - i)``.  Since the base
    ``2**shift`` exceeds ``trunc``:

    - within the truncation no digit carries, so the key of a product term is
      the sum of its factors' keys, and ``|alpha| + |beta| <= trunc`` exactly
      when that sum is below ``limit = (trunc + 1) * top``;
    - keys sort in graded-lex order (:func:`grlex_key`), so the terms of
      degree ``k`` are the keys in ``[k * top, (k + 1) * top)``.

    ``shift = max(6, trunc.bit_length())`` depends on ``trunc`` only through
    that bound, so all frames of one variable count up to truncation 63 share
    their keys, and cutting the truncation of a jet filters its keys.
    :meth:`rekey` moves keys between frames that do not share them.
    """

    __slots__ = ("nvars", "shift", "mask", "offsets", "top", "weights", "limit")

    def __init__(self, nvars: int, trunc: int):
        s = max(6, trunc.bit_length())
        self.nvars = nvars
        self.shift = s
        self.mask = (1 << s) - 1
        self.offsets = tuple(s * (nvars - 1 - i) for i in range(nvars))
        self.top = 1 << (s * nvars)
        # weights[i] is the key of x_i: a step of one digit and one degree
        self.weights = tuple(self.top + (1 << off) for off in self.offsets)
        self.limit = (trunc + 1) * self.top

    def pack(self, alpha: Multiindex) -> int:
        return sum(map(mul, alpha, self.weights))

    def unpack(self, key: int) -> Multiindex:
        m = self.mask
        return tuple((key >> off) & m for off in self.offsets)

    def rekey(self, nums: dict[int, int], other: "_Frame") -> dict[int, int]:
        """``nums`` keyed in ``other``, a frame of the same variable count;
        ``nums`` itself when the two frames share their keys."""
        if other.shift == self.shift:
            return nums
        return {other.pack(self.unpack(k)): v for k, v in nums.items()}


_frame = lru_cache(maxsize=256)(_Frame)


def _common_den(coeffs: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """Nonzero reduced Fractions over the lcm of their denominators: the
    canonical numerators and that lcm."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den


def _reduce(nums: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Canonical form of ``nums / den`` (``den > 0``): zeros dropped and the
    common factor of the denominator and the numerators divided out."""
    if 0 in nums.values():
        nums = {k: v for k, v in nums.items() if v}
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {k: v // g for k, v in nums.items()}
        den //= g
    return nums, den


def _ratio_of(c) -> tuple[int, int]:
    c = _frac(c)
    return c.numerator, c.denominator


def _same(x):
    return x


def _pack_terms(nvars: int, trunc: int, terms, ratio) -> tuple[dict[int, int], int]:
    """The canonical numerators and denominator of the jet with the terms
    ``(alpha, c)`` of ``terms``: ``alpha`` a tuple of ints and ``ratio(c)``
    the coefficient as an int numerator and a positive int denominator.

    These are the rules of ``Jet(...)``: a bad multiindex raises ShapeError,
    terms above the truncation drop before ``ratio`` reads them, zero terms
    drop, and the terms of one exponent sum."""
    _check_frame(nvars, trunc)
    pack = _frame(nvars, trunc).pack
    kept = []
    for alpha, c in terms:
        if len(alpha) != nvars or (alpha and min(alpha) < 0):
            raise ShapeError(f"bad multiindex {alpha} for {nvars} variables")
        if sum(alpha) <= trunc:
            p, q = ratio(c)
            if p:
                kept.append((pack(alpha), p, q))
    den = lcm(*[q for _, _, q in kept])
    nums: dict[int, int] = {}
    get = nums.get
    for key, p, q in kept:
        nums[key] = get(key, 0) + p * (den // q)
    return _reduce(nums, den)


def _mul_numerators(a: dict[int, int], b: dict[int, int], limit: int) -> dict[int, int]:
    """Product of two packed numerator dicts, cut at the frame's ``limit``.

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


class Jet:
    """Truncated power series with exact rational coefficients.

    ``Jet(nvars, trunc, coeffs)`` takes a map (or pairs) from exponent tuples
    to rationals; zero coefficients and terms above the truncation are pruned,
    so equality is equality of the stored terms at equal shape.
    """

    __slots__ = ("nvars", "trunc", "_nums", "_den")

    def __init__(self, nvars: int, trunc: int, coeffs=None):
        terms = (coeffs.items() if isinstance(coeffs, dict) else coeffs) or ()
        nums, den = _pack_terms(
            nvars, trunc, ((tuple(int(a) for a in alpha), c) for alpha, c in terms), _ratio_of
        )
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def from_ratios(cls, nvars: int, trunc: int, ratios: dict) -> "Jet":
        """``Jet(nvars, trunc, {alpha: Fraction(p, q)})`` for the map
        ``ratios`` from ``alpha`` (a tuple of ints) to ``(p, q)`` (ints,
        ``q > 0``), packed without a Fraction."""
        return cls._packed(nvars, trunc, *_pack_terms(nvars, trunc, ratios.items(), _same))

    @classmethod
    def _packed(cls, nvars: int, trunc: int, nums: dict[int, int], den: int) -> "Jet":
        """Wrap ``nums / den`` as it is, without validation; the jet owns ``nums``.

        For this module's operations only: ``nums`` must be keyed in
        ``_frame(nvars, trunc)`` below its limit and, with ``den``, be in the
        canonical form of :func:`_reduce`.
        """
        jet = object.__new__(cls)
        object.__setattr__(jet, "nvars", nvars)
        object.__setattr__(jet, "trunc", trunc)
        object.__setattr__(jet, "_nums", nums)
        object.__setattr__(jet, "_den", den)
        return jet

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "Jet":
        _check_frame(nvars, trunc)
        return cls._packed(nvars, trunc, {}, 1)

    @classmethod
    def constant(cls, value, nvars: int, trunc: int) -> "Jet":
        value = _frac(value)
        _check_frame(nvars, trunc)
        if not value:
            return cls._packed(nvars, trunc, {}, 1)
        return cls._packed(nvars, trunc, {0: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, i: int, nvars: int, trunc: int) -> "Jet":
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} out of range for {nvars} variables")
        _check_frame(nvars, trunc)
        nums = {_frame(nvars, trunc).weights[i]: 1} if trunc else {}
        return cls._packed(nvars, trunc, nums, 1)

    # -- basic views -------------------------------------------------------

    def coeff(self, alpha) -> Fraction:
        """Coefficient of x^alpha; zero for an exponent above the truncation."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.nvars or any(a < 0 for a in alpha):
            raise ShapeError(f"bad multiindex {alpha} for {self.nvars} variables")
        if sum(alpha) > self.trunc:
            return Fraction(0)
        key = _frame(self.nvars, self.trunc).pack(alpha)
        return Fraction(self._nums.get(key, 0), self._den)

    def terms(self):
        """Stored (multiindex, coefficient) pairs in graded-lex order."""
        unpack, nums, den = _frame(self.nvars, self.trunc).unpack, self._nums, self._den
        return [(unpack(k), Fraction(nums[k], den)) for k in sorted(nums)]

    def json_text(self, pad: str = "") -> str:
        """The text of ``json.dumps({"nvars": nvars, "terms": terms, "trunc":
        trunc}, sort_keys=True, indent=1)`` nested at the indent ``pad``, where
        ``terms`` lists the stored terms in graded-lex order as ``[exponents,
        coefficient]`` pairs, the coefficient the string ``str(Fraction)``
        writes ("p/q", or "p" for an integer).  It is written term by term from
        the packed numerators: one format call a term, with no lists built."""
        p1 = pad + " "
        p2, p3, p4 = p1 + " ", p1 + "  ", p1 + "   "
        head = f'{{\n{p1}"nvars": {self.nvars},\n{p1}"terms": '
        tail = f',\n{p1}"trunc": {self.trunc}\n{pad}}}'
        nums, den = self._nums, self._den
        if not nums:
            return f"{head}[]{tail}"
        frame = _frame(self.nvars, self.trunc)
        offs, m = frame.offsets, frame.mask
        exps = f"[\n{p4}" + f",\n{p4}".join(["{}"] * self.nvars) + f"\n{p3}]" if offs else "[]"
        term = f"[\n{p3}{exps},\n{p3}\"{{}}\"\n{p2}]".format
        out = []
        for k in sorted(nums):
            v = nums[k]
            g = gcd(v, den)
            coeff = v // g if g == den else f"{v // g}/{den // g}"
            out.append(term(*[(k >> o) & m for o in offs], coeff))
        return f"{head}[\n{p2}" + f",\n{p2}".join(out) + f"\n{p1}]{tail}"

    def support(self):
        unpack = _frame(self.nvars, self.trunc).unpack
        return [unpack(k) for k in sorted(self._nums)]

    def is_zero(self) -> bool:
        return not self._nums

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(0, 0), self._den)

    def is_unit(self) -> bool:
        """Nonzero constant term (invertible as a germ at the origin)."""
        return 0 in self._nums

    def __eq__(self, other):
        return (
            isinstance(other, Jet)
            and self.nvars == other.nvars
            and self.trunc == other.trunc
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.nvars, self.trunc, self._den, frozenset(self._nums.items())))

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
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        out = {k: v * fa for k, v in self._nums.items()}
        get = out.get
        for k, v in other._nums.items():
            out[k] = get(k, 0) + v * fb
        return Jet._packed(self.nvars, self.trunc, *_reduce(out, den))

    def __neg__(self) -> "Jet":
        return Jet._packed(
            self.nvars, self.trunc, {k: -v for k, v in self._nums.items()}, self._den
        )

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def scale(self, r) -> "Jet":
        r = _frac(r)
        if r == 0:
            return Jet.zero(self.nvars, self.trunc)
        p = r.numerator
        out = {k: v * p for k, v in self._nums.items()}
        return Jet._packed(self.nvars, self.trunc, *_reduce(out, self._den * r.denominator))

    def __mul__(self, other: "Jet") -> "Jet":
        self._check_shape(other)
        limit = _frame(self.nvars, self.trunc).limit
        out = _mul_numerators(self._nums, other._nums, limit)
        return Jet._packed(self.nvars, self.trunc, *_reduce(out, self._den * other._den))

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
        limit = (trunc + 1) * _frame(self.nvars, self.trunc).top
        return self._lowered(trunc, {k: v for k, v in self._nums.items() if k < limit})

    def _lowered(self, trunc: int, out: dict[int, int]) -> "Jet":
        """The jet at truncation ``trunc`` (at most this jet's) of numerators
        ``out`` over this jet's denominator, keyed in this jet's frame."""
        out = _frame(self.nvars, self.trunc).rekey(out, _frame(self.nvars, trunc))
        return Jet._packed(self.nvars, trunc, *_reduce(out, self._den))

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Jet":
        """Formal partial derivative; the result is certified to T - 1."""
        if not 0 <= i < self.nvars:
            raise ShapeError(f"variable index {i} out of range")
        if self.trunc < 1:
            raise TruncationError("cannot differentiate a jet of truncation 0")
        frame = _frame(self.nvars, self.trunc)
        off, m, w = frame.offsets[i], frame.mask, frame.weights[i]
        out = {}
        for k, v in self._nums.items():
            e = (k >> off) & m
            if e:
                out[k - w] = v * e
        return self._lowered(self.trunc - 1, out)

    def nth_partial(self, i: int, q: int) -> "Jet":
        f = self
        for _ in range(q):
            f = f.partial(i)
        return f

    def order(self) -> int | None:
        """Order at the origin (lowest stored total degree); None for the
        zero jet, which vanishes to its truncation, since a nonzero term of
        higher degree cannot be ruled out from the stored data."""
        if not self._nums:
            return None
        return min(self._nums) // _frame(self.nvars, self.trunc).top

    def order_along(self, indices) -> int | None:
        """Order along the coordinate subspace {x_i = 0, i in indices}: the
        least total exponent on those coordinates of a stored term; None for
        the zero jet."""
        if not self._nums:
            return None
        frame = _frame(self.nvars, self.trunc)
        offs, m = [frame.offsets[i] for i in sorted(set(indices))], frame.mask
        return min(sum((k >> o) & m for o in offs) for k in self._nums)

    def eval_at(self, point) -> Fraction:
        point = [_frac(p) for p in point]
        if len(point) != self.nvars:
            raise ShapeError("point dimension mismatch")
        unpack = _frame(self.nvars, self.trunc).unpack
        total = Fraction(0)
        for k, v in self._nums.items():
            term = Fraction(v)
            for p, e in zip(point, unpack(k)):
                if e:
                    term *= p**e
            total += term
        return total / self._den

    def gradient_at_zero(self) -> tuple[Fraction, ...]:
        nums, den = self._nums, self._den
        return tuple(
            Fraction(nums.get(w, 0), den) for w in _frame(self.nvars, self.trunc).weights
        )

    # -- division and factorization ----------------------------------------

    def _divide_monomial(self, alpha: Multiindex) -> "Jet":
        """Exact quotient by x^alpha, which divides every stored term; the
        result is certified to T - |alpha|."""
        step = _frame(self.nvars, self.trunc).pack(alpha)
        return self._lowered(
            self.trunc - sum(alpha), {k - step: v for k, v in self._nums.items()}
        )

    def divide_by_coordinate(self, i: int) -> "Jet":
        """Exact division by x_i; requires the restriction to x_i = 0 to vanish."""
        if not 0 <= i < self.nvars:
            raise ShapeError(f"variable index {i} out of range")
        if self.trunc < 1:
            raise TruncationError("cannot divide a jet of truncation 0")
        frame = _frame(self.nvars, self.trunc)
        off, m = frame.offsets[i], frame.mask
        for k in self._nums:
            if not (k >> off) & m:
                a = frame.unpack(k)
                raise NotDivisibleError(f"not divisible by x{i}: witness monomial {a}", a)
        return self._divide_monomial(_unit_vector(i, self.nvars))

    def _min_exponents(self) -> Multiindex:
        frame = _frame(self.nvars, self.trunc)
        m = frame.mask
        return tuple(min((k >> off) & m for k in self._nums) for off in frame.offsets)

    def factor_coordinate_power(self, i: int) -> tuple[int, "Jet"]:
        """Largest e with x_i^e dividing this jet, and the exact quotient."""
        if self.is_zero():
            raise ValueError("factor_coordinate_power is undefined on the zero jet")
        e = self._min_exponents()[i]
        alpha = tuple(e if j == i else 0 for j in range(self.nvars))
        return e, self._divide_monomial(alpha)

    def monomial_unit_decompose(self):
        """Write the jet as x^alpha * u with u(0) != 0, if possible.

        Returns ``(alpha, u)`` where alpha is the componentwise minimum of the
        stored exponents, or ``None`` when the quotient has zero constant term
        (no monomial-times-unit form in the current coordinates).
        """
        if self.is_zero():
            raise ValueError("monomial_unit_decompose is undefined on the zero jet")
        alpha = self._min_exponents()
        # u(0) is the coefficient of x^alpha
        if _frame(self.nvars, self.trunc).pack(alpha) not in self._nums:
            return None
        return alpha, self._divide_monomial(alpha)

    # -- variable surgery ---------------------------------------------------

    def restrict_set_zero(self, i: int) -> "Jet":
        """Set x_i = 0 and drop that variable from the frame."""
        if not 0 <= i < self.nvars:
            raise ShapeError(f"variable index {i} out of range")
        frame = _frame(self.nvars, self.trunc)
        off, m, s = frame.offsets[i], frame.mask, frame.shift
        low = (1 << off) - 1
        out = {}
        for k, v in self._nums.items():
            if not (k >> off) & m:
                # drop digit i: the digits above it (and the degree) move down one
                out[((k >> (off + s)) << off) | (k & low)] = v
        return Jet._packed(self.nvars - 1, self.trunc, *_reduce(out, self._den))

    def insert_var(self, pos: int) -> "Jet":
        """Embed into one more variable, inserted at position ``pos``."""
        if not 0 <= pos <= self.nvars:
            raise ShapeError("insertion position out of range")
        frame = _frame(self.nvars, self.trunc)
        off = frame.shift * (self.nvars - pos)
        low = (1 << off) - 1
        out = {((k >> off) << (off + frame.shift)) | (k & low): v for k, v in self._nums.items()}
        return Jet._packed(self.nvars + 1, self.trunc, out, self._den)

    def recenter(self, point) -> "Jet":
        """Translate the frame: returns the jet of f(x + point).

        The jet is treated as an exact polynomial representative, so the
        truncation is preserved.
        """
        point = [_frac(p) for p in point]
        if len(point) != self.nvars:
            raise ShapeError("point dimension mismatch")
        frame = _frame(self.nvars, self.trunc)
        nums, den = self._nums, self._den
        for i, p in enumerate(point):
            if p == 0:
                continue
            off, m, w = frame.offsets[i], frame.mask, frame.weights[i]
            top = max([(k >> off) & m for k in nums], default=0)
            # (x_i + a/b)^e = sum_j C(e, j) a^j b^(top - j) x_i^(e - j) / b^top
            a_pows = [p.numerator**j for j in range(top + 1)]
            b_pows = [p.denominator**j for j in range(top + 1)]
            out: dict[int, int] = {}
            get = out.get
            for k, v in nums.items():
                e = (k >> off) & m
                for j in range(e + 1):
                    key = k - j * w
                    out[key] = get(key, 0) + v * comb(e, j) * a_pows[j] * b_pows[top - j]
            nums, den = out, den * b_pows[top]
        return Jet._packed(self.nvars, self.trunc, *_reduce(nums, den))

    def chart_pullback(self, i: int, others) -> "Jet":
        """The jet of f after x_j -> x_i x_j for every j in ``others``: one
        chart of a blow-up, at the same truncation.

        The exponent map adds ``sum_{j in others} alpha_j`` to ``alpha_i``; it
        is injective, so distinct terms stay distinct."""
        frame = _frame(self.nvars, self.trunc)
        if not all(0 <= j < self.nvars for j in (i, *others)):
            raise ShapeError("chart index out of range")
        offs, m, w, limit = [frame.offsets[j] for j in others], frame.mask, frame.weights[i], frame.limit
        out = {}
        for k, v in self._nums.items():
            key = k
            for o in offs:
                key += ((k >> o) & m) * w
            if key < limit:
                out[key] = v
        if len(out) == len(self._nums):
            # no term was cut, so the form is still canonical
            return Jet._packed(self.nvars, self.trunc, out, self._den)
        return Jet._packed(self.nvars, self.trunc, *_reduce(out, self._den))


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


def row_reduce(rows, width: int):
    """Gauss-Jordan elimination over Q on a copy of ``rows``: each row in turn
    pivots on its first nonzero entry, among the first ``width`` columns, in a
    column no earlier row took, and clears that column from every other row.
    Returns ``(reduced, pivots)``, with ``pivots[r]`` the pivot column of row
    r, or None when the row depends on those before it; pivots stay unscaled."""
    work = [[_frac(x) for x in row] for row in rows]
    pivots = []
    for r, row in enumerate(work):
        col = next((c for c in range(width) if row[c] != 0 and c not in pivots), None)
        pivots.append(col)
        if col is None:
            continue
        for rr, other in enumerate(work):
            if rr != r and other[col] != 0:
                f = other[col] / row[col]
                work[rr] = [a - f * b if b else a for a, b in zip(other, row)]
    return work, pivots


def mat_det(rows) -> Fraction:
    """The product of the pivots, signed by the parity of their column order."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeError("determinant needs a square matrix")
    reduced, pivots = row_reduce(rows, n)
    if None in pivots:
        return Fraction(0)
    det = Fraction(1)
    for r, col in enumerate(pivots):
        det *= reduced[r][col]
    inversions = sum(c > col for r, col in enumerate(pivots) for c in pivots[:r])
    return -det if inversions % 2 else det


def mat_inv(rows):
    """Row r of ``[A | I]`` reduced, over its pivot, is row ``pivots[r]`` of A^-1."""
    n = len(rows)
    aug = [list(row) + [int(c == r) for c in range(n)] for r, row in enumerate(rows)]
    reduced, pivots = row_reduce(aug, n)
    if None in pivots:
        raise PivotError("matrix is singular")
    inv = [None] * n
    for row, col in zip(reduced, pivots):
        inv[col] = [a / row[col] for a in row[n:]]
    return inv


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
        _check_frame(n, trunc)
        weights = _frame(n, trunc).weights
        comps = []
        for row in rows:
            row = [_frac(a) for a in row]
            if len(row) != n:
                raise ShapeError("from_matrix needs a square matrix")
            coeffs = {w: a for w, a in zip(weights, row) if a} if trunc else {}
            comps.append(Jet._packed(n, trunc, *_common_den(coeffs)))
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
        return [list(c.gradient_at_zero()) for c in self.components]

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


def _substitute_all(fs, g) -> list[Jet]:
    """f(g_1, ..., g_p) for every f of ``fs`` (jets of one frame), as
    :func:`substitute` describes; the powers of the g_i are built once and
    shared by every f."""
    comps = list(g.components) if isinstance(g, PolyMap) else list(g)
    p = fs[0].nvars
    if len(comps) != p:
        raise ShapeError(
            f"component-count mismatch: f has {p} variables, map has {len(comps)}"
        )
    n = comps[0].nvars
    if any(c.nvars != n for c in comps):
        raise ShapeError("map components disagree on variable count")
    T = min([f.trunc for f in fs] + [c.trunc for c in comps])
    comps = [c.with_truncation(T) for c in comps]
    if any(c.is_unit() for c in comps):
        fs = [f.recenter([c.constant_term for c in comps]) for f in fs]
    fs = [f.with_truncation(T) for f in fs]
    unpack = _frame(p, T).unpack
    limit = _frame(n, T).limit
    # g_i - g_i(0) is g_i without its constant term, over g_i's denominator;
    # the term v x^alpha of f then has denominator f.den * prod_i dens_i^alpha_i
    dens = [c._den for c in comps]
    # powers[i][k] = numerators of (g_i - g_i(0)) ** k for k >= 1, built on demand
    powers = [[None, {k: v for k, v in c._nums.items() if k}] for c in comps]
    out_jets = []
    for f in fs:
        terms = [(unpack(k), v) for k, v in f._nums.items()]
        ds = [_prod(map(pow, dens, alpha)) for alpha, _ in terms]
        den = lcm(*ds)
        out: dict[int, int] = {}
        get = out.get
        for (alpha, v), d in zip(terms, ds):
            prod = None
            for i, e in enumerate(alpha):
                if e:
                    pw = powers[i]
                    while len(pw) <= e:
                        pw.append(_mul_numerators(pw[-1], pw[1], limit))
                    prod = pw[e] if prod is None else _mul_numerators(prod, pw[e], limit)
            scale = v * (den // d)
            for key, w in prod.items() if prod is not None else [(0, 1)]:
                out[key] = get(key, 0) + scale * w
        out_jets.append(Jet._packed(n, T, *_reduce(out, f._den * den)))
    return out_jets


def substitute(f: Jet, g) -> Jet:
    """Truncated composite f(g_1, ..., g_p) with exact coefficients.

    ``g`` is a PolyMap (or list of jets) whose component count matches the
    variable count of ``f``.  When g(0) is nonzero, ``f`` is recentered at
    g(0) before substitution.  The result is certified to the smallest
    truncation among the inputs.
    """
    return _substitute_all([f], g)[0]


def compose_maps(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """Map composition outer(inner(x)), component by component."""
    return PolyMap(_substitute_all(outer.components, inner))


def linear_change(f: Jet, rows) -> Jet:
    """Exact substitution x -> A x for an invertible rational matrix A."""
    n = f.nvars
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ShapeError("matrix shape does not match the jet frame")
    if mat_det(rows) == 0:
        raise PivotError("linear change requires an invertible matrix")
    # new variable k contributes column k: x_old_j = sum_k A[j][k] x_new_k
    return substitute(f, PolyMap.from_matrix(rows, f.trunc))


def _raised(jet: Jet, trunc: int) -> Jet:
    """``jet``'s terms in the frame of the larger truncation ``trunc``: the
    jet whose terms above ``jet.trunc`` are zero."""
    src = _frame(jet.nvars, jet.trunc)
    nums = src.rekey(jet._nums, _frame(jet.nvars, trunc))
    return Jet._packed(jet.nvars, trunc, nums, jet._den)


def implicit_solve(z: Jet, i: int) -> Jet:
    """Solve z = 0 for x_i near the origin by Newton iteration.

    Requires z(0) = 0 and a nonzero pivot dz/dx_i(0).  Returns the jet of the
    solution in the remaining variables (original order, x_i removed), at the
    truncation of ``z``; z(x, phi(x)) vanishes to that degree.

    With x' the remaining variables, phi is correct to degree t (from t = 0,
    phi = 0) and v inverts u = dz/dx_i(x', phi) to degree h (from h = 0, v =
    1 / pivot).  A step to degree t' = min(2t + 1, T) substitutes phi into
    ``z`` at truncation t' and sets phi <- phi - z(x', phi) v.  The defect
    z(x', phi) has order t + 1, so v is needed only to degree t' - t - 1, at
    most t; when that is above h, v first becomes v (2 - u v), which doubles
    its precision, at that degree.  The Newton error is the square of the old
    one, of order 2t + 2, so after the step phi is correct to degree t'.  The
    pivot makes the solution unique, so the result is the jet that cancelling
    the defect degree by degree gives, term for term; no division of series
    is needed.
    """
    if not 0 <= i < z.nvars:
        raise ShapeError(f"variable index {i} out of range")
    if z.is_unit():
        raise PivotError("implicit solve requires z(0) = 0")
    n, T = z.nvars, z.trunc
    pivot = z._nums.get(_frame(n, T).weights[i], 0)
    if not pivot:
        raise PivotError("implicit solve requires a nonzero pivot dz/dx_i(0)")
    rest = z.restrict_set_zero(i)
    if rest.is_zero():
        # phi = 0 solves z(x', phi) = 0 to degree T, and the pivot makes the
        # solution unique
        return rest
    m = n - 1
    dz = z.partial(i)

    def with_phi(phi: Jet) -> list[Jet]:
        comps = [Jet.variable(j, m, phi.trunc) for j in range(m)]
        comps.insert(i, phi)
        return comps

    phi, t = Jet.zero(m, 0), 0
    v, h = Jet.constant(Fraction(z._den, pivot), m, 0), 0
    while t < T:
        t2 = min(2 * t + 1, T)
        need = t2 - t - 1
        if need > h:
            u = substitute(dz.with_truncation(need), with_phi(phi.with_truncation(need)))
            v = _raised(v, need)
            v = v * (Jet.constant(2, m, need) - u * v)
            h = need
        phi = _raised(phi, t2)
        defect = substitute(z.with_truncation(t2), with_phi(phi))
        phi = phi - defect * _raised(v, t2)
        t = t2
    return phi


def _sum_of_products(pairs, limit: int) -> tuple[dict[int, int], int]:
    """Canonical numerators and denominator of the sum of a * b over the
    pairs ``((a, a_den), (b, b_den))`` of ``pairs``: numerator dicts over
    denominators, keyed in one frame, whose ``limit`` cuts the products."""
    dens = [da * db for (_, da), (_, db) in pairs]
    den = lcm(*dens)
    out: dict[int, int] = {}
    get = out.get
    for ((a, _), (b, _)), d in zip(pairs, dens):
        s = den // d
        for key, v in _mul_numerators(a, b, limit).items():
            out[key] = get(key, 0) + s * v
    return _reduce(out, den)


def invert_map(g: PolyMap) -> PolyMap:
    """Compositional inverse of a map fixing 0 with invertible Jacobian.

    With g = A x + tail, the inverse h solves h = A^{-1} (y - tail(h)).  The
    tail has order two, so the degree-k part H_k = -A^{-1} tail(h)_k of h
    reads only the parts of h of degree below k.  The solve is online, degree
    by degree: it keeps h, and each product h^alpha = h^(alpha - e_i) h_i
    that the tail's terms need, as homogeneous parts, and round k (k = 2 ..
    T) forms the degree-k part of each product, sum_d (h_i)_d
    (h^(alpha - e_i))_(k - d), from parts of degree below k, then H_k.  So
    each pair of homogeneous parts is multiplied once in all, where composing
    the tail with h cut to truncation k, once for each degree k, would form
    every lower-degree product again in each round.  The inverse is unique,
    so the result is exact to the working truncation, with no convergence
    test; both g(h) and h(g) are the identity jet.
    """
    n = len(g)
    if g.nvars != n:
        raise ShapeError("invert_map needs as many components as variables")
    if any(b != 0 for b in g.value_at_zero()):
        raise PivotError("invert_map requires g(0) = 0")
    T = g.trunc
    try:
        Ainv = mat_inv(g.jacobian_at_zero())
    except PivotError:
        raise PivotError("invert_map requires an invertible Jacobian at 0") from None
    frame = _frame(n, T)
    weights, limit = frame.weights, frame.limit
    # parts[key][d]: the degree-d part of h^alpha (alpha packed to key) as
    # canonical (numerators, denominator); parts[weights[i]] is h_i
    empty = ({}, 1)
    parts = {w: [empty, (c._nums, c._den)]
             for w, c in zip(weights, PolyMap.from_matrix(Ainv, T).components)}
    # H_k's component r is sum_alpha c_alpha (h^alpha)_k, with c_alpha the
    # coefficient of x^alpha, |alpha| >= 2, in -A^{-1} g; each c_alpha is
    # held as a part of degree zero
    quadratic = 2 * frame.top
    rows = []
    for row in Ainv:
        mixed = sum((c.scale(-a) for a, c in zip(row, g.components)), Jet.zero(n, T))
        den = mixed._den
        rows.append([(key, ({0: v}, den)) for key, v in mixed._nums.items() if key >= quadratic])
    # steps[alpha's key]: h^alpha = h^beta h_i, with i the last variable of
    # alpha and beta = alpha - e_i, as (h_i's key, beta's key, |beta|); each
    # beta that is not a component of h has a step of its own
    steps = {}
    for key in {key for row in rows for key, _ in row}:
        while key not in parts:
            alpha = frame.unpack(key)
            i = max(j for j, e in enumerate(alpha) if e)
            steps[key] = (weights[i], key - weights[i], sum(alpha) - 1)
            parts[key] = [empty, empty]
            key -= weights[i]
    for k in range(2, T + 1):
        for key, (hi, beta, low) in steps.items():
            a, b = parts[hi], parts[beta]
            pairs = [(a[d], b[k - d]) for d in range(1, k - low + 1) if a[d][0] and b[k - d][0]]
            parts[key].append(_sum_of_products(pairs, limit))
        for w, row in zip(weights, rows):
            pairs = [(c, parts[key][k]) for key, c in row if parts[key][k][0]]
            parts[w].append(_sum_of_products(pairs, limit))
    one = ({0: 1}, 1)
    comps = []
    for w in weights:
        nums, den = _sum_of_products([(one, part) for part in parts[w] if part[0]], limit)
        comps.append(Jet._packed(n, T, nums, den))
    return PolyMap(comps)
