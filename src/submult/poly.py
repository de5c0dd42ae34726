"""Exact sparse multivariate polynomial arithmetic over the Gaussian rationals.

A polynomial is a map from exponent tuples to coefficients ``a + b*i`` with
``a, b`` arbitrary-precision rationals.  Everything here is exact: there is no
floating-point mode anywhere in the package.  Besides ring arithmetic the
module provides formal differentiation, composition, order of
vanishing at the origin, maximal minors of polynomial matrices, multivariate
gcd, squarefree parts, and the text grammar used by the CLI:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := rational | 'i' | var | '(' expr ')'

Whitespace is insignificant.  A power of a t-term base to the exponent e is
refused before it is expanded when e * C(e + t - 1, t - 1) exceeds 100,000, or
when that count times the bit length of the base's largest numerator or
denominator exceeds 1,000,000.
Printing is canonical (graded-lexicographic, highest degree first, ties by
exponent tuple), so ``parse(print(p)) == p``.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import add, le, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceededError, DimensionMismatchError, ParseError, ValidationError, checked

Mono = tuple[int, ...]


class GaussianRational:
    """Exact complex number a + b*i with rational a, b.

    Stored as three integers, (re_num + im_num*i) / den, in lowest terms:
    gcd(re_num, im_num, den) == 1 and den > 0.  Equal values therefore have
    equal triples, and each operation is one integer formula reduced by
    ``_reduced``.  ``re`` and ``im`` are read as Fractions.
    """

    __slots__ = ("_re_num", "_im_num", "_den")

    def __new__(cls, re: int | Fraction = 0, im: int | Fraction = 0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(
                "GaussianRational parts must be int or Fraction, not "
                f"{type(re).__name__} and {type(im).__name__}"
            )
        q, s = re.denominator, im.denominator
        return _reduced(re.numerator * s, im.numerator * q, q * s)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._re_num, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im_num, self._den)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def __bool__(self):
        return self._re_num != 0 or self._im_num != 0

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GaussianRational(other)
        return (
            self._re_num == other._re_num
            and self._im_num == other._im_num
            and self._den == other._den
        )

    def __hash__(self):
        # a real value equals its int or Fraction, so it must hash like it
        return hash((self.re, self.im)) if self._im_num else hash(self.re)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, d = self._re_num, self._im_num, self._den
        c, e, f = other._re_num, other._im_num, other._den
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._re_num, -self._im_num, self._den)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, d = self._re_num, self._im_num, self._den
        c, e, f = other._re_num, other._im_num, other._den
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, d = self._re_num, self._im_num, self._den
        c, e, f = other._re_num, other._im_num, other._den
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, d = self._re_num, self._im_num, self._den
        c, e, f = other._re_num, other._im_num, other._den
        if not (c or e):
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def __pow__(self, n: int):
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._re_num, -self._im_num, self._den)

    def modulus_squared(self) -> Fraction:
        return Fraction(self._re_num**2 + self._im_num**2, self._den**2)

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        return f"({re} + {im}*i)" if im > 0 else f"({re} - {-im}*i)"


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i) / d in lowest terms.

    Needs no sign fix-up: every d is positive, being a stored denominator, a
    product of two, or such a product times a norm c^2 + e^2 > 0.  A Gaussian
    integer, d == 1, is in lowest terms already, and so is a triple whose
    gcd is 1.
    """
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    _set_re_num(z, a)
    _set_im_num(z, b)
    _set_den(z, d)
    return z


# The constructors store through the slot descriptors, around the classes'
# __setattr__ guards: one call each, where object.__setattr__ first looks
# the attribute name up on the type.
_new = object.__new__
_set_re_num = GaussianRational._re_num.__set__
_set_im_num = GaussianRational._im_num.__set__
_set_den = GaussianRational._den.__set__

GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _grlex_key(mono: Mono) -> tuple:
    return (sum(mono), mono)


class Polynomial:
    """Immutable sparse polynomial in ``ring_dim`` variables.

    ``terms`` maps exponent tuples to nonzero GaussianRational coefficients.
    Instances must not be mutated after construction; every operation returns
    a fresh value, so shared instances are safe to use concurrently.
    """

    __slots__ = ("ring_dim", "terms")

    def __init__(self, ring_dim: int, terms: dict | None = None):
        """Validating entry for outside input: exponents checked, coefficients coerced."""
        if ring_dim < 0:
            raise ValueError("ring_dim must be non-negative")
        clean: dict[Mono, GaussianRational] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != ring_dim or any(type(e) is not int or e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono} for ring_dim={ring_dim}")
            clean[mono] = GaussianRational.coerce(coeff)
        self._fill(ring_dim, clean)

    def _fill(self, ring_dim: int, terms: dict[Mono, GaussianRational]) -> None:
        # the one place that drops zero coefficients, cancelled terms included
        _set_ring_dim(self, ring_dim)
        _set_terms(self, {m: c for m, c in terms.items() if c._re_num or c._im_num})

    @classmethod
    def _of(cls, ring_dim: int, terms: dict[Mono, GaussianRational]) -> "Polynomial":
        """Arithmetic results: ``terms`` already maps exponent tuples of length
        ``ring_dim`` to GaussianRationals, so nothing is checked again."""
        p = _new(cls)
        p._fill(ring_dim, terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring_dim: int) -> "Polynomial":
        return cls(ring_dim, {})

    @classmethod
    def constant(cls, ring_dim: int, value) -> "Polynomial":
        return cls(ring_dim, {(0,) * ring_dim: GaussianRational.coerce(value)})

    @classmethod
    def variable(cls, ring_dim: int, index: int) -> "Polynomial":
        if not 0 <= index < ring_dim:
            raise IndexError(f"variable index {index} out of range for ring_dim={ring_dim}")
        mono = tuple(1 if j == index else 0 for j in range(ring_dim))
        return cls(ring_dim, {mono: GR_ONE})

    @classmethod
    def monomial(cls, exponents: Mono, coeff=1) -> "Polynomial":
        return cls(len(exponents), {tuple(exponents): GaussianRational.coerce(coeff)})

    # -- predicates and projections ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.ring_dim, GR_ZERO)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int:
        """Maximal total degree among present monomials; -1 for zero."""
        return max((sum(m) for m in self.terms), default=-1)

    def ord_vanish(self) -> int | None:
        """Minimal total degree among present monomials; None for zero."""
        return min((sum(m) for m in self.terms), default=None)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(m[index] for m in self.terms)

    # -- ring arithmetic ----------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.ring_dim != other.ring_dim:
            raise DimensionMismatchError(
                f"ring dimension mismatch: {self.ring_dim} vs {other.ring_dim}"
            )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring_dim == other.ring_dim and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.ring_dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            out[mono] = coeff if acc is None else acc + coeff
        return Polynomial._of(self.ring_dim, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.ring_dim, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(self.ring_dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono)
            out[mono] = -coeff if acc is None else acc - coeff
        return Polynomial._of(self.ring_dim, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # a constant factor c, a scalar or a constant polynomial, only scales
        # the other factor f's coefficients, and c = 1 leaves f as it is
        if isinstance(other, (int, Fraction, GaussianRational)):
            f, c = self, GaussianRational.coerce(other)
        else:
            self._check_dim(other)
            f, g = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
            c = g.terms.get((0,) * self.ring_dim) if len(g.terms) == 1 else None
        if c is not None:
            if c == GR_ONE:
                return f  # polynomials are immutable
            return Polynomial._of(f.ring_dim, {m: v * c for m, v in f.terms.items()})
        out: dict[Mono, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                acc = out.get(mono)
                out[mono] = c1 * c2 if acc is None else acc + c1 * c2
        return Polynomial._of(self.ring_dim, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        out = Polynomial.constant(self.ring_dim, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus and composition -------------------------------------------

    def diff(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.ring_dim:
            raise IndexError(f"variable index {index} out of range")
        out: dict[Mono, GaussianRational] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            if e > 1:
                coeff = _reduced(coeff._re_num * e, coeff._im_num * e, coeff._den)
            out[mono[:index] + (e - 1,) + mono[index + 1 :]] = coeff
        return Polynomial._of(self.ring_dim, out)

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.diff(i) for i in range(self.ring_dim))

    def compose(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at an n-tuple of polynomials living in a common ring."""
        if len(args) != self.ring_dim:
            raise DimensionMismatchError(
                f"expected {self.ring_dim} arguments, got {len(args)}"
            )
        if not args:
            return self
        out_dim = args[0].ring_dim
        for a in args:
            if a.ring_dim != out_dim:
                raise DimensionMismatchError("composition arguments live in different rings")
        one = (0,) * out_dim
        powers = [[Polynomial._of(out_dim, {one: GR_ONE})] for _ in args]

        def power(i: int, k: int) -> Polynomial:
            cache = powers[i]
            while len(cache) <= k:
                cache.append(cache[-1] * args[i])
            return cache[k]

        out = Polynomial._of(out_dim, {})
        for mono, coeff in self.terms.items():
            prod = Polynomial._of(out_dim, {one: coeff})
            for i, e in enumerate(mono):
                if e:
                    prod = prod * power(i, e)
            out = out + prod
        return out

    def lift(self, new_dim: int, var_map: Sequence[int] | None = None) -> "Polynomial":
        """Embed into a larger ring, sending variable i to ``var_map[i]``."""
        if var_map is None:
            var_map = range(self.ring_dim)
        out: dict[Mono, GaussianRational] = {}
        for mono, coeff in self.terms.items():
            new = [0] * new_dim
            for i, e in enumerate(mono):
                new[var_map[i]] += e
            out[tuple(new)] = coeff
        return Polynomial._of(new_dim, out)

    def conjugate_coeffs(self) -> "Polynomial":
        return Polynomial._of(self.ring_dim, {m: c.conjugate() for m, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Mono, GaussianRational]]:
        """Terms in descending graded-lexicographic order (canonical)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[Mono, GaussianRational]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def monic(self) -> "Polynomial":
        """Divide by the graded-lex leading coefficient."""
        if not self.terms:
            return self
        _, lc = self.leading()
        return self if lc == GR_ONE else self * (GR_ONE / lc)

    def __repr__(self):
        names = tuple(f"x{i}" for i in range(self.ring_dim))
        return f"Polynomial({format_poly(self, names)})"


_set_ring_dim = Polynomial.ring_dim.__set__
_set_terms = Polynomial.terms.__set__


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|(\w+)|(\S)")  # a digit run, a name, any other character
# the most term products a '^' may take: e * C(e + t - 1, t - 1) for a t-term
# base, which is the exponent times the most terms the power can have
_POWER_LIMIT = 100_000
# the most bits a '^' may expand to, as those term products times the bits of the
# base's largest numerator or denominator: the power has at most C(e + t - 1, t - 1)
# terms, each with a coefficient of about e times those bits
_POWER_BITS = 1_000_000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then an end token."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = ("num", "name", "op")[m.lastindex - 1]
        if kind == "op" and m[0] not in "+-*/^()":
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        tokens.append((kind, m[0], m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        if "i" in variables:
            raise ValidationError("'i' is reserved for the imaginary unit")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = list(variables)
        self.dim = len(variables)
        self.zero = Polynomial.zero(self.dim)

    def take(self, ops: str) -> str | None:
        """Consume and return the next token if it is one of these operators."""
        kind, val, _ = self.tokens[self.pos]
        if kind == "op" and val in ops:
            self.pos += 1
            return val
        return None

    def uint(self, missing: str) -> tuple[int, int]:
        """The next token's integer and position; ParseError(missing) if it is no number."""
        kind, val, at = self.tokens[self.pos]
        if kind != "num":
            raise ParseError(missing, at)
        self.pos += 1
        try:
            return int(val), at
        except ValueError:  # more digits than int() reads
            raise ParseError("number too long", at) from None

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, val, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", at)
        return poly

    def expr(self) -> Polynomial:
        poly = self.zero
        op = self.take("+-") or "+"
        while op:
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
            op = self.take("+-")
        return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while self.take("*"):
            poly = poly * self.factor()
        return poly

    def factor(self) -> Polynomial:
        base = self.base()
        if not self.take("^"):
            return base
        e, at = self.uint("exponent must be a non-negative integer")
        t = len(base.terms)
        if t and e:
            top = max(max(abs(c._re_num), abs(c._im_num), c._den) for c in base.terms.values())
            bits = top.bit_length()
            products = e if e > _POWER_LIMIT else e * math.comb(e + t - 1, t - 1)
            if products > _POWER_LIMIT or products * bits > _POWER_BITS:
                raise ParseError(
                    f"power of a {t}-term base with {bits}-bit coefficients too large to expand", at
                )
        return base**e

    def base(self) -> Polynomial:
        kind, val, at = self.tokens[self.pos]
        if kind == "num":
            num, _ = self.uint("")
            den, at = self.uint("expected denominator") if self.take("/") else (1, at)
            if not den:
                raise ParseError("zero denominator", at)
            return Polynomial.constant(self.dim, Fraction(num, den))
        if kind == "name":
            self.pos += 1
            if val == "i":
                return Polynomial.constant(self.dim, GR_I)
            if val in self.variables:
                return Polynomial.variable(self.dim, self.variables.index(val))
            raise ParseError(f"unknown variable {val!r}", at)
        if self.take("("):
            poly = self.expr()
            if not self.take(")"):
                _, val, at = self.tokens[self.pos]
                raise ParseError(f"expected ')', found {val or 'end of input'!r}", at)
            return poly
        raise ParseError(f"unexpected token {val or 'end of input'!r}", at)


def parse(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression over the named variables into canonical form."""
    parser = _Parser(text, variables)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.tokens[parser.pos][2]) from None


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _render_coeff(coeff: GaussianRational, has_vars: bool) -> tuple[int, str | None]:
    """Break a coefficient into (sign, text); text None means an implicit 1."""
    re, im = coeff.re, coeff.im
    if im == 0:
        sign = 1 if re > 0 else -1
        mag = abs(re)
        if mag == 1 and has_vars:
            return sign, None
        return sign, str(mag)
    if re == 0:
        sign = 1 if im > 0 else -1
        mag = abs(im)
        if mag == 1:
            return sign, "i"
        return sign, str(mag) + "*i"
    re_text = str(re)
    im_mag = abs(im)
    im_text = "i" if im_mag == 1 else str(im_mag) + "*i"
    joiner = " + " if im > 0 else " - "
    return 1, f"({re_text}{joiner}{im_text})"


def format_poly(poly: Polynomial, variables: Sequence[str]) -> str:
    """Canonical text form; inverse of :func:`parse` on canonical strings."""
    if len(variables) != poly.ring_dim:
        raise DimensionMismatchError("variable list does not match ring dimension")
    if poly.is_zero():
        return "0"
    pieces = []
    for mono, coeff in poly.sorted_terms():
        factors = []
        for name, e in zip(variables, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        sign, text = _render_coeff(coeff, bool(factors))
        if text is not None:
            factors.insert(0, text)
        body = "*".join(factors) if factors else "1"
        pieces.append((sign, body))
    sign, body = pieces[0]
    out = ("-" if sign < 0 else "") + body
    for sign, body in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out


# ---------------------------------------------------------------------------
# matrices and minors
# ---------------------------------------------------------------------------


@checked
class PolyMatrix(NamedTuple):
    """Rectangular matrix of polynomials; rows are candidate allowable rows."""

    rows: tuple[tuple[Polynomial, ...], ...]

    def _check(self):
        if not self.rows:
            raise ValidationError("matrix needs at least one row")
        width = len(self.rows[0])
        dim = self.rows[0][0].ring_dim if width else 0
        for row in self.rows:
            if len(row) != width:
                raise ValidationError("matrix rows have unequal lengths")
            for entry in row:
                if entry.ring_dim != dim:
                    raise DimensionMismatchError("matrix entries live in different rings")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])


_HARD_MINOR_LIMIT = 200_000


def _laplace(
    rows: Sequence[Sequence[Polynomial]], subsets: Iterable[Sequence[int]]
) -> list[Polynomial]:
    """Determinant of the rows of each subset, which has one row per column,
    by expansion along its first row.

    The sub-minor on a row tail and a column set is computed once per call and
    shared by every subset that ends in that tail; zero entries and zero
    sub-minors are skipped, so a lower-triangular matrix costs one product per
    row, its diagonal product.
    """
    zero = Polynomial.zero(rows[0][0].ring_dim)
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}

    def minor(tail: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        row = rows[tail[0]]
        if len(tail) == 1:
            return row[cols[0]]
        key = (tail, cols)
        out = memo.get(key)
        if out is None:
            out = zero
            for k, c in enumerate(cols):
                if not row[c].terms:
                    continue
                sub_minor = minor(tail[1:], cols[:k] + cols[k + 1 :])
                if sub_minor.terms:
                    term = row[c] * sub_minor
                    out = out - term if k % 2 else out + term
            memo[key] = out
        return out

    everything = tuple(range(len(rows[0])))
    return [minor(tuple(subset), everything) for subset in subsets]


def det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant by expansion along the first row (see _laplace)."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValidationError("determinant requires a non-empty square matrix")
    return _laplace(rows, [range(n)])[0]


def minor_dets(matrix: PolyMatrix) -> list[Polynomial]:
    """Determinants of all maximal square submatrices, in combination order.

    Each is expanded along its first row, and subsets that share their later
    rows share those rows' sub-minors (see _laplace): a dense 6 x 3 matrix
    takes 120 products where separate determinants take 180.  More than
    _HARD_MINOR_LIMIT row subsets raise CapExceededError("row_cap").
    """
    n = matrix.ncols
    if n == 0:
        raise ValidationError("maximal minors need at least one column")
    if matrix.nrows < n:
        raise ValidationError(
            f"need at least {n} rows for maximal minors, got {matrix.nrows}"
        )
    count = math.comb(matrix.nrows, n)
    if count > _HARD_MINOR_LIMIT:
        raise CapExceededError(
            f"{count} row subsets exceed the hard minor limit", cap="row_cap"
        )
    return _laplace(matrix.rows, itertools.combinations(range(matrix.nrows), n))


# ---------------------------------------------------------------------------
# division, gcd, squarefree part
# ---------------------------------------------------------------------------


def _mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g when the division is exact, else None.

    One division loop on a term dict: the grlex-leading work term must be a
    multiple of lm(g); its quotient term is recorded and that multiple of
    g's tail subtracted.  Each step removes the leading term and adds only
    terms below it, so the recorded shifts are distinct.  The work dict is
    keyed by (degree, monomial), its grlex key, so each step's max compares
    the keys themselves.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_dim(g)
    g_mono, g_coeff = g.leading()
    g_degree = sum(g_mono)
    # (its degree less that of lm(g), monomial, coefficient) for each tail term
    tail = [(sum(m) - g_degree, m, c) for m, c in g.terms.items() if m != g_mono]
    work = {(sum(m), m): c for m, c in f.terms.items()}
    quotient: dict[Mono, GaussianRational] = {}
    while work:
        key = max(work)
        degree, mono = key
        if not _mono_divides(g_mono, mono):
            return None
        shift = tuple(map(sub, mono, g_mono))
        q = quotient[shift] = work.pop(key) / g_coeff
        for d2, m2, c2 in tail:
            kk = (degree + d2, tuple(map(add, m2, shift)))
            t = q * c2
            acc = work.get(kk)
            if acc is None:
                work[kk] = -t
            elif acc := acc - t:
                work[kk] = acc
            else:
                del work[kk]
    return Polynomial._of(f.ring_dim, quotient)


def divides(g: Polynomial, f: Polynomial) -> bool:
    return exact_div(f, g) is not None


def least_power(f: Polynomial, holds: Callable[[Polynomial], bool], bound: int | None) -> int | None:
    """Least s <= bound with holds(f**s), else None; each power costs one product.

    A bound of None searches every s: the caller has shown that some power holds.
    A bound below 1 admits no s.
    """
    if bound is not None and bound < 1:
        return None
    power = f
    for s in itertools.count(1):
        if holds(power):
            return s
        if bound is not None and s >= bound:
            return None
        power = power * f


def _split(f: Polynomial, var: int) -> dict[int, Polynomial]:
    """{k: coefficient of x_var^k} of f, read in one pass; each has zero var-exponent."""
    parts: dict[int, dict[Mono, GaussianRational]] = {}
    for mono, coeff in f.terms.items():
        parts.setdefault(mono[var], {})[mono[:var] + (0,) + mono[var + 1 :]] = coeff
    return {k: Polynomial._of(f.ring_dim, terms) for k, terms in parts.items()}


def _prem(f: Polynomial, g: Polynomial, var: int) -> Polynomial:
    """Pseudo-remainder of f by g with respect to one variable."""
    dg = g.degree_in(var)
    lc_g = _split(g, var)[dg]
    r = f
    while (dr := r.degree_in(var)) >= dg:
        shift = Polynomial.monomial(tuple(dr - dg if i == var else 0 for i in range(f.ring_dim)))
        r = lc_g * r - _split(r, var)[dr] * shift * g
    return r


def _primitive(f: Polynomial, var: int) -> tuple[Polynomial, Polynomial]:
    """Content of f in x_var (the gcd of its coefficients, low degree first) and
    the primitive part f / content; zero splits as (zero, zero)."""
    split = _split(f, var)
    if not split:
        return f, f
    if len(split) == 1:
        ((k, content),) = split.items()
        return content, Polynomial.monomial(tuple(k if i == var else 0 for i in range(f.ring_dim)))
    content, *rest = [split[k] for k in sorted(split)]
    for c in rest:
        content = poly_gcd(content, c)
        if content.is_constant():
            break
    return content, exact_div(f, content)


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Multivariate gcd over the Gaussian rationals, monic-normalized.

    Recursive primitive PRS in the last variable x that occurs: the gcd of the
    contents in x comes from recursive calls, and the gcd of the primitive
    parts is the last nonzero primitive pseudo-remainder, or 1 when the
    sequence reaches degree 0 in x.
    """
    f._check_dim(g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    active = [v for v in range(f.ring_dim) if f.degree_in(v) > 0 or g.degree_in(v) > 0]
    if not active:
        return Polynomial.constant(f.ring_dim, 1)
    var = active[-1]
    cf, a = _primitive(f, var)
    cg, b = _primitive(g, var)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while b.degree_in(var) > 0:
        # monic, so that the coefficients do not grow from one remainder to the next
        a, b = b, _primitive(_prem(a, b, var), var)[1].monic()
    cont = poly_gcd(cf, cg)
    return (cont * a).monic() if b.is_zero() else cont.monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """Monic generator of the radical of the principal ideal (p).

    p = x^a * q with x^a the gcd of p's monomials, so no variable divides q
    and sqfree(p) = x^min(a, 1) * sqfree(q).  A one-term q is constant and
    its part is 1, so a monomial p costs no gcd; otherwise sqfree(q) is q
    divided by its gcd with its partial derivatives.
    """
    if p.is_zero():
        raise ValidationError("squarefree part of the zero polynomial is undefined")
    a = tuple(map(min, zip(*p.terms)))
    q = Polynomial._of(p.ring_dim, {tuple(map(sub, m, a)): c for m, c in p.terms.items()})
    if q.is_monomial():
        core = {(0,) * p.ring_dim: GR_ONE}
    else:
        g = q
        for i in range(q.ring_dim):
            d = q.diff(i)
            if d.is_zero():
                continue
            g = poly_gcd(g, d)
            if g.is_constant():
                break
        quotient = exact_div(q, g)
        assert quotient is not None, "gcd with derivatives must divide q"
        core = quotient.monic().terms
    x = tuple(min(e, 1) for e in a)
    return Polynomial._of(p.ring_dim, {tuple(map(add, m, x)): c for m, c in core.items()})


def monomials_of_degree(ring_dim: int, degree: int) -> Iterator[Mono]:
    """All exponent tuples of the given total degree, lexicographic order."""

    def rec(prefix: list[int], remaining: int, slots: int) -> Iterator[Mono]:
        if slots == 1:
            yield tuple(prefix + [remaining])
            return
        for e in range(remaining, -1, -1):
            yield from rec(prefix + [e], remaining - e, slots - 1)

    if ring_dim == 0:
        if degree == 0:
            yield ()
        return
    yield from rec([], degree, ring_dim)
