"""Order-of-contact arithmetic for curves and families of curves.

Single curves are pulled back exactly as Hermitian polynomials in (zeta,
conj-zeta), so the vanishing order needs no genericity assumptions.  Curve
families carry an extra positive real parameter t; each pulled-back monomial
c * zeta^a * t^b is dominated on the disk |zeta| <= t by t^(a+b), and the
contact order of the family is the least total weight that survives exact
symbolic cancellation.  Exponents of t are exact rationals and may depend
affinely on one free symbol, which is fixed by balancing the two dominant
weight lines.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, ParseError, ValidationError, checked
from .poly import _POWER_BITS, GR_I, GR_ONE, GR_ZERO, GaussianRational, Polynomial, parse


@checked
class AmbientDomain(NamedTuple):
    """Domain Re(last variable) + sum |h_j|^2, with h_j in all variables."""

    variables: tuple[str, ...]
    h: tuple[Polynomial, ...]

    def _check(self):
        if len(self.variables) < 2:
            raise ValidationError("ambient domain needs at least two variables")
        for p in self.h:
            if p.ring_dim != len(self.variables):
                raise ValidationError("defining function lives in the wrong ring")

    @property
    def dim(self) -> int:
        return len(self.variables)

    @classmethod
    def from_strings(cls, h_strings, variables) -> "AmbientDomain":
        vs = tuple(variables)
        return cls(vs, tuple(parse(s, vs) for s in h_strings))


@checked
class CurveTerm(NamedTuple):
    """One monomial c * zeta^a * t^b of a family component; b may be affine
    in the free exponent: b = t_exp + alpha_coeff * alpha."""

    coeff: GaussianRational
    zeta_exp: int
    t_exp: Fraction
    alpha_coeff: Fraction = Fraction(0)

    def _check(self):
        if not self.coeff:
            raise ValidationError("curve terms must have nonzero coefficients")
        if self.zeta_exp < 0:
            raise ValidationError("zeta exponents must be non-negative")


@checked
class CurveFamily(NamedTuple):
    """Components of a family g_t as finite sums of CurveTerm."""

    components: tuple[tuple[CurveTerm, ...], ...]

    def _check(self):
        n = len(self.components)
        if n < 2:
            raise ValidationError("family needs at least two components")
        # the moving base point may only sit in the last component
        for comp in self.components[:-1]:
            for term in comp:
                if term.zeta_exp == 0:
                    raise ValidationError(
                        "constant terms are only allowed in the last component"
                    )
        for term in self.components[-1]:
            if term.zeta_exp == 0 and term.alpha_coeff == 0 and term.t_exp <= 0:
                raise ValidationError(
                    "the moving base point must shrink with t"
                )
        # uniform lower bound on |g_t'(0)|: a t-independent linear term
        if not any(
            term.zeta_exp == 1 and term.t_exp == 0 and term.alpha_coeff == 0
            for comp in self.components
            for term in comp
        ):
            raise ValidationError(
                "some component needs a t-independent linear zeta term"
            )

    @property
    def has_free_exponent(self) -> bool:
        return any(
            term.alpha_coeff != 0 for comp in self.components for term in comp
        )

    def fix_exponent(self, alpha: Fraction) -> "CurveFamily":
        alpha = Fraction(alpha)
        fixed = tuple(
            tuple(
                CurveTerm(t.coeff, t.zeta_exp, t.t_exp + t.alpha_coeff * alpha)
                for t in comp
            )
            for comp in self.components
        )
        return CurveFamily(fixed)

    @classmethod
    def from_config(cls, component_lists) -> "CurveFamily":
        """Family from lists of {coeff, zeta_exp, t_exp?} term documents."""
        if not isinstance(component_lists, list) or not all(
            isinstance(entries, list) for entries in component_lists
        ):
            raise ValidationError("family components must be a list of term lists")
        comps = []
        for entries in component_lists:
            terms = []
            for entry in entries:
                if not isinstance(entry, dict) or not {"coeff", "zeta_exp"} <= entry.keys():
                    raise ValidationError("each family term needs 'coeff' and 'zeta_exp'")
                if type(entry["zeta_exp"]) is not int:
                    raise ValidationError("zeta_exp must be an integer")
                coeff = parse(str(entry["coeff"]), []).constant_term()
                tc, ta = _parse_exponent(entry.get("t_exp", 0))
                terms.append(CurveTerm(coeff, entry["zeta_exp"], tc, ta))
            comps.append(tuple(terms))
        return cls(tuple(comps))


def rational(value, name: str) -> Fraction:
    """An input rational: an integer, p/q or a decimal, read as Fraction reads it.

    A malformed value, a zero denominator or exponent notation is a
    ValidationError naming the input; Fraction would expand an exponent such
    as 1e-9999999 into all of its digits.
    """
    if isinstance(value, str) and re.search(r"[\d.][eE]", value):
        raise ValidationError(
            f"{name}: {value!r} is in exponent notation; write an integer, p/q or a decimal"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{name}: {value!r} is not a rational number") from exc


def _parse_exponent(value) -> tuple[Fraction, Fraction]:
    """Affine t-exponent (constant, slope of alpha): an integer, or a string
    in the grammar of ``parse`` over the one variable alpha, such as '1/2' or
    '1/2 - 3*alpha'."""
    if type(value) not in (str, int):
        raise ValidationError("family key 't_exp' must be a string or an integer")
    try:
        terms = parse(str(value), ("alpha",)).terms
    except ParseError as exc:
        raise ValidationError(f"t_exp: {value!r} is not an exponent: {exc}") from exc
    if any(mono[0] > 1 or c.im for mono, c in terms.items()):
        raise ValidationError(f"t_exp: {value!r} is not affine in alpha with real coefficients")
    return terms.get((0,), GR_ZERO).re, terms.get((1,), GR_ZERO).re


# ---------------------------------------------------------------------------
# single curves: exact Hermitian pullback
# ---------------------------------------------------------------------------


def contact_curve(
    domain: AmbientDomain,
    curve: Sequence[Polynomial],
    base_point: Sequence[GaussianRational] | None = None,
) -> Fraction | None:
    """Vanishing order of the pulled-back boundary over that of the curve.

    None when the pulled-back boundary vanishes identically: the contact is
    infinite.
    """
    n = domain.dim
    curve = tuple(curve)
    if len(curve) != n:
        raise ValidationError("curve must have one component per variable")
    for c in curve:
        if c.ring_dim != 1:
            raise ValidationError("curve components must be univariate")
    base = tuple(
        GaussianRational.coerce(b) for b in (base_point or [c.constant_term() for c in curve])
    )
    if len(base) != n:
        raise ValidationError("base point must have one entry per variable")
    for c, b in zip(curve, base):
        if c.constant_term() != b:
            raise ValidationError("curve is not based at the given point")
    if all(c.is_constant() for c in curve):
        raise ValidationError("curve is constant")
    pulled = [h.compose(curve) for h in domain.h]
    boundary = base[-1].re + sum(
        (f.constant_term().modulus_squared() for f in pulled), Fraction(0)
    )
    if boundary != 0:
        raise ValidationError("base point is not on the boundary")
    nu_curve = min((c - c.constant_term()).ord_vanish() for c in curve if not c.is_constant())
    # exact real-valued pullback as a polynomial in (zeta, conj zeta)
    last = curve[-1]
    total = (
        last.lift(2, [0]) + last.conjugate_coeffs().lift(2, [1])
    ) * Fraction(1, 2)
    for f in pulled:
        total = total + f.lift(2, [0]) * f.conjugate_coeffs().lift(2, [1])
    nu_pull = total.ord_vanish()
    return None if nu_pull is None else Fraction(nu_pull, nu_curve)


# ---------------------------------------------------------------------------
# families: weighted symbolic pullback
# ---------------------------------------------------------------------------

# series over the family algebra: (zeta_exp, t_exp, alpha_coeff) -> coefficient
_FamKey = tuple[int, Fraction, Fraction]


def _series_sum(items: Iterable[tuple[_FamKey, GaussianRational]]) -> dict[_FamKey, GaussianRational]:
    """Sum of (key, coefficient) items in order; a key whose sum is zero is dropped."""
    out: dict[_FamKey, GaussianRational] = {}
    for key, c in items:
        acc = out.get(key, None)
        acc = c if acc is None else acc + c
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def _pullback_series(poly: Polynomial, family: CurveFamily) -> dict[_FamKey, GaussianRational]:
    """poly along the family, as a series with cancelled terms dropped.

    Each family term is one variable x_k, so the pullback is one ``compose``
    with the components written as sums of c_k * x_k; a monomial prod x_k^e_k
    of the result is the series term whose key is sum e_k * key(term k).
    """
    terms = [t for comp in family.components for t in comp]
    n = len(terms)
    # the k-th family term, in component order, is the variable x_k
    units = iter([tuple(int(j == k) for j in range(n)) for k in range(n)])
    args = [Polynomial(n, {next(units): t.coeff for t in comp}) for comp in family.components]
    # key columns: zeta exponents, t exponents, alpha slopes
    columns = list(zip(*((t.zeta_exp, t.t_exp, t.alpha_coeff) for t in terms)))
    return _series_sum(
        (tuple(sum(map(mul, mono, column)) for column in columns), c)
        for mono, c in poly.compose(args).terms.items()
    )


class ContactResult(NamedTuple):
    """Contact order of a family with the lines that attain it.

    ``eta`` is None when every pulled-back term cancels: the contact is
    infinite, and ``to_dict`` renders it as "infinite".
    """

    eta: Fraction | None
    dominant_terms: tuple[str, ...]
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "eta": "infinite" if self.eta is None else str(self.eta),
            "dominant_terms": list(self.dominant_terms),
            "warnings": list(self.warnings),
            "epsilon_bound": None if self.eta is None else str(epsilon_bound(self.eta)),
        }


def _weight_lines(domain: AmbientDomain, family: CurveFamily):
    """Candidate weight lines (const, slope, label, tie_warning) per source."""
    if len(family.components) != domain.dim:
        raise ValidationError("family must have one component per variable")
    # (name, weight scale, source index, series keys); a squared modulus
    # doubles every weight
    sources = [
        (f"|h{j + 1}|^2", 2, j, _pullback_series(h, family)) for j, h in enumerate(domain.h)
    ]
    last = _pullback_series(Polynomial.variable(domain.dim, domain.dim - 1), family)
    sources.append(("Re part", 1, -1, [key for key, c in last.items() if key[0] >= 1 or c.re]))
    # each source's lines run in (const, slope, z, tc) order, the printed order on ties
    return [
        (scale * const, scale * slope, f"{name}: zeta^{z}*t^({tc})", src)
        for name, scale, src, keys in sources
        for const, slope, z, tc in sorted((z + tc, ta, z, tc) for z, tc, ta in keys)
    ]


def contact_family(domain: AmbientDomain, family: CurveFamily) -> ContactResult:
    """Contact order of a family with a fixed (rational) exponent."""
    if family.has_free_exponent:
        raise ValidationError("fix the free exponent before measuring contact")
    lines = _weight_lines(domain, family)
    if not lines:
        return ContactResult(None, (), ())
    eta = min(const for const, _, _, _ in lines)
    dominant = tuple(label for const, _, label, _ in lines if const == eta)
    warnings = []
    # flag possible cancellation: several distinct surviving monomials of one
    # squared source sharing its minimal weight
    by_source: dict[int, list[Fraction]] = {}
    for const, _, _, src in lines:
        by_source.setdefault(src, []).append(const)
    for src, weights in sorted(by_source.items()):
        low = min(weights)
        if weights.count(low) > 1:
            name = "Re part" if src == -1 else f"|h{src + 1}|^2"
            warnings.append(
                f"{name} has multiple monomials at its minimal weight {low}; "
                "possible cancellation not resolved"
            )
    if eta <= 0:
        raise ValidationError("family contact order must be positive")
    return ContactResult(eta, dominant, tuple(warnings))


def balance_exponent(domain: AmbientDomain, family: CurveFamily) -> Fraction:
    """The free exponent that equalizes the two dominant weight lines."""
    if not family.has_free_exponent:
        raise ValidationError("family has no free exponent to balance")
    lines = _weight_lines(domain, family)
    distinct = sorted({(const, slope) for const, slope, _, _ in lines})
    if len(distinct) != 2:
        raise ValidationError(
            f"expected exactly two dominant weight lines, found {len(distinct)}"
        )
    (c1, s1), (c2, s2) = distinct
    if s1 == s2:
        raise ValidationError("weight lines are parallel; nothing to balance")
    alpha = Fraction(c2 - c1, s1 - s2)
    if alpha <= 0:
        raise ValidationError("balancing exponent is not positive")
    return alpha


# ---------------------------------------------------------------------------
# sharp contact arithmetic
# ---------------------------------------------------------------------------


def sharp_T(m1: int, m2: int, lam: Fraction) -> Fraction:
    """Closed-form contact order of the tuned two-exponent family."""
    if m1 < 2 or m2 < 2:
        raise ValidationError("both exponents must be at least 2")
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValidationError("the mixing parameter must lie in (0, 1]")
    return 2 * m1 + Fraction(2 * (1 - lam) * m1 * (m2 - 1), (m2 - 1) * lam + 1)


def sharp_T_limit(m1: int, m2: int) -> Fraction:
    """Limit of the closed form as the mixing parameter tends to zero."""
    if m1 < 2 or m2 < 2:
        raise ValidationError("both exponents must be at least 2")
    return Fraction(2 * m1 * m2)


_Z123 = ("z1", "z2", "z3")


def two_exponent_domain(m1: int, m2: int, p: int, q: int) -> AmbientDomain:
    """Domain Re(z3) + |z1^m1 - z3^p z2|^2 + |z2^m2|^2 + |z2 z3^q|^2."""
    z1, z2, z3 = (Polynomial.variable(3, i) for i in range(3))
    return AmbientDomain(_Z123, (z1 ** m1 - z3 ** p * z2, z2 ** m2, z2 * z3 ** q))


def two_exponent_family(m1: int, p: int) -> CurveFamily:
    """Family (zeta, zeta^m1 / (i t^alpha)^p, i t^alpha) with free alpha."""
    return CurveFamily(
        (
            (CurveTerm(GR_ONE, 1, Fraction(0)),),
            (CurveTerm(GR_I ** (-p), m1, Fraction(0), Fraction(-p)),),
            (CurveTerm(GR_I, 0, Fraction(0), Fraction(1)),),
        )
    )


def sharp_T_via_family(m1: int, m2: int, p: int, q: int) -> Fraction:
    """Contact of the tuned family, cross-checked against the closed form."""
    if p < 1 or q < p:
        raise ValidationError("need 1 <= p <= q so the mixing parameter is in (0, 1]")
    domain = two_exponent_domain(m1, m2, p, q)
    family = two_exponent_family(m1, p)
    alpha = balance_exponent(domain, family)
    result = contact_family(domain, family.fix_exponent(alpha))
    closed = sharp_T(m1, m2, Fraction(p, q))
    if result.eta != closed:
        raise ConsistencyError(
            f"symbolic contact {result.eta} disagrees with closed form {closed}"
        )
    return result.eta


def type_jump_domain(l: int, m: int) -> AmbientDomain:
    """Re(z3) + |z1^2 - z2 z3^l|^2 + |z2^2|^2 + |z1 z3^m|^2."""
    z1, z2, z3 = (Polynomial.variable(3, i) for i in range(3))
    return AmbientDomain(_Z123, (z1 ** 2 - z2 * z3 ** l, z2 ** 2, z1 * z3 ** m))


def type_bound_limit(t_base: Fraction, dim: int) -> Fraction:
    """The sharp jump bound t0^(n-1)/2^(n-2) on nearby contact orders.

    t0^(n-1) may take no more bits than the parser allows a '^'.
    """
    t_base = Fraction(t_base)
    if t_base <= 0:
        raise ValidationError("contact orders must be positive")
    if dim < 2:
        raise ValidationError("dimension must be at least 2")
    bits = max(t_base.numerator.bit_length(), t_base.denominator.bit_length())
    if (dim - 1) * bits > _POWER_BITS:
        raise ValidationError(
            f"dimension {dim} too large: t0^{dim - 1} would take more than {_POWER_BITS:,} bits"
        )
    return t_base ** (dim - 1) / Fraction(2) ** (dim - 2)


def type_bound_check(t_base: Fraction, t_nearby: Fraction, dim: int) -> bool:
    """Nearby contact order against the sharp jump bound."""
    t_nearby = Fraction(t_nearby)
    if t_nearby <= 0:
        raise ValidationError("contact orders must be positive")
    return t_nearby <= type_bound_limit(t_base, dim)


def epsilon_bound(eta: Fraction) -> Fraction:
    """Largest estimate exponent allowed by a family of this contact order."""
    eta = Fraction(eta)
    if eta <= 0:
        raise ValidationError("contact order must be positive")
    return 1 / eta
