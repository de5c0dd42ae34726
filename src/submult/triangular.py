"""Certified multiplier ladders for triangular systems.

A triangular system in n variables has h_i depending only on z_1..z_i with
pure part z_i^{m_i} (unit coefficients already normalized away).  The ladder
walks the exponent box [1..m_1] x ... x [1..m_n]; at each position it forms a
lower-triangular matrix of gradient rows whose determinant is the certified
multiplier B, takes the bounded root A, and records the rows used so the
whole trace can be re-verified mechanically.  The ladder has exactly
prod(m_i) rungs, the multiplicity of the system, and every root taken has
order at most n.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import CertificationError, ConsistencyError, ValidationError
from .ideals import Ideal, germ_colength
from .poly import GaussianRational, Polynomial, det, divides, format_poly, least_power


class TriangularSystem(NamedTuple):
    variables: tuple[str, ...]
    h: tuple[Polynomial, ...]
    exponents: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.variables)

    def jacobian_rows(self) -> tuple[tuple[Polynomial, ...], ...]:
        return tuple(p.gradient() for p in self.h)


def validate(h_polys, variables) -> TriangularSystem:
    """Check the triangular conditions and extract the pure-power exponents.

    Inputs must already be normalized: the pure part of h_i in z_i is the
    monomial z_i^{m_i} with unit coefficient.  Coordinate changes that absorb
    non-constant units are out of scope and rejected with a message.
    """
    vs = tuple(variables)
    n = len(vs)
    h = tuple(h_polys)
    if len(h) != n:
        raise ValidationError(f"need exactly {n} functions in {n} variables, got {len(h)}")
    exponents = []
    for i, p in enumerate(h):
        if p.ring_dim != n:
            raise ValidationError(f"h_{i + 1} lives in the wrong ring")
        pure = Polynomial(n, {m: c for m, c in p.terms.items() if sum(m) == m[i]})
        if pure.is_zero():
            raise ValidationError(
                f"condition 2 fails for h_{i + 1}: it vanishes on the {vs[i]} axis"
            )
        for j in range(i + 1, n):
            if p.degree_in(j) > 0:
                raise ValidationError(
                    f"condition 1 fails for h_{i + 1}: it depends on {vs[j]}"
                )
        if not pure.is_monomial():
            raise ValidationError(
                f"h_{i + 1} is not normalized: its pure part in {vs[i]} is not a single monomial"
            )
        mono, coeff = pure.leading()
        if coeff != 1:
            raise ValidationError(
                f"h_{i + 1} is not normalized: pure part has non-unit coefficient {coeff!r}"
            )
        m = mono[i]
        if m < 1:
            raise ValidationError(f"h_{i + 1} must vanish at the origin")
        exponents.append(m)
    return TriangularSystem(vs, h, tuple(exponents))


def multiplicity(system: TriangularSystem) -> int:
    """Product of the pure-power exponents, cross-checked against the colength."""
    expected = math.prod(system.exponents)
    report = germ_colength(Ideal(system.n, system.h))
    if report.colength != expected:
        raise ConsistencyError(
            f"colength {report.colength} disagrees with exponent product {expected}"
        )
    return expected


class MultiplierPair(NamedTuple):
    index: int
    B: Polynomial
    A: Polynomial
    sources: tuple[Polynomial, ...]  # rows of the certifying matrix are d(source)
    min_power: int


class EffectiveTrace(NamedTuple):
    system: TriangularSystem
    pairs: tuple[MultiplierPair, ...]
    L: int

    def to_dict(self) -> dict:
        vs = self.system.variables
        return {
            "L": self.L,
            "pairs": [
                {"A": format_poly(p.A, vs), "B": format_poly(p.B, vs)}
                for p in self.pairs
            ],
            "certificates": [
                {
                    "min_power": p.min_power,
                    "rows": [format_poly(s, vs) for s in p.sources],
                }
                for p in self.pairs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _derivative_ladder(system: TriangularSystem) -> list[list[Polynomial]]:
    out = []
    for i, p in enumerate(system.h):
        ladder = [p]
        for _ in range(system.exponents[i]):
            ladder.append(ladder[-1].diff(i))
        out.append(ladder)
    return out


def run_effective(system: TriangularSystem) -> EffectiveTrace:
    """Walk the exponent box, producing the certified multiplier ladder."""
    n = system.n
    m = system.exponents
    D = _derivative_ladder(system)
    pairs: list[MultiplierPair] = []
    # the deepest digit of the box runs fastest
    for index, a in enumerate(itertools.product(*(range(1, k + 1) for k in m)), 1):
        sources = [D[0][a[0] - 1]]  # D[0][0] is h_1
        prefix = D[0][a[0]]
        for i in range(1, n):
            sources.append(system.h[i] if a[i] == 1 else prefix * D[i][a[i] - 1])
            prefix = prefix * D[i][a[i]]
        B = det([s.gradient() for s in sources])
        A = prefix  # product of the current derivatives D^{a_i} h_i
        e = least_power(A, lambda p: divides(B, p), n)
        if e is None:
            raise CertificationError(
                f"pair {index}: certified determinant does not divide any A power up to {n}",
                index=index,
            )
        pairs.append(MultiplierPair(index, B, A, tuple(sources), e))
    last = pairs[-1]
    if not last.A.constant_term() or not last.B.constant_term():
        raise CertificationError("final pair is not a unit", index=last.index)
    return EffectiveTrace(system, tuple(pairs), len(pairs))


class CertifyReport(NamedTuple):
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> tuple[str, ...]:
        return tuple(f"{name}: {detail}" for name, ok, detail in self.checks if not ok)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }


def random_system(rng, max_n: int = 3) -> TriangularSystem:
    """Random normalized triangular system, for randomized property suites.

    Exponents are at most 3, and so is the degree of each tail monomial.
    """
    n = rng.randint(1, max_n)
    names = ("z", "w", "v")[:n]
    h = []
    for i in range(n):
        m = rng.randint(1, 3)
        p = Polynomial.variable(n, i) ** m
        for j in range(i):
            tail = _random_tail(rng, n, i)
            if not tail.is_zero():
                p = p + Polynomial.variable(n, j) * tail
        h.append(p)
    return validate(h, names)


def _random_tail(rng, n: int, top_var: int) -> Polynomial:
    out = Polynomial.zero(n)
    for _ in range(rng.randint(1, 4)):
        mono = [0] * n
        for _ in range(rng.randint(0, 3)):
            mono[rng.randint(0, top_var)] += 1
        re = Fraction(rng.randint(-3, 3))
        im = Fraction(rng.randint(-1, 1)) if rng.random() < 0.25 else Fraction(0)
        coeff = GaussianRational(re, im)
        if coeff:
            out = out + Polynomial.monomial(tuple(mono), coeff)
    return out


def certify(trace: EffectiveTrace, system: TriangularSystem) -> CertifyReport:
    """Re-verify every invariant of a ladder, itemizing any failures."""
    checks: list[tuple[str, bool, str]] = []
    n = system.n
    expected_L = math.prod(system.exponents)
    checks.append(
        (
            "length",
            trace.L == expected_L == len(trace.pairs),
            f"L={trace.L}, pairs={len(trace.pairs)}, product={expected_L}",
        )
    )
    try:
        colength = multiplicity(system)
        checks.append(("colength", colength == trace.L, f"colength={colength}"))
    except ConsistencyError as exc:
        checks.append(("colength", False, str(exc)))
    jac = det(list(system.jacobian_rows()))
    if trace.pairs:
        first = trace.pairs[0]
        checks.append(
            (
                "first_pair",
                first.A == first.B == jac,
                "B_1 = A_1 = Jacobian determinant",
            )
        )
        last = trace.pairs[-1]
        checks.append(
            (
                "final_unit",
                bool(last.A.constant_term()) and bool(last.B.constant_term()),
                "final A and B have nonzero constant term",
            )
        )
    for pair in trace.pairs:
        recomputed = det([s.gradient() for s in pair.sources])
        checks.append(
            (
                f"pair_{pair.index}_minor",
                recomputed == pair.B,
                "B is the determinant of the recorded allowable rows",
            )
        )
        e = least_power(pair.A, lambda p: divides(pair.B, p), n)
        ok = e is not None and e == pair.min_power
        checks.append(
            (
                f"pair_{pair.index}_division",
                ok,
                f"minimal power {e} (recorded {pair.min_power}, bound {n})",
            )
        )
    return CertifyReport(tuple(checks))
