"""Certified multiplier ladders for triangular systems.

A triangular system in n variables has h_i depending only on z_1..z_i with
pure part z_i^{m_i} (unit coefficients already normalized away), and a
TriangularSystem refuses any other data when it is built.  The ladder
walks the exponent box [1..m_1] x ... x [1..m_n]; at each position it picks
n sources, the i-th free of every variable after z_i, so their gradient rows
form a lower-triangular matrix whose determinant, the certified multiplier
B, is the product of the diagonal entries d s_i / d z_i.  It takes the
bounded root A and records the sources so the whole trace can be
re-verified mechanically; certify checks that the recorded rows have that
shape before it recomputes B.  The ladder has exactly prod(m_i) rungs, the
multiplicity of the system, and every root taken has order at most n.

The shape does more than fix the determinant.  The sources' diagonal
entries share the ladder's products, so B = A C for a cofactor C built from
them, and the least e with B | A^e is read from C alone: certify recovers C
as the exact quotient B/A.  Rungs that share a box prefix share its sources
as objects, so run_effective forms each prefix's products once, and certify
each prefix's diagonal product once.  And h_1 = z_1^{m_1}
forces z_1 = 0 on V(h), after which h_i restricts to z_i^{m_i}, so V(h) is
the origin alone: the colength of the germ is dim k[z]/(h), the number of
standard monomials of a Groebner basis in any order.  The lex order with
z_n > ... > z_1 suits the shape: h_1 = z_1^{m_1}, and each h_i leads with
a power of z_i times a monomial in earlier variables, so the system is
nearly a lex basis already, and is one when every lead is a pure power.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ConsistencyError, ValidationError, checked
from .ideals import LEX, Ideal, _standard_monomial_count, leading_mono
from .poly import GaussianRational, Polynomial, divides, exact_div, format_poly, least_power


@checked
class TriangularSystem(NamedTuple):
    """A normalized triangular system: h_i is free of every variable after
    z_i, and its pure part in z_i is the monomial z_i^{m_i} with m_i >= 1.

    Inputs must already be normalized, with unit coefficient on each pure
    part.  Coordinate changes that absorb non-constant units are out of
    scope and refused with a message.
    """

    variables: tuple[str, ...]
    h: tuple[Polynomial, ...]

    def _check(self):
        vs, h = self.variables, self.h
        n = len(vs)
        if len(h) != n:
            raise ValidationError(f"need exactly {n} functions in {n} variables, got {len(h)}")
        for i, p in enumerate(h):
            if p.ring_dim != n:
                raise ValidationError(f"h_{i + 1} lives in the wrong ring")
            pure = {m: c for m, c in p.terms.items() if sum(m) == m[i]}
            if not pure:
                raise ValidationError(
                    f"condition 2 fails for h_{i + 1}: it vanishes on the {vs[i]} axis"
                )
            for j in range(i + 1, n):
                if p.degree_in(j) > 0:
                    raise ValidationError(
                        f"condition 1 fails for h_{i + 1}: it depends on {vs[j]}"
                    )
            if len(pure) != 1:
                raise ValidationError(
                    f"h_{i + 1} is not normalized: its pure part in {vs[i]} is not a single monomial"
                )
            ((mono, coeff),) = pure.items()
            if coeff != 1:
                raise ValidationError(
                    f"h_{i + 1} is not normalized: pure part has non-unit coefficient {coeff!r}"
                )
            if mono[i] < 1:
                raise ValidationError(f"h_{i + 1} must vanish at the origin")

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def exponents(self) -> tuple[int, ...]:
        """The m_i of the pure parts z_i^{m_i}, read off h on each access: read it once."""
        return tuple(
            next(m[i] for m in p.terms if sum(m) == m[i]) for i, p in enumerate(self.h)
        )


def validate(h_polys, variables) -> TriangularSystem:
    """The TriangularSystem of h_polys in variables, which checks itself."""
    return TriangularSystem(tuple(variables), tuple(h_polys))


def multiplicity(system: TriangularSystem) -> int:
    """Product of the pure-power exponents, cross-checked against the colength.

    A TriangularSystem has V(h) = {0}: h_1 = z_1^{m_1}, and each h_i is
    z_i^{m_i} on z_1 = ... = z_{i-1} = 0.  The germ colength is then the
    global dim k[z]/(h), read off a lex basis with the variables reversed,
    z_n > ... > z_1, the order in which the system is nearly a basis
    already.  When its lex leads are pairwise coprime, h is that basis by
    Buchberger's first criterion (Cox-Little-O'Shea, Ch. 2, Sec. 9).  Lead i
    is then the pure power z_i^{m_i}, so the standard monomials fill the box
    of the lead degrees, and the colength is their product.  Otherwise
    Buchberger's algorithm gives the reduced basis, whose standard monomials
    are counted.  A disagreement with the exponent product is an engine
    fault and raises ConsistencyError.
    """
    expected = math.prod(system.exponents)
    n = system.n
    basis = [p.lift(n, range(n - 1, -1, -1)) for p in system.h]
    leads = [leading_mono(p, LEX) for p in basis]
    if any(sum(1 for lm in leads if lm[j]) > 1 for j in range(n)):  # leads not coprime
        colength, _ = _standard_monomial_count(Ideal(n, basis).groebner(LEX), n, LEX)
    else:
        colength = math.prod(sum(lm) for lm in leads)
    if colength != expected:
        raise ConsistencyError(f"colength {colength} disagrees with exponent product {expected}")
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

    @property
    def L(self) -> int:
        return len(self.pairs)

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


def _row_fault(s: Polynomial, i: int, n: int) -> str | None:
    """Why the gradient of s is not row i + 1 of a lower-triangular matrix, or None."""
    if s.ring_dim != n:
        return f"row {i + 1} lives in another ring"
    if any(any(m[i + 1 :]) for m in s.terms):
        return f"row {i + 1} depends on a variable after z_{i + 1}"
    return None


def _diagonal_det(
    sources: Sequence[Polynomial], n: int, memo: dict
) -> tuple[str | None, Polynomial | None]:
    """(None, determinant of n sources' gradient rows), or (why not lower triangular, None).

    In characteristic 0, d s_i / d z_j vanishes exactly when s_i is free of
    z_j, so the rows are lower triangular when each s_i is free of every
    later variable, and the determinant of a triangular matrix is the
    product of its diagonal.  The memo maps the ids of a prefix of sources
    to that prefix's verdict, so calls whose sources share a prefix form
    its product once; the ids stay valid while the caller holds the sources.
    """
    if len(sources) < n:
        return f"row {len(sources) + 1} is missing", None
    if len(sources) > n:
        return f"row {n + 1} is one too many for {n} variables", None
    key: tuple[int, ...] = ()
    verdict, head = (None, None), None
    for i, s in enumerate(sources):
        key += (id(s),)
        verdict = memo.get(key)
        if verdict is None:
            fault = _row_fault(s, i, n)
            if fault is None:
                d = s.diff(i)
                verdict = (None, d if head is None else head * d)
            else:
                verdict = (fault, None)
            memo[key] = verdict
        fault, head = verdict
        if fault is not None:
            break
    return verdict


def _cofactor_power(A: Polynomial, C: Polynomial, bound: int) -> int | None:
    """Least e <= bound + 1 with A C | A^e, for nonzero A and C, else None.

    Cancelling A in a domain, A C divides A^e exactly when C divides
    A^{e-1}: e = 1 for a constant C, and otherwise 1 plus the least
    s <= bound with C | A^s.
    """
    if C.is_constant():
        return 1
    s = least_power(A, lambda p: divides(C, p), bound)
    return None if s is None else s + 1


def _division_power(A: Polynomial, B: Polynomial, n: int) -> int | None:
    """Least e <= n with B | A^e for a nonzero B, else None.

    When A is nonzero and divides B, the answer is read from the cofactor
    B/A; otherwise each power of A is divided by B.
    """
    if not A.is_zero():
        C = exact_div(B, A)
        if C is not None:
            return _cofactor_power(A, C, n - 1)
    return least_power(A, lambda p: divides(B, p), n)


def run_effective(system: TriangularSystem) -> EffectiveTrace:
    """Walk the exponent box, producing the certified multiplier ladder.

    With D_i = d/dz_i, the position a takes the sources s_1 = D_1^{a_1 - 1} h_1
    and, for i >= 2, s_i = h_i when a_i = 1 and P_i D_i^{a_i - 1} h_i
    otherwise, where P_i = prod_{j<i} D_j^{a_j} h_j; its A is P_{n+1}.  P_i
    is free of z_i, so d s_i / d z_i is D_i^{a_i} h_i times P_i when
    a_i >= 2, and the diagonal product is B = A C with
    C = prod_{i >= 2, a_i >= 2} P_i.  As A != 0, B divides A^e exactly when
    C divides A^{e-1}: e = 1 for a constant C, and otherwise 1 plus the
    least s with C | A^s.  Each of C's c factors P_i divides A, so C | A^c:
    only s < c is searched, and s = c otherwise.  The ladder is built level
    by level, in box order (the deepest digit runs fastest): each prefix
    (a_1..a_i) holds its sources, P_{i+1}, partial cofactor and c, and
    yields its children together, so P_i D_i^k h_i is formed once for
    k = 1..m_i, as the P_{i+1} of child k and the source of child k + 1, and
    the children with k >= 2 share one cofactor product.  The products and
    z_i-derivatives of the h_j keep each source free of the variables after
    its own, and the last A, prod_j D_j^{m_j} h_j, has constant term
    prod_j m_j! != 0.
    """
    n = system.n
    D = []  # D[i][k] = D_i^k h_i
    for i, (p, m) in enumerate(zip(system.h, system.exponents)):
        D.append([p])
        for _ in range(m):
            D[i].append(D[i][-1].diff(i))
    one = Polynomial.constant(n, 1)
    # one (s_1..s_i, P_{i+1}, the product of C's factors among them, their number) per prefix
    level = [((D[0][k - 1],), D[0][k], one, 0) for k in range(1, len(D[0]))]  # P_1 = 1
    for i in range(1, n):
        deeper = []
        for sources, P, C, c in level:
            nexts = [D[i][0], *(P * d for d in D[i][1:])]  # nexts[k] = P_i D_i^k h_i
            shared = C * P if len(nexts) > 2 else None
            for k in range(1, len(nexts)):
                cofactor = (C, c) if k == 1 else (shared, c + 1)
                deeper.append((sources + (nexts[k - 1],), nexts[k], *cofactor))
        level = deeper
    pairs = [
        MultiplierPair(index, A * C, A, sources, _cofactor_power(A, C, c - 1) or c + 1)
        for index, (sources, A, C, c) in enumerate(level, 1)  # C | A^c
    ]
    return EffectiveTrace(system, tuple(pairs))


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
    """Re-verify every invariant of a ladder, itemizing any failures.

    Each rung's diagonal product is formed through a memo keyed by the ids of
    its source prefixes, which the trace holds for the whole call: rungs of
    one box prefix share those objects, and the first pair's are system.h.
    The least e with B | A^e comes from the cofactor B/A when A divides B
    (_division_power), and a zero B or a zero A fails its division check.
    The colength check compares L with multiplicity(system), whose
    ConsistencyError, two counts of one colength disagreeing, is a fault of
    the engine and not of the ladder, so it propagates.
    """
    checks: list[tuple[str, bool, str]] = []
    n = system.n
    expected_L = math.prod(system.exponents)
    checks.append(
        (
            "length",
            trace.L == expected_L,
            f"L={trace.L}, pairs={len(trace.pairs)}, product={expected_L}",
        )
    )
    colength = multiplicity(system)
    checks.append(("colength", colength == trace.L, f"colength={colength}"))
    diagonals: dict[tuple[int, ...], tuple[str | None, Polynomial | None]] = {}
    _, jac = _diagonal_det(system.h, n, diagonals)
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
        fault, recomputed = _diagonal_det(pair.sources, n, diagonals)
        checks.append(
            (
                f"pair_{pair.index}_minor",
                recomputed == pair.B,
                fault or "B is the determinant of the recorded allowable rows",
            )
        )
        if pair.B.is_zero():
            ok, detail = False, f"B is zero (recorded {pair.min_power}, bound {n})"
        elif pair.A.is_zero():  # B | 0 for every B
            ok, detail = False, f"A is zero (recorded {pair.min_power}, bound {n})"
        else:
            e = _division_power(pair.A, pair.B, n)
            ok = e is not None and e == pair.min_power
            detail = f"minimal power {e} (recorded {pair.min_power}, bound {n})"
        checks.append((f"pair_{pair.index}_division", ok, detail))
    return CertifyReport(tuple(checks))
