"""Groebner-basis kernel and germ-at-origin ideal computations.

Global questions (membership, elimination) run over the polynomial ring with
Buchberger's algorithm.  Local questions at the origin reduce to global ones
exactly.  Saturations I : x_i^inf, computed by eliminating a Rabinowitsch
variable, decide whether the origin is an isolated point of V(I); only then
is the colength finite.  It is read off the reduced basis of the local
component Q, the m-primary component of I at the origin, which is I itself
or one more saturation I : f^inf.  Germ membership is a normal form on that
basis when the germ is m-primary, and otherwise the test that the quotient
I : f contains a unit at the origin.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from operator import add, neg, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ValidationError
from .poly import (
    GR_ONE,
    GaussianRational,
    Mono,
    Polynomial,
    _mono_divides,
    divides,
    exact_div,
    least_power,
    monomials_of_degree,
    parse,
    squarefree_part,
)


# A total monomial order with x_0 > x_1 > ..., given by its sort key.
MonomialOrder = Callable[[Mono], tuple]


def LEX(mono: Mono) -> tuple:
    return mono


def GREVLEX(mono: Mono) -> tuple:
    return (sum(mono), *map(neg, reversed(mono)))


def leading_mono(p: Polynomial, order: MonomialOrder) -> Mono:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=order)


def order_monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    if p.is_zero():
        return p
    return _monic(p, leading_mono(p, order))


def _monic(p: Polynomial, lead: Mono) -> Polynomial:
    return p * (GR_ONE / p.terms[lead])


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: MonomialOrder,
    leads: Sequence[Mono] | None = None,
) -> Polynomial:
    """Remainder of f on division by the list, leading terms first.

    The largest work term is reduced by the first lead in list order that
    divides it.  The work terms sit in a max-heap of negated order keys, each
    computed once, when its monomial is pushed.  A caller that divides by the
    same nonzero elements many times passes their leads, in list order, so
    that they are found once.
    """
    if f.is_zero() or not basis:
        return f
    if leads is None:
        basis = [g for g in basis if not g.is_zero()]
        leads = [leading_mono(g, order) for g in basis]
    divisors = list(zip(leads, basis))
    work = dict(f.terms)
    heap = [(tuple(map(neg, order(m))), m) for m in work]
    heapify(heap)
    remainder: dict[Mono, GaussianRational] = {}
    while heap:
        mono = heappop(heap)[1]
        # a reduction adds only monomials below the one it removes, so a popped
        # monomial never returns: a miss is a term cancelled after its push
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        for gm, g in divisors:
            if _mono_divides(gm, mono):
                if len(g.terms) == 1:  # a one-term divisor only removes the term
                    break
                scale = coeff / g.terms[gm]
                shift = tuple(map(sub, mono, gm))
                for m2, c2 in g.terms.items():
                    if m2 == gm:
                        continue
                    mm = tuple(map(add, m2, shift))
                    t = scale * c2
                    acc = work.get(mm)
                    if acc is None:
                        work[mm] = -t
                        heappush(heap, (tuple(map(neg, order(mm))), mm))
                    elif acc := acc - t:
                        work[mm] = acc
                    else:
                        del work[mm]
                break
        else:
            remainder[mono] = coeff
    return Polynomial._of(f.ring_dim, remainder)


def _lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def _spoly(f: Polynomial, g: Polynomial, fm: Mono, gm: Mono) -> Polynomial:
    """S-polynomial x^(lcm-fm)*f - x^(lcm-gm)*g of monic f and g with leads fm and gm."""
    lcm = _lcm(fm, gm)
    sf, sg = tuple(map(sub, lcm, fm)), tuple(map(sub, lcm, gm))
    out = {tuple(map(add, m, sf)): c for m, c in f.terms.items()}
    for m, c in g.terms.items():
        mm = tuple(map(add, m, sg))
        acc = out.get(mm)
        out[mm] = -c if acc is None else acc - c
    return Polynomial._of(f.ring_dim, out)


def _interreduce(
    pairs: Iterable[tuple[Mono, Polynomial]], order: MonomialOrder
) -> list[tuple[Mono, Polynomial]]:
    """Monic, sorted by lead, and no term of any element divisible by another's lead.

    Takes and returns (lead, nonzero polynomial) pairs.  Each element is
    replaced in place by its normal form on the others, and zeros are dropped.
    A lead divides only monomials at or above it, so the others that matter
    are those before it in lead order.  Whether an element is reduced
    depends only on the other leads, and a drop only removes one,
    so another pass runs only while a lead changed; a minimal Groebner basis
    takes one pass to its reduced basis (Cox-Little-O'Shea, Ch. 2, Sec. 7).
    """
    pairs = list(pairs)
    changed = True
    while changed:
        changed = False
        pairs.sort(key=lambda pair: order(pair[0]))
        leads = [lm for lm, _ in pairs]
        basis = [g for _, g in pairs]
        i = 0
        while i < len(basis):
            r = normal_form(basis[i], basis[:i], order, leads[:i])
            if r.is_zero():
                del basis[i], leads[i]
                continue
            # the old lead survives in the normal form exactly when it stays the lead
            if leads[i] not in r.terms:
                changed = True
                leads[i] = leading_mono(r, order)
            basis[i] = r
            i += 1
        pairs = list(zip(leads, basis))
    return [(lm, _monic(g, lm)) for lm, g in pairs]


def _groebner_raw(gens: Sequence[Polynomial], order: MonomialOrder) -> tuple[Polynomial, ...]:
    """Buchberger's algorithm with the pair management of Gebauer-Moeller.

    Becker-Weispfenning, *Groebner Bases*, p. 230 (UPDATE).  Pairs are taken
    least lcm first, ties by index, and S-polynomials reduce against the
    active set: the elements whose leads no later lead divides.  At the end
    the active set is a minimal basis, and interreducing it makes it reduced.
    """
    reduced = _interreduce(((leading_mono(g, order), g) for g in gens if not g.is_zero()), order)
    leads = [lm for lm, _ in reduced]
    basis = [g for _, g in reduced]
    active: list[int] = []
    pairs: list[tuple[tuple, int, int, Mono]] = []  # (order key of lcm, i, j, lcm)

    def update(h: int) -> None:
        mh = leads[h]
        # one new pair per lcm; an lcm shared with a pair whose S-polynomial
        # reduces to zero by itself (coprime leads, two monomials) gets none
        new: dict[Mono, int | None] = {}
        for g in active:
            lcm = _lcm(leads[g], mh)
            trivial = sum(lcm) == sum(mh) + sum(leads[g]) or (
                basis[g].is_monomial() and basis[h].is_monomial()
            )
            if trivial:
                new[lcm] = None
            else:
                new.setdefault(lcm, g)
        # chain criterion: an lcm that another new lcm divides is redundant
        fresh = [
            (order(lcm), g, h, lcm)
            for lcm, g in new.items()
            if g is not None
            and not any(m != lcm and _mono_divides(m, lcm) for m in new)
        ]
        pairs[:] = [
            pair
            for pair in pairs
            if not _mono_divides(mh, pair[3])
            or _lcm(leads[pair[1]], mh) == pair[3]
            or _lcm(leads[pair[2]], mh) == pair[3]
        ]
        pairs.extend(fresh)
        active[:] = [g for g in active if not _mono_divides(mh, leads[g])]
        active.append(h)

    for h in range(len(basis)):
        update(h)
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        _, i, j, _ = pair
        r = normal_form(
            _spoly(basis[i], basis[j], leads[i], leads[j]),
            [basis[g] for g in active],
            order,
            [leads[g] for g in active],
        )
        if r.is_zero():
            continue
        lead = leading_mono(r, order)
        basis.append(_monic(r, lead))
        leads.append(lead)
        update(len(basis) - 1)
    return tuple(g for _, g in _interreduce([(leads[g], basis[g]) for g in active], order))


class Ideal:
    """Generator list plus a cache of reduced Groebner bases per order.

    The cache is the only mutable state; concurrent fills race benignly
    because regeneration is deterministic and values are identical.
    """

    __slots__ = ("ring_dim", "generators", "_cache")

    def __init__(self, ring_dim: int, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.ring_dim != ring_dim:
                raise ValidationError("generator lives in the wrong ring")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "ring_dim", ring_dim)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable apart from its basis cache")

    def __delattr__(self, name):
        raise AttributeError("Ideal is immutable apart from its basis cache")

    @classmethod
    def from_strings(cls, strings: Sequence[str], variables: Sequence[str]) -> "Ideal":
        return cls(len(variables), [parse(s, variables) for s in strings])

    def default_order(self) -> MonomialOrder:
        return GREVLEX

    def groebner(self, order: MonomialOrder | None = None) -> tuple[Polynomial, ...]:
        order = order or self.default_order()
        cached = self._cache.get(order)
        if cached is None:
            cached = _groebner_raw(self.generators, order)
            self._cache[order] = cached
        return cached

    def reduced(self) -> "Ideal":
        """The same ideal generated by its reduced basis, which it keeps cached."""
        basis = self.groebner()
        out = Ideal(self.ring_dim, basis)
        out._cache[self.default_order()] = basis
        return out


def member(f: Polynomial, ideal: Ideal) -> bool:
    """Membership in the polynomial ideal (normal form vanishes)."""
    if f.ring_dim != ideal.ring_dim:
        raise ValidationError("polynomial lives in the wrong ring")
    return normal_form(f, ideal.groebner(), ideal.default_order()).is_zero()


def truncated_basis(ideal: Ideal, degree: int) -> tuple[Polynomial, ...]:
    """Reduced grevlex basis of I + m^degree.

    Each degree-n monomial is congruent mod I to its normal form, so the
    monomial block is pre-reduced against the basis of I before running the
    completion; this keeps the generator count near the staircase size.
    """
    base = ideal.groebner()
    extra: list[Polynomial] = []
    seen: set[frozenset] = set()
    for mono in monomials_of_degree(ideal.ring_dim, degree):
        reduced = normal_form(Polynomial.monomial(mono), base, GREVLEX)
        if reduced.is_zero():
            continue
        key = frozenset(reduced.terms.items())
        if key not in seen:
            seen.add(key)
            extra.append(reduced)
    if not extra:
        return base
    return _groebner_raw(list(base) + extra, GREVLEX)


def _standard_monomial_count(basis: Sequence[Polynomial], ring_dim: int, bound: int) -> int:
    # grevlex leads at or above the bound cannot divide any monomial counted below it
    leads = [lm for lm in (leading_mono(g, GREVLEX) for g in basis) if sum(lm) < bound]
    count = 0
    for d in range(bound):
        for mono in monomials_of_degree(ring_dim, d):
            if not any(_mono_divides(lm, mono) for lm in leads):
                count += 1
    return count


def _eliminate(gens: Sequence[Polynomial], ring_dim: int, drop: int) -> Ideal:
    """(gens) meet k[x], for gens in k[t, x] with t the first drop variables.

    Lex with t first is an elimination order, so the basis elements free of
    t generate the intersection (Cox-Little-O'Shea, Sec. 3.1).
    """
    basis = _groebner_raw(gens, LEX)
    return Ideal(
        ring_dim,
        [
            Polynomial(ring_dim, {m[drop:]: c for m, c in g.terms.items()})
            for g in basis
            if not any(g.degree_in(i) for i in range(drop))
        ],
    )


def _lift_t(p: Polynomial) -> Polynomial:
    """p in k[t, x], with t as variable 0."""
    return p.lift(p.ring_dim + 1, range(1, p.ring_dim + 1))


def _saturation(ideal: Ideal, f: Polynomial) -> Ideal:
    """I : f^inf, as (I + (1 - t f)) meet k[x] (Cox-Little-O'Shea, Sec. 4.4)."""
    t = Polynomial.variable(ideal.ring_dim + 1, 0)
    gens = [_lift_t(g) for g in ideal.generators]
    return _eliminate(gens + [1 - t * _lift_t(f)], ideal.ring_dim, 1)


def _quotient(ideal: Ideal, f: Polynomial) -> Ideal:
    """I : f, as (I meet (f)) / f with I meet (f) = (t I + (1 - t) f) meet k[x]."""
    t = Polynomial.variable(ideal.ring_dim + 1, 0)
    gens = [t * _lift_t(g) for g in ideal.generators]
    meet = _eliminate(gens + [(1 - t) * _lift_t(f)], ideal.ring_dim, 1)
    return Ideal(ideal.ring_dim, [exact_div(g, f) for g in meet.generators])


def _zero_dimensional(leads: Sequence[Mono], ring_dim: int) -> bool:
    # a pure-power lead in every variable leaves finitely many standard monomials
    return all(any(sum(lm) == lm[i] for lm in leads) for i in range(ring_dim))


def _isolating_witness(ideal: Ideal) -> Polynomial | None:
    """f with f(0) != 0 vanishing on V(I) minus the origin, else None.

    V(I : x_i^inf) is the closure of V(I) off the hyperplane x_i = 0, so the
    origin is isolated exactly when no such closure contains it, that is,
    when every saturation has a generator g_i with g_i(0) != 0.  Each g_i
    vanishes on V(I) off x_i = 0, so their product vanishes on V(I) off the
    origin.
    """
    n = ideal.ring_dim
    f = Polynomial.constant(n, 1)
    for i in range(n):
        units = [
            g
            for g in _saturation(ideal, Polynomial.variable(n, i)).generators
            if g.constant_term()
        ]
        if not units:
            return None
        # the smallest witness keeps the last saturation small
        f = f * min(units, key=lambda g: (g.total_degree(), len(g.terms)))
    return f


def _local_algebra(basis: Sequence[Polynomial], ring_dim: int) -> tuple[int, int] | None:
    """(dim R/Q, least N >= 1 with m^N in Q) when V(Q) lies in the origin.

    Q is the ideal with this reduced grevlex basis; None means V(Q) has a
    point off the origin.  A zero-dimensional Q has finitely many standard
    monomials, L of them.  V(Q) lies in the origin exactly when R/Q is local
    of length L, so exactly when m^L lies in Q.  The normal forms of the
    degree-d monomials come from those of degree d - 1 by
    NF(x_j x^b) = NF(x_j NF(x^b)), and a monomial one of whose divisors is
    in Q is in Q, so only nonzero normal forms are carried up.  A standard
    monomial's divisors are standard, so it is live, and L is counted among
    the live monomials as the table grows.
    """
    leads = [leading_mono(g, GREVLEX) for g in basis]
    if not _zero_dimensional(leads, ring_dim):
        return None

    def standard(mono: Mono) -> bool:
        return not any(_mono_divides(lm, mono) for lm in leads)

    one = (0,) * ring_dim
    live = {one: Polynomial.constant(ring_dim, 1)} if standard(one) else {}
    colength = len(live)
    for degree in itertools.count(1):
        forms: dict[Mono, Polynomial] = {}
        for mono, r in live.items():
            for j in range(ring_dim):
                up = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                if up not in forms:
                    # x_j r, as a shift of r's exponents
                    xr = Polynomial._of(
                        ring_dim, {m[:j] + (m[j] + 1,) + m[j + 1 :]: c for m, c in r.terms.items()}
                    )
                    forms[up] = normal_form(xr, basis, GREVLEX, leads)
        live = {mono: r for mono, r in forms.items() if not r.is_zero()}
        if not live:
            return colength, degree
        colength += sum(1 for mono in live if standard(mono))
        # every degree below L has a standard monomial, so the count is final here
        if degree >= colength:
            return None


class GermReport(NamedTuple):
    """Colength of the germ ideal at the origin, read off its local component.

    ``colength`` is None when it is infinite, that is, when the origin is not
    an isolated point of V(I); ``to_dict`` renders that as "infinite".
    """

    colength: int | None
    stabilization_degree: int | None
    basis: tuple[Polynomial, ...] | None = None  # grevlex, of Q

    @property
    def m_primary(self) -> bool:
        return self.colength is not None

    @property
    def capped(self) -> bool:
        return False  # no cap bounds the computation

    def to_dict(self) -> dict:
        return {
            "colength": "infinite" if self.colength is None else self.colength,
            "stabilization_degree": self.stabilization_degree,
            "m_primary": self.m_primary,
            "capped": self.capped,
        }


def germ_colength(ideal: Ideal) -> GermReport:
    """Colength of the germ ideal; infinite unless the origin is isolated.

    For an isolated origin the germ ideal is the local component Q, the
    m-primary component of I at the origin: Q = I when V(I) is the origin
    alone, and otherwise Q = I : f^inf for a witness f with f(0) != 0 that
    vanishes on V(I) off the origin.  The colength is the number of standard
    monomials of GB(Q) and the stabilization degree the least N with m^N in
    Q.  Then I + m^N = Q, so the reported basis is also the reduced basis of
    that truncation.
    """
    basis = ideal.groebner()
    local = _local_algebra(basis, ideal.ring_dim)
    if local is None:
        f = _isolating_witness(ideal)
        if f is None:
            return GermReport(None, None)
        basis = _saturation(ideal, f).groebner()
        local = _local_algebra(basis, ideal.ring_dim)
    colength, degree = local
    return GermReport(colength, degree, basis)


def germ_member(f: Polynomial, ideal: Ideal, report: GermReport | None = None) -> bool:
    """Membership in the germ ideal at the origin, exact in both directions.

    An m-primary report answers by a normal form on the basis of its local
    component.  Otherwise f lies in the germ ideal exactly when u f lies in
    I for some u with u(0) != 0, that is, when I : f is the unit germ.
    """
    if report is not None and report.m_primary:
        return normal_form(f, report.basis, GREVLEX).is_zero()
    return member(f, ideal) or is_germ_unit(_quotient(ideal, f))


def root_order(f: Polynomial, ideal: Ideal, report: GermReport | None = None) -> int | None:
    """Least s with f^s in the germ ideal, or None when no power lies in it.

    An m-primary germ ideal Q contains m^N, N the stabilization degree, so
    f^N lies in Q for every f in m and the search stops at N.  Otherwise
    some power of f is in the germ ideal exactly when the saturation
    I : f^inf is the unit germ, and only then is the search begun.
    """
    if report is None:
        report = germ_colength(ideal)
    if report.m_primary:
        bound = report.stabilization_degree
    elif is_germ_unit(_saturation(ideal, f)):
        bound = None
    else:
        return None
    return least_power(f, lambda p: germ_member(p, ideal, report), bound)


def is_germ_unit(ideal: Ideal) -> bool:
    """True iff the germ ideal at the origin is the whole local ring.

    That happens exactly when I is not inside m, that is, when some
    generator is nonzero at the origin.
    """
    return any(g.constant_term() for g in ideal.generators)


def canonical_generators(polys: Iterable[Polynomial]) -> tuple[Polynomial, ...]:
    """Monic, de-duplicated, canonically sorted generator list."""
    seen = {}
    for p in polys:
        if not p.is_zero():
            q = order_monic(p, GREVLEX)
            seen.setdefault(frozenset(q.terms.items()), q)
    out = list(seen.values())
    out.sort(key=lambda p: (GREVLEX(leading_mono(p, GREVLEX)), sorted(p.terms)))
    return tuple(out)


class RadicalOutcome(NamedTuple):
    """Result of one radical stage: new generators plus root-order bookkeeping."""

    generators: tuple[Polynomial, ...]
    method: str  # principal | m-primary | partial | none
    root_orders: tuple[tuple[Polynomial, int], ...]

    @property
    def unit(self) -> bool:
        """The generators give the unit germ: one of them is nonzero at the origin."""
        return any(g.constant_term() for g in self.generators)

    @property
    def stalled(self) -> bool:
        return self.method == "none" and not self.unit

    @property
    def max_root_order(self) -> int:
        return max((s for _, s in self.root_orders), default=0)


def radical_step(ideal: Ideal) -> RadicalOutcome:
    """One radical stage, by a three-way strategy.

    Principal ideals take squarefree parts: p divides sqfree(p)^e with e at
    most deg p.  Ideals with an isolated origin have radical equal to the
    maximal ideal, with per-variable root orders recorded.  Otherwise the
    ideal is enriched by the squarefree part of any generator g, whose
    global root order is at most deg g, and by any variable with a power in
    the ideal; no qualifying candidate is a stall, which is reported as data
    rather than raised.
    """
    n = ideal.ring_dim
    if is_germ_unit(ideal):
        return RadicalOutcome((Polynomial.constant(n, 1),), "none", ())
    basis = ideal.groebner()
    if not basis:
        return RadicalOutcome((), "none", ())
    if len(basis) == 1:
        p = basis[0]
        q = squarefree_part(p)
        s = least_power(q, lambda r: divides(p, r), p.total_degree())
        return RadicalOutcome(canonical_generators([q]), "principal", ((q, s),))
    report = germ_colength(ideal)
    if report.m_primary:
        gens = tuple(Polynomial.variable(n, i) for i in range(n))
        orders = tuple((g, root_order(g, ideal, report)) for g in gens)
        return RadicalOutcome(gens, "m-primary", orders)
    # (candidate, bound on its global root order, variable index)
    pool = [(squarefree_part(g), g.total_degree(), None) for g in ideal.generators]
    pool += [(Polynomial.variable(n, i), None, i) for i in range(n)]
    adjoin: list[tuple[Polynomial, int]] = []
    seen: set[frozenset] = set()
    for f, bound, var in pool:
        key = frozenset(order_monic(f, ideal.default_order()).terms.items())
        if key in seen:
            continue
        seen.add(key)
        if var is None:
            s = least_power(f, lambda p: member(p, ideal), bound)
        else:
            s = variable_root_order(ideal, var)
        if s is not None and s > 1:  # order 1: f is already in the ideal
            adjoin.append((f, s))
    if not adjoin:
        return RadicalOutcome(ideal.generators, "none", ())
    gens = canonical_generators(list(ideal.generators) + [f for f, _ in adjoin])
    return RadicalOutcome(gens, "partial", tuple(adjoin))


def eliminant(ideal: Ideal, var_index: int) -> Polynomial | None:
    """Monic generator of I meet k[x_i], or None when that is zero.

    With x_i moved last, lex eliminates every other variable.
    """
    n = ideal.ring_dim
    if not 0 <= var_index < n:
        raise ValidationError("variable index out of range")
    last = [j - (j > var_index) for j in range(n)]
    last[var_index] = n - 1
    meet = _eliminate([g.lift(n, last) for g in ideal.generators], 1, n - 1)
    return meet.generators[0].lift(n, [var_index]) if meet.generators else None


def variable_root_order(ideal: Ideal, var_index: int) -> int | None:
    """Least k with x_i^k in I, else None.

    x_i^s in I meet k[x_i] = (e) forces e = x_i^k with k <= s, so the
    eliminant alone decides.
    """
    e = eliminant(ideal, var_index)
    if e is None or not e.is_monomial():
        return None
    return e.degree_in(var_index)
