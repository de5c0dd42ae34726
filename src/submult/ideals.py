"""Groebner-basis kernel and germ-at-origin ideal computations.

Global questions (membership, elimination) run over the polynomial ring with
Buchberger's algorithm.  Local questions at the origin are read off one
standard basis per ideal for the local order LOCAL, negative degree reverse
lex, computed by Lazard's method: Buchberger's algorithm on the homogenized
generators, then t = 1.  Its leads give the colength of the germ ideal and
the least N with m^N in it, and they decide whether two nested ideals have
the same germ, which answers Kohn's stall test.  Germ membership and root
orders are normal forms on it behind m^N where the germ is m-primary, and
that test elsewhere.  Each ideal caches both.
"""

from __future__ import annotations

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
    least_power,
    monomials_of_degree,
    parse,
    squarefree_part,
)


# A total monomial order with x_0 > x_1 > ..., given by its sort key.  LEX
# and GREVLEX are well-orders; LOCAL puts lower degrees first, so it is not.
MonomialOrder = Callable[[Mono], tuple]


def LEX(mono: Mono) -> tuple:
    return mono


def GREVLEX(mono: Mono) -> tuple:
    return (sum(mono), *map(neg, reversed(mono)))


def LOCAL(mono: Mono) -> tuple:
    return (-sum(mono), *map(neg, reversed(mono)))


def leading_mono(p: Polynomial, order: MonomialOrder) -> Mono:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=order)


def order_monic(p: Polynomial, order: MonomialOrder) -> Polynomial:
    if p.is_zero():
        return p
    return _monic(p, leading_mono(p, order))


def _monic(p: Polynomial, lead: Mono) -> Polynomial:
    c = p.terms[lead]
    return p if c == GR_ONE else p * (GR_ONE / c)


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

    A monomial ideal takes no pairs: every S-polynomial of two monomials is
    zero, so its reduced basis is its minimal generators, monic and in
    ascending order (Cox-Little-O'Shea, Ch. 2, Secs. 4 and 7), which is what
    interreducing them returns.
    """
    gens = [g for g in gens if not g.is_zero()]
    if all(g.is_monomial() for g in gens):
        # a lead divides only monomials at or above it, so the earlier ones decide
        minimal: list[Mono] = []
        for m in sorted({next(iter(g.terms)) for g in gens}, key=order):
            if not any(_mono_divides(lm, m) for lm in minimal):
                minimal.append(m)
        return tuple(Polynomial._of(len(m), {m: GR_ONE}) for m in minimal)
    reduced = _interreduce(((leading_mono(g, order), g) for g in gens), order)
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


def _homogenized(mono: Mono) -> tuple:
    """Degree, then LOCAL on x, for monomials of k[t, x] with t as variable 0."""
    return (sum(mono), *LOCAL(mono[1:]))


def _standard_basis(gens: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
    """A standard basis of (gens) for LOCAL, by Lazard's method.

    Greuel-Pfister, *A Singular Introduction to Commutative Algebra*,
    Sec. 1.7.  Each term c x^a of a generator g becomes c t^(deg g - |a|) x^a.
    The order _homogenized is a well-order on k[t, x], so Buchberger's
    algorithm gives a Groebner basis of the homogenized generators, and
    setting t = 1 in it gives a standard basis.  A homogeneous element's
    terms have distinct x-parts, so t = 1 merges none of them and keeps the
    lead.
    """
    lifted = []
    for g in gens:
        d = g.total_degree()
        terms = {(d - sum(m), *m): c for m, c in g.terms.items()}
        lifted.append(Polynomial._of(g.ring_dim + 1, terms))
    return tuple(
        Polynomial._of(h.ring_dim - 1, {m[1:]: c for m, c in h.terms.items()})
        for h in _groebner_raw(lifted, _homogenized)
    )


class Ideal:
    """Generator list plus a cache of derived data, each computed once.

    The cache holds the reduced Groebner basis per global order, the
    standard basis of _standard_basis under LOCAL, and under the keys
    GermReport and germ_member the germ report and the divisors of germ
    membership.  It is the only mutable state; concurrent fills race
    benignly because regeneration is deterministic and values are identical.
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
        raise AttributeError("Ideal is immutable apart from its cache")

    def __delattr__(self, name):
        raise AttributeError("Ideal is immutable apart from its cache")

    @classmethod
    def from_strings(cls, strings: Sequence[str], variables: Sequence[str]) -> "Ideal":
        return cls(len(variables), [parse(s, variables) for s in strings])

    def default_order(self) -> MonomialOrder:
        return GREVLEX

    def groebner(self, order: MonomialOrder | None = None) -> tuple[Polynomial, ...]:
        order = order or self.default_order()
        cached = self._cache.get(order)
        if cached is None:
            if order is LOCAL:
                cached = _standard_basis(self.generators)
            else:
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
    """Reduced grevlex basis of I + m^degree, the truncation-scan oracle.

    No engine caller; kept under this name because bench/tracer.py wraps it.
    """
    monos = [Polynomial.monomial(m) for m in monomials_of_degree(ideal.ring_dim, degree)]
    return _groebner_raw(list(ideal.groebner()) + monos, GREVLEX)


def _standard_monomial_count(
    basis: Sequence[Polynomial], ring_dim: int, order: MonomialOrder
) -> tuple[int, int] | tuple[None, None]:
    """(count, layers) of the monomials that no lead of the basis divides.

    The package's one count of standard monomials; (None, None) when they
    are infinitely many.  On a Groebner basis of I in a global order the
    count is dim k[x]/I, the same in every such order.  On a standard basis
    of I in LOCAL it is dim O/I O, the colength of the germ of I at the
    origin (Cox-Little-O'Shea, *Using Algebraic Geometry*, Ch. 4).  The basis
    need not be reduced: its leads generate the leading ideal all the same.
    The count is finite exactly when some lead is a pure power of each
    variable.  The standard monomials form an order ideal, every divisor of
    one being standard, so those of degree d are the x_j s, s standard of
    degree d - 1, that no lead divides, and the walk ends at the first
    degree with none; layers is the number of degrees before it.  Taking j
    no earlier than the last variable of s reaches each of them once.
    """
    leads = [leading_mono(g, order) for g in basis]
    if not all(any(sum(lm) == lm[i] for lm in leads) for i in range(ring_dim)):
        return None, None

    def standard(mono: Mono) -> bool:
        return not any(_mono_divides(lm, mono) for lm in leads)

    one = (0,) * ring_dim
    layer = [(one, 0)] if standard(one) else []  # (s, the last variable of s)
    count = layers = 0
    while layer:
        count += len(layer)
        layers += 1
        layer = [
            (up, j)
            for s, last in layer
            for j in range(last, ring_dim)
            if standard(up := s[:j] + (s[j] + 1,) + s[j + 1 :])
        ]
    return count, layers


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


def _saturation(ideal: Ideal, f: Polynomial) -> Ideal:
    """I : f^inf, as (I + (1 - t f)) meet k[x] (Cox-Little-O'Shea, Sec. 4.4)."""
    n = ideal.ring_dim
    *gens, f = [g.lift(n + 1, range(1, n + 1)) for g in ideal.generators + (f,)]
    return _eliminate(gens + [1 - Polynomial.variable(n + 1, 0) * f], n, 1)


class GermReport(NamedTuple):
    """Colength and stabilization degree of the germ ideal, read off its LOCAL basis.

    ``colength`` is None when it is infinite, that is, when the origin is not
    an isolated point of V(I); ``to_dict`` renders that as "infinite".
    """

    colength: int | None
    stabilization_degree: int | None

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

    Both numbers come from the walk over the leads of the LOCAL standard
    basis.  LOCAL is a degree order, so m^N lies in I O exactly when every
    monomial of degree N is a multiple of a lead: reducing the finitely many
    terms of degree N then leaves terms of higher degree only, so m^N lies
    in I O + m^(N+1), and Nakayama's lemma drops the m^(N+1).  The
    stabilization degree, the least N >= 1 with m^N in I O, is therefore the
    number of layers, or 1 for the unit ideal.  Each ideal caches its report.
    """
    report = ideal._cache.get(GermReport)
    if report is None:
        colength, layers = _standard_monomial_count(ideal.groebner(LOCAL), ideal.ring_dim, LOCAL)
        report = GermReport(colength, None if colength is None else max(1, layers))
        ideal._cache[GermReport] = report
    return report


def same_germ(smaller: Ideal, larger: Ideal) -> bool:
    """Do I <= J have the same germ at the origin?

    Exactly when every LOCAL lead of J's standard basis is a multiple of one
    of I's, that is, when the two leading ideals agree: then the standard
    basis of I, which lies in J, is one of J too, and both generate J O.
    """
    leads = [leading_mono(g, LOCAL) for g in smaller.groebner(LOCAL)]
    return all(
        any(_mono_divides(lm, leading_mono(g, LOCAL)) for lm in leads)
        for g in larger.groebner(LOCAL)
    )


def germ_member(f: Polynomial, ideal: Ideal) -> bool:
    """Membership in the germ ideal at the origin, read off its LOCAL standard basis."""
    if f.ring_dim != ideal.ring_dim:
        raise ValidationError("polynomial lives in the wrong ring")
    bound = germ_colength(ideal).stabilization_degree
    if bound is None:
        return same_germ(ideal, Ideal(ideal.ring_dim, ideal.generators + (f,)))
    divisors = ideal._cache.get(germ_member)
    if divisors is None:
        # A term of degree >= N meets a one-term divisor first and is dropped,
        # sound as m^N lies in I O; the basis's monomials spare those of m^N
        # they divide, and x - x^2 would take x^k to x^(k+1) forever.  Other
        # reductions add only lower terms, finitely many of degree < N, so the
        # division ends; a nonzero remainder leads with a standard monomial,
        # and no element of I O does.
        standard = ideal.groebner(LOCAL)
        ones = [next(iter(g.terms)) for g in standard if g.is_monomial()]
        high = monomials_of_degree(ideal.ring_dim, bound)
        ones += [m for m in high if not any(_mono_divides(o, m) for o in ones)]
        basis = [Polynomial._of(ideal.ring_dim, {m: GR_ONE}) for m in ones]
        basis += [g for g in standard if not g.is_monomial()]
        divisors = ideal._cache[germ_member] = basis, [leading_mono(g, LOCAL) for g in basis]
    basis, leads = divisors
    return normal_form(f, basis, LOCAL, leads).is_zero()


def root_order(f: Polynomial, ideal: Ideal) -> int | None:
    """Least s with f^s in the germ ideal, or None when no power lies in it.

    An m-primary germ ideal contains m^N, N the stabilization degree, so the
    search stops at N.  Otherwise some power of f is in it exactly when the
    saturation I : f^inf is the unit germ, and only then is the search begun.
    """
    if f.ring_dim != ideal.ring_dim:
        raise ValidationError("polynomial lives in the wrong ring")
    bound = germ_colength(ideal).stabilization_degree
    if bound is None and not is_germ_unit(_saturation(ideal, f)):
        return None
    return least_power(f, lambda p: germ_member(p, ideal), bound)


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
    if germ_colength(ideal).m_primary:
        gens = tuple(Polynomial.variable(n, i) for i in range(n))
        orders = tuple((g, root_order(g, ideal)) for g in gens)
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
