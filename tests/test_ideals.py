import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    CLIFFS,
    OFF_ORIGIN_CLIFF,
    nonzero_polynomials,
    polynomials,
    sympy_local_colength,
    to_sympy,
)
from submult import ideals
from submult.errors import ValidationError
from submult.ideals import (
    GREVLEX,
    LEX,
    LOCAL,
    Ideal,
    eliminant,
    germ_colength,
    germ_member,
    is_germ_unit,
    member,
    normal_form,
    radical_step,
    root_order,
    same_germ,
    truncated_basis,
    variable_root_order,
    _standard_monomial_count,
)
from submult.poly import (
    GaussianRational,
    Polynomial,
    format_poly,
    least_power,
    monomials_of_degree,
    parse,
)
from submult.triangular import random_system

ZW = ("z", "w")


def p(text, variables=ZW):
    return parse(text, variables)


def ideal(*strings, variables=ZW):
    return Ideal.from_strings(strings, variables)


J1_234 = ("z^5 + 3*z*w^2", "6*z^2*w", "-5*z^8 + 6*z^4*w^2 - 9*w^4")


# -- Groebner bases ---------------------------------------------------------------


def test_monomial_ideal_is_its_own_basis():
    basis = ideal("z^2", "w^3").groebner()
    assert [format_poly(g, ZW) for g in basis] == ["z^2", "w^3"]
    basis2 = ideal("z^2", "z*w", "w^2").groebner()
    assert [format_poly(g, ZW) for g in basis2] == ["w^2", "z*w", "z^2"]


def test_basis_reduces_listed_generator():
    J1 = ideal(*J1_234)
    assert normal_form(p(J1_234[0]), J1.groebner(), J1.default_order()).is_zero()


def test_normal_form_divides_by_the_first_lead_in_list_order():
    # Cox-Little-O'Shea, Ch. 2, Sec. 3: on a list that is not a Groebner
    # basis the remainder depends on the order of the divisors
    xy = ("x", "y")
    f = p("x^2*y + x*y^2 + y^2", xy)
    g1, g2 = p("x*y - 1", xy), p("y^2 - 1", xy)
    assert normal_form(f, [g1, g2], LEX) == p("x + y + 1", xy)
    assert normal_form(f, [g2, g1], LEX) == p("2*x + 1", xy)


def _textbook_remainder(f, divisors, order):
    # Cox-Little-O'Shea, Ch. 2, Sec. 3, Theorem 3, on whole polynomials
    rest, remainder = f, Polynomial.zero(f.ring_dim)
    while not rest.is_zero():
        mono = ideals.leading_mono(rest, order)
        term = Polynomial.monomial(mono, rest.terms[mono])
        for g in divisors:
            gm = ideals.leading_mono(g, order)
            if ideals._mono_divides(gm, mono):
                shift = tuple(a - b for a, b in zip(mono, gm))
                rest = rest - Polynomial.monomial(shift, rest.terms[mono] / g.terms[gm]) * g
                break
        else:
            remainder, rest = remainder + term, rest - term
    return remainder


@given(st.lists(nonzero_polynomials(max_degree=2, max_terms=3), max_size=4), polynomials())
def test_normal_form_with_given_leads_matches_the_public_call(divisors, f):
    # the divisor lists are mostly not Groebner bases, so list order matters
    for order in (LEX, ideals.GREVLEX):
        leads = [ideals.leading_mono(g, order) for g in divisors]
        expected = normal_form(f, divisors, order)
        assert normal_form(f, divisors, order, leads) == expected
        assert expected == _textbook_remainder(f, divisors, order)
        basis = Ideal(2, divisors).groebner(order)
        leads = [ideals.leading_mono(g, order) for g in basis]
        assert normal_form(f, basis, order, leads) == normal_form(f, basis, order)
    assert normal_form(f, [], LEX, []) is f


def test_each_s_polynomial_is_the_first_argument_of_a_normal_form(monkeypatch):
    # a traced run counts the useful S-pairs by this call shape: the next
    # normal form after an S-polynomial is built takes it as its argument 0
    calls = []
    spoly, nf = ideals._spoly, ideals.normal_form

    def recording_spoly(*args):
        calls.append(("spoly", spoly(*args)))
        return calls[-1][1]

    def recording_nf(*args):
        calls.append(("nf", args[0]))
        return nf(*args)

    monkeypatch.setattr(ideals, "_spoly", recording_spoly)
    monkeypatch.setattr(ideals, "normal_form", recording_nf)
    ideals._groebner_raw([p(g, ZWV) for g in CLIFFS[(3, 3, 1)]], ideals.GREVLEX)
    built = [i for i, (kind, _) in enumerate(calls) if kind == "spoly"]
    assert built
    for i in built:
        assert calls[i + 1][0] == "nf" and calls[i + 1][1] is calls[i][1]


def test_ideals_refuse_stores_and_deletes():
    I = ideal("z^2", "w^3 + w*z^4")
    I.groebner()
    for J in (I, I.reduced()):
        for name in ("ring_dim", "generators", "_cache"):
            with pytest.raises(AttributeError):
                setattr(J, name, getattr(J, name))
            with pytest.raises(AttributeError):
                delattr(J, name)
        with pytest.raises(AttributeError):
            J.extra = 1
        assert J.groebner() == I.groebner()


def test_groebner_cache_is_deterministic():
    one = ideal(*J1_234)
    again = ideal(*J1_234)
    assert one.groebner() is one.groebner()  # cached
    assert one.groebner() == again.groebner()


def test_groebner_idempotence():
    J1 = ideal(*J1_234)
    basis = J1.groebner()
    rebuilt = Ideal(2, basis).groebner()
    assert rebuilt == basis


def test_zero_ideal_has_empty_basis():
    assert Ideal(2, ()).groebner() == ()


# -- the Groebner kernel against sympy over Q(i) -------------------------------------

ZWV = ("z", "w", "v")
# Inputs on which each rule of the pair management fires under grevlex, and
# on which interreduction of the generators drops some and changes leads.
CRITERION_INPUTS = [
    ("z^2 + w", "w^2 + v"),  # coprime leads
    ("z^2*w", "z*w^2", "v^2 - z"),  # two monomials
    ("z^2*w - v", "z*w^2 - z"),  # chain criterion on new pairs, active-set removal
    ("z^2", "z*w + w", "w*v^2"),  # an old pair dropped, active-set removal
    ("z*w - v", "z*w - v", "w^2 + z"),  # a duplicate generator dropped
    ("z*w - v", "(2 + i)*z*w - (2 + i)*v", "w^2 + z"),  # a multiple dropped
    ("z^2", "z^3 + w", "w*v - z"),  # leads divided by other leads, then a drop
]


def _gaussian_expr(sympy, p, variables=ZWV):
    symbols = sympy.symbols(variables)
    return sympy.Add(
        *[
            (sympy.Rational(c.re.numerator, c.re.denominator)
             + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
            * sympy.Mul(*[s**e for s, e in zip(symbols, mono)])
            for mono, c in p.terms.items()
        ]
    )


def _from_sympy(sympy, poly, ring_dim=3):
    return Polynomial(
        ring_dim,
        {
            mono: GaussianRational(Fraction(str(sympy.re(c))), Fraction(str(sympy.im(c))))
            for mono, c in poly.as_dict().items()
        },
    )


def _monic_set(basis, order):
    return {frozenset(ideals.order_monic(g, order).terms.items()) for g in basis}


def _assert_kernel_matches_sympy(sympy, gens, kinds=("grevlex", "lex"), variables=ZWV):
    # gens are in z, w, v; variables lists them largest first for both kernels
    ours = [g.lift(3, [variables.index(x) for x in ZWV]) for g in gens]
    for kind in kinds:
        order = {"grevlex": ideals.GREVLEX, "lex": ideals.LEX}[kind]
        expected = sympy.groebner(
            [_gaussian_expr(sympy, g) for g in gens],
            *sympy.symbols(variables),
            order=kind,
            domain=sympy.QQ_I,
        )
        found = ideals._groebner_raw(ours, order)
        assert _monic_set(found, order) == _monic_set(
            [_from_sympy(sympy, g) for g in expected.polys], order
        ), (kind, variables, [format_poly(g, ZWV) for g in gens])


def test_groebner_kernel_matches_sympy_on_random_gaussian_ideals():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(25):
        gens = []
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(2, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                terms[mono] = GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))
            gens.append(Polynomial(3, terms))
        _assert_kernel_matches_sympy(sympy, gens)


@pytest.mark.parametrize("gens", CRITERION_INPUTS)
def test_groebner_kernel_matches_sympy_where_each_criterion_fires(gens):
    sympy = pytest.importorskip("sympy")
    _assert_kernel_matches_sympy(sympy, [p(g, ZWV) for g in gens])


@pytest.mark.parametrize("exponents", sorted(CLIFFS))
def test_groebner_kernel_matches_sympy_on_triangular_cliffs(exponents):
    sympy = pytest.importorskip("sympy")
    gens = [p(g, ZWV) for g in CLIFFS[exponents]]
    _assert_kernel_matches_sympy(sympy, gens, ("grevlex",))
    # lex with the last variable first, as triangular.multiplicity takes it;
    # with z > w > v the lex basis of the (3, 3, 3) cliff takes minutes
    _assert_kernel_matches_sympy(sympy, gens, ("lex",), ("v", "w", "z"))


@pytest.mark.parametrize("gens", CRITERION_INPUTS)
def test_interreduced_generators_are_monic_sorted_and_reduced(gens):
    polys = [p(g, ZWV) for g in gens]
    for order in (ideals.GREVLEX, ideals.LEX):
        pairs = ideals._interreduce(
            [(ideals.leading_mono(g, order), g) for g in polys if not g.is_zero()], order
        )
        leads = [lead for lead, _ in pairs]
        out = [g for _, g in pairs]
        assert leads == [ideals.leading_mono(g, order) for g in out]
        assert leads == sorted(leads, key=order)
        for g, lead in zip(out, leads):
            assert g.terms[lead] == 1
            assert not any(
                other != lead and ideals._mono_divides(other, mono)
                for other in leads
                for mono in g.terms
            )
        assert ideals._groebner_raw(out, order) == ideals._groebner_raw(polys, order)


def test_monic_keeps_a_polynomial_whose_lead_coefficient_is_one():
    g = p("z^2*w - 3*v + i", ZWV)
    for order in (ideals.GREVLEX, ideals.LEX):
        lead = ideals.leading_mono(g, order)
        assert ideals._monic(g, lead) is g
        assert ideals._monic(g * GaussianRational(2, 1), lead) == g


# -- monomial ideals: no Buchberger --------------------------------------------------

ONE_TERM_COEFFS = [
    GaussianRational(1),
    GaussianRational(2),
    GaussianRational(-3),
    GaussianRational(0, 1),
    GaussianRational(Fraction(1, 2), -1),
]


@st.composite
def one_term_lists(draw):
    # one-term generators in 2 or 3 variables, the constant 1 among them, some repeated
    n = draw(st.integers(2, 3))
    term = st.builds(
        lambda mono, c: Polynomial(n, {mono: c}),
        st.tuples(*[st.integers(0, 3)] * n),
        st.sampled_from(ONE_TERM_COEFFS),
    )
    gens = draw(st.lists(term, max_size=6))
    return gens + draw(st.lists(st.sampled_from(gens), max_size=3)) if gens else gens


@given(one_term_lists())
@example([])
@example([p(g, ZWV) for g in ("2*w*v", "i*z", "w*v", "z^2*w", "2*w*v")])
@example([p(g, ZWV) for g in ("z^3", "(1 - i)*w", "1", "z*w*v")])
@example([p(g) for g in ("3*z*w", "z*w", "-w^2", "z^4", "i*z^2")])
def test_monomial_basis_is_what_interreduction_returns(gens):
    for order in (ideals.GREVLEX, ideals.LEX):
        pairs = ideals._interreduce([(ideals.leading_mono(g, order), g) for g in gens], order)
        assert ideals._groebner_raw(gens, order) == tuple(g for _, g in pairs)


def test_monomial_basis_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(30)
    for size in (1, 2, 3, 4, 5, 6):
        gens = [
            Polynomial(3, {tuple(rng.randint(0, 3) for _ in range(3)): rng.choice(ONE_TERM_COEFFS)})
            for _ in range(size)
        ]
        _assert_kernel_matches_sympy(sympy, gens + gens[:2])
    _assert_kernel_matches_sympy(sympy, [p(g, ZWV) for g in ("2*w*v", "i*z", "1", "w^3")])


def test_monomial_ideal_basis_takes_no_normal_form(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return normal_form(*args, **kwargs)

    monkeypatch.setattr(ideals, "normal_form", counting)
    gens = ("z*w*v", "2*w^2*v^2", "z^2*v^2", "i*z^2*w^2", "z*w*v", "z^3*w*v^2")
    I = ideal(*gens, variables=ZWV)
    assert [format_poly(g, ZWV) for g in I.groebner()] == [
        "z*w*v", "w^2*v^2", "z^2*v^2", "z^2*w^2"
    ]
    assert [format_poly(g, ZWV) for g in I.groebner(ideals.LEX)] == [
        "w^2*v^2", "z*w*v", "z^2*v^2", "z^2*w^2"
    ]
    assert Ideal(3, []).groebner() == ()
    assert calls == []


# The lex basis of the (3, 3, 1) cliff; sympy needs seconds to check it.
CLIFF_331_LEX = (
    "v^9",
    "99/64*v^8 - 7/4*v^7 + 35/64*v^6 - 9/8*v^5 + 1/8*v^4 - 3/4*v^3 + w - 1/2*v",
    "(141/256 + 9/64*i)*v^8 - 27/16*v^7 + (5/64 + 1/64*i)*v^6 - 9/16*v^5 - 1/8*v^3 + z",
)


def test_cliff_basis_reduces_few_s_pairs(monkeypatch):
    calls = []
    spoly = ideals._spoly

    def counting(*args):
        calls.append(args)
        return spoly(*args)

    monkeypatch.setattr(ideals, "_spoly", counting)
    gens = [p(g, ZWV) for g in CLIFFS[(3, 3, 1)]]
    basis = ideals._groebner_raw(gens, ideals.GREVLEX)
    assert len(basis) == 8
    assert len(calls) <= 60
    calls.clear()
    basis = ideals._groebner_raw(gens, ideals.LEX)
    assert tuple(format_poly(g, ZWV) for g in basis) == CLIFF_331_LEX
    assert len(calls) <= 100
    # lex with v > w > z, as triangular.multiplicity takes both cliffs
    for exponents, bound in (((3, 3, 1), 40), ((3, 3, 3), 5)):
        calls.clear()
        gens = [p(g, ZWV).lift(3, [2, 1, 0]) for g in CLIFFS[exponents]]
        basis = ideals._groebner_raw(gens, ideals.LEX)
        assert _standard_monomial_count(basis, 3, ideals.LEX)[0] == math.prod(exponents)
        assert len(calls) <= bound


# -- membership ---------------------------------------------------------------------


def test_zero_is_member_of_everything():
    assert member(p("0"), ideal("z"))
    assert member(p("0"), Ideal(2, ()))
    assert not member(p("z"), Ideal(2, ()))


def test_membership_in_second_stage_ideal():
    J1 = ideal(*J1_234)
    assert member(p("z^5 + 3*z*w^2"), J1)
    assert not member(p("z^3"), J1)  # K - 1 = 3 stays outside


@given(polynomials(max_degree=2, max_terms=3), polynomials(max_degree=2, max_terms=3))
def test_membership_closed_under_ideal_operations(f, g):
    base = ideal("z^2", "z*w - w^3")
    lifted_f = f * p("z^2") + g * p("z*w - w^3")
    assert member(lifted_f, base)
    if member(f, base) and member(g, base):
        assert member(f + g, base)


# -- germ colength ---------------------------------------------------------------------


def test_colength_of_maximal_ideal():
    report = germ_colength(ideal("z", "w"))
    assert report.colength == 1
    assert report.m_primary and not report.capped


def test_colength_of_square_of_maximal_ideal():
    # standard monomials counted by hand: 1, z, w
    report = germ_colength(ideal("z^2", "z*w", "w^2"))
    assert report.colength == 3
    assert report.stabilization_degree == 2


@pytest.mark.parametrize("M,N,K", [(2, 3, 4), (3, 3, 4), (4, 2, 5), (2, 4, 6)])
def test_colength_of_product_family(M, N, K):
    report = germ_colength(ideal(f"z^{M}", f"w^{N} + w*z^{K}"))
    assert report.colength == M * N


def test_colength_monotone_under_more_generators():
    small = germ_colength(ideal("z^3", "w^3"))
    bigger = germ_colength(ideal("z^3", "w^3", "z*w"))
    assert bigger.colength <= small.colength


def test_non_isolated_germs_report_infinite_colength_without_a_scan(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return truncated_basis(*args, **kwargs)

    monkeypatch.setattr(ideals, "truncated_basis", counting)
    for gens in [("z^3", "z*w"), ("z - z*w",), ("z*w",)]:
        report = germ_colength(ideal(*gens))
        assert report.colength is None, gens
        assert not report.m_primary and not report.capped, gens
        assert report.stabilization_degree is None, gens
    assert calls == []


def test_isolated_germs_make_no_scan(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return truncated_basis(*args, **kwargs)

    monkeypatch.setattr(ideals, "truncated_basis", counting)
    triangular = ("z^3", "w^2 + (2 - i)*z*w + z^2", "v^2 + 3*w*v - z")
    assert germ_colength(ideal(*triangular, variables=("z", "w", "v"))).colength == 12
    for M, N, K in [(2, 3, 4), (3, 4, 6), (4, 2, 5)]:
        assert germ_colength(ideal(f"z^{M}", f"w^{N} + w*z^{K}")).colength == M * N
    # a point off the origin needs no truncation either: the LOCAL basis decides
    I = ideal("z^2 - z", "w^2")
    assert germ_colength(I)[:2] == (2, 2)
    assert [root_order(p(x), I) for x in ZW] == [1, 2]
    assert not germ_member(p("w"), I) and germ_member(p("z - z*w"), I)
    assert calls == []


def test_isolated_origin_beside_a_curve():
    # V(I) is the origin plus the line z = 1, so I is not zero-dimensional
    for gens, colength in [(("z^2 - z", "z*w - w"), 1), (("z^3 - z^2", "z*w - w"), 2)]:
        I = ideal(*gens)
        assert germ_colength(I).m_primary
        report = germ_colength(I)
        assert (report.colength, report.m_primary) == (colength, True)
        assert (report.colength, report.stabilization_degree, report.m_primary) == _scan(I)
    assert germ_member(p("z"), ideal("z^2 - z", "z*w - w"))
    assert not germ_colength(ideal("z^2 - z", "z*w")).m_primary


def _scan(I, cap=24):
    # the truncation scan on its own, up to a fixed degree
    prev = None
    for n in range(1, cap + 1):
        d, _ = _standard_monomial_count(truncated_basis(I, n), I.ring_dim, GREVLEX)
        if d == prev:
            return d, n - 1, True
        prev = d
    return None, None, False


def _random_low_degree_poly(rng):
    out = Polynomial.zero(2)
    for _ in range(rng.randint(1, 3)):
        mono = (rng.randint(0, 4), rng.randint(0, 4))
        if 1 <= sum(mono) <= 4:
            out = out + Polynomial.monomial(mono, Fraction(rng.randint(-3, 3)))
    return out


# zero-dimensional, with points of V(I) off the origin: generators, colength at 0
OFF_ORIGIN_POINTS = [
    (("z^2 - z", "w^2"), 2),
    (("z^2 - z", "w^2 - w"), 1),
    (("z^3 - z^2", "w^2 - z*w"), 4),
    (("z*(z - 1)*(z - 2)", "w^2 - z"), 2),
    (("z^2 - z*w", "w^3 - w^2"), 4),
]


def _assert_answers_match_the_truncation(I, degree, polys):
    # an m-primary germ ideal is its local component I + m^N, N the scan's
    # degree, so normal forms on the grevlex basis of the truncation decide
    basis = truncated_basis(I, degree)

    def in_truncation(f):
        return normal_form(f, basis, GREVLEX).is_zero()

    for f in polys:
        assert germ_member(f, I) == in_truncation(f), (I.generators, f)
        assert root_order(f, I) == least_power(f, in_truncation, degree), (I.generators, f)


def _scan_candidates(I):
    # the variables, their sum, each generator, and a unit
    n = I.ring_dim
    xs = [Polynomial.variable(n, i) for i in range(n)]
    return xs + [sum(xs, Polynomial.zero(n))] + list(I.generators) + [1 + xs[0]]


def _assert_matches_scan(I, variables=ZW):
    report = germ_colength(I)
    got = (report.colength, report.stabilization_degree, report.m_primary)
    gens = [format_poly(g, variables) for g in I.generators]
    scanned = _scan(I)
    assert got == scanned, gens
    if report.m_primary:
        _assert_answers_match_the_truncation(I, scanned[1], _scan_candidates(I))
    return report


def test_colength_matches_truncation_scan_on_random_ideals():
    # two or three generators: a single one is never isolated in two
    # variables, and the reference scan spends seconds per principal ideal
    rng = random.Random(2009)
    kinds = {True: 0, False: 0}
    for _ in range(60):
        I = Ideal(2, [_random_low_degree_poly(rng) for _ in range(rng.randint(2, 3))])
        kinds[_assert_matches_scan(I).m_primary] += 1
    assert min(kinds.values()) >= 10, kinds
    for gens, colength in OFF_ORIGIN_POINTS:
        assert _assert_matches_scan(ideal(*gens)).colength == colength
    rng = random.Random(2009)
    for _ in range(20):
        system = random_system(rng, max_n=2)
        assert _assert_matches_scan(Ideal(system.n, system.h), system.variables).m_primary
    # three variables with exponents at most 2 keep the scan's bases small
    drawn = 0
    while drawn < 8:
        system = random_system(rng)
        if system.n == 3 and max(system.exponents) <= 2:
            assert _assert_matches_scan(Ideal(3, system.h), system.variables).m_primary
            drawn += 1


def _random_poly(rng, n):
    # up to three terms of degree 1 to 4, a fifth of them with Gaussian coefficients
    out = Polynomial.zero(n)
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 4) for _ in range(n))
        if 1 <= sum(mono) <= 4:
            im = rng.randint(-1, 1) if rng.random() < 0.2 else 0
            out = out + Polynomial.monomial(mono, GaussianRational(rng.randint(-3, 3), im))
    return out


def _germ_oracle_draws(rng):
    """(ideal, candidates) pairs: 45 random ideals, then 15 shifted triangular systems.

    Every other random ideal gets a pure power of each variable in turn,
    which usually isolates the origin.  A triangular system of degree at most
    3 has one generator h_i multiplied by 1 - x_j, a unit at the origin, so
    the germ is unchanged while V(I) gains points off it; h_i is then a germ
    member that is no global member.
    """
    out = []
    while len(out) < 45:
        n = rng.randint(2, 3)
        gens = [_random_poly(rng, n) for _ in range(rng.randint(n, n + 1))]
        if len(out) % 2:
            gens = [g + Polynomial.variable(n, j % n) ** rng.randint(1, 4) for j, g in enumerate(gens)]
        out.append((Ideal(n, gens), []))
    while len(out) < 60:
        system = random_system(rng)
        if system.n < 2 or max(g.total_degree() for g in system.h) > 3:
            continue
        n, i = system.n, rng.randrange(system.n)
        shift = 1 - Polynomial.variable(n, rng.randrange(n))
        gens = [g * shift if j == i else g for j, g in enumerate(system.h)]
        out.append((Ideal(n, gens), [system.h[i]]))
    return out


def test_germ_oracle_matches_the_scan_and_sympy_on_random_ideals():
    # the LOCAL standard basis against the truncation scan, and germ
    # membership against sympy's local ring where the coefficients are real
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2040)
    kinds = {True: 0, False: 0}
    answers = {True: 0, False: 0}
    for I, extra in _germ_oracle_draws(rng):
        n = I.ring_dim
        report = germ_colength(I)
        colength, degree, m_primary = _scan(I, cap=16)
        assert tuple(report) == (colength, degree), I.generators
        if m_primary:
            _assert_answers_match_the_truncation(I, degree, _scan_candidates(I) + extra)
        kinds[m_primary] += 1
        if any(c.im for g in I.generators for c in g.terms.values()):
            continue
        variables = ZWV[:n]
        ring = sympy.QQ.old_poly_ring(*sympy.symbols(variables), order="igrevlex")
        local = ring.ideal(*[to_sympy(sympy, g, variables).as_expr() for g in I.generators])
        candidates = [Polynomial.monomial(rng.choice(list(monomials_of_degree(n, d)))) for d in (1, 2)]
        if m_primary:  # a member
            candidates.append(Polynomial.monomial(rng.choice(list(monomials_of_degree(n, degree)))))
        for f in candidates + [_random_poly(rng, n)] + extra:
            if any(c.im for c in f.terms.values()):
                continue
            got = germ_member(f, I)
            assert got == local.contains(to_sympy(sympy, f, variables).as_expr()), (I.generators, f)
            answers[got] += 1
    assert min(kinds.values()) >= 15 and min(answers.values()) >= 30, (kinds, answers)


def test_germ_membership_beside_points_off_the_origin_is_prompt():
    # germ membership through the lex quotient I : f ran for minutes here;
    # f is a multiple of w*v^2, and sympy's local ring, over QQ, answers for it
    gens = ["z^3", "z^2*w^2 - 3*z^2 + w^2 + z", "z*w + v^2 - 4*z - 2*w"]
    I = ideal(*gens, "(-2 - i)*z^4*w^2", variables=ZWV)
    assert not germ_member(p("(-3 + i)*w*v^2", ZWV), I)
    assert germ_colength(I)[:2] == (12, 12)
    sympy = pytest.importorskip("sympy")
    # z^4*w^2 is a multiple of z^3 whatever its coefficient
    ring = sympy.QQ.old_poly_ring(*sympy.symbols(ZWV), order="igrevlex")
    local = ring.ideal(*[to_sympy(sympy, p(g, ZWV), ZWV).as_expr() for g in gens])
    assert not local.contains(to_sympy(sympy, p("w*v^2", ZWV), ZWV).as_expr())


@pytest.mark.parametrize("gens, colength", OFF_ORIGIN_POINTS)
def test_off_origin_colength_matches_sympy_local_ring(gens, colength):
    sympy = pytest.importorskip("sympy")
    I = ideal(*gens)
    assert germ_colength(I).colength == sympy_local_colength(sympy, I.generators) == colength


def test_triangular_colengths_match_sympy_local_ring():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2009)
    checked = 0
    while checked < 20:
        system = random_system(rng)
        if any(c.im for g in system.h for c in g.terms.values()):
            continue  # sympy's local ring runs over QQ
        report = germ_colength(Ideal(system.n, system.h))
        assert report.colength == sympy_local_colength(sympy, system.h, system.variables)
        checked += 1


def _lattice_count(exponent_sets, bound):
    # independent counting oracle for monomial ideals: walk the lattice
    count = 0
    for d in range(bound):
        for mono in monomials_of_degree(len(exponent_sets[0]), d):
            if not any(all(m >= e for m, e in zip(mono, gen)) for gen in exponent_sets):
                count += 1
    return count


@pytest.mark.parametrize(
    "gens",
    [
        ((2, 0), (0, 2)),
        ((3, 0), (1, 1), (0, 4)),
        ((2, 1), (1, 3), (5, 0), (0, 5)),
        ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
        ((3, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (1, 0, 1), (0, 0, 4)),
        ((1, 1, 1), (4, 0, 0), (0, 3, 0), (0, 0, 2), (2, 2, 0)),
    ],
)
def test_monomial_colength_matches_lattice_count(gens):
    polys = [Polynomial.monomial(g) for g in gens]
    ideal = Ideal(len(gens[0]), polys)
    report = germ_colength(ideal)
    assert report.colength == _lattice_count(gens, report.stabilization_degree + 1)
    # V(I) is the origin, so the global count agrees
    assert _standard_monomial_count(ideal.groebner(), ideal.ring_dim, GREVLEX)[0] == report.colength


def test_standard_monomial_count_is_global():
    # V(z^2 - z, w^2) is the origin and (1, 0): the global count adds both
    # points, while the LOCAL standard basis (z, w^2) counts the origin alone
    ideal = Ideal.from_strings(["z^2 - z", "w^2"], ZW)
    for order in (GREVLEX, LEX):
        assert _standard_monomial_count(ideal.groebner(order), 2, order) == (4, 3)
    assert _standard_monomial_count(ideal.groebner(LOCAL), 2, LOCAL) == (2, 2)
    assert germ_colength(ideal).colength == 2
    curve = Ideal.from_strings(["z^2"], ZW)
    for order in (GREVLEX, LOCAL):
        assert _standard_monomial_count(curve.groebner(order), 2, order) == (None, None)
    unit = Ideal.from_strings(["1"], ZW)
    assert _standard_monomial_count(unit.groebner(), 2, GREVLEX) == (0, 0)
    assert germ_colength(unit)[:2] == (0, 1)


def _random_monomial_ideals(rng, count):
    # monomial ideals in 2 or 3 variables with some variable lacking a pure power
    out = []
    while len(out) < count:
        n = rng.randint(2, 3)
        monos = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        pure = {i for m in monos for i in range(n) if sum(m) == m[i]}
        if len(pure) < n:  # no pure power of some variable, so never the constant 1
            coeffs = [rng.choice(ONE_TERM_COEFFS) for _ in monos]
            out.append(Ideal(n, [Polynomial.monomial(m, c) for m, c in zip(monos, coeffs)]))
    return out


def _count_eliminations(monkeypatch):
    # the germ questions read a LOCAL standard basis; only root_order's
    # saturation and eliminant take a lex elimination
    calls = []
    eliminate = ideals._eliminate

    def counting(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(ideals, "_eliminate", counting)
    return calls


def _grown(I, f):
    return Ideal(I.ring_dim, I.generators + (f,))


def test_non_zero_dimensional_monomial_germs_need_no_saturation(monkeypatch):
    cases = _random_monomial_ideals(random.Random(2030), 40)
    calls = _count_eliminations(monkeypatch)
    for I in cases:
        n = I.ring_dim
        report = germ_colength(I)
        assert tuple(report) == (None, None)
        # a monomial ideal is homogeneous, so its germ members are its members
        for m in monomials_of_degree(n, 2):
            f = Polynomial.monomial(m)
            assert germ_member(f, I) == member(f, I)
            assert same_germ(I, _grown(I, f)) == member(f, I)
    assert calls == []


# -- germ membership and root orders -----------------------------------------------------


def test_germ_membership_examples():
    J1 = ideal(*J1_234)
    report = germ_colength(J1)
    assert not germ_member(p("z^3"), J1)
    assert not germ_member(p("z^4"), J1)  # the tail exponent itself stays out
    assert germ_member(p("z^6"), J1)
    # anything vanishing to the stabilization degree is inside
    for mono in monomials_of_degree(2, report.stabilization_degree):
        assert germ_member(Polynomial.monomial(mono), J1)


def test_germ_membership_of_non_isolated_germs_is_exact():
    I = ideal("z^3", "z*w")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert germ_member(p("z^3"), I)
        assert not germ_member(p("z"), I)
        assert not germ_member(p("z^2"), I)
    # z = (z - z*w) / (1 - w) as germs, but z is no multiple of z - z*w
    line = ideal("z - z*w")
    assert germ_member(p("z"), line)
    assert not member(p("z"), line)


def test_germ_report_is_computed_once_per_ideal():
    for gens in [J1_234, ("z^2 - z", "z*w - w"), ("z^3", "z*w")]:
        I = ideal(*gens)
        assert germ_colength(I) is germ_colength(I)


def test_germ_membership_matches_normal_forms_on_the_local_component():
    # an m-primary germ ideal is its local component I + m^N, N the scan's
    # degree, so a normal form on the grevlex basis of the truncation decides
    # membership; all but the first two have points off the origin
    germs = [J1_234, ("z^3", "w^2 + z*w"), ("z^2 - z", "z*w - w"), ("z^3 - z^2", "z*w - w")]
    for gens in germs + [gens for gens, _ in OFF_ORIGIN_POINTS]:
        I = ideal(*gens)
        _, scanned, m_primary = _scan(I)
        assert m_primary and germ_colength(I).stabilization_degree == scanned, gens
        monos = [Polynomial.monomial(m) for d in range(scanned + 1) for m in monomials_of_degree(2, d)]
        _assert_answers_match_the_truncation(I, scanned, monos + _scan_candidates(I))


@pytest.mark.parametrize("gens", [("z^2", "w^3"), ("z^2",)])
@pytest.mark.parametrize("question", [root_order, germ_member, member])
def test_germ_questions_refuse_a_polynomial_from_another_ring(question, gens):
    # an m-primary germ and a curve germ; the second once failed inside the
    # saturation's ring and the first answered 2
    with pytest.raises(ValidationError, match="^polynomial lives in the wrong ring$"):
        question(p("z", ZWV), ideal(*gens))


def test_germ_answers_on_an_m_primary_ideal_build_no_global_basis(monkeypatch):
    orders = []
    raw = ideals._groebner_raw

    def recording(gens, order):
        orders.append(order)
        return raw(gens, order)

    def forbidden(*args):
        raise AssertionError("germ answers take no truncation")

    monkeypatch.setattr(ideals, "_groebner_raw", recording)
    monkeypatch.setattr(ideals, "truncated_basis", forbidden)
    assert tuple(germ_colength(ideal(*OFF_ORIGIN_CLIFF, variables=ZWV))) == (9, 9)
    I = ideal(*OFF_ORIGIN_CLIFF, variables=ZWV)
    assert [root_order(p(x, ZWV), I) for x in ZWV] == [3, 9, 9]
    for text in ("z^2", "w*v", "z*w^2*v"):
        assert not germ_member(p(text, ZWV), ideal(*OFF_ORIGIN_CLIFF, variables=ZWV)), text
    assert orders and set(orders) == {ideals._homogenized}


def _homogeneous_ideals(rng, count):
    """Seeded homogeneous ideals in 2-3 variables, with real coefficients.

    They come in four kinds, in turn: monomial, binomial and general forms,
    and forms listed as f_1, f_1 + f_2, ... with degrees that differ, whose
    generators are not homogeneous although the ideal is.
    """
    out = []
    for index in range(count):
        kind = ("monomial", "binomial", "form", "hidden")[index % 4]
        n = rng.randint(2, 3)
        degrees = rng.sample(range(1, 4), 2) if kind == "hidden" else [
            rng.randint(1, 3) for _ in range(rng.randint(1, 3))
        ]
        forms = []
        for d in degrees:
            monos = list(monomials_of_degree(n, d))
            size = {"monomial": 1, "binomial": 2}.get(kind, rng.randint(2, 3))
            forms.append(sum(
                (Polynomial.monomial(m, rng.choice([1, -1, 2, Fraction(-1, 3)]))
                 for m in rng.sample(monos, min(size, len(monos)))),
                Polynomial.zero(n),
            ))
        if kind == "hidden":
            forms = [forms[0]] + [forms[0] + f for f in forms[1:]]
        out.append(Ideal(n, forms))
    return out


# the zero ideal in two and three variables, (z, z + w^2) = (z, w^2), and seeded draws
HOMOGENEOUS_CASES = (
    [Ideal(2, ()), Ideal(3, ()), ideal("z", "z + w^2")]
    + _homogeneous_ideals(random.Random(2035), 16)
)


def _fresh_homogeneous_cases():
    # fresh copies, so that no cached basis or report answers for the code under test
    return [Ideal(I.ring_dim, I.generators) for I in HOMOGENEOUS_CASES]


def test_homogeneous_germ_membership_matches_both_oracles(monkeypatch):
    # sympy's local ring, and global membership: the associated primes of a
    # homogeneous I lie in m, so a unit u is a non-zero-divisor mod I, and
    # u f in I forces f in I
    sympy = pytest.importorskip("sympy")
    calls = _count_eliminations(monkeypatch)
    checked = 0
    for I in _fresh_homogeneous_cases():
        n = I.ring_dim
        variables = ("z", "w", "v")[:n]
        ring = sympy.QQ.old_poly_ring(*sympy.symbols(variables), order="igrevlex")
        local = ring.ideal(*[to_sympy(sympy, g, variables).as_expr() for g in I.generators])
        unit = 1 - Polynomial.variable(n, n - 1)
        candidates = [Polynomial.monomial(m) for d in (1, 2, 3) for m in monomials_of_degree(n, d)]
        candidates += list(I.generators) + [unit * g for g in I.generators]
        candidates += [Polynomial.variable(n, 0) + Polynomial.variable(n, 1) ** 2]
        for f in candidates:
            expected = local.contains(to_sympy(sympy, f, variables).as_expr())
            assert germ_member(f, I) == member(f, I) == expected, (I.generators, f)
            checked += 1
    assert checked and calls == []


def test_homogeneous_germ_colength_matches_both_oracles(monkeypatch):
    # sympy's local ring, and the global count: V(I) is a cone, so the origin
    # is isolated exactly when V(I) is the origin alone, and then I is m-primary
    sympy = pytest.importorskip("sympy")
    calls = _count_eliminations(monkeypatch)
    m_primary = 0
    for I in _fresh_homogeneous_cases():
        report = germ_colength(I)
        global_count, _ = _standard_monomial_count(I.groebner(), I.ring_dim, GREVLEX)
        assert report.colength == global_count
        if report.m_primary:
            variables = ("z", "w", "v")[: I.ring_dim]
            assert report.colength == sympy_local_colength(sympy, I.generators, variables)
            m_primary += 1
    assert 0 < m_primary < len(HOMOGENEOUS_CASES)
    assert calls == []


def test_homogeneous_germ_questions_take_no_elimination(monkeypatch):
    cases = [I for I in _fresh_homogeneous_cases() if not germ_colength(I).m_primary]
    assert len(cases) >= 4
    cases = [Ideal(I.ring_dim, I.generators) for I in cases]
    calls = _count_eliminations(monkeypatch)
    for I in cases:
        n = I.ring_dim
        assert germ_colength(I).colength is None
        for d in (1, 2, 3):
            for m in monomials_of_degree(n, d):
                f = Polynomial.monomial(m)
                assert same_germ(I, _grown(I, f)) == germ_member(f, I)
        germ_member(Polynomial.variable(n, 0) + Polynomial.variable(n, 1) ** 2, I)
    assert calls == []


def test_root_orders_simple():
    line = Ideal.from_strings(["z"], ("z",))
    assert root_order(parse("z", ("z",)), line) == 1
    one_var = Ideal.from_strings(["z^3"], ("z",))
    assert root_order(parse("z", ("z",)), one_var) == 3


def test_root_order_off_an_isolated_origin_is_exact():
    # V(z^3, z*w) is the line z = 0: z lies in the radical of the germ, w does not
    curve = ideal("z^3", "z*w")
    assert root_order(p("z"), curve) == 3
    assert root_order(p("w"), curve) is None
    assert root_order(p("1 + z"), curve) is None
    assert root_order(p("1 + z"), ideal("z^2", "w^2")) is None
    assert root_order(p("z"), ideal("z - z*w")) == 1


def test_variable_root_orders_come_from_the_eliminant():
    # w^3 = w*(w^2 - z*w) + z*w^2, while the degree-2 part of I is spanned by w^2 - z*w
    I = ideal("w^2 - z*w", "z*w^2")
    assert variable_root_order(I, 1) == 3
    assert variable_root_order(I, 0) is None
    assert variable_root_order(ideal("z^35", "z*w"), 0) == 35


def test_radical_step_orders_beyond_32():
    principal = radical_step(ideal("z^40*w"))
    assert principal.method == "principal" and principal.max_root_order == 40
    partial = radical_step(ideal("z^35", "z*w"))
    assert partial.method == "partial"
    assert [(format_poly(g, ZW), s) for g, s in partial.root_orders] == [("z", 35)]
    partial = radical_step(ideal("w^2 - z*w", "z*w^2"))
    assert partial.method == "partial"
    assert [(format_poly(g, ZW), s) for g, s in partial.root_orders] == [("z*w", 2), ("w", 3)]


def test_root_order_in_second_stage_ideal():
    J1 = ideal(*J1_234)
    # sharp root orders, pinned by hand certificates: z^6 = z*(z*g_w) - (w/2)*(6*z^2*w)
    assert root_order(p("z"), J1) == 6
    assert root_order(p("w"), J1) == 4


def test_nakayama_soundness_on_stabilized_reports():
    for gens in [("z", "w"), ("z^2", "z*w", "w^2"), J1_234, ("z^3", "w^2 + z*w")]:
        I = ideal(*gens)
        report = germ_colength(I)
        assert report.m_primary
        for mono in monomials_of_degree(2, report.stabilization_degree):
            assert germ_member(Polynomial.monomial(mono), I)


# -- radical stages ------------------------------------------------------------------------


def test_radical_of_principal_ideal():
    outcome = radical_step(ideal("z^2*(3*w^2 + z^4)"))
    assert outcome.method == "principal"
    assert [format_poly(g, ZW) for g in outcome.generators] == ["z^5 + 3*z*w^2"]
    assert outcome.max_root_order == 2


def test_radical_of_stabilized_ideal_is_maximal():
    outcome = radical_step(ideal(*J1_234))
    assert outcome.method == "m-primary"
    assert [format_poly(g, ZW) for g in outcome.generators] == ["z", "w"]
    assert dict((format_poly(g, ZW), s) for g, s in outcome.root_orders) == {
        "z": 6,
        "w": 4,
    }


def test_radical_of_monomial_square():
    outcome = radical_step(ideal("z^2", "z*w", "w^2"))
    assert outcome.method == "m-primary"
    assert [format_poly(g, ZW) for g in outcome.generators] == ["z", "w"]


def test_radical_partial_enrichment():
    outcome = radical_step(ideal("z^2", "z*w"))
    assert outcome.method == "partial"
    gens = [format_poly(g, ZW) for g in outcome.generators]
    assert "z" in gens
    assert not outcome.stalled


def test_radical_stall_is_data():
    flat = Ideal.from_strings(["z*w", "z*v"], ("z", "w", "v"))
    outcome = radical_step(flat)
    assert outcome.stalled
    assert outcome.method == "none"
    assert outcome.generators == flat.generators


def test_radical_idempotence_on_generated_ideal():
    for gens in [("z^2*(3*w^2 + z^4)",), ("z^2", "z*w"), J1_234]:
        first = radical_step(ideal(*gens))
        second = radical_step(Ideal(2, first.generators))
        lhs = Ideal(2, first.generators)
        rhs = Ideal(2, second.generators)
        assert all(member(g, lhs) for g in rhs.generators)
        assert all(member(g, rhs) for g in lhs.generators)


def test_radical_contains_squarefree_parts_of_generators():
    from submult.poly import squarefree_part

    for gens in [("z^2*(3*w^2 + z^4)",), ("z^2", "z*w", "w^2"), J1_234]:
        I = ideal(*gens)
        outcome = radical_step(I)
        produced = Ideal(2, outcome.generators)
        report = germ_colength(produced)
        for g in I.generators:
            q = squarefree_part(g)
            if report.m_primary:
                assert germ_member(q, produced)
            else:
                assert member(q, produced)


def test_unit_germ_detection():
    assert is_germ_unit(ideal("1 + z"))
    assert not is_germ_unit(ideal("z"))
    assert not is_germ_unit(Ideal(2, ()))
    outcome = radical_step(ideal("1 + z"))
    assert outcome.method == "none"
    assert [format_poly(g, ZW) for g in outcome.generators] == ["1"]


@pytest.mark.parametrize("gens", [("1",), ("1 + z",), ("z", "1 - w")])
def test_radical_step_on_a_unit_ideal(gens):
    outcome = radical_step(ideal(*gens))
    assert outcome.method == "none"
    assert [format_poly(g, ZW) for g in outcome.generators] == ["1"]
    assert outcome.root_orders == ()
    assert not outcome.stalled
    assert outcome.max_root_order == 0


def test_radical_outcome_derives_stall_and_largest_order():
    assert list(ideals.RadicalOutcome._fields) == [
        "generators", "method", "root_orders"
    ]
    assert radical_step(Ideal(2, ())).stalled
    outcome = radical_step(ideal("z^2", "z*w"))
    assert outcome.max_root_order == max(s for _, s in outcome.root_orders)
    assert not outcome.stalled


@given(
    st.lists(polynomials(max_degree=2, max_terms=3), max_size=3),
    st.booleans(),
)
def test_unit_germ_detection_matches_degree_one_truncation(gens, keep_constants):
    # the germ is the unit ideal exactly when I + m is the unit ideal
    if not keep_constants:
        gens = [Polynomial(2, {m: c for m, c in g.terms.items() if m != (0, 0)}) for g in gens]
    I = Ideal(2, gens)
    assert is_germ_unit(I) == (truncated_basis(I, 1) == (Polynomial.constant(2, 1),))


# -- elimination -------------------------------------------------------------------------------


def test_eliminant_by_substitution_oracle():
    # substituting z = w shows z^2 = w^2 lands in the ideal, and degree 1 cannot
    assert format_poly(eliminant(ideal("z - w", "w^2"), 0), ZW) == "z^2"


def test_eliminant_trivial_and_empty():
    assert format_poly(eliminant(ideal("z"), 0), ZW) == "z"
    assert eliminant(ideal("z*w"), 0) is None
    assert eliminant(Ideal(2, ()), 0) is None


def test_eliminant_of_second_stage_ideal_exists():
    J1 = ideal(*J1_234)
    found = eliminant(J1, 0)
    assert found is not None
    assert found.degree_in(1) == 0 and found.degree_in(0) >= 1
    report = germ_colength(J1)
    assert found.degree_in(0) <= report.colength


def _three_variable_ideals():
    from submult.kohn import SpecialDomain, init_state, step

    names = ("z", "w", "v")
    out = [Ideal.from_strings(["z - w^2", "w^2 - v + z*v", "v^3 - z"], names)]
    for h in [
        ("z^2", "w^3 + w*z^4", "v^2"),
        ("z^3", "w^2", "v^2 + z*w"),
        ("z", "w^2 + z*v", "v^2"),
        ("z", "w", "v^2 + z*w"),
    ]:
        # the first three minor ideals of the Kohn iteration
        state = init_state(SpecialDomain.from_strings(h, names))
        for _ in range(3):
            out.append(state.multipliers)
            state = step(state)[0]
    return out


def test_eliminant_matches_sympy_lex_in_three_variables():
    sympy = pytest.importorskip("sympy")
    names = ("z", "w", "v")
    found_any = 0
    for J in _three_variable_ideals():
        gens = [to_sympy(sympy, g, names).as_expr() for g in J.generators]
        for i, name in enumerate(names):
            # lex with x_i last eliminates the other two variables
            order = [s for s in names if s != name] + [name]
            basis = sympy.groebner(gens, *sympy.symbols(order), order="lex")
            expected = [g for g in basis.exprs if g.free_symbols <= {sympy.Symbol(name)}]
            found = eliminant(J, i)
            if not expected:
                assert found is None, (J.generators, name)
                continue
            found_any += 1
            mine = to_sympy(sympy, found, names).as_expr()
            assert sympy.expand(mine - expected[0]) == 0, (J.generators, name)
    assert found_any >= 12


# -- randomized Nakayama suite ------------------------------------------------------------------


def test_nakayama_soundness_random_m_primary_ideals():
    rng = random.Random(734)
    found = 0
    attempts = 0
    while found < 50 and attempts < 400:
        attempts += 1
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        tail1 = _random_tail(rng)
        tail2 = _random_tail(rng)
        I = Ideal(2, [p(f"z^{a}") + tail1, p(f"w^{b}") + tail2])
        report = germ_colength(I)
        if not report.m_primary:
            continue
        found += 1
        for mono in monomials_of_degree(2, report.stabilization_degree):
            assert germ_member(Polynomial.monomial(mono), I)
    assert found == 50


def _random_tail(rng):
    out = Polynomial.zero(2)
    for _ in range(rng.randint(0, 3)):
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        if sum(mono) == 0:
            continue
        out = out + Polynomial.monomial(mono, Fraction(rng.randint(-2, 2)))
    return out
