import itertools
import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import coefficients, nonzero_polynomials, polynomials
from submult.errors import DimensionMismatchError, ParseError, ValidationError
from submult import poly
from submult.poly import (
    GaussianRational,
    Polynomial,
    PolyMatrix,
    det,
    exact_div,
    format_poly,
    least_power,
    minor_dets,
    monomials_of_degree,
    parse,
    poly_gcd,
    squarefree_part,
)

ZW = ("z", "w")


def p(text, variables=ZW):
    return parse(text, variables)


# -- parsing and printing -----------------------------------------------------


def test_parse_zero():
    assert p("0").is_zero()
    assert format_poly(p("0"), ZW) == "0"


def test_parse_defining_function():
    g = p("w^3 + w*z^4")
    assert g == p("w*z^4 + w^3")
    assert format_poly(g, ZW) == "z^4*w + w^3"


def test_parse_rationals_and_imaginary():
    q = p("3/4*z^2 - i*w + (1 - 2*i)")
    assert q.terms[(2, 0)] == GaussianRational(Fraction(3, 4))
    assert q.terms[(0, 1)] == GaussianRational(0, -1)
    assert q.terms[(0, 0)] == GaussianRational(1, -2)


def test_parse_unknown_variable_position():
    with pytest.raises(ParseError) as err:
        p("z^2 + 2*q")
    assert err.value.position == 8  # zero-based offset of 'q'


def test_parse_syntax_error():
    with pytest.raises(ParseError):
        p("z^")
    with pytest.raises(ParseError):
        p("z +")
    with pytest.raises(ParseError):
        p("(z")
    with pytest.raises(ParseError):
        p("3/0")


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("z + #", "unexpected character '#'", 4),
        ("z +\t1.5", "unexpected character '.'", 5),
        ("(z + w", "expected ')', found 'end of input'", 6),
        ("(z w)", "expected ')', found 'w'", 3),
        ("z w", "unexpected trailing input 'w'", 2),
        ("z^w", "exponent must be a non-negative integer", 2),
        ("z^", "exponent must be a non-negative integer", 2),
        ("3/z", "expected denominator", 2),
        ("3/ 00", "zero denominator", 3),
        ("z^2 + 2*q", "unknown variable 'q'", 8),
        ("z + *", "unexpected token '*'", 4),
        ("z +", "unexpected token 'end of input'", 3),
    ],
)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        p(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


LONG_LITERAL = "7" * 5000
PARSE_PIECES = list("zw+-*/^() 0123456789i\t") + ["zz", "ab", "_x", "²", "½", "é", "٣", LONG_LITERAL]


@given(st.lists(st.sampled_from(PARSE_PIECES), max_size=10).map("".join))
def test_parse_raises_only_package_errors(text):
    # where int() reads any length (its digit limit off, or Python before
    # 3.10.7), a power of the long literal is a number of millions of digits,
    # which the term bound does not limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assume(0 < limit < len(LONG_LITERAL) or not (LONG_LITERAL in text and "^" in text))
    try:
        result = parse(text, ("z", "w", "é"))
    except (ParseError, ValidationError):
        return
    assert isinstance(result, Polynomial)


# a t-term base to the power e may take e * C(e + t - 1, t - 1) <= 100,000 term products,
# and that count times the bits of its largest numerator or denominator may be <= 1,000,000
@pytest.mark.parametrize(
    "text, variables, terms",
    [
        ("(a + 1)^315", "a", 316),
        ("z^1500", ZW, 1),
        ("w^2 + z^1500*w", ZW, 2),
        ("(2/3 + i)^90000", ZW, 1),
        ("0^123456789", ZW, 0),
        ("(3*z + 1)^300", ZW, 301),
    ],
)
def test_powers_within_the_bound_expand(text, variables, terms):
    assert len(parse(text, tuple(variables)).terms) == terms


@pytest.mark.parametrize(
    "text, variables, position",
    [
        ("(a + 1)^316", "a", 8),
        ("(z + w)^5000", ZW, 8),
        ("(z + w + v + u + 1)^17", "zwvu", 20),
        ("z^100001", ZW, 2),
        ("z^" + "9" * 5000, ZW, 2),
        ("(9999*z + 1)^315", ZW, 13),
    ],
)
def test_powers_beyond_the_bound_are_parse_errors(text, variables, position):
    with pytest.raises(ParseError) as err:
        parse(text, tuple(variables))
    assert err.value.position == position


def test_power_of_a_long_constant_is_refused_at_once():
    # without the bit bound this expands to a 16.6-million-bit numerator in 6-8 s of CPU
    start = time.process_time()
    with pytest.raises(ParseError, match="167-bit coefficients too large to expand") as err:
        parse("9" * 50 + "^99999", ZW)
    assert time.process_time() - start < 0.5
    assert err.value.position == 51


def test_reserved_imaginary_name():
    with pytest.raises(ValidationError):
        parse("i", ("i", "w"))


@given(polynomials())
def test_print_parse_round_trip(poly):
    assert parse(format_poly(poly, ZW), ZW) == poly


# -- arithmetic ----------------------------------------------------------------


def test_difference_of_squares():
    assert p("(z+w)*(z-w)") == p("z^2 - w^2")


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        p("z") + parse("z", ("z",))


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(polynomials())
def test_additive_inverse(a):
    assert (a - a).is_zero()


@given(polynomials(), polynomials())
def test_arithmetic_results_hold_no_zero_coefficient(a, b):
    # (a + b) - b and a - a cancel term by term
    for r in (a + b, a - b, (a + b) - b, a * b, -a, a.diff(0), a.diff(1)):
        assert all(r.terms.values())
    assert (a - a).terms == {}
    assert (a * 0).terms == {}


@pytest.mark.parametrize("mono", [(1.5,), (True,), (Fraction(1),), (1.0,), ("1",), (-1,)])
def test_exponents_must_be_non_negative_ints(mono):
    with pytest.raises(ValueError):
        Polynomial(1, {mono: 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(0,) + mono: 1})


def test_scalar_multiplication():
    assert 2 * p("z") == p("2*z")
    assert p("z") * Fraction(1, 2) == p("1/2*z")


@given(polynomials(), coefficients())
def test_a_constant_polynomial_factor_scales_the_coefficients(a, c):
    const = Polynomial(2, {(0, 0): c})
    assert a * const == const * a == a * c
    one = Polynomial.constant(2, 1)
    assert a * one == one * a == a


# -- differentiation, composition, vanishing order ------------------------------


def test_power_rule():
    assert p("z^5").diff(0) == p("5*z^4")
    with pytest.raises(IndexError):
        p("z").diff(2)


def test_normal_slice_derivatives():
    g = p("w^3 + w*z^4")
    w_zero = [p("z"), p("0")]
    assert g.diff(1).compose(w_zero) == p("z^4")
    assert g.diff(1).diff(1).compose(w_zero).is_zero()
    assert g.diff(0).diff(1).compose(w_zero) == p("4*z^3")


@given(polynomials(dim=3, max_degree=3, max_terms=4))
def test_mixed_partials_commute(poly):
    for i, j in itertools.combinations(range(3), 2):
        assert poly.diff(i).diff(j) == poly.diff(j).diff(i)


def test_substitution_identity():
    q = p("z^2*w + w^3")
    assert q.compose([p("z"), p("w")]) == q


def test_substitution_and_composition_at_high_exponent():
    # the power cache is filled by a loop, not by one call per exponent
    assert p("w^1500").compose([p("z"), p("z")]) == p("z^1500")
    assert p("z*w^1500").compose([p("w"), p("z")]) == p("w*z^1500")


@given(polynomials(max_degree=3, max_terms=4), coefficients(), coefficients())
def test_composition_at_constants_is_evaluation(poly, a, b):
    value = sum(
        (c * a**e0 * b**e1 for (e0, e1), c in poly.terms.items()), GaussianRational(0)
    )
    consts = [Polynomial.constant(2, a), Polynomial.constant(2, b)]
    assert poly.compose(consts) == Polynomial.constant(2, value)


def test_ord_vanish():
    assert p("0").ord_vanish() is None
    assert p("z^2*w + z^4").ord_vanish() == 3
    assert p("1 + z").ord_vanish() == 0


@given(nonzero_polynomials(), nonzero_polynomials())
def test_ord_vanish_multiplicative(a, b):
    assert (a * b).ord_vanish() == a.ord_vanish() + b.ord_vanish()


# -- gradients, matrices, minors --------------------------------------------------


def test_gradient_of_constant_and_power():
    assert all(q.is_zero() for q in p("5").gradient())
    assert p("z^4").gradient() == (p("4*z^3"), p("0"))


def test_gradient_matches_product_rule_row():
    g = p("w^3 + w*z^4")
    row = (p("z") * g.diff(1)).gradient()
    expected = (g.diff(1) + p("z") * g.diff(1).diff(0), p("z") * g.diff(1).diff(1))
    assert row == expected


def test_minors_identity_rows():
    rows = PolyMatrix(((p("1"), p("0")), (p("0"), p("1"))))
    assert minor_dets(rows) == [p("1")]


def test_minors_need_enough_rows():
    with pytest.raises(ValidationError):
        minor_dets(PolyMatrix(((p("z"), p("w")),)))


def test_minors_with_repeated_row_vanish():
    row = (p("z"), p("w^2"))
    other = (p("w"), p("z"))
    matrix = PolyMatrix((row, other, row))
    dets = minor_dets(matrix)
    # combination (0, 2) uses both copies
    assert dets[1].is_zero()
    assert not dets[0].is_zero()


def test_minors_of_gradient_squares():
    rows = PolyMatrix(tuple(p(s).gradient() for s in ("z^2", "z*w", "w^2")))
    assert minor_dets(rows) == [p("2*z^2"), p("4*z*w"), p("2*w^2")]


def _leibniz_det(rows):
    n = len(rows)
    dim = rows[0][0].ring_dim
    total = Polynomial.zero(dim)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Polynomial.constant(dim, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


@given(st.lists(polynomials(dim=3, max_degree=2, max_terms=2), min_size=9, max_size=9))
def test_det_matches_permutation_expansion(entries):
    rows = [tuple(entries[3 * i : 3 * i + 3]) for i in range(3)]
    assert det(rows) == _leibniz_det(rows)


def test_det_lower_triangular_is_diagonal_product():
    rows = [
        (p("z^2"), p("0")),
        (p("z*w + w^3"), p("w^2")),
    ]
    assert det(rows) == p("z^2") * p("w^2")


@pytest.mark.parametrize("rows", [[], [(p("z"), p("w"))], [(p("z"),), (p("w"), p("1"))]])
def test_det_refuses_an_empty_or_non_square_matrix(rows):
    with pytest.raises(ValidationError):
        det(rows)


def test_minors_refuse_a_matrix_without_columns():
    with pytest.raises(ValidationError):
        minor_dets(PolyMatrix(((), ())))


ZWV = ("z", "w", "v")
# zero-heavy rows over three variables: a zero entry half the time, else a
# nonzero term plus at most one more
_entries = st.one_of(
    st.just(Polynomial.zero(3)),
    st.builds(
        lambda mono, coeff, rest: Polynomial.monomial(mono, coeff) + rest,
        st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
        coefficients().filter(bool),
        polynomials(dim=3, max_degree=2, max_terms=1),
    ),
)
_rows = st.tuples(_entries, _entries, _entries)


@given(
    st.lists(_rows, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=6),
)
def test_minors_match_permutation_expansion_of_each_row_subset(pool, picks):
    # rows repeat when a pool row is picked twice, and are zero when all
    # three of their entries are; a zero row is always in the pool
    pool = [(Polynomial.zero(3),) * 3, *pool]
    rows = tuple(pool[i % len(pool)] for i in picks)
    combos = itertools.combinations(range(len(rows)), 3)
    assert minor_dets(PolyMatrix(rows)) == [_leibniz_det([rows[i] for i in c]) for c in combos]


def test_minors_share_the_sub_minors_of_common_row_tails(monkeypatch):
    # each of the 20 row subsets takes 3 products along its first row, and the
    # 30 distinct 2 x 2 minors of later rows 2 each: 120 (separately, 180)
    entry = "z^{} + {}*w*v^{} + v^{}"
    rows = tuple(
        tuple(p(entry.format(i + 1, j + 2, i, j + 1), ZWV) for j in range(3)) for i in range(6)
    )
    calls = []
    product = Polynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    dets = minor_dets(PolyMatrix(rows))
    assert len(calls) <= 120
    monkeypatch.undo()
    combos = itertools.combinations(range(6), 3)
    assert dets == [_leibniz_det([rows[i] for i in c]) for c in combos]
    assert all(not d.is_zero() for d in dets)


# -- division, gcd, squarefree parts ------------------------------------------------


@given(nonzero_polynomials(dim=3, max_terms=6))
def test_leading_is_first_sorted_term(poly):
    assert poly.leading() == poly.sorted_terms()[0]


def test_exact_division():
    f, g = p("z^2 - w^2"), p("z - w")
    assert exact_div(f, g) == p("z + w")
    assert exact_div(p("z^2 + w"), p("z")) is None


@given(nonzero_polynomials(max_degree=2, max_terms=3), nonzero_polynomials(max_degree=2, max_terms=3))
def test_exact_division_of_products(a, b):
    assert exact_div(a * b, a) == b


@given(nonzero_polynomials(), polynomials(max_degree=2, max_terms=3), nonzero_polynomials())
def test_exact_division_rejects_a_remainder_below_the_divisor(a, b, r):
    # a nonzero multiple of a has degree at least deg a, so a does not divide r
    assume(r.total_degree() < a.total_degree())
    assert exact_div(a * b + r, a) is None


@given(nonzero_polynomials(), polynomials(max_degree=2, max_terms=3), polynomials())
def test_exact_division_quotient_times_divisor_is_dividend(g, h, f):
    assert exact_div(g * h, g) * g == g * h
    for dividend in (f, g * h + f):
        q = exact_div(dividend, g)
        if q is not None:
            assert q * g == dividend


def same_degree_polynomials(degree):
    # at least two terms, all of one total degree in three variables
    monos = st.sampled_from(list(monomials_of_degree(3, degree)))
    return st.dictionaries(monos, coefficients(), min_size=2, max_size=4).map(
        lambda terms: Polynomial(3, terms)
    ).filter(lambda p: len(p.terms) >= 2)


@given(same_degree_polynomials(2), same_degree_polynomials(2), same_degree_polynomials(3))
def test_exact_division_with_terms_of_equal_degree(g, h, r):
    # the work terms tie on degree at every step, so the monomial decides the lead
    f = g * h
    assert exact_div(f, g) == h
    for dividend in (f, f + r, r):
        q = exact_div(dividend, g)
        if q is not None:
            assert q * g == dividend


def test_least_power_searches_only_up_to_its_bound():
    z, z_cubed = p("z"), p("z^3")
    for bound, s in [(3, 3), (2, None), (None, 3)]:
        assert least_power(z, lambda f: f == z_cubed, bound) == s
    # a bound below 1 admits no power, not even the first
    for bound in (0, -1):
        assert least_power(z, lambda f: True, bound) is None


@given(
    nonzero_polynomials(max_degree=2, max_terms=2),
    nonzero_polynomials(max_degree=2, max_terms=2),
    nonzero_polynomials(max_degree=2, max_terms=2),
)
def test_gcd_divides_both_and_extracts_common_factor(f, g, h):
    d = poly_gcd(f * g, f * h)
    assert exact_div(f * g, d) is not None
    assert exact_div(f * h, d) is not None
    # the common factor f divides the gcd
    assert exact_div(d, f.monic()) is not None


def _gaussian_polynomial(rng, dim):
    # two or three terms of degree at most 1 in each variable, not constant
    while True:
        terms = {
            tuple(rng.randint(0, 1) for _ in range(dim)): GaussianRational(
                rng.randint(-3, 3), rng.choice((0, 0, rng.randint(-2, 2)))
            )
            for _ in range(rng.randint(2, 3))
        }
        f = Polynomial(dim, terms)
        if not f.is_constant():
            return f


@pytest.mark.parametrize("seed", range(16))
def test_gcd_and_squarefree_part_match_sympy(seed):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I

    rng = random.Random(seed)
    gens = sympy.symbols(("z", "w", "v")[: 2 + seed % 2])

    def to_qq_i(f):
        coeffs = {
            m: sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for m, c in f.terms.items()
        }
        return sympy.Poly.from_dict(coeffs, *gens, domain=QQ_I)

    a, b, shared, repeated = (_gaussian_polynomial(rng, len(gens)) for _ in range(4))
    # a monomial factor in each, which squarefree_part splits off first
    x_f, x_g = (Polynomial.monomial(tuple(rng.randint(0, 3) for _ in gens)) for _ in range(2))
    f = a * shared * repeated**2 * x_f
    # monic in sympy's order on both sides: equal exactly when equal up to a constant
    for g in (b * shared * repeated * x_g, b * shared * repeated**2 * x_g):
        assert to_qq_i(poly_gcd(f, g)).monic() == to_qq_i(f).gcd(to_qq_i(g)).monic()
        assert to_qq_i(squarefree_part(g)).monic() == to_qq_i(g).sqf_part().monic()
    assert to_qq_i(squarefree_part(f)).monic() == to_qq_i(f).sqf_part().monic()


def test_squarefree_examples():
    assert squarefree_part(p("z")) == p("z")
    assert squarefree_part(p("z^3*w^2")) == p("z*w")
    g_w = p("3*w^2 + z^4")
    assert squarefree_part(p("z^2") * g_w) == (p("z") * g_w).monic()


def test_squarefree_of_constructed_square():
    s, d = p("z + w"), p("z - 2*w")
    result = squarefree_part(s * d * d)
    assert result == (s * d).monic()
    # idempotent on its own output
    assert squarefree_part(result) == result


def test_squarefree_rejects_zero():
    with pytest.raises(ValidationError):
        squarefree_part(p("0"))


@pytest.mark.parametrize("exponents", [(), (0, 0, 0), (1, 0, 0), (0, 4, 0), (3, 1, 2), (5, 5, 5)])
def test_squarefree_part_of_a_monomial_takes_no_gcd(exponents, monkeypatch):
    calls = []
    monkeypatch.setattr(poly, "poly_gcd", lambda f, g: calls.append(1))
    unit = GaussianRational(Fraction(-2, 3), 5)
    result = squarefree_part(Polynomial.monomial(exponents, unit))
    # a constant's part is 1
    assert result == Polynomial.monomial(tuple(min(e, 1) for e in exponents))
    assert calls == []


def test_monic_keeps_a_polynomial_whose_lead_is_one():
    q = p("z^2 - 3*w")
    assert q.monic() is q
    assert p("2*z^2 - 6*w").monic() == q


def test_real_gaussian_rationals_hash_like_their_rationals():
    assert GaussianRational(3) == 3
    assert len({GaussianRational(3), 3}) == 1
    half = Fraction(1, 2)
    assert len({GaussianRational(half), half}) == 1
    assert len({GaussianRational(3, 1), 3}) == 2
    # equality with numbers and foreign types, and hashes, as the formulas say
    assert GaussianRational(half) == half and GaussianRational(half) != Fraction(1, 3)
    assert GaussianRational(3, 1) != 3 and GaussianRational(0) == 0
    for foreign in (3.0, 3j, "3", None, (3, 0, 1)):
        assert GaussianRational(3).__eq__(foreign) is NotImplemented
        assert GaussianRational(3) != foreign
    assert hash(GaussianRational(3, 1)) == hash((Fraction(3), Fraction(1)))
    assert hash(GaussianRational(half, -2)) == hash((half, Fraction(-2)))


@pytest.mark.parametrize("part", [0.1, 1.0, 1j, "1", Decimal("0.1")])
def test_gaussian_rational_parts_must_be_exact(part):
    with pytest.raises(TypeError):
        GaussianRational(part)
    with pytest.raises(TypeError):
        GaussianRational(1, part)


def gaussian_parts():
    q = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    nonzero = q.filter(bool)
    zero = st.just(Fraction(0))
    return st.one_of(
        st.tuples(nonzero, zero),  # real
        st.tuples(zero, nonzero),  # imaginary
        st.tuples(nonzero, nonzero),  # mixed
        st.tuples(zero, zero),
    )


def _parts(z):
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return z.re, z.im


def _triple(z):
    """The stored (re_num, im_num, den), checked to be in lowest terms."""
    t = (z._re_num, z._im_num, z._den)
    assert all(type(k) is int for k in t) and t[2] > 0 and math.gcd(*t) == 1
    assert (z.re, z.im) == (Fraction(t[0], t[2]), Fraction(t[1], t[2]))
    return t


@given(gaussian_parts(), gaussian_parts())
def test_coefficient_arithmetic_matches_the_textbook_formulas(x, y):
    (a, b), (c, d) = x, y
    u, v = GaussianRational(a, b), GaussianRational(c, d)
    assert _parts(u) == (a, b)
    assert _parts(u + v) == (a + c, b + d)
    assert _parts(u - v) == (a - c, b - d)
    assert _parts(u * v) == (a * c - b * d, a * d + b * c)
    assert _parts(-u) == (-a, -b)
    norm = c * c + d * d
    if norm:
        assert _parts(u / v) == ((a * c + b * d) / norm, (b * c - a * d) / norm)
    else:
        with pytest.raises(ZeroDivisionError):
            u / v
    if not d:  # a plain rational operand, on either side
        assert _parts(u + c) == _parts(c + u) == (a + c, b)
        assert _parts(u - c) == (a - c, b)
        assert _parts(c - u) == (c - a, -b)
        assert _parts(u * c) == _parts(c * u) == (a * c, b * c)
    if not b:  # a real value equals and hashes like its rational
        assert u == a and hash(u) == hash(a)
        if a.denominator == 1:
            assert u == int(a) and hash(u) == hash(int(a))
    for z in (u + v, u - v, u * v, -u):
        if not z.im:
            assert z == z.re and hash(z) == hash(z.re)
    if v:
        assert (u * v) / v == u
    assert (u + v) - v == u
    # a Gaussian integer is stored as computed, and any other triple reduced
    m, k = a.numerator * b.denominator, b.numerator * a.denominator
    den = a.denominator * b.denominator
    assert _triple(poly._reduced(m, k, 1)) == (m, k, 1)
    assert _triple(poly._reduced(m, k, den)) == _triple(u)
    assert _triple(poly._reduced(6 * m, 6 * k, 6 * den)) == _triple(u)
    values = [u, v, u + v, u - v, u * v, -u, (u + v) - v, v + u, u.conjugate().conjugate()]
    if v:
        values += [u / v, (u * v) / v]
    for w in values:
        for z in values:
            same = _parts(w) == _parts(z)
            assert (w == z) == same and (_triple(w) == _triple(z)) == same
            if same:
                assert hash(w) == hash(z)


@given(polynomials(dim=3, max_degree=4, max_terms=5))
def test_derivative_coefficients_are_the_coefficient_times_the_exponent(poly):
    for i in range(3):
        expected = {
            m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in poly.terms.items() if m[i]
        }
        found = poly.diff(i).terms
        assert found.keys() == expected.keys()
        for m, c in expected.items():
            assert _triple(found[m]) == _triple(c) and hash(found[m]) == hash(c)


def _assert_frozen(obj, names):
    before = {name: getattr(obj, name) for name in names}
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, before[name])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert {name: getattr(obj, name) for name in names} == before


def test_coefficients_refuse_stores_and_deletes():
    # the constructors store through the slot descriptors, around __setattr__
    u, v = GaussianRational(Fraction(1, 2), 3), GaussianRational(2, -1)
    made = [u, GaussianRational.coerce(3), u + v, u - v, 2 - u, u * v, u / v, -u, u**2]
    made += [u.conjugate(), *p("3*z^2*w + i*w").diff(0).terms.values()]
    for z in made:
        _assert_frozen(z, ("_re_num", "_im_num", "_den"))


def test_polynomials_refuse_stores_and_deletes():
    f, g = p("z^2 + i*w"), p("1/2*z - w")
    made = [f, Polynomial(2, {}), Polynomial.variable(2, 1), Polynomial.constant(2, 3)]
    made += [f + g, f - g, f * g, -f, 2 * f, f**2, f.diff(0), f.conjugate_coeffs()]
    made += [exact_div(f * g, g), f.lift(3)]
    for q in made:
        _assert_frozen(q, ("ring_dim", "terms"))
