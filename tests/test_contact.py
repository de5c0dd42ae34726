from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from submult.contact import (
    AmbientDomain,
    CurveFamily,
    CurveTerm,
    _parse_exponent,
    balance_exponent,
    contact_curve,
    contact_family,
    epsilon_bound,
    sharp_T,
    sharp_T_limit,
    sharp_T_via_family,
    two_exponent_domain,
    two_exponent_family,
    type_bound_check,
    type_bound_limit,
    type_jump_domain,
)
from conftest import coefficients, polynomials
from submult.errors import ValidationError
from submult.kohn import SpecialDomain
from submult.poly import GR_I, GR_ONE, GaussianRational, Polynomial, format_poly, parse

V3 = ("z1", "z2", "z3")


def jump_domain():
    return AmbientDomain.from_strings(["z1^2 - z2*z3", "z2^2"], V3)


def zcurve(*components):
    return [parse(c, ("zeta",)) for c in components]


def const(text):
    return parse(text, []).constant_term()


# -- single curves -----------------------------------------------------------------


def test_contact_at_base_point():
    assert contact_curve(jump_domain(), zcurve("zeta", "0", "0")) == 4


@pytest.mark.parametrize("a", [Fraction(1), Fraction(2), Fraction(1, 2)])
def test_contact_jumps_at_nearby_point(a):
    # the curve (zeta, zeta^2/(i*a), i*a) based at (0, 0, i*a)
    comp2 = parse("zeta^2", ("zeta",)) * (GaussianRational(0, -1) / a)
    curve = [parse("zeta", ("zeta",)), comp2, parse("i", ("zeta",)) * a]
    base = [const("0"), const("0"), GR_I * a]
    assert contact_curve(jump_domain(), curve, base) == 8


def test_contact_in_strongly_pseudoconvex_direction():
    domain = AmbientDomain.from_strings(["z1", "z2^2"], V3)
    assert contact_curve(domain, zcurve("zeta", "0", "0")) == 2


def test_contact_curve_validation():
    with pytest.raises(ValidationError):
        contact_curve(jump_domain(), zcurve("1", "0", "0"))  # off the base point
    with pytest.raises(ValidationError):
        contact_curve(jump_domain(), zcurve("0", "0", "0"))  # constant
    with pytest.raises(ValidationError):
        contact_curve(jump_domain(), zcurve("zeta", "0", "1"))  # base off boundary


def test_contact_infinite_for_curve_inside_boundary():
    domain = AmbientDomain.from_strings(["z1*z2"], ("z1", "z2", "z3"))
    assert contact_curve(domain, zcurve("zeta", "0", "0")) is None


# -- families ------------------------------------------------------------------------


def test_exponent_parser():
    assert _parse_exponent(3) == (Fraction(3), Fraction(0))
    assert _parse_exponent("3/4") == (Fraction(3, 4), Fraction(0))
    assert _parse_exponent("alpha") == (Fraction(0), Fraction(1))
    assert _parse_exponent("-2*alpha") == (Fraction(0), Fraction(-2))
    assert _parse_exponent("1/2 - 3*alpha") == (Fraction(1, 2), Fraction(-3))
    assert _parse_exponent("alpha*2") == (Fraction(0), Fraction(2))
    assert _parse_exponent("2*(alpha - 1)") == (Fraction(-2), Fraction(2))


@pytest.mark.parametrize(
    "text", ["*alpha", "3**alpha", "3alpha", "1/2alpha", "alpha^2", "i*alpha", "0.5"]
)
def test_exponent_parser_rejects_malformed_input(text):
    # the package grammar writes rationals as p/q and products with one '*';
    # the exponent must be affine in alpha with real coefficients
    with pytest.raises(ValidationError) as info:
        _parse_exponent(text)
    assert repr(text) in str(info.value)


def test_family_validation():
    with pytest.raises(ValidationError):
        CurveTerm(GaussianRational(0), 1, Fraction(0))  # zero coefficient
    with pytest.raises(ValidationError):
        CurveFamily(((CurveTerm(GR_ONE, 0, Fraction(1)),), ()))  # constant up front
    with pytest.raises(ValidationError):
        # the moving base point must shrink with t
        CurveFamily(
            (
                (CurveTerm(GR_ONE, 1, Fraction(0)),),
                (CurveTerm(GR_I, 0, Fraction(0)),),
            )
        )
    with pytest.raises(ValidationError):
        # no t-independent linear term anywhere
        CurveFamily(
            (
                (CurveTerm(GR_ONE, 1, Fraction(1)),),
                (),
            )
        )


@pytest.mark.parametrize(
    "l,m",
    [(2, 2), (2, 3), (3, 5)],
)
def test_balanced_family_contact(l, m):
    domain = type_jump_domain(l, m)
    family = two_exponent_family(2, l)
    alpha = balance_exponent(domain, family)
    assert alpha == Fraction(3, m + 2 * l)
    result = contact_family(domain, family.fix_exponent(alpha))
    assert result.eta == Fraction(4 * (2 * m + l), m + 2 * l)
    assert not result.warnings


def test_type_jump_domain_uses_l_as_given():
    assert format_poly(type_jump_domain(0, 2).h[0], V3) == "z1^2 - z2"
    assert format_poly(type_jump_domain(1, 2).h[0], V3) == "z1^2 - z2*z3"
    assert format_poly(type_jump_domain(1, 2).h[2], V3) == "z1*z3^2"


def test_contact_family_requires_fixed_exponent():
    with pytest.raises(ValidationError):
        contact_family(type_jump_domain(2, 2), two_exponent_family(2, 2))


def test_t_independent_family_matches_single_curve():
    family = CurveFamily(((CurveTerm(GR_ONE, 1, Fraction(0)),), (), ()))
    result = contact_family(jump_domain(), family)
    assert result.eta == contact_curve(jump_domain(), zcurve("zeta", "0", "0"))


def test_unit_coefficient_scaling_keeps_contact():
    domain = type_jump_domain(2, 3)
    base = two_exponent_family(2, 2)
    alpha = balance_exponent(domain, base)
    eta = contact_family(domain, base.fix_exponent(alpha)).eta
    # rotate the first two components consistently (z1 by i, z2 by i^2) so the
    # engineered cancellation survives; all pullback supports are unchanged
    old1 = base.components[0][0]
    old2 = base.components[1][0]
    scaled = CurveFamily(
        (
            (CurveTerm(old1.coeff * GR_I, old1.zeta_exp, old1.t_exp, old1.alpha_coeff),),
            (CurveTerm(old2.coeff * GR_I * GR_I, old2.zeta_exp, old2.t_exp, old2.alpha_coeff),),
            base.components[2],
        )
    )
    assert contact_family(domain, scaled.fix_exponent(alpha)).eta == eta


def test_family_with_tied_minimal_weights_warns():
    domain = AmbientDomain.from_strings(["z1^2 + z2"], V3)
    family = CurveFamily(
        (
            (CurveTerm(GR_ONE, 1, Fraction(0)),),
            (CurveTerm(GR_ONE, 1, Fraction(1)),),
            (),
        )
    )
    result = contact_family(domain, family)
    assert result.eta == 4
    assert result.warnings


def test_family_inside_boundary_has_infinite_contact():
    domain = AmbientDomain.from_strings(["z1*z2"], V3)
    family = CurveFamily(((CurveTerm(GR_ONE, 1, Fraction(0)),), (), ()))
    result = contact_family(domain, family)
    assert result.eta is None
    assert result.to_dict()["eta"] == "infinite"
    assert result.to_dict()["epsilon_bound"] is None


def test_balance_toy_symmetric_weights():
    domain = AmbientDomain.from_strings(["x", "y^2"], ("u", "x", "y", "s"))
    family = CurveFamily(
        (
            (CurveTerm(GR_ONE, 1, Fraction(0)),),
            (CurveTerm(GR_ONE, 1, Fraction(0), Fraction(1, 2)),),
            (CurveTerm(GR_ONE, 1, Fraction(0), Fraction(-1, 4)),),
            (),
        )
    )
    # squared weights 2 + alpha and 4 - alpha balance at one
    assert balance_exponent(domain, family) == 1


def test_balance_errors():
    domain = type_jump_domain(2, 2)
    with pytest.raises(ValidationError):
        balance_exponent(domain, two_exponent_family(2, 2).fix_exponent(Fraction(1, 2)))


# -- sharp contact arithmetic ------------------------------------------------------------


def test_sharp_formula_endpoints():
    for m1 in (2, 3, 4):
        for m2 in (2, 3, 4):
            assert sharp_T(m1, m2, Fraction(1)) == 2 * m1
            assert sharp_T_limit(m1, m2) == 2 * m1 * m2


def test_sharp_formula_hand_value():
    assert sharp_T(2, 3, Fraction(1, 2)) == 6


def test_sharp_formula_domain():
    with pytest.raises(ValidationError):
        sharp_T(1, 3, Fraction(1, 2))
    with pytest.raises(ValidationError):
        sharp_T(2, 3, Fraction(0))
    with pytest.raises(ValidationError):
        sharp_T(2, 3, Fraction(3, 2))


def test_sharp_formula_strictly_decreasing_on_grid():
    for m1 in (2, 3, 4):
        for m2 in (2, 3, 4):
            values = [sharp_T(m1, m2, Fraction(k, 12)) for k in range(1, 13)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert values[-1] == 2 * m1
            assert values[0] < 2 * m1 * m2


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3)])
def test_symbolic_family_matches_closed_form(p, q):
    for m1 in (2, 3, 4):
        for m2 in (2, 3, 4):
            eta = sharp_T_via_family(m1, m2, p, q)
            assert eta == sharp_T(m1, m2, Fraction(p, q))
            assert epsilon_bound(eta) * eta == 1


def test_two_exponent_family_cancels_first_generator():
    from submult.contact import _pullback_series

    domain = two_exponent_domain(3, 2, 1, 2)
    family = two_exponent_family(3, 1)
    assert _pullback_series(domain.h[0], family) == {}


def test_series_power_at_high_exponent():
    from submult.contact import _pullback_series

    # z1 -> (1 + i)*zeta; (1 + i)^1500 = (2i)^750 = -2^750
    family = CurveFamily(((CurveTerm(GaussianRational(1, 1), 1, Fraction(0)),), (), ()))
    series = _pullback_series(parse("z1^1500", V3), family)
    assert series == {(1500, Fraction(0), Fraction(0)): GaussianRational(-(2 ** 750))}


def _integer_families():
    # three components whose t exponents are integers and carry no alpha;
    # the first holds the t-independent linear term every family needs
    def terms(min_zeta):
        return st.lists(
            st.builds(
                CurveTerm,
                coefficients().filter(bool),
                st.integers(min_value=min_zeta, max_value=2),
                st.integers(min_value=0, max_value=2).map(Fraction),
                st.just(Fraction(0)),
            ),
            max_size=2,
        )

    last = st.lists(
        st.builds(
            CurveTerm,
            coefficients().filter(bool),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=1, max_value=2).map(Fraction),
            st.just(Fraction(0)),
        ),
        max_size=2,
    )
    return st.builds(
        lambda first, second, third: CurveFamily(
            ((CurveTerm(GR_ONE, 1, Fraction(0)), *first), tuple(second), tuple(third))
        ),
        terms(1),
        terms(1),
        last,
    )


@given(polynomials(dim=3, max_degree=3, max_terms=4), _integer_families())
def test_pullback_series_matches_composition_in_zeta_and_t(h, family):
    from submult.contact import _pullback_series

    # with integer t exponents the family is a polynomial curve in (zeta, t)
    components = [
        sum(
            (Polynomial(2, {(t.zeta_exp, int(t.t_exp)): t.coeff}) for t in comp),
            Polynomial.zero(2),
        )
        for comp in family.components
    ]
    expected = {
        (a, Fraction(b), Fraction(0)): c for (a, b), c in h.compose(components).terms.items()
    }
    assert _pullback_series(h, family) == expected


def test_dominant_terms_tie_in_one_source_is_in_printed_order():
    # h1 = z2 + z1 along (zeta, zeta^2/t, i*t): both terms weigh 1, so |h1|^2
    # has two lines at weight 2, listed by zeta exponent whatever h1's term order
    family = CurveFamily(
        (
            (CurveTerm(GR_ONE, 1, Fraction(0)),),
            (CurveTerm(GR_ONE, 2, Fraction(-1)),),
            (CurveTerm(GR_I, 0, Fraction(1)),),
        )
    )
    for order in ([(0, 1, 0), (1, 0, 0)], [(1, 0, 0), (0, 1, 0)]):
        h1 = Polynomial(3, {mono: GR_ONE for mono in order})
        result = contact_family(AmbientDomain(V3, (h1,)), family)
        assert result.eta == 2
        assert result.dominant_terms == (
            "|h1|^2: zeta^1*t^(0)",
            "|h1|^2: zeta^2*t^(-1)",
        )
        assert len(result.warnings) == 1


def test_type_bound_rows():
    assert type_bound_check(Fraction(4), Fraction(8), 3)  # equality case
    assert not type_bound_check(Fraction(4), Fraction(9), 3)
    assert type_bound_check(Fraction(4), Fraction(4), 2)
    assert not type_bound_check(Fraction(4), Fraction(5), 2)
    assert type_bound_check(Fraction(6), Fraction(6), 4)


def test_type_bound_limit_refuses_a_power_beyond_the_parser_bound():
    # (dim - 1) times the bits of t0's numerator or denominator, at most 1,000,000
    assert type_bound_limit(Fraction(1), 1_000_001) == Fraction(1, 2**999_999)
    assert type_bound_limit(Fraction(1, 3), 500_001) == Fraction(1, 3**500_000 * 2**499_999)
    for t_base, dim in [(Fraction(1), 1_000_002), (Fraction(1, 3), 500_002), (Fraction(3), 10**9)]:
        with pytest.raises(ValidationError, match="too large"):
            type_bound_limit(t_base, dim)
        with pytest.raises(ValidationError, match="too large"):
            type_bound_check(t_base, Fraction(1), dim)
    for t_base, t_nearby, dim in [(0, 1, 3), (1, 0, 3), (1, 1, 1)]:
        with pytest.raises(ValidationError):
            type_bound_check(Fraction(t_base), Fraction(t_nearby), dim)


def test_epsilon_bound():
    assert epsilon_bound(Fraction(6)) == Fraction(1, 6)
    with pytest.raises(ValidationError):
        epsilon_bound(Fraction(0))


def test_pullback_order_consistent_with_curve_contact():
    # the squared pullback order of one generator doubles into the contact
    domain = jump_domain()
    a = Fraction(1)
    comp2 = parse("zeta^2", ("zeta",)) * (GaussianRational(0, -1) / a)
    curve = [parse("zeta", ("zeta",)), comp2, parse("i", ("zeta",)) * a]
    orders = [domain.h[0].compose(curve).ord_vanish(), domain.h[1].compose(curve).ord_vanish()]
    assert orders[0] is None  # first generator cancels exactly
    assert orders[1] == 4
    base = [GaussianRational(0), GaussianRational(0), GR_I]
    assert contact_curve(domain, curve, base) == 2 * orders[1]


def test_ambient_from_special_domain():
    special = SpecialDomain.from_strings(["z^2", "w^3 + w*z^4"], ("z", "w"))
    ambient = AmbientDomain(("z", "w", "z3"), tuple(p.lift(3) for p in special.h))
    assert contact_curve(ambient, zcurve("0", "zeta", "0")) == 6
