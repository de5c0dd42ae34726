import itertools
from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from submult.poly import GaussianRational, Polynomial, format_poly, monomials_of_degree

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

# Two Groebner cliffs of the benchmark panel: draws of triangular.random_system's
# distribution in z, w, v with exponents (3, 3, 1) and (3, 3, 3).  Their
# grevlex bases take 35 and 22 S-pairs.  Their lex bases take 76 and 486 with
# z > w > v, but 30 and 2 with v > w > z: there each generator's lead is a
# power of its last variable times earlier ones, and the system is nearly a
# lex basis already.
CLIFFS = {
    (3, 3, 1): ("z^3", "w^3 + (1 - i)*z^2 - z", "-w^2*v^2 + z*w^2*v + 3*w*v^2 + v - 2*w"),
    (3, 3, 3): (
        "z^3",
        "z*w^3 + z^2*w^2 + w^3 - 2*z^2 - 2*z",
        "(3 + i)*z*w^2*v - 2*z*w^3 + v^3 - 3*z*w*v",
    ),
}


def coefficients():
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    imag = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
    )
    return st.builds(GaussianRational, rational, imag)


def polynomials(dim: int = 2, max_degree: int = 4, max_terms: int = 5):
    mono = st.tuples(
        *[st.integers(min_value=0, max_value=max_degree) for _ in range(dim)]
    )
    return st.dictionaries(mono, coefficients(), max_size=max_terms).map(
        lambda terms: Polynomial(dim, terms)
    )


def nonzero_polynomials(dim: int = 2, max_degree: int = 3, max_terms: int = 4):
    return polynomials(dim, max_degree, max_terms).filter(lambda p: not p.is_zero())


def to_sympy(sympy, p, variables=("z", "w")):
    # sympy's cross-checks run over QQ, so the coefficients must be real
    assert all(c.im == 0 for c in p.terms.values()), format_poly(p, variables)
    coeffs = {m: sympy.Rational(c.re.numerator, c.re.denominator) for m, c in p.terms.items()}
    return sympy.Poly.from_dict(coeffs, *sympy.symbols(variables), domain=sympy.QQ)


def sympy_local_colength(sympy, gens, variables=("z", "w")):
    # standard monomials of the leads of sympy's local (igrevlex) standard basis
    ring = sympy.QQ.old_poly_ring(*sympy.symbols(variables), order="igrevlex")
    local = ring.ideal(*[to_sympy(sympy, g, variables).as_expr() for g in gens])
    # each basis element lists its terms leading first, as (component, exponents...)
    leads = [g[0][0][1:] for g in local._module._groebner()]
    count = 0
    for d in itertools.count():
        standard = [
            m
            for m in monomials_of_degree(len(variables), d)
            if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
        ]
        if not standard:
            return count
        count += len(standard)
