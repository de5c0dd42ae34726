"""Exact multiplier-ideal iteration and order-of-contact arithmetic."""

from .errors import (
    CapExceededError,
    CertificationError,
    ConsistencyError,
    DimensionMismatchError,
    ParseError,
    SubmultError,
    ValidationError,
)
from .poly import (
    INF,
    GaussianRational,
    Polynomial,
    PolyMatrix,
    det,
    exact_div,
    format_poly,
    minor_dets,
    monomials_of_degree,
    parse,
    poly_gcd,
    squarefree_part,
)
from .ideals import (
    GermReport,
    Ideal,
    MonomialOrder,
    RadicalOutcome,
    eliminant,
    germ_colength,
    germ_member,
    is_germ_unit,
    member,
    normal_form,
    radical_step,
    root_order,
)
from .kohn import (
    FiniteTypeReport,
    KohnOptions,
    KohnState,
    KohnTrace,
    SpecialDomain,
    check_finite_type,
    curve_annihilation_check,
    init_state,
    run,
    step,
)
from .triangular import (
    EffectiveTrace,
    TriangularSystem,
    certify,
    multiplicity,
    random_system,
    run_effective,
    validate,
)
from .contact import (
    AmbientDomain,
    ContactResult,
    CurveFamily,
    CurveTerm,
    balance_exponent,
    contact_curve,
    contact_family,
    epsilon_bound,
    ideal_contact_lower_bound,
    scaled_jump_family,
    sharp_T,
    sharp_T_limit,
    sharp_T_via_family,
    two_exponent_domain,
    two_exponent_family,
    type_bound_check,
    type_jump_domain,
)

__version__ = "0.1.0"
