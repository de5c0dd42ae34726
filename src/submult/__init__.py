"""Exact multiplier-ideal iteration and order-of-contact arithmetic.

``errors`` and ``poly`` load with the package; every other engine module
loads on first access to one of its names, so a caller compiles only the
layers it uses.
"""

from .errors import (
    CapExceededError,
    ConsistencyError,
    DimensionMismatchError,
    ParseError,
    SubmultError,
    ValidationError,
)
from .poly import (
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

__version__ = "0.1.0"

# Public name -> the engine module that defines it.
_LAZY = {
    name: module
    for module, names in {
        "ideals": (
            "GermReport", "Ideal", "MonomialOrder", "RadicalOutcome", "eliminant",
            "germ_colength", "germ_member", "is_germ_unit", "member", "normal_form",
            "radical_step", "root_order",
        ),
        "kohn": (
            "KohnOptions", "KohnState", "KohnTrace", "SpecialDomain", "check_finite_type",
            "curve_annihilation_check", "init_state", "run", "step",
        ),
        "triangular": (
            "EffectiveTrace", "TriangularSystem", "certify", "multiplicity", "random_system",
            "run_effective", "validate",
        ),
        "contact": (
            "AmbientDomain", "ContactResult", "CurveFamily", "CurveTerm", "balance_exponent",
            "contact_curve", "contact_family", "epsilon_bound", "sharp_T", "sharp_T_limit",
            "sharp_T_via_family", "two_exponent_domain", "two_exponent_family",
            "type_bound_check", "type_jump_domain",
        ),
    }.items()
    for name in names
}

# A star import binds every public name, not the submodules, and loads the
# whole engine.
__all__ = sorted({n for n in globals() if not n.startswith("_")} - {"errors", "poly"} | set(_LAZY))


def __getattr__(name):
    # Not cached in the package globals, so a name always reads the current
    # binding in its defining module.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
