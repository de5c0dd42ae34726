"""Reproduction corpus: exact worked cases shipped with the package.

Each case holds the runner that computes it, the keyword payload the runner
takes, and the exact expected value.  The `source` field records where the
expectation comes from: "literature" for values quoted from published worked
examples, "derived" for values fixed by an independent derivation or oracle,
and "direct" for immediate consequences of the definitions.  Comparison is
exact (rational equality, field-by-field), never approximate.
"""

from __future__ import annotations

import fnmatch
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import contact as _contact
from . import kohn as _kohn
from . import triangular as _triangular
from .errors import ValidationError
from .ideals import (
    Ideal,
    germ_colength,
    germ_member,
    member,
    eliminant,
    radical_step,
    root_order,
)
from .poly import Polynomial, PolyMatrix, format_poly, minor_dets, parse, squarefree_part


class CorpusCase(NamedTuple):
    id: str
    source: str  # literature | derived | direct
    run: Callable[..., object]
    payload: dict
    expected: object


def _polys(strings, variables):
    return [parse(s, tuple(variables)) for s in strings]


def _fmt(p, variables):
    return format_poly(p, tuple(variables))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_parse_print(variables, text):
    return _fmt(parse(text, variables), variables)


def _run_diff_then_zero(variables, text, diff_vars, zero_vars):
    p = parse(text, variables)
    for v in diff_vars:
        p = p.diff(variables.index(v))
    n = len(variables)
    point = [
        Polynomial.zero(n) if v in zero_vars else Polynomial.variable(n, i)
        for i, v in enumerate(variables)
    ]
    return _fmt(p.compose(point), variables)


def _run_gradient(variables, text):
    return [_fmt(g, variables) for g in parse(text, variables).gradient()]


def _run_matrix_minors(variables, matrix):
    rows = tuple(tuple(parse(e, tuple(variables)) for e in row) for row in matrix)
    return [_fmt(d, variables) for d in minor_dets(PolyMatrix(rows))]


def _run_jacobian_minors(variables, functions):
    rows = tuple(p.gradient() for p in _polys(functions, variables))
    return [_fmt(d, variables) for d in minor_dets(PolyMatrix(rows))]


def _run_squarefree(variables, text):
    return _fmt(squarefree_part(parse(text, variables)), variables)


def _run_ideal_member(variables, h, poly):
    ideal = Ideal(len(variables), _polys(h, variables))
    return member(parse(poly, variables), ideal)


def _run_ideal_colength(variables, h):
    return germ_colength(Ideal(len(variables), _polys(h, variables))).to_dict()["colength"]


def _run_colength_grid(M_values, N_values, K_max):
    out = {}
    for M in M_values:
        for N in N_values:
            for K in range(M + 1, K_max + 1):
                h = [f"z^{M}", f"w^{N} + w*z^{K}"]
                out[f"{M},{N},{K}"] = _run_ideal_colength(("z", "w"), h)
    return out


def _run_radical(variables, h):
    outcome = radical_step(Ideal(len(variables), _polys(h, variables)))
    return {
        "method": outcome.method,
        "generators": [_fmt(g, variables) for g in outcome.generators],
        "root_orders": {
            _fmt(g, variables): s for g, s in outcome.root_orders
        },
        "max_root_order": outcome.max_root_order,
        "stalled": outcome.stalled,
    }


def _run_eliminant(variables, h, keep):
    ideal = Ideal(len(variables), _polys(h, variables))
    result = eliminant(ideal, variables.index(keep))
    return None if result is None else _fmt(result, variables)


def _domain(variables, h, label=""):
    return _kohn.SpecialDomain.from_strings(h, variables, label)


def _run_kohn_init(variables, h):
    state = _kohn.init_state(_domain(variables, h))
    return [_fmt(g, variables) for g in state.multipliers.generators]


def _run_kohn_run(variables, h, radical_mode="full"):
    options = _kohn.KohnOptions(radical_mode=radical_mode)
    trace = _kohn.run(_domain(variables, h), options)
    return {
        "status": trace.status,
        "max_root_order": trace.max_root_order,
        "methods": [s.radical_method for s in trace.steps],
        "I_gens": [[_fmt(g, variables) for g in s.I_gens] for s in trace.steps],
    }


def _run_effectiveness(M, N, K):
    variables = ("z", "w")
    domain = _domain(variables, [f"z^{M}", f"w^{N} + w*z^{K}"])
    state = _kohn.init_state(domain)
    state, _ = _kohn.step(state)
    J1 = state.multipliers
    excluded = not germ_member(parse(f"z^{K - 1}", variables), J1)
    root = root_order(parse("z", variables), J1)
    return {
        "power_K_minus_1_excluded": excluded,
        "root_at_least_K": root is not None and root >= K,
        "root_order_z": root,
    }


def _run_finite_type(variables, h):
    doc = _kohn.check_finite_type(_domain(variables, h)).to_dict()
    return {"colength": doc["colength"], "verdict": doc["verdict"]}


def _run_curve_annihilation(variables, h, curve, radical_mode="full"):
    options = _kohn.KohnOptions(radical_mode=radical_mode)
    trace = _kohn.run(_domain(variables, h), options)
    parsed = [parse(c, ("t",)) for c in curve]
    return {
        "status": trace.status,
        "annihilated": _kohn.curve_annihilation_check(trace, parsed),
    }


def _run_triangular_validate(variables, h):
    try:
        system = _triangular.validate(_polys(h, variables), variables)
    except ValidationError as exc:
        text = str(exc)
        condition = 1 if "condition 1" in text else 2 if "condition 2" in text else 0
        return {"valid": False, "condition": condition}
    return {"valid": True, "exponents": list(system.exponents)}


def _run_triangular_multiplicity(variables, h):
    system = _triangular.validate(_polys(h, variables), variables)
    return _triangular.multiplicity(system)


def _run_triangular_ladder(variables, h):
    system = _triangular.validate(_polys(h, variables), variables)
    trace = _triangular.run_effective(system)
    report = _triangular.certify(trace, system)
    last = trace.pairs[-1]
    return {
        "L": trace.L,
        "A_sequence": [_fmt(p.A.monic(), variables) for p in trace.pairs],
        "final_unit": bool(last.A.constant_term()) and bool(last.B.constant_term()),
        "certified": report.passed,
    }


def _run_triangular_random(count, seed):
    rng = random.Random(seed)
    systems = [_triangular.random_system(rng) for _ in range(count)]
    passed = all(_triangular.certify(_triangular.run_effective(s), s).passed for s in systems)
    return {"count": count, "all_pass": passed}


def _run_contact_curve(variables, h, curve, base):
    domain = _contact.AmbientDomain.from_strings(h, variables)
    parsed = [parse(c, ("zeta",)) for c in curve]
    base_pt = [parse(b, []).constant_term() for b in base]
    value = _contact.contact_curve(domain, parsed, base_pt)
    return "infinite" if value is None else str(value)


def _run_contact_family_jump(l, m):
    domain = _contact.type_jump_domain(l, m)
    family = _contact.two_exponent_family(2, l)
    alpha = _contact.balance_exponent(domain, family)
    result = _contact.contact_family(domain, family.fix_exponent(alpha))
    return {"alpha": str(alpha), "eta": str(result.eta)}


def _run_contact_family_fixed(variables, h, components):
    domain = _contact.AmbientDomain.from_strings(h, variables)
    family = _contact.CurveFamily.from_config(components)
    doc = _contact.contact_family(domain, family).to_dict()
    return {"eta": doc["eta"], "warnings": len(doc["warnings"])}


def _run_sharp_formula(m1, m2, lam=None, limit=False):
    if limit:
        return str(_contact.sharp_T_limit(m1, m2))
    return str(_contact.sharp_T(m1, m2, Fraction(lam)))


def _run_sharp_grid(lam=None, limit=False):
    return {
        f"{m1},{m2}": _run_sharp_formula(m1, m2, lam, limit)
        for m1 in (2, 3, 4)
        for m2 in (2, 3, 4)
    }


def _run_sharp_via_family(p, q):
    out = {}
    for m1 in (2, 3, 4):
        for m2 in (2, 3, 4):
            out[f"{m1},{m2}"] = str(_contact.sharp_T_via_family(m1, m2, p, q))
    return out


def _run_epsilon_bound(eta):
    return str(_contact.epsilon_bound(Fraction(eta)))


def _run_type_bound(t_base, t_nearby, dim):
    return {
        "ok": _contact.type_bound_check(Fraction(t_base), Fraction(t_nearby), dim),
        "limit": str(_contact.type_bound_limit(Fraction(t_base), dim)),
    }


_ZW = ("z", "w")
_G234 = "w^3 + w*z^4"  # pure cube plus the high-order mixed tail


CASES: tuple[CorpusCase, ...] = (
    # --- polynomial layer ---------------------------------------------------
    CorpusCase(
        "poly-parse-canonical",
        "literature",
        _run_parse_print,
        {"variables": _ZW, "text": "w^3 + w*z^4"},
        "z^4*w + w^3",
    ),
    CorpusCase(
        "poly-parse-zero",
        "direct",
        _run_parse_print,
        {"variables": _ZW, "text": "0"},
        "0",
    ),
    CorpusCase(
        "poly-slice-first-derivative",
        "literature",
        _run_diff_then_zero,
        {"variables": _ZW, "text": _G234, "diff_vars": ["w"], "zero_vars": ["w"]},
        "z^4",
    ),
    CorpusCase(
        "poly-slice-second-derivative",
        "literature",
        _run_diff_then_zero,
        {"variables": _ZW, "text": _G234, "diff_vars": ["w", "w"], "zero_vars": ["w"]},
        "0",
    ),
    CorpusCase(
        "poly-slice-mixed-derivative",
        "literature",
        _run_diff_then_zero,
        {"variables": _ZW, "text": _G234, "diff_vars": ["z", "w"], "zero_vars": ["w"]},
        "4*z^3",
    ),
    CorpusCase(
        "poly-gradient-new-row",
        "literature",
        _run_gradient,
        {"variables": _ZW, "text": "z*(3*w^2 + z^4)"},
        ["5*z^4 + 3*w^2", "6*z*w"],
    ),
    CorpusCase(
        "poly-gradient-pure-power",
        "literature",
        _run_gradient,
        {"variables": _ZW, "text": "z^2"},
        ["2*z", "0"],
    ),
    CorpusCase(
        "poly-minors-three-rows",
        "literature",
        _run_matrix_minors,
        {
            "variables": _ZW,
            "matrix": [
                ["z", "0"],
                ["4*z^3*w", "z^4 + 3*w^2"],
                ["5*z^4 + 3*w^2", "6*z*w"],
            ],
        },
        ["z^5 + 3*z*w^2", "6*z^2*w", "-5*z^8 + 6*z^4*w^2 - 9*w^4"],
    ),
    CorpusCase(
        "poly-minors-monomial-triple",
        "literature",
        _run_jacobian_minors,
        {"variables": _ZW, "functions": ["z^2", "z*w", "w^2"]},
        ["2*z^2", "4*z*w", "2*w^2"],
    ),
    CorpusCase(
        "poly-squarefree-stage-zero",
        "literature",
        _run_squarefree,
        {"variables": _ZW, "text": "z^2*(3*w^2 + z^4)"},
        "z^5 + 3*z*w^2",
    ),
    CorpusCase(
        "poly-squarefree-by-inspection",
        "derived",
        _run_squarefree,
        {"variables": _ZW, "text": "z^3*w^2"},
        "z*w",
    ),
    # --- ideal layer ----------------------------------------------------------
    CorpusCase(
        "ideal-member-listed-generator",
        "literature",
        _run_ideal_member,
        {
            "variables": _ZW,
            "h": ["z^5 + 3*z*w^2", "6*z^2*w", "-5*z^8 + 6*z^4*w^2 - 9*w^4"],
            "poly": "z^5 + 3*z*w^2",
        },
        True,
    ),
    CorpusCase(
        "ideal-member-excluded-power",
        "literature",
        _run_ideal_member,
        {
            "variables": _ZW,
            "h": ["z^5 + 3*z*w^2", "6*z^2*w", "-5*z^8 + 6*z^4*w^2 - 9*w^4"],
            "poly": "z^3",
        },
        False,
    ),
    CorpusCase(
        "ideal-colength-maximal",
        "direct",
        _run_ideal_colength,
        {"variables": _ZW, "h": ["z", "w"]},
        1,
    ),
    CorpusCase(
        "ideal-colength-squares",
        "derived",
        _run_ideal_colength,
        {"variables": _ZW, "h": ["z^2", "z*w", "w^2"]},
        3,
    ),
    CorpusCase(
        "ideal-colength-grid",
        "literature",
        _run_colength_grid,
        {"M_values": [2, 3, 4], "N_values": [2, 3, 4], "K_max": 6},
        {
            f"{M},{N},{K}": M * N
            for M in (2, 3, 4)
            for N in (2, 3, 4)
            for K in range(M + 1, 7)
        },
    ),
    CorpusCase(
        "ideal-radical-principal",
        "literature",
        _run_radical,
        {"variables": _ZW, "h": ["z^2*(3*w^2 + z^4)"]},
        {
            "method": "principal",
            "generators": ["z^5 + 3*z*w^2"],
            "root_orders": {"z^5 + 3*z*w^2": 2},
            "max_root_order": 2,
            "stalled": False,
        },
    ),
    CorpusCase(
        "ideal-radical-monomial",
        "derived",
        _run_radical,
        {"variables": _ZW, "h": ["z^2", "z*w", "w^2"]},
        {
            "method": "m-primary",
            "generators": ["z", "w"],
            "root_orders": {"z": 2, "w": 2},
            "max_root_order": 2,
            "stalled": False,
        },
    ),
    CorpusCase(
        "ideal-eliminant-line",
        "derived",
        _run_eliminant,
        {"variables": _ZW, "h": ["z - w", "w^2"], "keep": "z"},
        "z^2",
    ),
    CorpusCase(
        "ideal-eliminant-trivial",
        "direct",
        _run_eliminant,
        {"variables": _ZW, "h": ["z"], "keep": "z"},
        "z",
    ),
    # --- effectiveness of the second radical ----------------------------------
    CorpusCase(
        "effectiveness-M2-N3-K4",
        "derived",
        _run_effectiveness,
        {"M": 2, "N": 3, "K": 4},
        {
            "power_K_minus_1_excluded": True,
            "root_at_least_K": True,
            "root_order_z": 6,
        },
    ),
    CorpusCase(
        "effectiveness-M2-N3-K7",
        "derived",
        _run_effectiveness,
        {"M": 2, "N": 3, "K": 7},
        {
            "power_K_minus_1_excluded": True,
            "root_at_least_K": True,
            "root_order_z": 9,
        },
    ),
    CorpusCase(
        "effectiveness-M3-N4-K6",
        "derived",
        _run_effectiveness,
        {"M": 3, "N": 4, "K": 6},
        {
            "power_K_minus_1_excluded": True,
            "root_at_least_K": True,
            "root_order_z": 9,
        },
    ),
    # --- multiplier iteration --------------------------------------------------
    CorpusCase(
        "kohn-init-effectiveness",
        "literature",
        _run_kohn_init,
        {"variables": _ZW, "h": ["z^2", _G234]},
        ["z^5 + 3*z*w^2"],
    ),
    CorpusCase(
        "kohn-init-unit",
        "direct",
        _run_kohn_init,
        {"variables": _ZW, "h": ["z", "w"]},
        ["1"],
    ),
    CorpusCase(
        "kohn-init-monomial-triple",
        "literature",
        _run_kohn_init,
        {"variables": _ZW, "h": ["z^2", "z*w", "w^2"]},
        ["w^2", "z*w", "z^2"],
    ),
    CorpusCase(
        "kohn-run-effectiveness",
        "literature",
        _run_kohn_run,
        {"variables": _ZW, "h": ["z^2", _G234]},
        {
            "status": "unit_reached",
            "max_root_order": 6,
            "methods": ["principal", "m-primary", "none"],
            "I_gens": [["z^5 + 3*z*w^2"], ["z", "w"], ["1"]],
        },
    ),
    CorpusCase(
        "kohn-run-immediate-unit",
        "direct",
        _run_kohn_run,
        {"variables": _ZW, "h": ["z", "w"]},
        {
            "status": "unit_reached",
            "max_root_order": 0,
            "methods": ["none"],
            "I_gens": [["1"]],
        },
    ),
    CorpusCase(
        "kohn-run-no-radical-stall",
        "literature",
        _run_kohn_run,
        {"variables": _ZW, "h": ["z^2", "z*w", "w^2"], "radical_mode": "none"},
        {
            "status": "stalled",
            "max_root_order": 0,
            "methods": ["none", "none"],
            "I_gens": [["w^2", "z*w", "z^2"], ["w^2", "z*w", "z^2"]],
        },
    ),
    CorpusCase(
        "kohn-run-radical-unsticks",
        "literature",
        _run_kohn_run,
        {"variables": _ZW, "h": ["z^2", "z*w", "w^2"], "radical_mode": "full"},
        {
            "status": "unit_reached",
            "max_root_order": 2,
            "methods": ["m-primary", "none"],
            "I_gens": [["z", "w"], ["1"]],
        },
    ),
    CorpusCase(
        "kohn-run-curve-stall",
        "derived",
        _run_kohn_run,
        {"variables": _ZW, "h": ["z^3", "z*w"]},
        {
            "status": "stalled",
            "max_root_order": 3,
            "methods": ["principal", "principal"],
            "I_gens": [["z"], ["z"]],
        },
    ),
    CorpusCase(
        "finite-type-effectiveness",
        "literature",
        _run_finite_type,
        {"variables": _ZW, "h": ["z^2", _G234]},
        {"colength": 6, "verdict": True},
    ),
    CorpusCase(
        "finite-type-curve",
        "derived",
        _run_finite_type,
        {"variables": _ZW, "h": ["z^3", "z*w"]},
        {"colength": "infinite", "verdict": False},
    ),
    CorpusCase(
        "finite-type-point",
        "direct",
        _run_finite_type,
        {"variables": _ZW, "h": ["z", "w"]},
        {"colength": 1, "verdict": True},
    ),
    CorpusCase(
        "curve-annihilation-axis",
        "derived",
        _run_curve_annihilation,
        {"variables": _ZW, "h": ["z^3", "z*w"], "curve": ["0", "t"]},
        {"status": "stalled", "annihilated": True},
    ),
    CorpusCase(
        "curve-annihilation-single-product",
        "direct",
        _run_curve_annihilation,
        {"variables": _ZW, "h": ["z*w"], "curve": ["t", "0"]},
        {"status": "stalled", "annihilated": True},
    ),
    # --- triangular ladders ------------------------------------------------------
    CorpusCase(
        "triangular-validate-mixed-tail",
        "literature",
        _run_triangular_validate,
        {"variables": _ZW, "h": ["z^2", _G234]},
        {"valid": True, "exponents": [2, 3]},
    ),
    CorpusCase(
        "triangular-validate-shear",
        "literature",
        _run_triangular_validate,
        {"variables": _ZW, "h": ["z^2", "w^3 + z*z + z*w"]},
        {"valid": True, "exponents": [2, 3]},
    ),
    CorpusCase(
        "triangular-validate-degenerate",
        "direct",
        _run_triangular_validate,
        {"variables": _ZW, "h": ["z*w", "w^2"]},
        {"valid": False, "condition": 2},
    ),
    CorpusCase(
        "triangular-multiplicity-squares",
        "literature",
        _run_triangular_multiplicity,
        {"variables": _ZW, "h": ["z^2", "w^2"]},
        4,
    ),
    CorpusCase(
        "triangular-multiplicity-mixed",
        "literature",
        _run_triangular_multiplicity,
        {"variables": _ZW, "h": ["z^2", _G234]},
        6,
    ),
    CorpusCase(
        "triangular-multiplicity-univariate",
        "direct",
        _run_triangular_multiplicity,
        {"variables": ("z",), "h": ["z^5"]},
        5,
    ),
    CorpusCase(
        "triangular-ladder-squares",
        "literature",
        _run_triangular_ladder,
        {"variables": _ZW, "h": ["z^2", "w^2"]},
        {
            "L": 4,
            "A_sequence": ["z*w", "z", "w", "1"],
            "final_unit": True,
            "certified": True,
        },
    ),
    CorpusCase(
        "triangular-ladder-univariate",
        "direct",
        _run_triangular_ladder,
        {"variables": ("z",), "h": ["z^3"]},
        {
            "L": 3,
            "A_sequence": ["z^2", "z", "1"],
            "final_unit": True,
            "certified": True,
        },
    ),
    CorpusCase(
        "triangular-ladder-mixed",
        "derived",
        _run_triangular_ladder,
        {"variables": _ZW, "h": ["z^2", _G234]},
        {
            "L": 6,
            "A_sequence": ["z^5 + 3*z*w^2", "z*w", "z", "z^4 + 3*w^2", "w", "1"],
            "final_unit": True,
            "certified": True,
        },
    ),
    CorpusCase(
        "triangular-random-suite",
        "derived",
        _run_triangular_random,
        {"count": 20, "seed": 20260809},
        {"count": 20, "all_pass": True},
    ),
    # --- contact ------------------------------------------------------------------
    CorpusCase(
        "contact-curve-base-type",
        "literature",
        _run_contact_curve,
        {
            "variables": ("z1", "z2", "z3"),
            "h": ["z1^2 - z2*z3", "z2^2"],
            "curve": ["zeta", "0", "0"],
            "base": ["0", "0", "0"],
        },
        "4",
    ),
    CorpusCase(
        "contact-curve-nearby-jump",
        "literature",
        _run_contact_curve,
        {
            "variables": ("z1", "z2", "z3"),
            "h": ["z1^2 - z2*z3", "z2^2"],
            "curve": ["zeta", "0 - i*zeta^2", "i"],
            "base": ["0", "0", "i"],
        },
        "8",
    ),
    CorpusCase(
        "contact-family-jump-l2-m2",
        "literature",
        _run_contact_family_jump,
        {"l": 2, "m": 2},
        {"alpha": "1/2", "eta": "4"},
    ),
    CorpusCase(
        "contact-family-jump-l2-m3",
        "literature",
        _run_contact_family_jump,
        {"l": 2, "m": 3},
        {"alpha": "3/7", "eta": "32/7"},
    ),
    CorpusCase(
        "contact-family-jump-l3-m5",
        "literature",
        _run_contact_family_jump,
        {"l": 3, "m": 5},
        {"alpha": "3/11", "eta": "52/11"},
    ),
    CorpusCase(
        "contact-family-frozen-curve",
        "direct",
        _run_contact_family_fixed,
        {
            "variables": ("z1", "z2", "z3"),
            "h": ["z1^2 - z2*z3", "z2^2"],
            "components": [
                [{"coeff": "1", "zeta_exp": 1, "t_exp": 0}],
                [],
                [],
            ],
        },
        {"eta": "4", "warnings": 0},
    ),
    CorpusCase(
        "sharp-lambda-one-grid",
        "literature",
        _run_sharp_grid,
        {"lam": 1},
        {f"{m1},{m2}": str(2 * m1) for m1 in (2, 3, 4) for m2 in (2, 3, 4)},
    ),
    CorpusCase(
        "sharp-limit-zero-grid",
        "literature",
        _run_sharp_grid,
        {"limit": True},
        {f"{m1},{m2}": str(2 * m1 * m2) for m1 in (2, 3, 4) for m2 in (2, 3, 4)},
    ),
    CorpusCase(
        "sharp-halfway-value",
        "derived",
        _run_sharp_formula,
        {"m1": 2, "m2": 3, "lam": "1/2"},
        "6",
    ),
    CorpusCase(
        "sharp-via-family-p1-q1",
        "derived",
        _run_sharp_via_family,
        {"p": 1, "q": 1},
        {
            "2,2": "4", "2,3": "4", "2,4": "4",
            "3,2": "6", "3,3": "6", "3,4": "6",
            "4,2": "8", "4,3": "8", "4,4": "8",
        },
    ),
    CorpusCase(
        "sharp-via-family-p1-q2",
        "derived",
        _run_sharp_via_family,
        {"p": 1, "q": 2},
        {
            "2,2": "16/3", "2,3": "6", "2,4": "32/5",
            "3,2": "8", "3,3": "9", "3,4": "48/5",
            "4,2": "32/3", "4,3": "12", "4,4": "64/5",
        },
    ),
    CorpusCase(
        "sharp-via-family-p2-q3",
        "derived",
        _run_sharp_via_family,
        {"p": 2, "q": 3},
        {
            "2,2": "24/5", "2,3": "36/7", "2,4": "16/3",
            "3,2": "36/5", "3,3": "54/7", "3,4": "8",
            "4,2": "48/5", "4,3": "72/7", "4,4": "32/3",
        },
    ),
    CorpusCase(
        "epsilon-reciprocal",
        "literature",
        _run_epsilon_bound,
        {"eta": "6"},
        "1/6",
    ),
    CorpusCase(
        "type-bound-sharp-jump",
        "literature",
        _run_type_bound,
        {"t_base": "4", "t_nearby": "8", "dim": 3},
        {"ok": True, "limit": "8"},
    ),
)


def reproduce(pattern: str | None = None) -> dict:
    """Run every (matching) corpus case and compare exactly.

    A pattern that matches no case id is a ValidationError.
    """
    rows = []
    for case in sorted(CASES, key=lambda c: c.id):
        if pattern and not fnmatch.fnmatch(case.id, pattern):
            continue
        actual = case.run(**case.payload)
        rows.append(
            {
                "id": case.id,
                "source": case.source,
                "expected": case.expected,
                "actual": actual,
                "pass": actual == case.expected,
            }
        )
    if not rows:
        raise ValidationError(f"no corpus case matches {pattern!r}")
    return {"cases": rows, "all_pass": all(r["pass"] for r in rows)}
