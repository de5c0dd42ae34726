"""Acceptance gate: every criterion at its stated tolerance (exact).

Each test prints one pass/fail line.  Comparisons are exact rational or
field-by-field equality throughout; nothing is approximate.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from submult import corpus as corpus_mod
from submult.cli import main as cli_main
from submult.contact import (
    AmbientDomain,
    balance_exponent,
    contact_curve,
    contact_family,
    sharp_T,
    sharp_T_limit,
    sharp_T_via_family,
    type_bound_check,
    two_exponent_family,
    type_jump_domain,
)
from submult.ideals import (
    Ideal,
    germ_colength,
    germ_member,
    member,
    root_order,
)
from submult.kohn import (
    KohnOptions,
    SpecialDomain,
    curve_annihilation_check,
    init_state,
    run,
    step,
)
from submult.poly import GaussianRational, Polynomial, format_poly, monomials_of_degree, parse
from submult.triangular import certify, multiplicity, random_system, run_effective, validate

ZW = ("z", "w")

EFFECTIVENESS_TRIPLES = [(2, 3, 4), (2, 3, 7), (3, 4, 6)]
# minimal s with z^s in the second-stage germ ideal; K + M on these triples,
# which is observed, not proven, to be sharp for every N >= 3
SHARP_ROOT_ORDERS = {(2, 3, 4): 6, (2, 3, 7): 9, (3, 4, 6): 9}


def _passed(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def _domain(M, N, K):
    return SpecialDomain.from_strings([f"z^{M}", f"w^{N} + w*z^{K}"], ZW)


def _second_stage_ideal(M, N, K):
    state = init_state(_domain(M, N, K))
    state, _ = step(state)
    return state.multipliers


def test_criterion_01a_effectiveness_membership():
    # the power K-1 stays outside the second-stage ideal as a germ
    for M, N, K in EFFECTIVENESS_TRIPLES:
        J1 = _second_stage_ideal(M, N, K)
        report = germ_colength(J1)
        assert report.m_primary
        excluded = not germ_member(parse(f"z^{K-1}", ZW), J1, report)
        assert excluded, f"z^{K - 1} unexpectedly entered the stage ideal for {(M, N, K)}"
    _passed("criterion-1a", "(second-stage ideal excludes the (K-1)-th power, all triples)")


def test_criterion_01b_effectiveness_root_order():
    # the root order of z exceeds K: it is the sharp value, certified below
    z, w = parse("z", ZW), parse("w", ZW)
    for M, N, K in EFFECTIVENESS_TRIPLES:
        J1 = _second_stage_ideal(M, N, K)
        report = germ_colength(J1)
        assert not germ_member(z**K, J1, report), (
            f"z^{K} entered the stage ideal for (M,N,K)={(M, N, K)}; setting w=0 "
            f"in any germ combination of the generators kills z^{M}*w^{N - 2} and "
            f"leaves a multiple of z^{K + 1}, so z^s needs s >= K+1"
        )
        order = root_order(z, J1, report)
        sharp = SHARP_ROOT_ORDERS[(M, N, K)]
        assert order == sharp, (
            f"for (M,N,K)={(M, N, K)} the minimal s with z^s in the stage ideal "
            f"is {order}, not the certified {sharp}"
        )
        # upper bound by hand: z^(K+M) = z^(M-1)*b - N*w*a with a, b in J1
        a = parse(f"z^{M}*w^{N - 2}", ZW)
        b = parse(f"z^{K + 1} + {N}*z*w^{N - 1}", ZW)
        assert member(a, J1) and member(b, J1), (M, N, K)
        assert z ** (K + M) == z ** (M - 1) * b - N * w * a
        assert not germ_member(z ** (order - 1), J1, report), (M, N, K)
    _passed("criterion-1b", "(root order is the certified sharp value, above K)")


def test_criterion_01b_root_order_matches_sympy():
    # independent lower and upper bound: sympy's local (igrevlex) membership
    sympy = pytest.importorskip("sympy")
    z, w = sympy.symbols("z w")
    ring = sympy.QQ.old_poly_ring(z, w, order="igrevlex")

    def to_sympy(p):
        assert all(c.im == 0 for c in p.terms.values()), format_poly(p, ZW)
        return sum(
            sympy.Rational(c.re.numerator, c.re.denominator) * z**i * w**j
            for (i, j), c in p.terms.items()
        )

    for M, N, K in EFFECTIVENESS_TRIPLES:
        J1 = _second_stage_ideal(M, N, K)
        germ_ideal = ring.ideal(*[to_sympy(g) for g in J1.generators])
        sharp = SHARP_ROOT_ORDERS[(M, N, K)]
        assert germ_ideal.contains(z**sharp), (M, N, K)
        assert not germ_ideal.contains(z ** (sharp - 1)), (M, N, K)
    _passed("criterion-1b-sympy", "(sympy's local ring agrees on the sharp root orders)")


def test_criterion_02_multiplicity_grid():
    for M in (2, 3, 4):
        for N in (2, 3, 4):
            for K in range(M + 1, 7):
                report = germ_colength(Ideal.from_strings([f"z^{M}", f"w^{N} + w*z^{K}"], ZW))
                assert report.colength == M * N, (M, N, K, report.colength)
    _passed("criterion-2", "(colength equals M*N on the whole grid)")


def test_criterion_03_iteration_trace():
    trace = run(_domain(2, 3, 4))
    step0, step1, step2 = trace.steps
    assert [format_poly(g, ZW) for g in step0.I_gens] == ["z^5 + 3*z*w^2"]
    assert [format_poly(g, ZW) for g in step1.I_gens] == ["z", "w"]
    assert [format_poly(g, ZW) for g in step2.I_gens] == ["1"]
    assert trace.status == "unit_reached"
    _passed("criterion-3", "(first stage, maximal-ideal stage, then the unit)")


def test_criterion_04_no_radical_stall():
    h = ("z^2", "z*w", "w^2")
    stuck = run(SpecialDomain.from_strings(h, ZW), KohnOptions(radical_mode="none"))
    assert stuck.status == "stalled"
    freed = run(SpecialDomain.from_strings(h, ZW), KohnOptions(radical_mode="full"))
    assert freed.status == "unit_reached"
    assert len(freed.steps) == 2
    _passed("criterion-4", "(stuck without radicals, finishes in two stages with them)")


def test_criterion_05_stall_on_curve():
    trace = run(SpecialDomain.from_strings(["z^3", "z*w"], ZW))
    assert trace.status == "stalled"
    curve = [parse("0", ("t",)), parse("t", ("t",))]
    assert curve_annihilation_check(trace, curve) is True
    _passed("criterion-5", "(stall plus curve annihilation on the vertical axis)")


def test_criterion_06_triangular_ladders():
    ts = validate([parse("z^2", ZW), parse("w^2", ZW)], ZW)
    trace = run_effective(ts)
    assert trace.L == 4
    monic = [format_poly(p.A.monic(), ZW) for p in trace.pairs]
    assert monic == ["z*w", "z", "w", "1"]
    assert certify(trace, ts).passed
    rng = random.Random(20260809)
    for _ in range(20):
        sys_i = random_system(rng)
        tr = run_effective(sys_i)
        assert tr.L == math.prod(sys_i.exponents)
        assert multiplicity(sys_i) == tr.L
        report = certify(tr, sys_i)
        assert report.passed, report.failures()
        assert all(p.min_power <= sys_i.n for p in tr.pairs)
        final = tr.pairs[-1]
        assert final.A.constant_term() and final.B.constant_term()
    _passed("criterion-6", "(golden ladder and twenty random certified systems)")


def test_criterion_07_contact_of_families():
    for l, m in [(2, 2), (2, 3), (3, 5)]:
        domain = type_jump_domain(l, m)
        family = two_exponent_family(2, l)
        alpha = balance_exponent(domain, family)
        assert alpha == Fraction(3, m + 2 * l)
        result = contact_family(domain, family.fix_exponent(alpha))
        assert result.eta == Fraction(4 * (2 * m + l), m + 2 * l)
    jump = AmbientDomain.from_strings(["z1^2 - z2*z3", "z2^2"], ("z1", "z2", "z3"))
    a = Fraction(1)
    curve = [
        parse("zeta", ("zeta",)),
        parse("zeta^2", ("zeta",)) * (GaussianRational(0, -1) / a),
        parse("i", ("zeta",)) * a,
    ]
    base = [GaussianRational(0), GaussianRational(0), GaussianRational(0, a)]
    assert contact_curve(jump, curve, base) == 8
    assert type_bound_check(Fraction(4), Fraction(8), 3)
    assert Fraction(8) == Fraction(4) ** 2 / 2  # the bound holds with equality
    _passed("criterion-7", "(balanced families, nearby jump to 8, sharp bound)")


def test_criterion_08_sharp_formula():
    for m1 in (2, 3, 4):
        for m2 in (2, 3, 4):
            assert sharp_T(m1, m2, Fraction(1)) == 2 * m1
            assert sharp_T_limit(m1, m2) == 2 * m1 * m2
            for p, q in [(1, 1), (1, 2), (2, 3)]:
                assert sharp_T_via_family(m1, m2, p, q) == sharp_T(m1, m2, Fraction(p, q))
            values = [sharp_T(m1, m2, Fraction(k, 12)) for k in range(1, 13)]
            assert all(a > b for a, b in zip(values, values[1:]))
    _passed("criterion-8", "(endpoints, symbolic pipeline, monotone grid)")


def test_criterion_09_property_suites():
    # Groebner idempotence
    for gens in [("z^2", "z*w - w^3"), ("z^3", "w^2 + z*w"), ("z - w", "w^2")]:
        ideal = Ideal.from_strings(gens, ZW)
        basis = ideal.groebner()
        assert Ideal(2, basis).groebner() == basis
    # membership closed under addition and multiplication
    rng = random.Random(99)
    base = Ideal.from_strings(["z^2", "z*w - w^3"], ZW)
    for _ in range(25):
        f = _random_combination(rng, base)
        g = _random_combination(rng, base)
        assert member(f, base) and member(g, base)
        assert member(f + g, base)
        assert member(f * _random_poly(rng), base)
    # stabilization forces every monomial of the stabilization degree inside
    found = 0
    rng = random.Random(734)
    while found < 50:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        gens = [
            parse(f"z^{a}", ZW) + _random_tail(rng),
            parse(f"w^{b}", ZW) + _random_tail(rng),
        ]
        ideal = Ideal(2, gens)
        report = germ_colength(ideal)
        if not report.m_primary:
            continue
        found += 1
        for mono in monomials_of_degree(2, report.stabilization_degree):
            assert germ_member(Polynomial.monomial(mono), ideal, report)
    _passed("criterion-9", "(idempotence, closure, fifty stabilized ideals)")


def _random_poly(rng):
    out = Polynomial.zero(2)
    for _ in range(rng.randint(1, 3)):
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        out = out + Polynomial.monomial(mono, Fraction(rng.randint(-3, 3)))
    return out


def _random_combination(rng, ideal):
    out = Polynomial.zero(2)
    for g in ideal.generators:
        out = out + _random_poly(rng) * g
    return out


def _random_tail(rng):
    out = Polynomial.zero(2)
    for _ in range(rng.randint(0, 3)):
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        if sum(mono) == 0:
            continue
        out = out + Polynomial.monomial(mono, Fraction(rng.randint(-2, 2)))
    return out


def test_criterion_10_cli_reproduction(capsys):
    code1 = cli_main(["reproduce"])
    first = capsys.readouterr().out
    code2 = cli_main(["reproduce"])
    second = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert first == second  # byte-stable across runs
    doc = json.loads(first)
    assert doc["all_pass"]
    covered = {row["id"] for row in doc["cases"]}
    # the corpus carries cases for every earlier criterion
    for marker in [
        "effectiveness-M2-N3-K4",
        "ideal-colength-grid",
        "kohn-run-effectiveness",
        "kohn-run-no-radical-stall",
        "curve-annihilation-axis",
        "triangular-ladder-squares",
        "contact-family-jump-l2-m3",
        "sharp-via-family-p2-q3",
    ]:
        assert marker in covered
    _passed("criterion-10", f"(corpus of {len(doc['cases'])} cases, byte-stable)")
