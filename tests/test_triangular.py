import itertools
import math
import random

import pytest

from conftest import CLIFFS
from submult import ideals, triangular
from submult.errors import ValidationError
from submult.ideals import (
    GREVLEX,
    LEX,
    Ideal,
    _standard_monomial_count,
    germ_colength,
    germ_member,
)
from submult.kohn import SpecialDomain, run
from submult.poly import Polynomial, det, divides, format_poly, least_power, parse
from submult.triangular import (
    TriangularSystem,
    _diagonal_det,
    _division_power,
    certify,
    multiplicity,
    random_system,
    run_effective,
    validate,
)

ZW = ("z", "w")
ZWV = ("z", "w", "v")


def system(*h, variables=ZW):
    return validate([parse(s, variables) for s in h], variables)


def gradient_rows(polys):
    return [p.gradient() for p in polys]


def monic_sequence(trace, variables=ZW):
    return [format_poly(p.A.monic(), variables) for p in trace.pairs]


def replace_pair(trace, position, **fields):
    """The trace with the pair at position (from 0) changed in the given fields."""
    bad = trace.pairs[position]._replace(**fields)
    return trace._replace(pairs=trace.pairs[:position] + (bad,) + trace.pairs[position + 1 :])


# -- validation ------------------------------------------------------------------


def test_validate_accepts_shearing_tail():
    ts = system("z^2", "w^3 + z*z + z*w")
    assert ts.exponents == (2, 3)


def test_validate_accepts_high_order_tail():
    ts = system("z^2", "w^3 + w*z^4")
    assert ts.exponents == (2, 3)


def test_validate_rejects_vanishing_axis_slice():
    with pytest.raises(ValidationError, match="condition 2"):
        system("z*w", "w^2")


def test_validate_rejects_dependence_on_later_variable():
    with pytest.raises(ValidationError, match="condition 1"):
        system("z + w^2", "w^2")


def test_validate_rejects_unnormalized_units():
    with pytest.raises(ValidationError, match="normalized"):
        system("2*z^2", "w^2")
    with pytest.raises(ValidationError, match="normalized"):
        system("z^2 + z^3", "w^2")


def test_validate_rejects_constant_terms():
    # the pure part of h_i keeps the constant term, so a constant never passes
    with pytest.raises(ValidationError, match="must vanish at the origin"):
        system("1", "w^2")
    with pytest.raises(ValidationError, match="normalized"):
        system("z^2 + 1", "w^2")
    with pytest.raises(ValidationError, match="normalized"):
        system("z^2", "w^2 + z + 1")


def test_validate_needs_square_shape():
    with pytest.raises(ValidationError):
        validate([parse("z^2", ZW)], ZW)


@pytest.mark.parametrize(
    "h, message",
    [
        # V(z^2, w^2 - w) is the origin and (0, 1): the germ colength is 2, and
        # a global count on h would pass the exponent product 4
        (("z^2", "w^2 - w"), "h_2 is not normalized"),
        # the first gradient row would depend on w
        (("z + w^2", "w^2"), "condition 1 fails for h_1"),
    ],
    ids=["point-off-the-origin", "later-variable"],
)
def test_system_refuses_a_shape_that_is_not_triangular_when_built(h, message):
    with pytest.raises(ValidationError, match=message):
        TriangularSystem(ZW, tuple(parse(s, ZW) for s in h))


def test_exponents_are_read_off_the_pure_parts():
    # the exponent of h_2 is its pure power w^2, not its degree in w
    ts = TriangularSystem(ZW, (parse("z^2", ZW), parse("w^2 + z*w^3", ZW)))
    assert ts.h[1].degree_in(1) == 3
    assert ts.exponents == (2, 2)


# -- multiplicity -------------------------------------------------------------------


def test_multiplicity_examples():
    assert multiplicity(system("z^2", "w^2")) == 4
    assert multiplicity(system("z^2", "w^3 + w*z^4")) == 6
    one_var = validate([parse("z^7", ("z",))], ("z",))
    assert multiplicity(one_var) == 7


def test_multiplicity_with_cross_terms():
    assert multiplicity(system("z^3", "w^3 + 2*z")) == 9


def counting_groebner(monkeypatch):
    """The list of _groebner_raw calls, one entry each, from now on."""
    calls = []
    groebner = ideals._groebner_raw

    def counting(gens, order):
        calls.append(1)
        return groebner(gens, order)

    monkeypatch.setattr(ideals, "_groebner_raw", counting)
    return calls


@pytest.mark.parametrize(
    "h, variables, buchberger",
    [
        (("z^2", "w^3 + 2*z"), ZW, False),  # lex leads z^2, w^3: a basis already
        (("z^2", "w^2 + z*w^3"), ZW, True),  # lead z*w^3 shares z with z^2
        *((h, ZWV, True) for h in CLIFFS.values()),
    ],
    ids=["coprime-leads", "shared-variable", "cliff-331", "cliff-333"],
)
def test_multiplicity_runs_buchberger_only_without_coprime_leads(
    monkeypatch, h, variables, buchberger
):
    # coprime leads are the pure powers z_i^{m_i}, whose box gives the
    # colength with no walk; the standard monomials are counted only on a
    # basis that Buchberger's algorithm built
    ts = system(*h, variables=variables)
    calls = counting_groebner(monkeypatch)
    counts = []

    def counting(basis, ring_dim, order):
        counts.append(_standard_monomial_count(basis, ring_dim, order))
        return counts[-1]

    monkeypatch.setattr(triangular, "_standard_monomial_count", counting)
    assert multiplicity(ts) == math.prod(ts.exponents)
    assert bool(calls) == buchberger
    assert [count for count, _ in counts] == ([math.prod(ts.exponents)] if buchberger else [])


# -- the ladder ----------------------------------------------------------------------


def test_ladder_on_square_pair():
    trace = run_effective(system("z^2", "w^2"))
    assert trace.L == 4
    assert monic_sequence(trace) == ["z*w", "z", "w", "1"]
    assert certify(trace, system("z^2", "w^2")).passed


def test_ladder_single_variable_is_derivative_chain():
    ts = validate([parse("z^3", ("z",))], ("z",))
    trace = run_effective(ts)
    assert [format_poly(p.A, ("z",)) for p in trace.pairs] == ["3*z^2", "6*z", "6"]
    assert [format_poly(p.B, ("z",)) for p in trace.pairs] == ["3*z^2", "6*z", "6"]
    assert certify(trace, ts).passed


def test_ladder_mixed_tail():
    ts = system("z^2", "w^3 + w*z^4")
    trace = run_effective(ts)
    assert trace.L == 6
    last = trace.pairs[-1]
    assert last.A.constant_term() and last.B.constant_term()
    assert certify(trace, ts).passed


def test_first_pair_is_jacobian_determinant():
    ts = system("z^2", "w^3 + w*z^4")
    trace = run_effective(ts)
    jac = det(gradient_rows(ts.h))
    assert trace.pairs[0].A == trace.pairs[0].B == jac


def test_triangular_jacobian_is_diagonal_product():
    ts = system("z^3", "w^2 + z*(z + w)")
    jac = det(gradient_rows(ts.h))
    diagonal = ts.h[0].diff(0) * ts.h[1].diff(1)
    assert jac == diagonal


def test_root_exponents_never_exceed_dimension():
    for h in [("z^2", "w^2"), ("z^3", "w^3 + z*w^2 + 2*z")]:
        trace = run_effective(system(*h))
        assert all(1 <= p.min_power <= 2 for p in trace.pairs)


def test_certify_flags_tampered_pair():
    ts = system("z^2", "w^2")
    trace = run_effective(ts)
    w = parse("w", ZW)
    bad_pair = trace.pairs[1]._replace(A=w)
    tampered = trace._replace(pairs=trace.pairs[:1] + (bad_pair,) + trace.pairs[2:])
    report = certify(tampered, ts)
    assert not report.passed
    assert any("division" in failure for failure in report.failures())


def test_certify_flags_first_pair_off_by_a_constant():
    # B_1 is exactly the Jacobian determinant, and A_1 its diagonal product
    ts = system("z^2", "w^2")
    trace = run_effective(ts)
    doubled = 2 * det(gradient_rows(ts.h))
    first = trace.pairs[0]._replace(A=doubled, B=doubled)
    report = certify(trace._replace(pairs=(first,) + trace.pairs[1:]), ts)
    assert not {name: ok for name, ok, _ in report.checks}["first_pair"]


@pytest.mark.parametrize(
    "sources, detail",
    [
        (lambda s: s[:1], "row 2 is missing"),
        (lambda s: (s[0], parse("w", ("z", "w", "v"))), "row 2 lives in another ring"),
        (lambda s: (s[0] * parse("w", ZW), s[1]), "row 1 depends on a variable after z_1"),
    ],
    ids=["too-few-rows", "another-ring", "later-variable"],
)
def test_certify_fails_a_malformed_pair_without_raising(sources, detail):
    ts = system("z^2", "w^2")
    trace = run_effective(ts)
    bad = trace.pairs[1]._replace(sources=sources(trace.pairs[1].sources))
    report = certify(trace._replace(pairs=trace.pairs[:1] + (bad,) + trace.pairs[2:]), ts)
    assert report.failures() == (f"pair_2_minor: {detail}",)


@pytest.mark.parametrize(
    "exponents, failing",
    [((2,), ["length", "colength", "final_unit"]), ((2, 2, 2), ["length", "colength"])],
    ids=["short", "long"],
)
def test_ladder_refuses_exponents_that_do_not_match_h(exponents, failing):
    # exponents is read off h, not stored, so a system cannot carry a box of
    # another length than h
    good = system("z^2", "w^2")
    with pytest.raises(ValueError, match="unexpected field names"):
        good._replace(exponents=exponents)
    with pytest.raises(ValidationError, match=f"got {len(exponents)}"):
        TriangularSystem(ZW, (good.h * 2)[: len(exponents)])
    # a ladder one rung short of or past the box (2, 2) fails the box product
    # and the colength; a short one also ends on a non-unit
    trace = run_effective(good)
    pairs = trace.pairs[:-1] if len(exponents) < 2 else trace.pairs + trace.pairs[-1:]
    report = certify(trace._replace(pairs=pairs), good)
    assert [name for name, ok, _ in report.checks if not ok] == failing


def test_ladder_builds_many_variables_without_deep_calls():
    # h_i = z_i has the one-position box (1, ..., 1), whose sources are h;
    # the ladder is built level by level, so no call depth grows with n, and
    # its leads are coprime, so certify's colength needs no staircase walk
    n = 1100
    h = tuple(Polynomial.variable(n, i) for i in range(n))
    ts = validate(h, (f"z{i}" for i in range(n)))
    trace = run_effective(ts)
    assert len(trace.pairs) == 1
    assert all(s is p for s, p in zip(trace.pairs[0].sources, h, strict=True))
    assert certify(trace, ts).passed


def test_trace_serialization():
    trace = run_effective(system("z^2", "w^2"))
    doc = trace.to_dict()
    assert doc["L"] == 4
    assert [pair["A"] for pair in doc["pairs"]][0] == "4*z*w"
    assert len(doc["certificates"]) == 4
    assert all(c["min_power"] <= 2 for c in doc["certificates"])


# -- randomized suite ------------------------------------------------------------------


def test_randomized_triangular_suite():
    rng = random.Random(20260809)
    for _ in range(20):
        ts = random_system(rng)
        trace = run_effective(ts)
        assert trace.L == math.prod(ts.exponents)
        report = certify(trace, ts)
        assert report.passed, report.failures()
        assert all(p.min_power <= ts.n for p in trace.pairs)
        last = trace.pairs[-1]
        assert last.A.constant_term() and last.B.constant_term()


def test_diagonal_products_match_the_full_determinant():
    # det of every gradient entry is the oracle for the diagonal product
    rng = random.Random(28)
    for _ in range(20):
        ts = random_system(rng)
        trace = run_effective(ts)
        first = trace.pairs[0]
        assert first.A == first.B == det(gradient_rows(ts.h))
        for pair in trace.pairs:
            assert pair.B == det(gradient_rows(pair.sources))
        assert certify(trace, ts).passed


def _strata_sample(per_n=4):
    # seeded random_system draws: the first per_n of each n, and the first
    # of the largest stratum, exponents (3, 3, 3)
    rng = random.Random(31)
    by_n = {1: [], 2: [], 3: []}
    cube = None
    while cube is None or min(map(len, by_n.values())) < per_n:
        ts = random_system(rng)
        if len(by_n[ts.n]) < per_n:
            by_n[ts.n].append(ts)
        if cube is None and ts.exponents == (3, 3, 3):
            cube = ts
    return [*by_n[1], *by_n[2], *by_n[3], cube]


def test_shortcuts_agree_with_their_definitions():
    # B = A*C against the diagonal and the full determinant, the cofactor's
    # least power against B | A^e, and the global count, on the lex basis
    # with z_n > ... > z_1, against the grevlex one and the germ scan; the
    # count on h's own lex leads is that count when they are pairwise
    # coprime, and otherwise a lead misses its pure power and the count is
    # infinite, so multiplicity runs Buchberger's algorithm exactly then
    cliffs = [system(*h, variables=ZWV) for h in CLIFFS.values()]
    direct_counts = []
    for ts in _strata_sample() + cliffs:
        trace = run_effective(ts)
        n = ts.n
        for pair in trace.pairs:
            _, diagonal = _diagonal_det(pair.sources, n, {})
            assert pair.B == diagonal == det(gradient_rows(pair.sources))
            direct = least_power(pair.A, lambda p: divides(pair.B, p), n)
            assert pair.min_power == direct == _division_power(pair.A, pair.B, n)
            # tampered pairs: A not dividing B, a zero A, and B = A^2
            last = Polynomial.variable(n, n - 1)
            zero = Polynomial.zero(n)
            for A, B in [(pair.A + last, pair.B), (zero, pair.B), (pair.A, pair.A * pair.A)]:
                direct = least_power(A, lambda p: divides(B, p), n)
                assert _division_power(A, B, n) == direct
        ideal = Ideal(n, ts.h)
        reversed_h = [p.lift(n, range(n - 1, -1, -1)) for p in ts.h]
        lex, _ = _standard_monomial_count(Ideal(n, reversed_h).groebner(LEX), n, LEX)
        grevlex, _ = _standard_monomial_count(ideal.groebner(GREVLEX), n, GREVLEX)
        assert lex == grevlex == germ_colength(ideal).colength == trace.L
        assert trace.L == math.prod(ts.exponents)
        direct, _ = _standard_monomial_count(reversed_h, n, LEX)
        assert direct in (lex, None)
        direct_counts.append(direct)
        with pytest.MonkeyPatch.context() as patch:
            calls = counting_groebner(patch)
            assert multiplicity(ts) == lex
        assert bool(calls) == (direct is None)
    assert direct_counts.count(None) not in (0, len(direct_counts))
    # certify forms a diagonal once per source prefix, keyed by the sources'
    # identity: a fresh row that is not lower triangular fails its own pair
    # only, and the pairs sharing its untouched prefix still pass
    cube = _strata_sample()[-1]
    trace = run_effective(cube)
    target = trace.pairs[13]  # the box position (2, 2, 2)
    head = target.sources[:2]
    siblings = [p for p in trace.pairs if p is not target and p.sources[0] is head[0]]
    assert len(siblings) == 8
    assert sum(p.sources[1] is head[1] for p in siblings) == 2
    v = Polynomial.variable(3, 2)
    for sources, failures in [
        ((head[0], head[1] * v, target.sources[2]), ("row 2 depends on a variable after z_2",)),
        ((head[0] * v, *target.sources[1:]), ("row 1 depends on a variable after z_1",)),
        (tuple(Polynomial(3, dict(s.terms)) for s in target.sources), ()),  # equal fresh rows
    ]:
        report = certify(replace_pair(trace, 13, sources=sources), cube)
        assert report.failures() == tuple(f"pair_14_minor: {detail}" for detail in failures)
    # zero multipliers are failed checks, not exceptions: B | A^e fails for
    # B = 0, and B | 0 holds for every B, so a zero A fails too
    assert target.min_power == 3
    zero = Polynomial.zero(3)
    report = certify(replace_pair(trace, 13, B=zero), cube)
    assert report.failures() == (
        "pair_14_minor: B is the determinant of the recorded allowable rows",
        "pair_14_division: B is zero (recorded 3, bound 3)",
    )
    report = certify(replace_pair(trace, 13, A=zero), cube)
    assert report.failures() == ("pair_14_division: A is zero (recorded 3, bound 3)",)


def test_certify_fails_a_zero_a_recorded_with_power_one():
    # pair 3 of (z^2, w^2) is the box position (2, 1), with e = 1; a zero A
    # there would pass a division check alone, as B | 0
    ts = system("z^2", "w^2")
    trace = run_effective(ts)
    assert trace.pairs[2].min_power == 1
    report = certify(replace_pair(trace, 2, A=Polynomial.zero(2)), ts)
    assert report.failures() == ("pair_3_division: A is zero (recorded 1, bound 2)",)


def _d(p, i, k):
    """D_i^k p."""
    for _ in range(k):
        p = p.diff(i)
    return p


def test_ladder_walks_the_box_in_order():
    # rung k is the k-th position a of the box in itertools.product order; its
    # A is prod_j D_j^{a_j} h_j, and its sources are D_1^{a_1 - 1} h_1, then
    # h_i when a_i = 1 and P_i D_i^{a_i - 1} h_i otherwise, where P_i is the
    # product over j < i
    cliffs = [system(*h, variables=ZWV) for h in CLIFFS.values()]
    for ts in _strata_sample() + cliffs:
        trace, h = run_effective(ts), ts.h
        box = list(itertools.product(*(range(1, m + 1) for m in ts.exponents)))
        assert [p.index for p in trace.pairs] == list(range(1, len(box) + 1))
        for pair, a in zip(trace.pairs, box, strict=True):
            sources = [_d(h[0], 0, a[0] - 1)]
            P = _d(h[0], 0, a[0])
            for i in range(1, ts.n):
                sources.append(h[i] if a[i] == 1 else P * _d(h[i], i, a[i] - 1))
                P = P * _d(h[i], i, a[i])
            assert pair.sources == tuple(sources)
            assert pair.A == P


def test_ladder_products_are_shared_across_box_prefixes(monkeypatch):
    # each box prefix forms its children's products P_i D_i^k h_i and their
    # cofactor once, and certify each prefix's diagonal once; the (3, 3, 3)
    # draw takes 75 and 44 products
    cube = _strata_sample()[-1]
    calls = []
    product = Polynomial.__mul__

    def counting(f, g):
        calls.append(1)
        return product(f, g)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    trace = run_effective(cube)
    assert len(calls) <= 75
    calls.clear()
    assert certify(trace, cube).passed
    assert len(calls) <= 44


# -- cross-module ------------------------------------------------------------------------


def test_ladder_multipliers_end_up_in_the_iterated_ideal():
    for h in [("z^2", "w^2"), ("z^2", "w^3 + w*z^4")]:
        ts = system(*h)
        trace = run_effective(ts)
        kohn_trace = run(SpecialDomain.from_strings(h, ZW))
        assert kohn_trace.status == "unit_reached"
        final = Ideal(2, kohn_trace.final_generators())
        for pair in trace.pairs:
            assert germ_member(pair.A, final)
