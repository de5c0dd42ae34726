import math
import random

import pytest

from submult.errors import CertificationError, ValidationError
from submult.ideals import Ideal, germ_colength, germ_member
from submult.kohn import KohnOptions, SpecialDomain, run
from submult.poly import det, format_poly, parse
from submult.triangular import (
    certify,
    multiplicity,
    random_system,
    run_effective,
    validate,
)

ZW = ("z", "w")


def system(*h, variables=ZW):
    return validate([parse(s, variables) for s in h], variables)


def monic_sequence(trace, variables=ZW):
    return [format_poly(p.A.monic(), variables) for p in trace.pairs]


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


# -- multiplicity -------------------------------------------------------------------


def test_multiplicity_examples():
    assert multiplicity(system("z^2", "w^2")) == 4
    assert multiplicity(system("z^2", "w^3 + w*z^4")) == 6
    one_var = validate([parse("z^7", ("z",))], ("z",))
    assert multiplicity(one_var) == 7


def test_multiplicity_with_cross_terms():
    assert multiplicity(system("z^3", "w^3 + 2*z")) == 9


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
    jac = det(list(ts.jacobian_rows()))
    assert trace.pairs[0].A == trace.pairs[0].B == jac


def test_triangular_jacobian_is_diagonal_product():
    ts = system("z^3", "w^2 + z*(z + w)")
    jac = det(list(ts.jacobian_rows()))
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
    doubled = 2 * det(list(ts.jacobian_rows()))
    first = trace.pairs[0]._replace(A=doubled, B=doubled)
    report = certify(trace._replace(pairs=(first,) + trace.pairs[1:]), ts)
    assert not {name: ok for name, ok, _ in report.checks}["first_pair"]


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


# -- cross-module ------------------------------------------------------------------------


def test_ladder_multipliers_end_up_in_the_iterated_ideal():
    for h in [("z^2", "w^2"), ("z^2", "w^3 + w*z^4")]:
        ts = system(*h)
        trace = run_effective(ts)
        kohn_trace = run(SpecialDomain.from_strings(h, ZW))
        assert kohn_trace.status == "unit_reached"
        final = Ideal(2, kohn_trace.final_generators())
        report = germ_colength(final)
        for pair in trace.pairs:
            assert germ_member(pair.A, final, report)
