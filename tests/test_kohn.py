import itertools

import pytest

from conftest import sympy_local_colength, to_sympy
from submult import corpus, ideals, kohn
from submult.errors import ConsistencyError, ValidationError
from submult.ideals import GermReport, Ideal, germ_colength, germ_member, is_germ_unit, member
from submult.kohn import (
    KohnOptions,
    SpecialDomain,
    check_finite_type,
    curve_annihilation_check,
    init_state,
    run,
    step,
)
from submult.poly import (
    Polynomial,
    PolyMatrix,
    det,
    format_poly,
    minor_dets,
    monomials_of_degree,
    parse,
)

ZW = ("z", "w")
ZWV = ("z", "w", "v")


def domain(*h, variables=ZW, label=""):
    return SpecialDomain.from_strings(h, variables, label)


def curve(*components):
    return [parse(c, ("t",)) for c in components]


def gens(step_record, variables=ZW):
    return [format_poly(g, variables) for g in step_record.I_gens]


# -- construction -------------------------------------------------------------


def test_domain_validation():
    with pytest.raises(ValidationError):
        SpecialDomain(ZW, ())
    with pytest.raises(ValidationError):
        domain("1 + z")  # does not vanish at the origin
    with pytest.raises(ValidationError):
        domain("0")


@pytest.mark.parametrize("steps", [0, -1])
def test_options_reject_max_steps_below_one(steps):
    with pytest.raises(ValidationError):
        KohnOptions(max_steps=steps)


def test_init_state_effectiveness_domain():
    state = init_state(domain("z^2", "w^3 + w*z^4"))
    assert state.rows.nrows == 2
    assert [format_poly(g, ZW) for g in state.multipliers.generators] == [
        "z^5 + 3*z*w^2"
    ]


def test_init_state_unit_jacobian():
    state = init_state(domain("z", "w"))
    assert [format_poly(g, ZW) for g in state.multipliers.generators] == ["1"]


def test_init_state_monomial_triple():
    state = init_state(domain("z^2", "z*w", "w^2"))
    assert [format_poly(g, ZW) for g in state.multipliers.generators] == [
        "w^2",
        "z*w",
        "z^2",
    ]


def test_init_state_too_few_rows_gives_zero_ideal():
    state = init_state(domain("z*w"))
    assert state.multipliers.generators == ()


# -- single steps ---------------------------------------------------------------


def test_step_grows_rows_and_minor_ideal():
    state = init_state(domain("z^2", "w^3 + w*z^4"))
    after, record = step(state)
    assert record.radical_method == "principal"
    assert gens(record) == ["z^5 + 3*z*w^2"]
    assert after.rows.nrows == 3  # gradient of the new multiplier was appended
    J1 = [format_poly(g, ZW) for g in after.multipliers.generators]
    assert "z^2*w" in J1 and "z^5 + 3*z*w^2" in J1


def test_step_without_radical_keeps_minor_ideal():
    state = init_state(domain("z^2", "z*w", "w^2"))
    after, record = step(state, KohnOptions(radical_mode="none"))
    assert record.radical_method == "none"
    assert gens(record) == ["w^2", "z*w", "z^2"]
    assert after.rows.nrows == 3  # new gradients are scalar multiples, dropped


# -- full runs --------------------------------------------------------------------


def test_run_effectiveness_domain_trace():
    trace = run(domain("z^2", "w^3 + w*z^4"))
    assert trace.status == "unit_reached"
    assert [s.radical_method for s in trace.steps] == ["principal", "m-primary", "none"]
    assert gens(trace.steps[0]) == ["z^5 + 3*z*w^2"]
    assert gens(trace.steps[1]) == ["z", "w"]
    assert gens(trace.steps[2]) == ["1"]
    assert trace.max_root_order == 6  # root orders recorded at the radical stage


def test_run_unit_at_step_zero():
    trace = run(domain("z", "w"))
    assert trace.status == "unit_reached"
    assert len(trace.steps) == 1
    assert trace.max_root_order == 0


@pytest.mark.parametrize(
    "h, variables, J_gens",
    [(("z", "w"), ZW, ["1"]), (("z + z^2",), ("z",), ["z + 1/2"])],
)
def test_none_mode_unit_first_minor_ideal(h, variables, J_gens):
    # a germ unit that is not the global unit, such as (z + 1/2), ends the run too
    trace = run(domain(*h, variables=variables), KohnOptions(radical_mode="none"))
    assert trace.status == "unit_reached"
    assert len(trace.steps) == 1
    assert gens(trace.steps[0], variables) == ["1"]
    assert [format_poly(g, variables) for g in trace.steps[0].J_gens] == J_gens


def test_run_monomial_triple_both_modes():
    stuck = run(domain("z^2", "z*w", "w^2"), KohnOptions(radical_mode="none"))
    assert stuck.status == "stalled"
    assert [gens(s) for s in stuck.steps] == [
        ["w^2", "z*w", "z^2"],
        ["w^2", "z*w", "z^2"],
    ]
    freed = run(domain("z^2", "z*w", "w^2"), KohnOptions(radical_mode="full"))
    assert freed.status == "unit_reached"
    assert len(freed.steps) == 2
    assert freed.max_root_order == 2


THREE_VARIABLE_RUNS = [
    (("z^2", "w^3 + w*z^4", "v^2"), ["principal", "partial", "partial", "m-primary", "none"], 6),
    (("z^3", "w^2", "v^2 + z*w"), ["principal", "partial", "m-primary", "none"], 4),
    (("z", "w^3 + w*z^4", "v^2"), ["principal", "partial", "m-primary", "none"], 4),
]


@pytest.mark.parametrize("h, methods, max_root", THREE_VARIABLE_RUNS)
def test_three_variable_domains_reach_the_unit(h, methods, max_root):
    trace = run(domain(*h, variables=ZWV))
    assert trace.status == "unit_reached"
    assert [s.radical_method for s in trace.steps] == methods
    assert trace.max_root_order == max_root


@pytest.mark.parametrize("h", [h for h, _, _ in THREE_VARIABLE_RUNS])
def test_m_primary_stage_colengths_match_sympy_local_ring(h):
    sympy = pytest.importorskip("sympy")
    steps = run(domain(*h, variables=ZWV)).steps
    stages = [s.J_gens for s in steps if s.radical_method == "m-primary"]
    assert stages
    for gens in stages:
        report = germ_colength(Ideal(3, gens))
        assert report.colength == sympy_local_colength(sympy, gens, ZWV), gens


# root orders above 32: the radical step bounds each search by the ideal itself
UNBOUNDED_ROOT_RUNS = [
    (("z^2", "w^3 + w*z^40"), ["principal", "m-primary", "none"], 42),
    (("z^40", "w"), ["principal", "none"], 39),
    (("z^34", "w^2"), ["principal", "m-primary", "none"], 34),
]


@pytest.mark.parametrize("h, methods, max_root", UNBOUNDED_ROOT_RUNS)
def test_large_root_orders_are_exact(h, methods, max_root):
    trace = run(domain(*h))
    assert trace.status == "unit_reached"
    assert [s.radical_method for s in trace.steps] == methods
    assert trace.max_root_order == max_root


def test_root_order_42_matches_sympy_local_ring():
    sympy = pytest.importorskip("sympy")
    stage = run(domain("z^2", "w^3 + w*z^40")).steps[1]
    assert {format_poly(g, ZW): s for g, s in stage.root_orders} == {"z": 42, "w": 4}
    ring = sympy.QQ.old_poly_ring(*sympy.symbols(ZW), order="igrevlex")
    local = ring.ideal(*[to_sympy(sympy, g).as_expr() for g in stage.J_gens])
    z = sympy.Symbol("z")
    assert local.contains(z**42)
    assert not local.contains(z**41)


def test_run_stalls_on_curve_domain():
    trace = run(domain("z^3", "z*w"))
    assert trace.status == "stalled"
    assert gens(trace.steps[-1]) == ["z"]
    assert trace.max_root_order == 3


def test_run_step_cap_status():
    trace = run(domain("z^2", "w^3 + w*z^4"), KohnOptions(max_steps=1))
    assert trace.status == "step_cap"
    assert len(trace.steps) == 1


def test_run_is_deterministic():
    options = KohnOptions()
    one = run(domain("z^2", "w^3 + w*z^4", label="x"), options).to_dict()
    two = run(domain("z^2", "w^3 + w*z^4", label="x"), options).to_dict()
    assert one == two


def test_trace_serialization_schema():
    trace = run(domain("z^2", "z*w", "w^2"))
    doc = trace.to_dict()
    assert set(doc) == {"domain", "steps", "status", "max_root_order"}
    for record in doc["steps"]:
        assert set(record) == {"J_gens", "radical_method", "root_orders", "I_gens"}


# -- run invariants -----------------------------------------------------------------


def test_multiplier_ideal_grows_along_run():
    trace = run(domain("z^2", "w^3 + w*z^4"))
    for earlier, later in zip(trace.steps, trace.steps[1:]):
        bigger = Ideal(2, later.I_gens)
        for g in earlier.I_gens:
            assert germ_member(g, bigger)


def test_recorded_root_orders_are_sound_and_minimal():
    trace = run(domain("z^2", "w^3 + w*z^4"))
    for record in trace.steps:
        if record.radical_method != "m-primary":
            continue
        J = Ideal(2, record.J_gens)
        for g, order in record.root_orders:
            assert germ_member(g ** order, J)
            assert not germ_member(g ** (order - 1), J)


def test_runs_never_reach_unit_with_a_curve_inside():
    # each domain vanishes along an explicit curve, which then annihilates
    cases = [
        (("z^3", "z*w"), ("0", "t")),
        (("z*w",), ("t", "0")),
        (("z^2 - z*w", "z*w - w^2"), ("t", "t")),
        (("z^2*w", "z*w^2"), ("t", "0")),
    ]
    for h, comps in cases:
        trace = run(domain(*h))
        assert trace.status != "unit_reached"
        assert curve_annihilation_check(trace, curve(*comps))


@pytest.mark.parametrize(
    "h, variables",
    [
        (("z*w",), ZW),
        (("z^2", "z*w"), ZW),
        (("w^2", "z^3*w"), ZW),
        (("z", "w", "v^2"), ("z", "w", "v")),
        (("z", "w^2 + z*v", "v"), ("z", "w", "v")),
    ],
)
def test_stages_contain_their_predecessors(h, variables):
    # the stall test relies on I_{k-1} <= I_k as polynomial ideals
    trace = run(domain(*h, variables=variables))
    assert len(trace.steps) >= 2
    for earlier, later in zip(trace.steps, trace.steps[1:]):
        bigger = Ideal(len(variables), later.I_gens)
        assert all(member(g, bigger) for g in earlier.I_gens)


REDUCED_BASIS_DOMAINS = [
    ("z^3", "z*w"),
    ("z*w",),
    ("w^2", "z^3*w"),
    ("z^2", "z*w", "w^2"),
    ("z^2", "w^3 + w*z^4"),
    ("z^2", "w^3 + w*z^7"),
    ("z^3", "w^4 + w*z^6"),
]


@pytest.mark.parametrize("h", REDUCED_BASIS_DOMAINS)
def test_steps_match_accumulated_rows(h):
    # reference: every raw generator's gradient accumulates as a row across
    # steps, and every row subset contributes its minor
    d = domain(*h)
    state = init_state(d)
    ref_rows = [g.gradient() for g in d.h]
    for _ in run(d).steps:
        if is_germ_unit(state.multipliers):
            break
        after, record = step(state)
        ref_rows += [g.gradient() for g in record.I_gens]
        minors = [det(list(rows)) for rows in itertools.combinations(ref_rows, 2)]
        J = after.multipliers
        assert J.generators == Ideal(2, record.I_gens + tuple(minors)).groebner()
        assert Ideal(2, J.generators).groebner() == J.generators
        assert after.rows.nrows <= len(h) + len(Ideal(2, record.I_gens).groebner())
        state = after


def _grevlex_kernel_calls(monkeypatch):
    """(generator count, input returned unchanged) for each grevlex kernel call."""
    calls = []
    raw = ideals._groebner_raw

    def recording(gens, order):
        basis = raw(gens, order)
        if order is ideals.GREVLEX:
            calls.append((len(gens), tuple(gens) == basis))
        return basis

    monkeypatch.setattr(ideals, "_groebner_raw", recording)
    return calls


@pytest.mark.parametrize("mode", ["full", "none"])
def test_each_minor_ideal_is_reduced_once(monkeypatch, mode):
    # a reduced basis handed back to the kernel comes back unchanged
    calls = _grevlex_kernel_calls(monkeypatch)
    domains = [domain(*h, variables=ZWV) for h, _, _ in THREE_VARIABLE_RUNS]
    for d in domains + [domain(*h) for h in REDUCED_BASIS_DOMAINS]:
        run(d, KohnOptions(radical_mode=mode))
    assert calls
    assert [n for n, unchanged in calls if n >= 2 and unchanged] == []


def test_north_star_makes_few_kernel_calls(monkeypatch):
    calls = _grevlex_kernel_calls(monkeypatch)
    assert run(domain("z^2", "w^3 + w*z^4", "v^2", variables=ZWV)).status == "unit_reached"
    assert len(calls) <= 10


@pytest.mark.parametrize(
    "h, variables",
    [(h, ZW) for h in REDUCED_BASIS_DOMAINS] + [(("z", "w", "v^2"), ("z", "w", "v"))],
)
def test_minor_ideals_are_sympy_reduced_bases(h, variables):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(variables)
    for record in run(domain(*h, variables=variables)).steps:
        mine = [to_sympy(sympy, g, variables) for g in record.J_gens]
        theirs = sympy.groebner([q.as_expr() for q in mine], *symbols, order="grevlex", domain=sympy.QQ)
        assert len(mine) == len(theirs.polys)
        assert set(mine) == set(theirs.polys)


@pytest.mark.parametrize("mode", ["full", "none"])
@pytest.mark.parametrize(
    "h", [("z^3", "z*w"), ("w^2", "z^3*w"), ("z^2 - z*w", "z*w - w^2"), ("z^2*w", "z*w^2")]
)
def test_germ_membership_matches_sympy_local_ring(h, mode):
    # every non-isolated stage met by the run, against sympy's local ring
    sympy = pytest.importorskip("sympy")
    ring = sympy.QQ.old_poly_ring(*sympy.symbols(ZW), order="igrevlex")
    trace = run(domain(*h), KohnOptions(radical_mode=mode))
    stages = []
    for record in trace.steps:
        for gens in (record.J_gens, record.I_gens):
            if gens not in stages:
                stages.append(gens)
    candidates = [Polynomial.monomial(m) for d in range(1, 4) for m in monomials_of_degree(2, d)]
    candidates += [g for gens in stages for g in gens]
    # a unit multiple of each stage has the same germ but fewer global members
    unit = parse("1 - w", ZW)
    checked = 0
    for gens in stages:
        if not gens or germ_colength(Ideal(2, gens)).m_primary:
            continue
        for stage in (gens, [unit * g for g in gens]):
            local = ring.ideal(*[to_sympy(sympy, g).as_expr() for g in stage])
            for f in candidates:
                expected = local.contains(to_sympy(sympy, f).as_expr())
                assert germ_member(f, Ideal(2, stage)) == expected, (stage, f)
                checked += 1
    assert checked


def test_stall_check_builds_no_basis_before_a_second_stage(monkeypatch):
    from submult import kohn

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return germ_member(*args, **kwargs)

    monkeypatch.setattr(kohn, "germ_member", counting)
    trace = run(domain("z^2", "z*w", "w^2"))
    assert trace.status == "unit_reached" and len(trace.steps) == 2
    assert calls == []
    trace = run(domain("z^3", "z*w"))
    assert trace.status == "stalled" and trace.steps[-1].I_gens
    assert len(calls) >= 1


def _corpus_kohn_domains():
    runners = {corpus._run_kohn_init, corpus._run_kohn_run, corpus._run_curve_annihilation}
    return [
        (tuple(c.payload["variables"]), c.payload["h"]) for c in corpus.CASES if c.run in runners
    ]


# Domain sets whose runs reach a stage with constant rows that span k^n: the
# kohn-3d benchmark panel with both probes (the north star and the capped
# domain first; two with unit coefficients as the benchmark draws them), the
# paper family, and the corpus's Kohn domains.
UNIT_SHORTCUT_SETS = {
    "kohn-3d panel": [
        (ZWV, h)
        for h in [
            ("z^2", "w^3 + w*z^4", "v^2"),
            ("z^3", "w^2", "v^2 + z*w"),
            ("z^2", "w^2", "v^2"),
            ("z", "w^2 + z*v", "v^2"),
            ("z", "w", "v^2"),
            ("z", "w", "v^3"),
            ("z^2", "w", "v"),
            ("z^3", "w", "v"),
            ("z", "w^2 + z*v", "v"),
            ("z", "w", "v^2 + z*w"),
            ("i*z", "-w", "-i*v^2"),
            ("-i*z", "i*w^2 - z*v", "-v"),
        ]
    ],
    "paper family": [
        (ZW, (f"z^{M}", f"w^{N} + w*z^{K}"))
        for M in (2, 3, 4)
        for N in (2, 3, 4)
        for K in range(1, 8)
    ],
    "corpus": _corpus_kohn_domains(),
}


@pytest.mark.parametrize("name", list(UNIT_SHORTCUT_SETS))
def test_unit_shortcut_gives_the_minor_ideal(monkeypatch, name):
    # every minor ideal equals stage + all maximal minors, shortcut or not
    minor_state = kohn._minor_state
    shortcuts = []

    def checking(h_rows, stage):
        state = minor_state(h_rows, stage)
        n = stage.ring_dim
        minors = minor_dets(state.rows) if state.rows.nrows >= n else []
        expected = Ideal(n, stage.groebner() + tuple(minors)).reduced()
        assert state.multipliers.generators == expected.generators, stage.generators
        shortcuts.append(kohn._spans_constants(state.rows.rows, n))
        return state

    monkeypatch.setattr(kohn, "_minor_state", checking)
    assert UNIT_SHORTCUT_SETS[name]
    for variables, h in UNIT_SHORTCUT_SETS[name]:
        run(domain(*h, variables=variables))
    assert any(shortcuts) and not all(shortcuts)


@pytest.mark.parametrize(
    "rows, spans",
    [
        (["1, 0, 0", "0, 1, 0", "0, 0, 1"], True),
        (["i, 0, 0", "1, 0, 0", "0, -1, 0"], False),  # the first two are dependent
        (["i, 0, 0", "1, 0, 0", "0, -1, 0", "0, 1, 2"], True),
        (["1, 1, 0", "0, 1, 1", "1, 0, -1"], False),  # the third is the first less the second
        (["1, 1, 0", "0, 1, 1", "1, 0, 1"], True),
        (["z, 0, 0", "0, 1, 0", "0, 0, 1"], False),  # a row that is not constant
        (["0, 1, 0", "0, 0, 1"], False),
    ],
)
def test_constant_rows_span_by_elimination(rows, spans):
    parsed = [tuple(parse(e, ZWV) for e in row.split(", ")) for row in rows]
    assert kohn._spans_constants(parsed, 3) is spans
    if len(rows) >= 3:  # the same answer as a nonzero constant maximal minor
        minors = minor_dets(PolyMatrix(tuple(parsed)))
        assert any(m.is_constant() and not m.is_zero() for m in minors) is spans


def test_unit_shortcut_takes_no_minors(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix.nrows)
        return minor_dets(matrix)

    monkeypatch.setattr(kohn, "minor_dets", counting)
    state = init_state(domain("z", "w", "v^2", variables=ZWV))
    assert calls == [3]  # dz, dw and dv^2: two constant rows do not span k^3
    while not is_germ_unit(state.multipliers):
        state, _ = step(state)
    assert calls == [3]  # the stage (v) adds the constant row dv


# -- finite type ----------------------------------------------------------------------


def test_finite_type_product_family():
    report = check_finite_type(domain("z^2", "w^3 + w*z^4"))
    assert report.verdict and report.radical_is_m
    assert report.colength == 6


def test_finite_type_fails_on_curve_domain():
    report = check_finite_type(domain("z^3", "z*w"))
    assert not report.verdict and not report.radical_is_m
    assert report.colength is None


def test_finite_type_point():
    report = check_finite_type(domain("z", "w"))
    assert report.verdict
    assert report.colength == 1


def test_finite_type_conditions_agree_when_uncapped():
    for h in [("z^2", "w^2"), ("z^3", "w^4 + w*z^5"), ("z", "w"), ("z^2", "z*w", "w^2")]:
        report = check_finite_type(domain(*h))
        assert report.verdict == report.radical_is_m == (report.colength is not None)


def test_finite_type_cross_check_runs_on_every_germ(monkeypatch):
    from submult import kohn

    # a germ oracle that misses an isolated origin is caught by the eliminants
    monkeypatch.setattr(kohn, "germ_colength", lambda ideal: GermReport(None, None))
    with pytest.raises(ConsistencyError):
        check_finite_type(domain("z^2", "w^3 + w*z^4"))


# -- curve annihilation ------------------------------------------------------------------


def test_curve_annihilation_requires_curve_in_zero_set():
    trace = run(domain("z^3", "z*w"))
    with pytest.raises(ValidationError):
        curve_annihilation_check(trace, curve("t", "0"))  # z^3 does not vanish


def test_curve_annihilation_rejects_constant_curve():
    trace = run(domain("z^3", "z*w"))
    with pytest.raises(ValidationError):
        curve_annihilation_check(trace, curve("0", "0"))


def test_curve_annihilation_rejects_offset_curve():
    trace = run(domain("z^3", "z*w"))
    with pytest.raises(ValidationError):
        curve_annihilation_check(trace, curve("0", "1 + t"))


def test_curve_annihilation_on_product_domain():
    trace = run(domain("z*w"))
    assert trace.status == "stalled"
    assert curve_annihilation_check(trace, curve("t", "0"))
    assert curve_annihilation_check(trace, curve("0", "t"))


def test_minor_budget_cap_is_named():
    from submult.errors import CapExceededError

    row = (parse("z", ZW), parse("w", ZW))
    rows = (row,) * 700  # comb(700, 2) exceeds the hard subset limit
    with pytest.raises(CapExceededError) as err:
        minor_dets(PolyMatrix(rows))
    assert err.value.cap == "row_cap"
