"""Seeded inputs, item runners and answer checks for the three workloads.

A run repeats rounds; every round has the same make-up, so its cost does not
depend on the seed, and the seed varies the inputs inside that make-up:
unit coefficients (1, -1, i, -i) and item order for the fixed panels,
parameters for the CLI requests.  Inputs are built here as strings and term tables; the program
under test only ever receives those.  See NOTES.md for why each workload and
panel was chosen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
VARS3 = ("z", "w", "v")


class Deadline(BaseException):
    """Raised by the alarm when an item overruns its wall-clock deadline.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


class WrongAnswer(Exception):
    pass


class Capped(Exception):
    """The program returned a capped result instead of an answer."""


@dataclass
class Item:
    label: str
    kind: str
    data: object
    deadline: float
    meta: dict
    # A probe is an input that did not finish at the seed commit.  It runs
    # once per run, after the rounds, under a tight deadline; it counts in
    # fail_ratio while it fails, and is left out of wall_s and item_p50_s
    # whether it finishes or not, so that those cover the same work before
    # and after a fix.
    probe: bool = False


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- polynomial strings ---------------------------------------------------------


def _coeff_str(re: int, im: int) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}*i")
    return f"({re} + {im}*i)" if im > 0 else f"({re} - {-im}*i)"


def _mono_str(mono, names) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
    return "*".join(parts)


def terms_str(terms: dict, names) -> str:
    """Render {exponents: (re, im)} with Gaussian-integer coefficients."""
    pieces = []
    for mono, (re, im) in sorted(terms.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
        mono_s = _mono_str(mono, names)
        if not mono_s:
            pieces.append(_coeff_str(re, im))
        elif (re, im) == (1, 0):
            pieces.append(mono_s)
        elif im == 0 and re > 0 or re and im:
            pieces.append(f"{_coeff_str(re, im)}*{mono_s}")
        else:
            pieces.append(f"({_coeff_str(re, im)})*{mono_s}")
    return " + ".join(pieces) if pieces else "0"


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _unit_pow(u, e):
    out = (1, 0)
    for _ in range(e % 4):
        out = _gmul(out, u)
    return out


def scale_system(h_terms, lam):
    """Substitute z_j -> lam_j z_j and renormalize each pure power z_i^m_i.

    With units lam_j this is a diagonal change of coordinates: root orders
    and colengths are unchanged, and the work done nearly so (seeds 1 and 5
    differ in 30 of 6964 normal_form calls on triangular-certify).
    """
    out = []
    for i, terms in enumerate(h_terms):
        pure = next(m for m in terms if sum(m) == m[i] > 0)
        inv = _unit_pow((lam[i][0], -lam[i][1]), pure[i])
        scaled = {}
        for mono, c in terms.items():
            factor = inv
            for j, e in enumerate(mono):
                factor = _gmul(factor, _unit_pow(lam[j], e))
            scaled[mono] = _gmul(c, factor)
        out.append(scaled)
    return out


# -- kohn-3d ----------------------------------------------------------------------

# Finite-type 3-variable domains from three families:
# z^a, w^b, v^c;  z^a, w^b + w*z^k, v^c;  z^a, w^b + z*v, v^c.
# Each h_j is a list of terms; the seed multiplies every term by a unit.
NORTH_STAR = "z^2, w^3 + w*z^4, v^2"
CAPPED = "z^3, w^2, v^2 + z*w"
KOHN_HEAVY = (
    (NORTH_STAR, (("z^2",), ("w^3", "w*z^4"), ("v^2",))),
    (CAPPED, (("z^3",), ("w^2",), ("v^2", "z*w"))),
    ("z^2, w^2, v^2", (("z^2",), ("w^2",), ("v^2",))),
    ("z, w^2 + z*v, v^2", (("z",), ("w^2", "z*v"), ("v^2",))),
)
KOHN_LIGHT = (
    ("z, w, v^2", (("z",), ("w",), ("v^2",))),
    ("z, w, v^3", (("z",), ("w",), ("v^3",))),
    ("z^2, w, v", (("z^2",), ("w",), ("v",))),
    ("z^3, w, v", (("z^3",), ("w",), ("v",))),
    ("z, w^2 + z*v, v", (("z",), ("w^2", "z*v"), ("v",))),
    ("z, w, v^2 + z*w", (("z",), ("w",), ("v^2", "z*w"))),
)
# The light domains cost about the same, and each comes four times per round:
# the median item then sits near the middle of 24 samples spread over the
# run, not at the top of a handful.
KOHN_PANEL = KOHN_HEAVY + KOHN_LIGHT * 4
# Probes and their deadlines.  The north-star domain gets the headline time
# budget: 20 s, above the ~16 s measured for it with Kohn rows taken from
# reduced bases, so that change would show here as a finished item.  CAPPED
# raised CapExceededError (447,415 row subsets) after 13 s at the seed
# commit; 5 s keeps the run short and still fails it.  Every other item has
# a safety deadline far above its cost at the seed commit.
KOHN_PROBES = {NORTH_STAR: 20.0, CAPPED: 5.0}
KOHN_DEADLINE = 60.0


def _unit_term(rng, term: str) -> str:
    re, im = rng.choice(UNITS)
    return term if (re, im) == (1, 0) else f"({_coeff_str(re, im)})*{term}"


def kohn_round(rng, ctx, round_index: int) -> list[Item]:
    from submult import kohn

    items = []
    for label, h in KOHN_PANEL:
        strings = [" + ".join(_unit_term(rng, t) for t in terms) for terms in h]
        domain = kohn.SpecialDomain.from_strings(strings, VARS3, label)
        deadline = KOHN_PROBES.get(label, KOHN_DEADLINE)
        items.append(Item(label, "kohn", domain, deadline, {}, probe=label in KOHN_PROBES))
    rng.shuffle(items)
    return items


def kohn_run(item: Item, ctx):
    from submult import kohn

    return kohn.run(item.data)


def _summary(steps, max_root_order) -> dict:
    """Fields that depend on the ideals only: methods and root-order values.

    ``steps`` holds (radical method, root-order values) pairs.  Partial
    steps keep only their method: their candidates come from the generators.
    """
    return {
        "steps": [
            [method, None if method == "partial"
             else sorted(-1 if s is None else s for s in orders)]
            for method, orders in steps
        ],
        "max_root_order": max_root_order,
    }


def kohn_golden_entry(trace) -> dict:
    steps = [(s.radical_method, [v for _, v in s.root_orders]) for s in trace.steps]
    return _summary(steps, trace.max_root_order)


def _check_unit_trace(trace, golden: dict | None) -> None:
    if trace.status != "unit_reached":
        raise Capped(f"status {trace.status} on a finite-type domain")
    last = trace.final_generators()
    if len(last) != 1 or not last[0].is_constant() or not last[0].constant_term():
        raise WrongAnswer("final ideal is not the unit ideal")
    if golden is not None and kohn_golden_entry(trace) != golden:
        raise WrongAnswer(f"{kohn_golden_entry(trace)} differs from the seed commit's {golden}")


def kohn_check(item: Item, trace, ctx) -> None:
    _check_unit_trace(trace, ctx.golden["kohn"].get(item.label))


# -- triangular-certify -------------------------------------------------------------

# A round is a fixed sample of triangular.random_system's distribution at
# its defaults: n is uniform in 1..3 and each exponent in 1..3, so one
# exponent stratum of n variables has probability 3^-(n+1), in the ratio
# 9:3:1 for n = 1, 2, 3.  Every stratum gets that many draws, with tails from
# random_system's distribution drawn once from a fixed seed: a run's cost
# must not depend on --seed, and fresh tails per seed moved the median item
# by a third.  81 draws, of which three ran past 1.2 s at the seed commit
# (random_system's own draws: 3.1%).
STRATUM_DRAWS = {1: 9, 2: 3, 3: 1}
PANEL_SEED = "triangular-certify panel"
# The draws of the panel that ran past 5 s at the seed commit, the
# Groebner cliffs: 10.8 s and 66 s.
TRIANGULAR_PROBES = ("stratum (3, 3, 1) draw 0", "stratum (3, 3, 2) draw 0")
TRIANGULAR_PROBE_DEADLINE = 2.5
TRIANGULAR_DEADLINE = 20.0


def _random_tail(rng, n: int, top: int) -> dict:
    # the distribution of triangular._random_tail at tail_degree 3
    out: dict = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * n
        for _ in range(rng.randint(0, 3)):
            mono[rng.randint(0, top)] += 1
        re = rng.randint(-3, 3)
        im = rng.randint(-1, 1) if rng.random() < 0.25 else 0
        if re or im:
            key = tuple(mono)
            c = out.get(key, (0, 0))
            out[key] = (c[0] + re, c[1] + im)
    return out


def random_triangular(rng, exponents) -> list[dict]:
    """h_i = z_i^m_i + sum_{j<i} z_j * tail, as in triangular.random_system."""
    n = len(exponents)
    system = []
    for i, m in enumerate(exponents):
        terms = {tuple(m if k == i else 0 for k in range(n)): (1, 0)}
        for j in range(i):
            for mono, (re, im) in _random_tail(rng, n, i).items():
                key = tuple(e + (k == j) for k, e in enumerate(mono))
                c = terms.get(key, (0, 0))
                terms[key] = (c[0] + re, c[1] + im)
        system.append({k: c for k, c in terms.items() if c != (0, 0)})
    return system


def _panel():
    rng = random.Random(PANEL_SEED)
    panel = []
    for n, draws in STRATUM_DRAWS.items():
        for exponents in itertools.product((1, 2, 3), repeat=n):
            for k in range(draws):
                system = random_triangular(rng, exponents)
                panel.append((f"stratum {exponents} draw {k}", exponents, system))
    return tuple(panel)


PANEL = _panel()


def triangular_round(rng, ctx, round_index: int) -> list[Item]:
    from submult import parse, triangular

    items = []
    for label, exponents, h in PANEL:
        h = scale_system(h, [rng.choice(UNITS) for _ in h])
        names = VARS3[: len(h)]
        strings = [terms_str(t, names) for t in h]
        system = triangular.validate([parse(s, names) for s in strings], names)
        probe = label in TRIANGULAR_PROBES
        deadline = TRIANGULAR_PROBE_DEADLINE if probe else TRIANGULAR_DEADLINE
        items.append(Item(label, "triangular", system, deadline,
                          {"exponents": exponents}, probe=probe))
    rng.shuffle(items)
    return items


def triangular_run(item: Item, ctx):
    from submult import triangular

    trace = triangular.run_effective(item.data)
    return trace, triangular.certify(trace, item.data)


def _check_ladder(L, min_powers, exponents, n) -> None:
    expected = math.prod(exponents)
    if L != expected or len(min_powers) != expected:
        raise WrongAnswer(f"ladder length {L} ({len(min_powers)} pairs), product {expected}")
    if any(not 1 <= e <= n for e in min_powers):
        raise WrongAnswer(f"minimal powers {min_powers} exceed n = {n}")


def triangular_check(item: Item, result, ctx) -> None:
    trace, report = result
    if not report.passed:
        raise WrongAnswer("certify failed: " + "; ".join(report.failures()))
    exps = item.meta["exponents"]
    _check_ladder(trace.L, [p.min_power for p in trace.pairs], exps, len(exps))


# -- cli-paper ------------------------------------------------------------------------

CLI_DEADLINE = 20.0
# The paper's family z^M, w^N + w*z^K over this grid; golden.json holds the
# seed commit's answers for every point.
PAPER_M = (2, 3, 4)
PAPER_N = (2, 3, 4)
PAPER_K = tuple(range(1, 8))


def sharp_T(m1: int, m2: int, lam: Fraction) -> Fraction:
    """The paper's closed form for the tuned two-exponent family."""
    return 2 * m1 + Fraction(2 * (1 - lam) * m1 * (m2 - 1), (m2 - 1) * lam + 1)


def _paper_config(rng, M, N, K) -> dict:
    return {
        "variables": ["z", "w"],
        "h": [f"z^{M}", f"w^{N} + {_unit_term(rng, f'w*z^{K}')}"],
        "label": f"paper M={M} N={N} K={K}",
    }


def _family_config(m1, m2, p, q) -> dict:
    coeff = ("1", "-i", "-1", "i")[p % 4]  # i^(-p)
    return {
        "variables": ["z1", "z2", "z3"],
        "h": [f"z1^{m1} - z3^{p}*z2", f"z2^{m2}", f"z2*z3^{q}"],
        "family": {
            "components": [
                [{"coeff": "1", "zeta_exp": 1, "t_exp": 0}],
                [{"coeff": coeff, "zeta_exp": m1, "t_exp": f"-{p}*alpha"}],
                [{"coeff": "i", "zeta_exp": 0, "t_exp": "alpha"}],
            ]
        },
    }


def cli_round(rng, ctx, round_index: int) -> list[Item]:
    """Twelve requests a user of the paper would run, in a seeded order."""
    specs = []
    for _ in range(2):
        M, N, K = rng.choice(PAPER_M), rng.choice(PAPER_N), rng.choice(PAPER_K)
        specs.append(("multipliers", ["multipliers", "run"], _paper_config(rng, M, N, K),
                      {"MNK": (M, N, K)}))
    for _ in range(2):
        M, N, K = rng.choice(PAPER_M), rng.choice(PAPER_N), rng.choice(PAPER_K)
        specs.append(("colength", ["ideal", "colength"], _paper_config(rng, M, N, K),
                      {"MNK": (M, N, K)}))
    for var in ("z", "w"):
        M, N, K = rng.choice(PAPER_M), rng.choice(PAPER_N), rng.choice(PAPER_K)
        specs.append(("root-order", ["ideal", "root-order", "--poly", var],
                      _paper_config(rng, M, N, K), {"MNK": (M, N, K), "var": var}))
    for _ in range(2):
        m1, m2 = rng.randint(2, 5), rng.randint(2, 5)
        q = rng.randint(1, 4)
        p = rng.randint(1, q)
        specs.append(("family", ["contact", "family"], _family_config(m1, m2, p, q),
                      {"m1": m1, "m2": m2, "lam": f"{p}/{q}"}))
    m1, m2 = rng.randint(2, 6), rng.randint(2, 6)
    if rng.random() < 0.25:
        specs.append(("formula", ["contact", "formula", "--m1", str(m1), "--m2", str(m2),
                                  "--limit-zero"], None, {"m1": m1, "m2": m2, "lam": None}))
    else:
        q = rng.randint(1, 5)
        lam = f"{rng.randint(1, q)}/{q}"
        specs.append(("formula", ["contact", "formula", "--m1", str(m1), "--m2", str(m2),
                                  "--lambda", lam], None, {"m1": m1, "m2": m2, "lam": lam}))
    base = Fraction(rng.randint(2, 12), rng.randint(1, 3))
    nearby = Fraction(rng.randint(1, 60), rng.randint(1, 3))
    dim = rng.randint(2, 4)
    specs.append(("bound", ["contact", "bound", "--base", str(base), "--nearby", str(nearby),
                            "--dim", str(dim)], None,
                  {"base": str(base), "nearby": str(nearby), "dim": dim}))
    for _ in range(2):
        exps = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
        h = random_triangular(rng, exps)
        names = ("z", "w")[: len(exps)]
        specs.append(("triangular", ["triangular", "run"],
                      {"variables": list(names), "h": [terms_str(t, names) for t in h]},
                      {"exponents": exps}))
    items = []
    for k, (kind, argv, config, meta) in enumerate(specs):
        label = " ".join(argv)
        if config is not None:
            path = os.path.join(ctx.workdir, f"round{round_index}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            label += " on " + ", ".join(config["h"])
            argv = argv[:2] + ["--config", path] + argv[2:]
        items.append(Item(label, kind, argv, CLI_DEADLINE, meta))
    rng.shuffle(items)
    return items


def cli_run(item: Item, ctx):
    """One request: a fresh interpreter, or cli.main in-process when traced."""
    if ctx.in_process:
        from submult import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(item.data))
        return code, out.getvalue(), err.getvalue()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "submult.cli", *item.data],
            capture_output=True, text=True, timeout=item.deadline,
        )
    except subprocess.TimeoutExpired as exc:
        raise Deadline() from exc
    return proc.returncode, proc.stdout, proc.stderr


def cli_check(item: Item, result, ctx) -> None:
    code, out, err = result
    if code == 2:
        raise Capped(f"exit code 2: {err.strip()[-200:]}")
    if code != 0:
        raise WrongAnswer(f"exit code {code}: {err.strip()[-200:]}")
    doc = json.loads(out)
    meta = item.meta
    kind = item.kind
    if kind in ("multipliers", "colength", "root-order"):
        M, N, K = meta["MNK"]
        golden = ctx.golden["paper_family"][f"{M},{N},{K}"]
    if kind == "multipliers":
        if doc["status"] != "unit_reached":
            raise Capped(f"status {doc['status']} on a finite-type domain")
        if doc["steps"][-1]["I_gens"] != ["1"]:
            raise WrongAnswer(f"final ideal {doc['steps'][-1]['I_gens']} is not the unit ideal")
        steps = [(s["radical_method"], s["root_orders"].values()) for s in doc["steps"]]
        got = _summary(steps, doc["max_root_order"])
        if got != golden["kohn"]:
            raise WrongAnswer(f"{got} differs from the seed commit's {golden['kohn']}")
    elif kind == "colength":
        if (doc["colength"], doc["m_primary"], doc["capped"]) != (M * N, True, False):
            raise WrongAnswer(f"colength report {doc}, expected colength {M * N}")
    elif kind == "root-order":
        want = M if meta["var"] == "z" else golden["root_order_w"]
        if doc != {"root_order": want}:
            raise WrongAnswer(f"{doc}, expected root order {want}")
    elif kind == "family":
        T = sharp_T(meta["m1"], meta["m2"], Fraction(meta["lam"]))
        if Fraction(doc["eta"]) != T or Fraction(doc["epsilon_bound"]) != 1 / T:
            raise WrongAnswer(f"eta {doc['eta']}, closed form {T}")
    elif kind == "formula":
        m1, m2 = meta["m1"], meta["m2"]
        T = 2 * m1 * m2 if meta["lam"] is None else sharp_T(m1, m2, Fraction(meta["lam"]))
        if Fraction(doc["T"]) != T or Fraction(doc["epsilon_bound"]) != 1 / Fraction(T):
            raise WrongAnswer(f"T {doc['T']}, closed form {T}")
    elif kind == "bound":
        base, nearby, dim = Fraction(meta["base"]), Fraction(meta["nearby"]), meta["dim"]
        limit = base ** (dim - 1) / Fraction(2) ** (dim - 2)
        if doc != {"ok": nearby <= limit, "limit": str(limit)}:
            raise WrongAnswer(f"{doc}, expected limit {limit}")
    elif kind == "triangular":
        exps = meta["exponents"]
        if not doc["certified"] or doc["failures"] or doc["multiplicity"] != math.prod(exps):
            raise WrongAnswer(f"certified {doc['certified']}, failures {doc['failures']}")
        _check_ladder(doc["L"], [c["min_power"] for c in doc["certificates"]], exps, len(exps))


# -- sympy cross-check ----------------------------------------------------------------


def sympy_agrees(polys, names) -> bool:
    """Compare the engine's reduced grevlex basis with sympy's over QQ_I."""
    import sympy
    from submult import Ideal

    gens = sympy.symbols(names)

    def to_sympy(p):
        out = sympy.Integer(0)
        for mono, c in p.terms.items():
            term = sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
                c.im.numerator, c.im.denominator
            )
            for g, e in zip(gens, mono):
                term *= g**e
            out += term
        return out

    def canon(exprs):
        return {
            frozenset((m, str(c)) for m, c in sympy.Poly(e, *gens, domain=sympy.QQ_I).monic().terms())
            for e in exprs
        }

    mine = Ideal(len(names), polys).groebner()
    theirs = sympy.groebner([to_sympy(p) for p in polys], *gens, order="grevlex",
                            domain=sympy.QQ_I)
    return canon(to_sympy(g) for g in mine) == canon(theirs.exprs)


def cross_check_sample(workload: str, items: list[Item]) -> list[tuple]:
    """(label, polynomials, variable names) for a small seeded sample."""
    if workload == "kohn-3d":
        from submult import kohn

        pick = [it for it in items if not it.probe][:1]
        return [(it.label, kohn.init_state(it.data).multipliers.generators, VARS3)
                for it in pick]
    if workload == "triangular-certify":
        pick = [it for it in items if it.data.n >= 2 and not it.probe][:2]
        return [(it.label, it.data.h, it.data.variables) for it in pick]
    from submult import parse

    out = []
    for it in items:
        if it.kind == "colength":
            with open(it.data[it.data.index("--config") + 1], encoding="utf-8") as fh:
                cfg = json.load(fh)
            out.append((it.label, [parse(s, cfg["variables"]) for s in cfg["h"]],
                        tuple(cfg["variables"])))
    return out[:2]


@dataclass
class Workload:
    name: str
    make_round: object
    run: object
    check: object


WORKLOADS = {
    "kohn-3d": Workload("kohn-3d", kohn_round, kohn_run, kohn_check),
    "triangular-certify": Workload(
        "triangular-certify", triangular_round, triangular_run, triangular_check
    ),
    "cli-paper": Workload("cli-paper", cli_round, cli_run, cli_check),
}


def round_rng(seed: int, round_index: int) -> random.Random:
    return random.Random(f"{seed}/{round_index}")
