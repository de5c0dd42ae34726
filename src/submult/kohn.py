"""Multiplier-ideal iteration for special domains.

A special domain is cut out by Re(z_{n+1}) + sum |h_j(z)|^2 with the h_j
holomorphic and vanishing at the origin; after the standard reduction the
whole iteration happens in the n-variable ring.  Each step closes the
current minor ideal under the appropriate radical, then takes maximal minors
of the gradient rows of the h_j together with the gradients of the reduced
basis of the new stage.  Every minor ideal is carried as its reduced grevlex
basis.  The run terminates with a unit, a stall, or a step cap, and the
full step-by-step record is kept for serialization.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConsistencyError, ValidationError, checked
from .ideals import (
    Ideal,
    RadicalOutcome,
    germ_colength,
    germ_member,
    is_germ_unit,
    radical_step,
    root_order,
    variable_root_order,
)
from .poly import Polynomial, PolyMatrix, format_poly, minor_dets, parse

DEFAULT_MAX_STEPS = 16


@checked
class SpecialDomain(NamedTuple):
    """Reduced data of a domain Re(z_{n+1}) + sum |h_j|^2 near the origin."""

    variables: tuple[str, ...]
    h: tuple[Polynomial, ...]
    label: str = ""

    def _check(self):
        if not self.variables:
            raise ValidationError("domain needs at least one variable")
        if not self.h:
            raise ValidationError("domain needs at least one defining function")
        if not isinstance(self.label, str):
            raise ValidationError("domain label must be a string")
        for p in self.h:
            if p.ring_dim != len(self.variables):
                raise ValidationError("defining function lives in the wrong ring")
            if p.is_zero() or p.ord_vanish() < 1:
                raise ValidationError("defining functions must vanish at the origin")

    @property
    def n(self) -> int:
        return len(self.variables)

    @classmethod
    def from_strings(
        cls, h_strings, variables, label: str = ""
    ) -> "SpecialDomain":
        vs = tuple(variables)
        return cls(vs, tuple(parse(s, vs) for s in h_strings), label)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "variables": list(self.variables),
            "h": [format_poly(p, self.variables) for p in self.h],
        }


@checked
class KohnOptions(NamedTuple):
    radical_mode: str = "full"  # full | none
    max_steps: int = DEFAULT_MAX_STEPS

    def _check(self):
        if self.radical_mode not in ("full", "none"):
            raise ValidationError("radical_mode must be 'full' or 'none'")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be at least 1")


class KohnState(NamedTuple):
    """Allowable rows plus the current minor ideal and the stage it extends."""

    rows: PolyMatrix
    multipliers: Ideal
    h_rows: tuple[tuple[Polynomial, ...], ...]
    stage: Ideal


class KohnStepRecord(NamedTuple):
    J_gens: tuple[Polynomial, ...]
    radical_method: str
    root_orders: tuple[tuple[Polynomial, int], ...]
    I_gens: tuple[Polynomial, ...]

    def to_dict(self, variables) -> dict:
        return {
            "J_gens": [format_poly(g, variables) for g in self.J_gens],
            "radical_method": self.radical_method,
            "root_orders": {
                format_poly(g, variables): s for g, s in self.root_orders
            },
            "I_gens": [format_poly(g, variables) for g in self.I_gens],
        }


class KohnTrace(NamedTuple):
    domain: SpecialDomain
    steps: tuple[KohnStepRecord, ...]
    status: str  # unit_reached | stalled | step_cap

    @property
    def max_root_order(self) -> int:
        return max((s for r in self.steps for _, s in r.root_orders), default=0)

    def final_generators(self) -> tuple[Polynomial, ...]:
        return self.steps[-1].I_gens if self.steps else ()

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.to_dict(),
            "steps": [s.to_dict(self.domain.variables) for s in self.steps],
            "status": self.status,
            "max_root_order": self.max_root_order,
        }


def init_state(domain: SpecialDomain) -> KohnState:
    """Gradient rows of the h_j plus the ideal of their maximal minors."""
    return _minor_state(tuple(h.gradient() for h in domain.h), Ideal(domain.n, ()))


def _minor_state(h_rows: tuple[tuple[Polynomial, ...], ...], stage: Ideal) -> KohnState:
    """Rows from dh and dGB(stage), and stage + their maximal minors as a reduced basis.

    J_{k+1} = I_k + minors(dh, dGB(I_k)).  Minors are multilinear and
    d(a f) = a df + f da, so rows from any generating set of I_k, or from any
    earlier stage I_j <= I_k, give the same ideal modulo I_k; rows need not
    accumulate across steps.  Constant rows, the gradients of linear forms,
    that span k^n give a nonzero constant maximal minor, so J is the unit
    ideal without the other minors.
    """
    n = stage.ring_dim
    basis = stage.groebner()
    rows = list(h_rows)
    for g in basis:
        grad = g.gradient()
        if any(not p.is_zero() for p in grad) and grad not in rows:
            rows.append(grad)
    matrix = PolyMatrix(tuple(rows))
    if _spans_constants(rows, n):
        J = Ideal(n, (Polynomial.constant(n, 1),))
    else:
        minors = minor_dets(matrix) if matrix.nrows >= n else []
        J = Ideal(n, basis + tuple(minors)).reduced()
    return KohnState(matrix, J, h_rows, stage)


def _spans_constants(rows: list[tuple[Polynomial, ...]], n: int) -> bool:
    """Do the constant rows span k^n?  Gaussian elimination, column by column."""
    vectors = [
        [p.constant_term() for p in row] for row in rows if all(p.is_constant() for p in row)
    ]
    for col in range(n):
        i = next((i for i, v in enumerate(vectors) if v[col]), None)
        if i is None:  # the columns up to col have rank at most col
            return False
        pivot = vectors.pop(i)
        for v in vectors:  # clear column col from the rest; earlier columns are not read again
            if v[col]:
                scale = v[col] / pivot[col]
                for j in range(col + 1, n):
                    if pivot[j]:
                        v[j] = v[j] - scale * pivot[j]
    return True


def step(state: KohnState, options: KohnOptions = KohnOptions()) -> tuple[KohnState, KohnStepRecord]:
    """One iteration: radical of the minor ideal, then the next minor ideal."""
    J = state.multipliers
    n = J.ring_dim
    if options.radical_mode == "none":
        outcome = RadicalOutcome(J.generators, "none", ())
    else:
        outcome = radical_step(J)
    # a germ unit J, say (z + 1/2), is the unit stage: radical_step's unit
    # branch gives (1,), and the none-mode pass-through is read as (1,)
    if outcome.unit:
        stage = Ideal(n, (Polynomial.constant(n, 1),))
    elif outcome.method == "none":  # the radical passed J through
        stage = J
    else:
        stage = Ideal(n, outcome.generators)
    record = KohnStepRecord(J.generators, outcome.method, outcome.root_orders, stage.generators)
    if outcome.unit:
        return KohnState(state.rows, stage, state.h_rows, stage), record
    return _minor_state(state.h_rows, stage), record


def run(domain: SpecialDomain, options: KohnOptions = KohnOptions()) -> KohnTrace:
    """Iterate until a unit is reached, the ideal stops growing, or the cap."""
    state = init_state(domain)
    steps: list[KohnStepRecord] = []
    status = "step_cap"
    for _ in range(options.max_steps):
        prev = state.stage
        state, record = step(state, options)
        steps.append(record)
        if is_germ_unit(state.stage):
            status = "unit_reached"
            break
        # Stall test.  I_{k-1} <= J_k because the minors keep the previous
        # stage, and J_k <= I_k in every radical branch (sqfree(p) divides p,
        # a non-unit J lies in m, partial and none keep J's generators), so
        # the stages only grow, and the germ ideal stops growing exactly when
        # I_k lies in the germ of I_{k-1}.
        if len(steps) > 1 and all(germ_member(g, prev) for g in record.I_gens):
            status = "stalled"
            break
    return KohnTrace(domain, tuple(steps), status)


class FiniteTypeReport(NamedTuple):
    """Agreement of the three algebraic finite-type conditions.

    ``colength`` is the germ colength, None when it is infinite; ``to_dict``
    renders that as "infinite".
    """

    colength: int | None
    stabilization_degree: int | None
    radical_is_m: bool

    @property
    def verdict(self) -> bool:
        return self.radical_is_m

    def to_dict(self) -> dict:
        return {
            "colength": "infinite" if self.colength is None else self.colength,
            "stabilization_degree": self.stabilization_degree,
            "radical_is_m": self.radical_is_m,
            "verdict": self.verdict,
        }


def check_finite_type(domain: SpecialDomain) -> FiniteTypeReport:
    """Check finite colength, radical equal to m, and point variety together.

    An m-primary germ decides the radical by germ root orders, and any other
    by the global ones, which the eliminants give exactly; either way the
    conditions must agree.
    """
    ideal = Ideal(domain.n, domain.h)
    report = germ_colength(ideal)
    if report.m_primary:
        variables = [Polynomial.variable(domain.n, i) for i in range(domain.n)]
        orders = [root_order(v, ideal) for v in variables]
    else:
        orders = [variable_root_order(ideal, i) for i in range(domain.n)]
    radical_is_m = all(s is not None for s in orders)
    if radical_is_m != report.m_primary:
        raise ConsistencyError("finite-type conditions disagree")
    return FiniteTypeReport(
        colength=report.colength,
        stabilization_degree=report.stabilization_degree,
        radical_is_m=radical_is_m,
    )


def curve_annihilation_check(trace: KohnTrace, curve) -> bool:
    """Does every generator of the stabilized ideal vanish along the curve?

    The curve is an n-tuple of one-variable polynomials through the origin;
    it must lie inside the common zero set of the defining functions.
    """
    domain = trace.domain
    curve = tuple(curve)
    if len(curve) != domain.n:
        raise ValidationError("curve must have one component per variable")
    for c in curve:
        if c.ring_dim != 1:
            raise ValidationError("curve components must be univariate")
        if c.constant_term():
            raise ValidationError("curve must pass through the origin")
    if all(c.is_constant() for c in curve):
        raise ValidationError("curve must be nonconstant")
    for h in domain.h:
        if not h.compose(curve).is_zero():
            raise ValidationError("curve does not lie inside the zero set")
    return all(g.compose(curve).is_zero() for g in trace.final_generators())
