"""Command-line frontend.

Scalar inputs arrive as flags; polynomial and curve data arrive through a
single JSON config document: {variables: [...], h: [...], curve?: {...},
family?: {...}}.  Output is a JSON document (sorted keys,
byte-stable) or a plain-text rendering.  Exit codes: 0 success, 1 domain or
validation errors, 2 resource-cap exhaustion.  Each command imports the engine
modules it runs, so a request compiles no other layer.
"""

from __future__ import annotations

import json
import sys

import click

from .errors import CapExceededError, ConsistencyError, SubmultError, ValidationError
from .poly import Polynomial, parse

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CAP = 2


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    return doc


def _strings(doc: dict, key: str, where: str) -> tuple[str, ...]:
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValidationError(f"{where} key {key!r} must be a list of strings")
    return tuple(value)


def _document(config: dict, key: str) -> dict:
    doc = config.get(key)
    if not isinstance(doc, dict) or "components" not in doc:
        raise ValidationError(f"config must carry a {key} document with components")
    return doc


def _jobspec(config_path: str) -> tuple[dict, tuple[str, ...], tuple[Polynomial, ...]]:
    """The config document, its ring variables and its parsed defining polynomials.

    An 'options' key is rejected with the running command's flags named.
    """
    config = _load_config(config_path)
    if "options" in config:
        params = click.get_current_context().command.params
        named = ", ".join(p.opts[0] for p in params if p.name != "config_path") or "none"
        raise ValidationError(f"config key 'options' is not supported; command flags: {named}")
    variables = _strings(config, "variables", "config")
    if not variables:
        raise ValidationError("config must list the ring variables")
    if len(set(variables)) != len(variables) or not all(v.isidentifier() for v in variables):
        raise ValidationError("config variables must be distinct names")
    h = tuple(parse(s, variables) for s in _strings(config, "h", "config"))
    return config, variables, h


def _emit(ctx, doc) -> None:
    fmt = (ctx.obj or {}).get("format", "json")
    if fmt == "json":
        click.echo(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in _text_lines(doc, ""):
            click.echo(line)


def _text_lines(doc, indent: str):
    if isinstance(doc, dict):
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)):
                yield f"{indent}{key}:"
                yield from _text_lines(value, indent + "  ")
            else:
                yield f"{indent}{key}: {value}"
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                yield f"{indent}-"
                yield from _text_lines(value, indent + "  ")
            else:
                yield f"{indent}- {value}"
    else:
        yield f"{indent}{doc}"


class _MaxStepsOption(click.Option):
    """Defaults to kohn's step cap, read when a run or its help needs it."""

    def get_default(self, ctx, call=True):
        from .kohn import DEFAULT_MAX_STEPS

        return DEFAULT_MAX_STEPS


_config_option = click.option(
    "--config", "config_path", required=True, metavar="PATH", help="JSON config document"
)


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    help="output rendering",
)
@click.pass_context
def cli(ctx, fmt):
    """Exact multiplier-ideal runs, triangular ladders, and contact arithmetic."""
    ctx.obj = {"format": fmt}


# -- multipliers -------------------------------------------------------------


@cli.group()
def multipliers():
    """Multiplier-ideal iteration on special domains."""


@multipliers.command("run")
@_config_option
@click.option("--max-steps", cls=_MaxStepsOption, type=int, show_default=True)
@click.option(
    "--radical-mode",
    type=click.Choice(["full", "none"]),
    default="full",
    show_default=True,
)
@click.pass_context
def multipliers_run(ctx, config_path, max_steps, radical_mode):
    from . import kohn as _kohn

    config, variables, h = _jobspec(config_path)
    options = _kohn.KohnOptions(radical_mode=radical_mode, max_steps=max_steps)
    domain = _kohn.SpecialDomain(variables, h, config.get("label", ""))
    trace = _kohn.run(domain, options)
    _emit(ctx, trace.to_dict())
    if trace.status == "step_cap":
        ctx.exit(EXIT_CAP)


# -- triangular ----------------------------------------------------------------


@cli.group()
def triangular():
    """Certified multiplier ladders for triangular systems."""


@triangular.command("run")
@_config_option
@click.pass_context
def triangular_run(ctx, config_path):
    from . import triangular as _triangular

    _, variables, h = _jobspec(config_path)
    system = _triangular.validate(h, variables)
    trace = _triangular.run_effective(system)
    report = _triangular.certify(trace, system)
    # certify has compared the colength with the ladder length L
    colength_ok, detail = {name: (ok, d) for name, ok, d in report.checks}["colength"]
    if not colength_ok:
        raise ConsistencyError(detail)
    doc = trace.to_dict()
    doc["multiplicity"] = trace.L
    doc["certified"] = report.passed
    doc["failures"] = list(report.failures())
    _emit(ctx, doc)


# -- ideal --------------------------------------------------------------------


@cli.group()
def ideal():
    """Germ-at-origin ideal queries."""


@ideal.command("colength")
@_config_option
@click.pass_context
def ideal_colength(ctx, config_path):
    from .ideals import Ideal, germ_colength

    _, variables, h = _jobspec(config_path)
    _emit(ctx, germ_colength(Ideal(len(variables), h)).to_dict())


@ideal.command("member")
@_config_option
@click.option("--poly", "poly_text", required=True, help="polynomial to test")
@click.option("--germ", "germ_mode", is_flag=True, help="decide membership as germs")
@click.pass_context
def ideal_member(ctx, config_path, poly_text, germ_mode):
    from .ideals import Ideal, germ_colength, germ_member, member

    _, variables, h = _jobspec(config_path)
    ideal_obj = Ideal(len(variables), h)
    f = parse(poly_text, variables)
    if germ_mode:
        doc = {"member": germ_member(f, ideal_obj, germ_colength(ideal_obj)), "mode": "germ"}
    else:
        doc = {"member": member(f, ideal_obj), "mode": "global"}
    _emit(ctx, doc)


@ideal.command("root-order")
@_config_option
@click.option("--poly", "poly_text", required=True, help="polynomial to test")
@click.pass_context
def ideal_root_order(ctx, config_path, poly_text):
    from .ideals import Ideal, root_order

    _, variables, h = _jobspec(config_path)
    ideal_obj = Ideal(len(variables), h)
    _emit(ctx, {"root_order": root_order(parse(poly_text, variables), ideal_obj)})


# -- contact --------------------------------------------------------------------


@cli.group()
def contact():
    """Orders of contact for curves and curve families."""


@contact.command("curve")
@_config_option
@click.pass_context
def contact_curve_cmd(ctx, config_path):
    from . import contact as _contact

    config, variables, h = _jobspec(config_path)
    domain = _contact.AmbientDomain(variables, h)
    curve_doc = _document(config, "curve")
    components = [parse(s, ("zeta",)) for s in _strings(curve_doc, "components", "curve")]
    base = [parse(s, []).constant_term() for s in _strings(curve_doc, "base", "curve")]
    value = _contact.contact_curve(domain, components, base or None)
    _emit(ctx, {"contact": "infinite" if value is None else str(value)})


@contact.command("family")
@_config_option
@click.pass_context
def contact_family_cmd(ctx, config_path):
    from . import contact as _contact

    config, variables, h = _jobspec(config_path)
    domain = _contact.AmbientDomain(variables, h)
    family_doc = _document(config, "family")
    family = _contact.CurveFamily.from_config(family_doc["components"])
    doc = {}
    alpha = family_doc.get("alpha")
    if alpha is not None and not family.has_free_exponent:
        raise ValidationError("family key 'alpha' is not used: no t_exp depends on alpha")
    if family.has_free_exponent:
        if alpha is None:
            alpha = _contact.balance_exponent(domain, family)
        elif type(alpha) in (str, int):
            alpha = _contact.rational(alpha, "family key 'alpha'")
        else:
            raise ValidationError("family key 'alpha' must be a string or an integer")
        family = family.fix_exponent(alpha)
        doc["alpha"] = str(alpha)
    result = _contact.contact_family(domain, family)
    doc.update(result.to_dict())
    _emit(ctx, doc)


@contact.command("formula")
@click.option("--m1", type=int, required=True)
@click.option("--m2", type=int, required=True)
@click.option("--lambda", "lam", default=None, help="mixing parameter in (0, 1]")
@click.option("--limit-zero", is_flag=True, help="query the limiting value instead")
@click.pass_context
def contact_formula(ctx, m1, m2, lam, limit_zero):
    from . import contact as _contact

    if limit_zero == (lam is not None):
        raise ValidationError("give exactly one of --lambda or --limit-zero")
    if limit_zero:
        value = _contact.sharp_T_limit(m1, m2)
    else:
        value = _contact.sharp_T(m1, m2, _contact.rational(lam, "--lambda"))
    _emit(ctx, {"T": str(value), "epsilon_bound": str(_contact.epsilon_bound(value))})


@contact.command("bound")
@click.option("--base", "t_base", required=True, help="contact order at the base point")
@click.option("--nearby", "t_nearby", required=True, help="contact order nearby")
@click.option("--dim", type=int, required=True)
@click.pass_context
def contact_bound(ctx, t_base, t_nearby, dim):
    from . import contact as _contact

    base = _contact.rational(t_base, "--base")
    ok = _contact.type_bound_check(base, _contact.rational(t_nearby, "--nearby"), dim)
    _emit(ctx, {"ok": ok, "limit": str(_contact.type_bound_limit(base, dim))})


# -- reproduce --------------------------------------------------------------------


@cli.command("reproduce")
@click.option("--filter", "pattern", default=None, help="fnmatch pattern on case ids")
@click.pass_context
def reproduce(ctx, pattern):
    """Re-run the shipped corpus of worked examples and compare exactly."""
    from . import corpus as _corpus

    outcome = _corpus.reproduce(pattern)
    fmt = (ctx.obj or {}).get("format", "json")
    if fmt == "json":
        _emit(ctx, outcome)
    else:
        width = max(len(r["id"]) for r in outcome["cases"])
        for row in outcome["cases"]:
            status = "PASS" if row["pass"] else "FAIL"
            click.echo(
                f"{row['id']:<{width}}  {row['source']:<10}  {status}  "
                f"expected={row['expected']!r}  actual={row['actual']!r}"
            )
        click.echo(f"{'all pass' if outcome['all_pass'] else 'FAILURES PRESENT'}")
    if not outcome["all_pass"]:
        ctx.exit(EXIT_DOMAIN)


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False, prog_name="submult")
    except CapExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_CAP
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return EXIT_DOMAIN
    except (SubmultError, click.UsageError, click.ClickException, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DOMAIN
    return rv if isinstance(rv, int) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
