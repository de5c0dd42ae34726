"""Command-line frontend.

Scalar inputs arrive as flags; polynomial and curve data arrive through a
single JSON config document: {variables: [...], h: [...], curve?: {...},
family?: {...}}.  Output is a JSON document (sorted keys,
byte-stable) or a plain-text rendering.  Exit codes: 0 success, 1 usage, domain
or validation errors, 2 resource-cap exhaustion.  Each command imports the
engine modules it runs, so a request compiles no other layer.  No request
imports ``inspect``, nor the standard data-class module that would load it:
the engine's records are NamedTuples.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceededError, ConsistencyError, ParseError, SubmultError, ValidationError
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


def _parse(text: str, variables, where: str) -> Polynomial:
    """parse(text, variables), with a ParseError's message naming where the text came from."""
    try:
        return parse(text, variables)
    except ParseError as exc:
        exc.args = (f"{exc} in {where}",)
        raise


def _polys(doc: dict, key: str, where: str, variables) -> list[Polynomial]:
    """Each string listed under doc[key], parsed; an error names its 1-based entry."""
    texts = _strings(doc, key, where)
    return [_parse(s, variables, f"{where} key {key!r} entry {k}") for k, s in enumerate(texts, 1)]


def _document(config: dict, key: str) -> dict:
    doc = config.get(key)
    if not isinstance(doc, dict) or "components" not in doc:
        raise ValidationError(f"config must carry a {key} document with components")
    return doc


def _jobspec(args) -> tuple[dict, tuple[str, ...], tuple[Polynomial, ...]]:
    """The config document, its ring variables and its parsed defining polynomials; an
    'options' key is rejected with the running command's flags named."""
    config = _load_config(args.config)
    if "options" in config:
        named = ", ".join(args.flags) or "none"
        raise ValidationError(f"config key 'options' is not supported; command flags: {named}")
    variables = _strings(config, "variables", "config")
    if not variables:
        raise ValidationError("config must list the ring variables")
    if len(set(variables)) != len(variables) or not all(v.isidentifier() for v in variables):
        raise ValidationError("config variables must be distinct names")
    return config, variables, tuple(_polys(config, "h", "config", variables))


def _emit(args, doc) -> None:
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in _text_lines(doc, ""):
            print(line)


def _text_lines(doc, indent: str):
    if isinstance(doc, dict):
        pairs = [(f"{key}:", doc[key]) for key in sorted(doc)]
    else:
        pairs = [("-", value) for value in doc]
    for label, value in pairs:
        if isinstance(value, (dict, list)):
            yield f"{indent}{label}"
            yield from _text_lines(value, indent + "  ")
        else:
            yield f"{indent}{label} {value}"


# -- commands -----------------------------------------------------------------------
# Each command registers its path and options, (flag, add_argument keywords) pairs.

_COMMANDS: dict = {}
_GROUPS = {
    "multipliers": "Multiplier-ideal iteration on special domains.",
    "triangular": "Certified multiplier ladders for triangular systems.",
    "ideal": "Germ-at-origin ideal queries.",
    "contact": "Orders of contact for curves and curve families.",
}
_CONFIG = ("--config", dict(required=True, metavar="PATH", help="JSON config document"))
_POLY = ("--poly", dict(required=True, help="polynomial to test"))


def _command(path: str, *options):
    """Registers the decorated function as the command at this path."""
    return lambda run: _COMMANDS.setdefault(path, (run, options))[0]


def _kohn_max_steps() -> int:
    """Kohn's step cap, read when a run or its help needs it."""
    from .kohn import DEFAULT_MAX_STEPS

    return DEFAULT_MAX_STEPS


@_command(
    "multipliers run",
    _CONFIG,
    ("--max-steps", dict(type=int, default=_kohn_max_steps, help="steps before a step cap")),
    ("--radical-mode", dict(choices=("full", "none"), default="full", help="stage radicals")),
)
def multipliers_run(args):
    from . import kohn as _kohn

    config, variables, h = _jobspec(args)
    max_steps = args.max_steps() if callable(args.max_steps) else args.max_steps
    options = _kohn.KohnOptions(radical_mode=args.radical_mode, max_steps=max_steps)
    trace = _kohn.run(_kohn.SpecialDomain(variables, h, config.get("label", "")), options)
    _emit(args, trace.to_dict())
    return EXIT_CAP if trace.status == "step_cap" else EXIT_OK


@_command("triangular run", _CONFIG)
def triangular_run(args):
    from . import triangular as _triangular

    _, variables, h = _jobspec(args)
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
    _emit(args, doc)


@_command("ideal colength", _CONFIG)
def ideal_colength(args):
    from .ideals import Ideal, germ_colength

    _, variables, h = _jobspec(args)
    _emit(args, germ_colength(Ideal(len(variables), h)).to_dict())


@_command(
    "ideal member", _CONFIG, _POLY, ("--germ", dict(action="store_true", help="decide as germs"))
)
def ideal_member(args):
    from .ideals import Ideal, germ_colength, germ_member, member

    _, variables, h = _jobspec(args)
    ideal_obj = Ideal(len(variables), h)
    f = _parse(args.poly, variables, "--poly")
    if args.germ:
        doc = {"member": germ_member(f, ideal_obj, germ_colength(ideal_obj)), "mode": "germ"}
    else:
        doc = {"member": member(f, ideal_obj), "mode": "global"}
    _emit(args, doc)


@_command("ideal root-order", _CONFIG, _POLY)
def ideal_root_order(args):
    from .ideals import Ideal, root_order

    _, variables, h = _jobspec(args)
    ideal_obj = Ideal(len(variables), h)
    _emit(args, {"root_order": root_order(_parse(args.poly, variables, "--poly"), ideal_obj)})


@_command("contact curve", _CONFIG)
def contact_curve_cmd(args):
    from . import contact as _contact

    config, variables, h = _jobspec(args)
    domain = _contact.AmbientDomain(variables, h)
    curve_doc = _document(config, "curve")
    components = _polys(curve_doc, "components", "curve", ("zeta",))
    base = [p.constant_term() for p in _polys(curve_doc, "base", "curve", ())]
    value = _contact.contact_curve(domain, components, base or None)
    _emit(args, {"contact": "infinite" if value is None else str(value)})


@_command("contact family", _CONFIG)
def contact_family_cmd(args):
    from . import contact as _contact

    config, variables, h = _jobspec(args)
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
    doc.update(_contact.contact_family(domain, family).to_dict())
    _emit(args, doc)


@_command(
    "contact formula",
    ("--m1", dict(type=int, required=True)),
    ("--m2", dict(type=int, required=True)),
    ("--lambda", dict(dest="lam", help="mixing parameter in (0, 1]")),
    ("--limit-zero", dict(action="store_true", help="query the limiting value instead")),
)
def contact_formula(args):
    from . import contact as _contact

    if args.limit_zero == (args.lam is not None):
        raise ValidationError("give exactly one of --lambda or --limit-zero")
    if args.limit_zero:
        value = _contact.sharp_T_limit(args.m1, args.m2)
    else:
        value = _contact.sharp_T(args.m1, args.m2, _contact.rational(args.lam, "--lambda"))
    _emit(args, {"T": str(value), "epsilon_bound": str(_contact.epsilon_bound(value))})


@_command(
    "contact bound",
    ("--base", dict(required=True, help="contact order at the base point")),
    ("--nearby", dict(required=True, help="contact order nearby")),
    ("--dim", dict(type=int, required=True)),
)
def contact_bound(args):
    from . import contact as _contact

    base = _contact.rational(args.base, "--base")
    ok = _contact.type_bound_check(base, _contact.rational(args.nearby, "--nearby"), args.dim)
    _emit(args, {"ok": ok, "limit": str(_contact.type_bound_limit(base, args.dim))})


@_command("reproduce", ("--filter", dict(help="fnmatch pattern on case ids")))
def reproduce(args):
    """Re-run the shipped corpus of worked examples and compare exactly."""
    from . import corpus as _corpus

    outcome = _corpus.reproduce(args.filter)
    if args.format == "json":
        _emit(args, outcome)
    else:
        width = max(len(r["id"]) for r in outcome["cases"])
        for row in outcome["cases"]:
            print(
                f"{row['id']:<{width}}  {row['source']:<10}  {'PASS' if row['pass'] else 'FAIL'}  "
                f"expected={row['expected']!r}  actual={row['actual']!r}"
            )
        print(f"{'all pass' if outcome['all_pass'] else 'FAILURES PRESENT'}")
    return EXIT_OK if outcome["all_pass"] else EXIT_DOMAIN


# -- parsing --------------------------------------------------------------------------


class _Formatter(argparse.HelpFormatter):
    """Shows defaults on each option's line at a fixed width; a callable default is read here."""

    def __init__(self, prog):
        super().__init__(prog, max_help_position=32, width=78)

    def _get_help_string(self, action):
        default = action.default
        if not default or default == argparse.SUPPRESS:
            return action.help
        return f"{action.help} [default: {default() if callable(default) else default}]"


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValidationError (exit 1; 2 is for caps), and only --help is added."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, formatter_class=_Formatter, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        raise ValidationError(message)


def _parser() -> _Parser:
    top = _Parser(
        prog="submult",
        description="Exact multiplier-ideal runs, triangular ladders, and contact arithmetic.",
    )
    top.add_argument("--format", choices=("json", "text"), default="json", help="output rendering")
    parents = {"": top.add_subparsers(metavar="COMMAND", required=True)}
    for name, text in _GROUPS.items():
        group = parents[""].add_parser(name, help=text, description=text)
        parents[name] = group.add_subparsers(metavar="COMMAND", required=True)
    for path, (run, options) in _COMMANDS.items():
        group, _, name = path.rpartition(" ")
        sub = parents[group].add_parser(name, help=run.__doc__, description=run.__doc__)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=run, flags=[flag for flag, _ in options if flag != "--config"])
    return top


def _words(argv) -> list[str]:
    """argv with each flag that takes a value joined to it, so that a value such as -z is read."""
    valued = {"--format"} | {f for _, o in _COMMANDS.values() for f, kw in o if "action" not in kw}
    words = []
    for word in argv:
        if words and words[-1] in valued:
            word = words.pop() + "=" + word
        words.append(word)
    return words


def main(argv=None) -> int:
    try:
        args, extra = _parser().parse_known_args(_words(sys.argv[1:] if argv is None else argv))
        if extra:
            word = extra[0].partition("=")[0]
            raise ValidationError(f"no such {'option' if word[:1] == '-' else 'argument'}: {word}")
        return args.run(args) or EXIT_OK
    except SystemExit as exc:  # --help has printed the usage text
        return exc.code
    except (SubmultError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
