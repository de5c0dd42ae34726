"""The package's public names, what each CLI request loads, and unread imports."""

import ast
import copy
import glob
import importlib
import json
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import submult

# The exported names, each with the module that defines it.
PUBLIC = {
    "errors": (
        "CapExceededError", "ConsistencyError", "DimensionMismatchError",
        "ParseError", "SubmultError", "ValidationError",
    ),
    "poly": (
        "GaussianRational", "Polynomial", "PolyMatrix", "det", "exact_div", "format_poly",
        "minor_dets", "monomials_of_degree", "parse", "poly_gcd", "squarefree_part",
    ),
    "ideals": (
        "GermReport", "Ideal", "MonomialOrder", "RadicalOutcome", "eliminant", "germ_colength",
        "germ_member", "is_germ_unit", "member", "normal_form", "radical_step", "root_order",
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
        "sharp_T_via_family", "two_exponent_domain", "two_exponent_family", "type_bound_check",
        "type_jump_domain",
    ),
}
PUBLIC_NAMES = {name for names in PUBLIC.values() for name in names}

BASE = {"submult", "submult.cli", "submult.errors", "submult.poly"}

PROBE = """
import contextlib, io, sys
from submult.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "submult")))
print(" ".join(sorted(sys.modules)))
"""


def fresh_python(*args):
    """Run a new interpreter that imports this checkout's submult."""
    src = os.path.dirname(os.path.dirname(submult.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# -- public names ---------------------------------------------------------------


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_resolve_to_their_defining_module(module):
    defining = importlib.import_module(f"submult.{module}")
    for name in PUBLIC[module]:
        assert getattr(submult, name) is getattr(defining, name), name


def test_exported_name_set_is_unchanged():
    listed = {
        name
        for name in dir(submult)
        if not name.startswith("_") and not isinstance(getattr(submult, name), types.ModuleType)
    }
    assert listed == PUBLIC_NAMES
    assert submult.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        submult.no_such_name
    assert not hasattr(submult, "DEFAULT_MAX_STEPS")


def test_lazy_names_follow_their_defining_module(monkeypatch):
    from submult import ideals

    def stand_in(ideal):
        raise AssertionError

    assert submult.germ_colength is ideals.germ_colength
    assert "germ_colength" not in vars(submult)
    original = ideals.germ_colength
    monkeypatch.setattr(ideals, "germ_colength", stand_in)
    assert submult.germ_colength is stand_in
    monkeypatch.undo()
    assert submult.germ_colength is original


def test_from_import_in_a_fresh_interpreter():
    out = fresh_python(
        "-c", "from submult import Ideal, kohn; print(Ideal.__module__, kohn.__name__)"
    )
    assert out.split() == ["submult.ideals", "submult.kohn"]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from submult import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert set(submult.__all__) == PUBLIC_NAMES


# -- import boundary -----------------------------------------------------------------


@pytest.fixture
def paper_config(tmp_path):
    path = tmp_path / "paper.json"
    path.write_text(json.dumps({"variables": ["z", "w"], "h": ["z^2", "w^3 + w*z^4"]}))
    return str(path)


@pytest.fixture
def family_config(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "variables": ["z1", "z2", "z3"],
        "h": ["z1^2 - z2*z3^2", "z2^2", "z1*z3^3"],
        "family": {"components": [
            [{"coeff": "1", "zeta_exp": 1, "t_exp": 0}],
            [{"coeff": "-1", "zeta_exp": 2, "t_exp": "-2*alpha"}],
            [{"coeff": "i", "zeta_exp": 0, "t_exp": "alpha"}],
        ]},
    }))
    return str(path)


@pytest.mark.parametrize(
    "argv, extra",
    [
        ([], set()),
        (["ideal", "colength", "--config", "{config}"], {"submult.ideals"}),
        (["contact", "formula", "--m1", "2", "--m2", "3", "--lambda", "1/2"], {"submult.contact"}),
        (["contact", "family", "--config", "{family}"], {"submult.contact"}),
        (["multipliers", "run", "--config", "{config}"], {"submult.ideals", "submult.kohn"}),
        (["triangular", "run", "--config", "{config}"], {"submult.ideals", "submult.triangular"}),
    ],
    ids=[
        "import", "ideal-colength", "contact-formula", "contact-family", "multipliers-run",
        "triangular-run",
    ],
)
def test_each_request_loads_only_its_modules(paper_config, family_config, argv, extra):
    argv = [a.format(config=paper_config, family=family_config) for a in argv]
    ours, loaded = fresh_python("-c", PROBE, *argv).splitlines()
    assert set(ours.split()) == BASE | extra
    # the records are NamedTuples, so no request pays for dataclasses or inspect
    assert {"dataclasses", "inspect"}.isdisjoint(loaded.split())
    # every module beyond a bare interpreter's (whose site may load third-party
    # .pth hooks) is from the standard library or this package
    bare = set(fresh_python("-c", "import sys; print(*sys.modules)").split())
    allowed = sys.stdlib_module_names | {"submult"}
    assert {m for m in set(loaded.split()) - bare if m.partition(".")[0] not in allowed} == set()


# -- checked records -------------------------------------------------------------------


def _z(n=1):
    return submult.Polynomial.variable(n, 0)


def _term():
    return submult.CurveTerm(submult.GaussianRational(1), 1, Fraction(0))


@pytest.mark.parametrize(
    "good, field, bad",
    [
        (lambda: submult.AmbientDomain(("z", "w"), (_z(2),)), "variables", ("z",)),
        (_term, "zeta_exp", -1),
        (lambda: submult.CurveFamily(((_term(),), (_term(),))), "components", ()),
        (lambda: submult.SpecialDomain(("z",), (_z(),)), "h", ()),
        (lambda: submult.KohnOptions(), "max_steps", 0),
        (lambda: submult.PolyMatrix(((_z(),),)), "rows", ()),
        (lambda: submult.TriangularSystem(("z",), (_z(),)), "h", (_z() + 1,)),
    ],
    ids=[
        "AmbientDomain", "CurveTerm", "CurveFamily", "SpecialDomain", "KohnOptions", "PolyMatrix",
        "TriangularSystem",
    ],
)
def test_checked_records_refuse_an_invalid_field_on_every_path(good, field, bad):
    record = good()
    cls = type(record)
    fields = {**record._asdict(), field: bad}
    with pytest.raises(submult.ValidationError):
        cls(**fields)
    with pytest.raises(submult.ValidationError):
        record._replace(**{field: bad})
    with pytest.raises(submult.ValidationError):
        cls._make(fields.values())
    with pytest.raises(AttributeError):
        setattr(record, field, bad)
    # a valid record survives every path unchanged
    assert record._replace() == cls._make(record) == copy.copy(record) == record


# -- imports --------------------------------------------------------------------


def _unread_imports(path):
    """Names the module at path imports and never reads."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_never_reads():
    package = os.path.dirname(submult.__file__)
    tests = os.path.dirname(os.path.abspath(__file__))
    paths = glob.glob(os.path.join(package, "*.py")) + glob.glob(os.path.join(tests, "*.py"))
    # the package's own imports are its public re-exports
    paths.remove(os.path.join(package, "__init__.py"))
    unread = {path: sorted(names) for path in sorted(paths) if (names := _unread_imports(path))}
    assert unread == {}
