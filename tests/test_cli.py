import json

import pytest

from submult import corpus
from submult.cli import main

ZW_CONFIG = {"variables": ["z", "w"]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- usage ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv", [["--help"], ["multipliers", "--help"], ["multipliers", "run", "--help"]]
)
def test_help_exits_zero_on_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.lower().startswith("usage: submult")
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["multipliers"],
        ["multipliers", "bogus"],
        ["--format", "xml", "reproduce"],
        ["multipliers", "run", "--config", "{config}", "--max-steps", "x"],
        ["multipliers", "run", "--conf", "{config}"],
        ["multipliers", "run", "--config", "{config}", "extra"],
        ["multipliers", "run"],
        ["contact", "formula", "--m1", "2"],
        ["contact", "formula", "--m1", "2", "--m2"],
    ],
)
def test_usage_error_is_an_error_line(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"]})
    code, out, err = run_cli(capsys, *[a.format(config=cfg) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_missing_config_names_its_flag(capsys):
    code, _, err = run_cli(capsys, "multipliers", "run")
    assert code == 1
    assert "--config" in err


def test_option_values_may_start_with_a_dash(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^3", "z*w"]})
    code, out, _ = run_cli(capsys, "ideal", "root-order", "--config", cfg, "--poly", "-z")
    assert code == 0 and json.loads(out) == {"root_order": 3}
    code, out, err = run_cli(
        capsys, "contact", "formula", "--m1", "2", "--m2", "3", "--lambda", "-1/2"
    )
    assert code == 1 and out == ""
    assert err == "error: the mixing parameter must lie in (0, 1]\n"


# -- multipliers ----------------------------------------------------------------


def test_multipliers_run_emits_trace(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"], "label": "demo"}
    )
    code, out, _ = run_cli(capsys, "multipliers", "run", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "unit_reached"
    assert doc["max_root_order"] == 6
    assert doc["steps"][0]["I_gens"] == ["z^5 + 3*z*w^2"]
    assert doc["steps"][1]["I_gens"] == ["z", "w"]


def test_multipliers_run_step_cap_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"]})
    code, out, _ = run_cli(
        capsys, "multipliers", "run", "--config", cfg, "--max-steps", "1"
    )
    assert code == 2
    assert json.loads(out)["status"] == "step_cap"


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_multipliers_run_rejects_max_steps_below_one(tmp_path, capsys, steps):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"]})
    code, out, err = run_cli(
        capsys, "multipliers", "run", "--config", cfg, "--max-steps", steps
    )
    assert code == 1
    assert out == ""
    assert "max_steps" in err


def test_multipliers_run_help_shows_defaults(capsys):
    code, out, _ = run_cli(capsys, "multipliers", "run", "--help")
    assert code == 0
    lines = out.splitlines()
    assert any("--max-steps" in line and "[default: 16]" in line for line in lines)
    assert any("--radical-mode" in line and "[default: full]" in line for line in lines)


def test_parse_error_goes_to_stderr_with_position(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2 + q"]})
    code, out, err = run_cli(capsys, "multipliers", "run", "--config", cfg)
    assert code == 1
    assert not out
    assert "position 6" in err


@pytest.mark.parametrize("depth, code", [(50, 0), (3000, 1)])
def test_deeply_nested_input_is_an_error_line(tmp_path, capsys, depth, code):
    nested = "(" * depth + "z" + ")" * depth
    nested_cfg = write_config(tmp_path, {**ZW_CONFIG, "h": [nested, "w"]}, name="nested.json")
    plain_cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z", "w^2"]})
    for argv in (
        ["ideal", "colength", "--config", nested_cfg],
        ["ideal", "member", "--config", plain_cfg, "--poly", nested],
    ):
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: expression nested too deeply")
        else:
            assert out and not err


def test_missing_variables_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"h": ["z^2"]})
    code, _, err = run_cli(capsys, "multipliers", "run", "--config", cfg)
    assert code == 1
    assert "variables" in err


def test_config_options_key_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"], "options": {"max_steps": 1}}
    )
    code, out, err = run_cli(capsys, "multipliers", "run", "--config", cfg)
    assert code == 1
    assert not out
    assert "'options'" in err and "--max-steps" in err
    code, _, err = run_cli(capsys, "triangular", "run", "--config", cfg)
    assert code == 1 and "'options'" in err
    code, _, err = run_cli(capsys, "ideal", "member", "--poly", "z", "--config", cfg)
    assert code == 1 and "command flags: --poly, --germ" in err
    code, _, err = run_cli(capsys, "ideal", "root-order", "--poly", "z", "--config", cfg)
    assert code == 1 and "command flags: --poly\n" in err


@pytest.mark.parametrize(
    "command", [["ideal", "colength"], ["triangular", "run"], ["multipliers", "run"]]
)
def test_config_polynomials_are_parsed_once(tmp_path, capsys, monkeypatch, command):
    from submult import poly

    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    tokenize = poly._tokenize
    monkeypatch.setattr(poly, "_tokenize", counting)
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"]})
    code, _, _ = run_cli(capsys, *command, "--config", cfg)
    assert code == 0
    assert calls == ["z^2", "w^3 + w*z^4"]


def test_row_cap_flag_removed(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"]})
    code, out, err = run_cli(capsys, "multipliers", "run", "--config", cfg, "--row-cap", "12")
    assert code == 1
    assert not out
    assert "no such option" in err.lower()


@pytest.mark.parametrize(
    "command", [["multipliers", "run"], ["ideal", "root-order", "--poly", "z"]]
)
def test_root_cap_flag_removed(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"]})
    code, out, err = run_cli(capsys, *command, "--config", cfg, "--root-cap", "3")
    assert code == 1
    assert not out
    assert "no such option" in err.lower()


@pytest.mark.parametrize(
    "command",
    [["multipliers", "run"], ["ideal", "colength"], ["ideal", "member", "--poly", "z"],
     ["ideal", "root-order", "--poly", "z"]],
)
def test_truncation_cap_flag_removed(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^3 + w*z^4"]})
    code, out, err = run_cli(capsys, *command, "--config", cfg, "--truncation-cap", "12")
    assert code == 1
    assert not out
    assert "no such option" in err.lower()


_CURVE_DOMAIN = {"variables": ["z1", "z2", "z3"], "h": ["z1^2 - z2*z3", "z2^2"]}
_FAMILY_TERMS = [
    [{"coeff": "1", "zeta_exp": 1, "t_exp": 0}],
    [{"coeff": "-1", "zeta_exp": 2, "t_exp": "-2*alpha"}],
    [{"coeff": "i", "zeta_exp": 0, "t_exp": "alpha"}],
]


@pytest.mark.parametrize(
    "command, doc",
    [
        (["multipliers", "run"], {"variables": "zw", "h": ["z^2", "w^2"]}),
        (["multipliers", "run"], {"variables": ["z", "w", "z"], "h": ["z^2", "w^2"]}),
        (["multipliers", "run"], {"variables": ["z", 1], "h": ["z^2"]}),
        (["ideal", "colength"], {"variables": ["z", "2"], "h": ["z^2", "2^3"]}),
        (["multipliers", "run"], {**ZW_CONFIG, "h": "zw"}),
        (["multipliers", "run"], {**ZW_CONFIG, "h": [3]}),
        (["ideal", "colength"], {**ZW_CONFIG, "h": [["z"]]}),
        (["contact", "curve"], {**_CURVE_DOMAIN, "curve": {"base": ["0", "0", "0"]}}),
        (["contact", "curve"], {**_CURVE_DOMAIN, "curve": ["zeta", "0", "0"]}),
        (["contact", "curve"], {**_CURVE_DOMAIN, "curve": {"components": "zeta"}}),
        (["contact", "curve"], {**_CURVE_DOMAIN, "curve": {"components": [1, 0, 0]}}),
        (["contact", "curve"],
         {**_CURVE_DOMAIN, "curve": {"components": ["zeta", "0", "0"], "base": "000"}}),
        (["contact", "family"], {**_CURVE_DOMAIN, "family": {"alpha": "1/2"}}),
        (["contact", "family"], {**_CURVE_DOMAIN, "family": {"components": "zeta"}}),
        (["contact", "family"], {**_CURVE_DOMAIN, "family": {"components": [{"coeff": "1"}]}}),
        (["contact", "family"],
         {**_CURVE_DOMAIN, "family": {"components": [[{"coeff": "1", "t_exp": 0}]]}}),
        (["contact", "family"],
         {**_CURVE_DOMAIN, "family": {"components": [
             [{"coeff": "1", "zeta_exp": "1", "t_exp": 0}], *_FAMILY_TERMS[1:]]}}),
        (["contact", "family"],
         {**_CURVE_DOMAIN, "family": {"components": _FAMILY_TERMS, "alpha": [1]}}),
        (["contact", "family"],
         {**_CURVE_DOMAIN, "family": {"alpha": "not a number", "components": [
             _FAMILY_TERMS[0], [{"coeff": "-1", "zeta_exp": 2, "t_exp": -2}],
             [{"coeff": "i", "zeta_exp": 0, "t_exp": 1}]]}}),
        *[
            (["contact", "family"],
             {**_CURVE_DOMAIN, "family": {"alpha": "1/2", "components": [
                 _FAMILY_TERMS[0], [{"coeff": "-1", "zeta_exp": 2, "t_exp": t_exp}],
                 _FAMILY_TERMS[2]]}})
            for t_exp in (0.1, True, "*alpha")
        ],
        (["multipliers", "run"], {**ZW_CONFIG, "h": ["z^2", "w^2"], "label": {"x": [1, 2]}}),
    ],
)
def test_malformed_config_rejected(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, *command, "--config", cfg)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command, doc",
    [
        (["ideal", "colength"], {**ZW_CONFIG, "h": ["(z + w)^5000", "w"]}),
        (["contact", "family"],
         {**_CURVE_DOMAIN, "family": {"components": [
             _FAMILY_TERMS[0], [{"coeff": "-1", "zeta_exp": 2, "t_exp": "(alpha + 1)^3000"}],
             _FAMILY_TERMS[2]]}}),
    ],
)
def test_oversized_power_is_an_error_line(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(capsys, *command, "--config", cfg)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "too large to expand" in err


@pytest.mark.parametrize(
    "argv, doc, suffix",
    [
        (["ideal", "colength"], {**ZW_CONFIG, "h": ["w", "(z + w)^5000"]},
         "(at position 8) in config key 'h' entry 2"),
        (["ideal", "member", "--poly", "z +"], {**ZW_CONFIG, "h": ["z"]},
         "(at position 3) in --poly"),
        (["contact", "curve"],
         {**_CURVE_DOMAIN, "curve": {"components": ["zeta", "0", "zeta^"]}},
         "(at position 5) in curve key 'components' entry 3"),
        (["contact", "curve"],
         {**_CURVE_DOMAIN, "curve": {"components": ["zeta", "0", "0"], "base": ["0", "1/0"]}},
         "(at position 2) in curve key 'base' entry 2"),
    ],
)
def test_parse_error_names_its_entry(tmp_path, capsys, argv, doc, suffix):
    code, out, err = run_cli(capsys, *argv, "--config", write_config(tmp_path, doc))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith(suffix + "\n")


def test_unreadable_config(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "multipliers", "run", "--config", str(tmp_path / "missing.json")
    )
    assert code == 1


# -- ideal ------------------------------------------------------------------------


def test_ideal_colength_of_maximal_ideal(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z", "w"]})
    code, out, _ = run_cli(capsys, "ideal", "colength", "--config", cfg)
    assert code == 0
    assert json.loads(out)["colength"] == 1


def test_ideal_colength_of_curve_germ(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^3", "z*w"]})
    code, out, _ = run_cli(capsys, "ideal", "colength", "--config", cfg)
    assert code == 0
    assert json.loads(out) == {
        "capped": False,
        "colength": "infinite",
        "m_primary": False,
        "stabilization_degree": None,
    }


def test_ideal_member_modes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {**ZW_CONFIG, "h": ["z^5 + 3*z*w^2", "6*z^2*w", "-5*z^8 + 6*z^4*w^2 - 9*w^4"]},
    )
    code, out, _ = run_cli(capsys, "ideal", "member", "--config", cfg, "--poly", "z^3")
    assert code == 0 and json.loads(out) == {"member": False, "mode": "global"}
    code, out, _ = run_cli(
        capsys, "ideal", "member", "--config", cfg, "--poly", "z^6", "--germ"
    )
    assert code == 0 and json.loads(out) == {"member": True, "mode": "germ"}
    # a germ that is not m-primary is answered exactly, in germ mode
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z - z*w"]})
    code, out, _ = run_cli(capsys, "ideal", "member", "--config", cfg, "--poly", "z")
    assert code == 0 and json.loads(out) == {"member": False, "mode": "global"}
    code, out, _ = run_cli(capsys, "ideal", "member", "--config", cfg, "--poly", "z", "--germ")
    assert code == 0 and json.loads(out) == {"member": True, "mode": "germ"}


def test_ideal_root_order(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {**ZW_CONFIG, "h": ["z^5 + 3*z*w^2", "6*z^2*w", "-5*z^8 + 6*z^4*w^2 - 9*w^4"]},
    )
    code, out, _ = run_cli(capsys, "ideal", "root-order", "--config", cfg, "--poly", "z")
    assert code == 0 and json.loads(out) == {"root_order": 6}
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^3", "z*w"]})
    code, out, _ = run_cli(capsys, "ideal", "root-order", "--config", cfg, "--poly", "z")
    assert code == 0 and json.loads(out) == {"root_order": 3}
    # no power of w lies in the germ ideal: an exact answer, not a capped one
    code, out, _ = run_cli(capsys, "ideal", "root-order", "--config", cfg, "--poly", "w")
    assert code == 0 and json.loads(out) == {"root_order": None}


# -- triangular -----------------------------------------------------------------------


def test_triangular_run(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^2"]})
    code, out, _ = run_cli(capsys, "triangular", "run", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["L"] == 4 and doc["certified"] and doc["multiplicity"] == 4


def test_triangular_run_at_high_exponent(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z", "w^2 + z^1500*w"]})
    code, out, err = run_cli(capsys, "triangular", "run", "--config", cfg)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["certified"] and doc["multiplicity"] == 2


def test_triangular_run_computes_the_colength_once(tmp_path, capsys, monkeypatch):
    from submult import triangular
    from submult.ideals import _standard_monomial_count

    counts = []

    def counting(basis, ring_dim, order):
        counts.append(_standard_monomial_count(basis, ring_dim, order))
        return counts[-1]

    monkeypatch.setattr(triangular, "_standard_monomial_count", counting)
    # the lead z*w^3 shares z with z^2, so the standard monomials are counted
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^2 + z*w^3"]})
    code, out, _ = run_cli(capsys, "triangular", "run", "--config", cfg)
    assert code == 0 and json.loads(out)["multiplicity"] == 4
    assert [count for count, _ in counts] == [4]


def test_triangular_run_exits_on_a_colength_mismatch(tmp_path, capsys, monkeypatch):
    from submult import triangular

    monkeypatch.setattr(
        triangular, "_standard_monomial_count", lambda basis, ring_dim, order: (5, 3)
    )
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z^2", "w^2 + z*w^3"]})
    code, out, err = run_cli(capsys, "triangular", "run", "--config", cfg)
    assert code == 1 and out == ""
    assert "colength 5 disagrees with exponent product 4" in err


def test_triangular_run_rejects_bad_system(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z*w", "w^2"]})
    code, _, err = run_cli(capsys, "triangular", "run", "--config", cfg)
    assert code == 1
    assert "condition 2" in err


# -- contact ----------------------------------------------------------------------------


def test_contact_curve_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "variables": ["z1", "z2", "z3"],
            "h": ["z1^2 - z2*z3", "z2^2"],
            "curve": {"components": ["zeta", "0", "0"], "base": ["0", "0", "0"]},
        },
    )
    code, out, _ = run_cli(capsys, "contact", "curve", "--config", cfg)
    assert code == 0 and json.loads(out) == {"contact": "4"}


def test_contact_family_command_balances(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "variables": ["z1", "z2", "z3"],
            "h": ["z1^2 - z2*z3^2", "z2^2", "z1*z3^3"],
            "family": {
                "components": [
                    [{"coeff": "1", "zeta_exp": 1, "t_exp": 0}],
                    [{"coeff": "-1", "zeta_exp": 2, "t_exp": "-2*alpha"}],
                    [{"coeff": "i", "zeta_exp": 0, "t_exp": "alpha"}],
                ]
            },
        },
    )
    code, out, _ = run_cli(capsys, "contact", "family", "--config", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == "3/7" and doc["eta"] == "32/7"
    assert doc["epsilon_bound"] == "7/32"


def test_contact_formula_command(capsys):
    code, out, _ = run_cli(
        capsys, "contact", "formula", "--m1", "2", "--m2", "3", "--lambda", "1"
    )
    assert code == 0
    assert json.loads(out) == {"T": "4", "epsilon_bound": "1/4"}
    code, out, _ = run_cli(
        capsys, "contact", "formula", "--m1", "2", "--m2", "3", "--limit-zero"
    )
    assert code == 0
    assert json.loads(out)["T"] == "12"
    code, _, err = run_cli(capsys, "contact", "formula", "--m1", "2", "--m2", "3")
    assert code == 1


def test_contact_bound_command(capsys):
    code, out, _ = run_cli(
        capsys, "contact", "bound", "--base", "4", "--nearby", "8", "--dim", "3"
    )
    assert code == 0
    assert json.loads(out) == {"ok": True, "limit": "8"}


_ZERO_DENOMINATOR_TERMS = [
    [{"coeff": "1", "zeta_exp": 1, "t_exp": "1/0"}],
    *_FAMILY_TERMS[1:],
]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["contact", "formula", "--m1", "2", "--m2", "3", "--lambda", "1/0"], None),
        (["contact", "bound", "--base", "1/0", "--nearby", "2", "--dim", "3"], None),
        (["contact", "bound", "--base", "2", "--nearby", "1/0", "--dim", "3"], None),
        (["contact", "family"],
         {**_CURVE_DOMAIN, "family": {"components": _FAMILY_TERMS, "alpha": "1/0"}}),
        (["contact", "family"],
         {**_CURVE_DOMAIN, "family": {"components": _ZERO_DENOMINATOR_TERMS}}),
    ],
)
def test_zero_denominator_rejected(tmp_path, capsys, argv, doc):
    if doc is not None:
        argv = [*argv, "--config", write_config(tmp_path, doc)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "'1/0'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, doc, name",
    [
        (["contact", "formula", "--m1", "2", "--m2", "3", "--lambda", "1e-9999999"], None,
         "--lambda"),
        (["contact", "formula", "--m1", "2", "--m2", "3", "--lambda", "5E-1"], None, "--lambda"),
        (["contact", "bound", "--base", "1e99999999", "--nearby", "1", "--dim", "3"], None,
         "--base"),
        (["contact", "bound", "--base", "2", "--nearby", ".5e1", "--dim", "3"], None, "--nearby"),
        (["contact", "family"],
         {**_CURVE_DOMAIN, "family": {"components": _FAMILY_TERMS, "alpha": "1e99999999"}},
         "'alpha'"),
    ],
)
def test_exponent_notation_rejected(tmp_path, capsys, argv, doc, name):
    # Fraction would expand the exponent into all of its digits
    if doc is not None:
        argv = [*argv, "--config", write_config(tmp_path, doc)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err and "exponent notation" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, same",
    [
        (["contact", "formula", "--m1", "2", "--m2", "3", "--lambda", "0.5"], "1/2"),
        (["contact", "bound", "--base", "4.0", "--nearby", "8", "--dim", "3"], "4"),
        (["contact", "bound", "--base", "4", "--nearby", "7.25", "--dim", "3"], "29/4"),
    ],
)
def test_decimals_read_as_their_fractions(capsys, argv, same):
    decimal = next(a for a in argv if "." in a)
    _, expected, _ = run_cli(capsys, *[same if a == decimal else a for a in argv])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected


def test_contact_bound_refuses_a_power_beyond_the_parser_bound(capsys):
    # t0^(dim - 1) of a 2-bit base would take 600 million bits
    code, out, err = run_cli(
        capsys, "contact", "bound", "--base", "3", "--nearby", "1", "--dim", "300000000"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: dimension 300000000 too large") and err.count("\n") == 1


@pytest.mark.parametrize(
    "base, dim, printable",
    [("3", "9013", True), ("3", "9014", False), ("3", "10000", False), ("3", "500001", False),
     ("2", "10000", True), ("1/2", "7000", True), ("1/2", "8000", False)],
)
def test_contact_bound_refuses_a_limit_it_cannot_print(capsys, base, dim, printable):
    # str() prints at most 4300 digits of an integer by default; 3^9012 has
    # 4300 and 3^9013 has 4301, and 2^13997 has 4214 and 2^15997 has 4816
    code, out, err = run_cli(capsys, "contact", "bound", "--base", base, "--nearby", "1",
                             "--dim", dim)
    if printable:
        assert code == 0 and err == "" and json.loads(out)["limit"]
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"--dim {dim}" in err and "4,300 digits" in err


# -- reproduce -----------------------------------------------------------------------------


def test_reproduce_passes_and_is_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "reproduce")
    code2, out2, _ = run_cli(capsys, "reproduce")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["all_pass"] and len(doc["cases"]) == len(corpus.CASES)


def test_reproduce_filter(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--filter", "effectiveness*")
    assert code == 0
    doc = json.loads(out)
    assert {row["id"] for row in doc["cases"]} == {
        "effectiveness-M2-N3-K4",
        "effectiveness-M2-N3-K7",
        "effectiveness-M3-N4-K6",
    }


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_reproduce_filter_matching_nothing_fails(capsys, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, "reproduce", "--filter", "efectiveness*")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "'efectiveness*'" in err


def test_reproduce_detects_corrupted_expectation(capsys, monkeypatch):
    broken = list(corpus.CASES)
    target = next(i for i, c in enumerate(broken) if c.id == "sharp-halfway-value")
    broken[target] = broken[target]._replace(expected="7")
    monkeypatch.setattr(corpus, "CASES", tuple(broken))
    code, out, _ = run_cli(capsys, "reproduce", "--filter", "sharp-halfway*")
    assert code == 1
    doc = json.loads(out)
    assert not doc["all_pass"]
    assert doc["cases"][0]["actual"] == "6"


def test_corpus_ids_unique():
    ids = [case.id for case in corpus.CASES]
    assert len(set(ids)) == len(ids)


def test_text_format_renders(tmp_path, capsys):
    cfg = write_config(tmp_path, {**ZW_CONFIG, "h": ["z", "w"]})
    code, out, _ = run_cli(
        capsys, "--format", "text", "ideal", "colength", "--config", cfg
    )
    assert code == 0
    assert "colength: 1" in out


def test_reproduce_text_table(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "text", "reproduce", "--filter", "epsilon-*"
    )
    assert code == 0
    assert "PASS" in out and "epsilon-reciprocal" in out
