"""Write tests/golden_outputs.json: the serialized outputs a refactor must keep.

    PYTHONPATH=src python tests/make_golden_outputs.py

The file holds ``kohn.run(...).to_dict()`` for the 3-variable panel
domains, the paper family z^M, w^N + w*z^K and the stall and curve domains
in both radical modes, plus ``run_effective(...).to_dict()`` and
``certify(...).to_dict()`` for a fixed sample of
``triangular.random_system`` draws, plus the exit code and the JSON stdout
of ``submult`` requests: ``reproduce``, ``contact family`` on the
two-exponent configs and on families with a free or a tied Re part,
``contact curve``, ``multipliers run``, the ``ideal`` queries and
``triangular run``.  ``test_golden_outputs`` builds the same document and
compares it with the file byte for byte, so the file is regenerated only on
purpose, when an output is meant to change.
"""

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from submult import cli, kohn, triangular

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")

PANEL_3D = (
    ("z^2", "w^3 + w*z^4", "v^2"),
    ("z^3", "w^2", "v^2 + z*w"),
    ("z", "w^3 + w*z^4", "v^2"),
    ("z^2", "w^2", "v^2"),
    ("z", "w^2 + z*v", "v^2"),
)
PAPER_FAMILY = tuple(
    (f"z^{M}", f"w^{N} + w*z^{K}")
    for M in (2, 3, 4)
    for N in (2, 3, 4)
    for K in range(M + 1, 8)
)
STALL_AND_CURVE = (
    ("z^3", "z*w"),
    ("z*w",),
    ("w^2", "z^3*w"),
    ("z^2", "z*w", "w^2"),
    ("z^2", "w^3 + w*z^4"),
    ("z^2", "w^3 + w*z^7"),
    ("z^3", "w^4 + w*z^6"),
)
TRIANGULAR_SEED = 6
TRIANGULAR_DRAWS = 10

DEMO_CONFIG = {"variables": ["z", "w"], "h": ["z^2", "w^3 + w*z^4"], "label": "demo"}
TRIANGULAR_CONFIGS = (
    DEMO_CONFIG,
    {"variables": ["z"], "h": ["z^3"]},
    {"variables": ["z", "w", "v"], "h": ["z^2", "w^2 + z*w", "v^2 + z*v + w*v^2"]},
)
_LINEAR = [{"coeff": "1", "zeta_exp": 1, "t_exp": 0}]
FAMILY_CONFIGS = {
    "README": {
        "variables": ["z1", "z2", "z3"],
        "h": ["z1^2 - z2*z3^2", "z2^2", "z1*z3^3"],
        "family": {"components": [
            _LINEAR,
            [{"coeff": "-1", "zeta_exp": 2, "t_exp": "-2*alpha"}],
            [{"coeff": "i", "zeta_exp": 0, "t_exp": "alpha"}],
        ]},
    },
    # two Re-part terms share the minimal weight 2: one tie warning
    "Re-part tie": {
        "variables": ["z1", "z2"],
        "h": ["z1^4"],
        "family": {"components": [
            _LINEAR,
            [{"coeff": "1", "zeta_exp": 2, "t_exp": 0},
             {"coeff": "1", "zeta_exp": 1, "t_exp": 1},
             {"coeff": "i", "zeta_exp": 0, "t_exp": 2}],
        ]},
    },
}
CURVE_DOMAIN = {"variables": ["z1", "z2", "z3"], "h": ["z1^2 - z2*z3", "z2^2"]}
CURVES = (
    {"components": ["zeta", "0", "0"], "base": ["0", "0", "0"]},
    {"components": ["zeta", "0 - i*zeta^2", "i"], "base": ["0", "0", "i"]},
)


def _kohn_json(h, variables, mode: str = "full") -> dict:
    domain = kohn.SpecialDomain.from_strings(h, variables)
    return kohn.run(domain, kohn.KohnOptions(radical_mode=mode)).to_dict()


def _two_exponent_config(m1, m2, p, q) -> dict:
    """The tuned family of contact.two_exponent_domain as a config document."""
    return {
        "variables": ["z1", "z2", "z3"],
        "h": [f"z1^{m1} - z3^{p}*z2", f"z2^{m2}", f"z2*z3^{q}"],
        "family": {"components": [
            _LINEAR,
            [{"coeff": ("1", "-i", "-1", "i")[p % 4], "zeta_exp": m1, "t_exp": f"-{p}*alpha"}],
            [{"coeff": "i", "zeta_exp": 0, "t_exp": "alpha"}],
        ]},
    }


def _cli(argv, config=None) -> dict:
    """Exit code and parsed JSON stdout of one ``submult`` request."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", str(path)]
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    text = out.getvalue()
    return {"exit": code, "stdout": json.loads(text) if text else None}


def _cli_documents() -> dict:
    docs = {"cli reproduce": _cli(["reproduce"])}
    for m1 in (2, 3, 4):
        for m2 in (2, 3, 4):
            for q in (1, 2, 3):
                for p in range(1, q + 1):
                    docs[f"cli contact family: m1={m1} m2={m2} p={p} q={q}"] = _cli(
                        ["contact", "family"], _two_exponent_config(m1, m2, p, q)
                    )
    for name, config in FAMILY_CONFIGS.items():
        docs[f"cli contact family: {name}"] = _cli(["contact", "family"], config)
    for curve in CURVES:
        docs[f"cli contact curve: {', '.join(curve['components'])}"] = _cli(
            ["contact", "curve"], {**CURVE_DOMAIN, "curve": curve}
        )
    for argv in (
        ["multipliers", "run"],
        ["ideal", "colength"],
        ["ideal", "member", "--poly", "z^3", "--germ"],
        ["ideal", "root-order", "--poly", "z"],
    ):
        docs[f"cli {' '.join(argv)}: demo"] = _cli(argv, DEMO_CONFIG)
    for config in TRIANGULAR_CONFIGS:
        docs[f"cli triangular run: {', '.join(config['h'])}"] = _cli(
            ["triangular", "run"], config
        )
    return docs


def golden_documents() -> dict:
    """Every golden output, keyed by what produced it."""
    docs = {}
    for h in PANEL_3D:
        docs[f"panel: {', '.join(h)}"] = _kohn_json(h, ("z", "w", "v"))
    for h in PAPER_FAMILY:
        docs[f"family: {', '.join(h)}"] = _kohn_json(h, ("z", "w"))
    for mode in ("full", "none"):
        for h in STALL_AND_CURVE:
            docs[f"stall {mode}: {', '.join(h)}"] = _kohn_json(h, ("z", "w"), mode)
    rng = random.Random(TRIANGULAR_SEED)
    for k in range(TRIANGULAR_DRAWS):
        system = triangular.random_system(rng)
        trace = triangular.run_effective(system)
        docs[f"triangular {k}"] = {
            "trace": trace.to_dict(),
            "certify": triangular.certify(trace, system).to_dict(),
        }
    docs.update(_cli_documents())
    return docs


def golden_text() -> str:
    return json.dumps(golden_documents(), sort_keys=True, indent=1) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(golden_text(), encoding="utf-8")
