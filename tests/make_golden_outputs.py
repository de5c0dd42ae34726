"""Write tests/golden_outputs.json: the serialized outputs a refactor must keep.

    PYTHONPATH=src python tests/make_golden_outputs.py

The file holds ``kohn.run(...).to_json()``, parsed back so that it reads as
JSON, for the 3-variable panel domains, the paper family z^M, w^N + w*z^K
and the stall and curve domains in both radical modes, plus ``to_json()``
and ``certify(...).to_dict()`` for a fixed sample of
``triangular.random_system`` draws.  ``test_golden_outputs`` builds
the same document and compares it with the file byte for byte, so the file
is regenerated only on purpose, when an output is meant to change.
"""

import json
import random
from pathlib import Path

from submult import kohn, triangular

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


def _kohn_json(h, variables, mode: str = "full") -> dict:
    domain = kohn.SpecialDomain.from_strings(h, variables)
    return json.loads(kohn.run(domain, kohn.KohnOptions(radical_mode=mode)).to_json())


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
            "trace": json.loads(trace.to_json()),
            "certify": triangular.certify(trace, system).to_dict(),
        }
    return docs


def golden_text() -> str:
    return json.dumps(golden_documents(), sort_keys=True, indent=1) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(golden_text(), encoding="utf-8")
