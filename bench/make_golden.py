"""Write golden.json: the seed commit's answers that closed forms do not give.

Only fields that depend on the ideal and not on its generator list are kept:
the radical method and root-order values of each Kohn step, the largest root
order, and the germ root order of w for the paper's family.  The file was written once,
from the seed commit of the benchmark; later commits are checked against it
and should not regenerate it.

    PYTHONPATH=src python3 bench/make_golden.py > bench/golden.json
"""

from __future__ import annotations

import json

from submult import Ideal, germ_colength, kohn, parse, root_order

import workloads as W


def main() -> None:
    golden = {"kohn": {}, "paper_family": {}}
    for label, h in W.KOHN_PANEL:
        if label in W.KOHN_PROBES:
            continue  # no answer within any budget at the seed commit
        domain = kohn.SpecialDomain.from_strings([" + ".join(t) for t in h], W.VARS3, label)
        trace = kohn.run(domain)
        if trace.status != "unit_reached":
            raise SystemExit(f"{label}: {trace.status}")
        golden["kohn"][label] = W.kohn_golden_entry(trace)
    for M in W.PAPER_M:
        for N in W.PAPER_N:
            for K in W.PAPER_K:
                h = [f"z^{M}", f"w^{N} + w*z^{K}"]
                trace = kohn.run(kohn.SpecialDomain.from_strings(h, ("z", "w")))
                ideal = Ideal.from_strings(h, ("z", "w"))
                report = germ_colength(ideal)
                golden["paper_family"][f"{M},{N},{K}"] = {
                    "kohn": W.kohn_golden_entry(trace),
                    "root_order_w": root_order(parse("w", ("z", "w")), ideal, report=report),
                }
    # one entry per line keeps the file reviewable
    lines = []
    for section in sorted(golden):
        entries = [
            f"    {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(golden[section].items())
        ]
        lines.append(f"  {json.dumps(section)}: {{\n" + ",\n".join(entries) + "\n  }")
    print("{\n" + ",\n".join(lines) + "\n}")


if __name__ == "__main__":
    main()
