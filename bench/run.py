"""Benchmark for the exact engine: one command, three workloads.

    python3 bench/run.py --workload kohn-3d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the engine is imported from its ``src``.
Every workload is a closed loop: one worker process, one client, no
threads, each item started when the previous one has ended.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
makes the traced run and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object.  NOTES.md
explains the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("kohn-3d", "triangular-certify", "cli-paper")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 12
RUN_LIMIT_S = 170.0

# Per-layer metrics that are not a plain sum of the traced totals; every
# other metric named in BENCHMARK.json is read as totals[name].
RATIOS = {
    "ideals.germ_colength.capped_ratio": (
        "ideals.germ_colength.capped", "ideals.germ_colength.calls"),
    "ideals.groebner.cache_hit_ratio": (
        "ideals.groebner.cache_hits", "ideals.groebner.lookups"),
    "ideals.spair_useful_ratio": ("ideals.spairs.useful", "ideals.spairs"),
}
ALIASES = {"kohn.minors": "kohn.minors.calls"}


def declared(kind: str) -> dict[str, str]:
    """{metric name: unit} of one section of BENCHMARK.json."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def launch(args, env, extra, timeout):
    """Run the worker and return its JSON document."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """(percentile, value): the highest percentile with >= 10 items above it."""
    n = len(times)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p < 50:
        return None
    return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]


def report_items(records):
    attempted = len(records)
    failed = [r for r in records if r["status"] != "ok"]
    print(f"attempted {attempted} items, failed {len(failed)}")
    for r in failed:
        print(f"  failed: {r['label']!r}: {r['status']} ({r['detail']}) "
              f"after {r['wall']:.2f} s")
    for r in records:
        if r["probe"] and r["status"] == "ok":
            print(f"  probe finished: {r['label']!r} in {r['t']:.3f} s")
    return attempted, failed


def end_to_end(args, env, deadline):
    units = declared("end_to_end")
    setups = []
    for _ in range(SETUP_PROBES):
        doc = launch(args, env, ["--setup-only"], deadline - time.monotonic())
        setups.append(doc["setup_s"])
    doc = launch(args, env, [], deadline - time.monotonic())
    setups.append(doc["setup_s"])
    records = doc["records"]
    # probes, and items cut short by their deadline, count in fail_ratio and
    # not in the times (see NOTES.md)
    times = [r["t"] for r in records if not r["probe"] and r["status"] != "deadline"]
    if not times:
        raise SystemExit("every item hit its deadline")
    probes = sum(r["probe"] for r in records)
    print(f"workload {args.workload}, seed {args.seed}: {len(doc['rounds'])} rounds of "
          f"{(len(records) - probes) // len(doc['rounds'])} items, then {probes} probes; "
          f"closed loop, 1 client")
    attempted, failed = report_items(records)
    print("host speed over the reference, per round: "
          + ", ".join(f"{x:.3f}" for x in doc["speeds"]))
    metrics = {
        "wall_s": statistics.median(doc["rounds"]),
        "item_p50_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024,
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    t = tail(times)
    if t is None:
        print(f"item_tail_s omitted ({len(times)} items; needs at least 20)")
    else:
        print(f"item_tail_s {t[1]:.6g} s (p{t[0]}, {len(times)} items)")
    print(f"fail_ratio {len(failed) / attempted:.4g} ({len(failed)}/{attempted})")
    disagree = [c for c in doc["cross_checks"] if c["result"] == "differs"]
    for c in doc["cross_checks"]:
        print(f"sympy cross-check {c['label']!r}: {c['result']}")
    wrong = [r for r in records if r["status"] in ("wrong", "error")]
    correct = not wrong and not disagree
    return correct, attempted, len(failed), {
        k: {"value": v, "unit": units[k]} for k, v in metrics.items()
    }


def per_layer(args, env, deadline):
    doc = launch(args, env, [], deadline - time.monotonic())
    totals = doc["totals"]
    print(f"workload {args.workload}, seed {args.seed}: traced run of round 0 "
          f"(traced twice, then untraced)")
    attempted, failed = report_items(doc["records"])
    overhead = doc["traced_s"] - doc["untraced_s"]
    print(f"tracing overhead {overhead:.3f} s (traced {doc['traced_s']:.3f} s, "
          f"untraced {doc['untraced_s']:.3f} s)")
    print(f"{doc['spans']} spans written to {doc['spans_path']}")
    repeat = not doc["count_mismatches"]
    print(f"counts of the two traced passes: "
          f"{'identical' if repeat else 'DIFFER'} over {doc['compared_items']} items")
    for line in doc["count_mismatches"]:
        print("  " + line)
    metrics = {}
    for name, unit in declared("per_layer").items():
        if name == "cli.startup_s":
            value = doc["cli_startup_s"]
        elif name == "trace.overhead_s":
            value = overhead
        elif name in RATIOS:
            num, den = (totals.get(key, 0) for key in RATIOS[name])
            value = num / den if den else 0.0
        else:
            value = totals.get(ALIASES.get(name, name), 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    wrong = [r for r in doc["records"] if r["status"] in ("wrong", "error")]
    return not wrong and repeat, attempted, len(failed), metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "submult", "__init__.py")):
        print("error: run from the root of a submult checkout (no src/submult here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = per_layer if args.trace else end_to_end
    correct, attempted, failed, metrics = measure(args, env, deadline)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
