"""Benchmark worker: one process, one client, items run back to back.

run.py launches it from the root of a checkout with ``src`` on PYTHONPATH.
It imports submult, builds the first round of inputs from the seed, and then
either stops (``--setup-only``, to time set-up), runs rounds until the time
is up, or makes the traced run.  Its last line of output is one JSON
document for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import submult  # noqa: F401  (importing the package is part of set-up)
from submult.errors import CapExceededError

import workloads as W
from tracer import Tracer

OUT_DIR = os.path.join(W.HERE, "out")
CROSS_CHECK_DEADLINE = 10.0
# The host is shared, and its speed drifts by up to 40% within a run and
# between runs minutes apart, CPU time included.  A fixed loop of the kind
# of work the engine does (Fraction arithmetic into a dict keyed by exponent
# tuples) runs between timed items, and each item's time is scaled by
# CALIBRATION_REF_S over the mean of the loops before and after it: times
# are CPU seconds at the speed where the loop takes CALIBRATION_REF_S (a
# 2-vCPU 2.1 GHz Xeon VM at its usual speed).
CALIBRATION_REF_S = 0.018
SETUP_CALIBRATIONS = 5


class Context:
    def __init__(self, workload: str, in_process: bool):
        self.golden = W.load_golden()
        self.workdir = os.path.join(OUT_DIR, f"{workload}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.in_process = in_process
        self.tracer: Tracer | None = None
        self.deadline_span: str | None = None


def _alarm(ctx: Context):
    def handler(signum, frame):
        ctx.deadline_span = ctx.tracer.innermost() if ctx.tracer else None
        raise W.Deadline()

    return handler


def cpu_s(who: int = resource.RUSAGE_SELF) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def calibration_s() -> float:
    start = time.process_time()
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(3000):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + third * Fraction(i + 1, 7)
    return time.process_time() - start


def run_item(wl, item, ctx: Context) -> dict:
    """Run one item under its deadline, then check the answer untimed.

    ``t`` is the item's CPU time, in this process or, for a CLI request, in
    its child: unlike the wall clock, it leaves out the time that other
    tenants of a shared host take; timed_run scales it to the reference
    speed.  ``wall`` is the wall-clock time that the deadline watches.
    """
    rec = {"label": item.label, "kind": item.kind, "probe": item.probe, "status": "ok",
           "detail": ""}
    ctx.deadline_span = None
    arm = ctx.in_process or wl.name != "cli-paper"  # else the child's timeout
    clock = time.process_time if arm else (lambda: cpu_s(resource.RUSAGE_CHILDREN))
    start, wall = clock(), time.perf_counter()
    try:
        try:
            if arm:
                signal.setitimer(signal.ITIMER_REAL, item.deadline)
            result = wl.run(item, ctx)
        finally:
            if arm:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except W.Deadline:
        rec.update(status="deadline", detail=f"deadline {item.deadline:g} s")
        if ctx.deadline_span:
            rec["detail"] += f", innermost open span {ctx.deadline_span}"
    except CapExceededError as exc:
        rec.update(status="cap", detail=f"cap {exc.cap}: {exc}")
    except Exception as exc:  # a traceback on valid input is a failed item
        rec.update(status="error", detail=f"{type(exc).__name__}: {exc}")
    rec["t"] = clock() - start
    rec["wall"] = time.perf_counter() - wall
    if rec["status"] == "ok":
        try:
            wl.check(item, result, ctx)
        except W.Capped as exc:
            rec.update(status="cap", detail=str(exc))
        except Exception as exc:  # WrongAnswer, or output the checker cannot read
            rec.update(status="wrong", detail=f"{type(exc).__name__}: {exc}")
    return rec


def cross_check(workload: str, items) -> list[dict]:
    out = []
    for label, polys, names in W.cross_check_sample(workload, items):
        signal.setitimer(signal.ITIMER_REAL, CROSS_CHECK_DEADLINE)
        try:
            try:
                agrees = W.sympy_agrees(polys, names)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out.append({"label": label, "result": "agrees" if agrees else "differs"})
        except W.Deadline:
            out.append({"label": label, "result": f"skipped after {CROSS_CHECK_DEADLINE:g} s"})
    return out


def timed_run(wl, items, ctx: Context, seed: int, seconds: float) -> dict:
    """Rounds until the time is up, then the probes of round 0.

    Each item's time is scaled to the reference speed by the calibration
    loops run just before and just after it (see CALIBRATION_REF_S).
    A round's time is the sum over its items, less any that hit their
    deadline.  A probe cut short by its deadline holds however much memory
    the host's speed let it reach, so the peak is read before the probes.
    """
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-paper" else resource.RUSAGE_SELF
    first = items
    probes = [it for it in items if it.probe]
    budget = seconds - sum(p.deadline for p in probes)
    records, rounds, walls, speeds = [], [], [], []
    t0 = time.monotonic()
    r = 0
    while True:
        started = time.monotonic()
        loops, batch = [calibration_s()], []
        for item in items:
            if item.probe:
                continue
            batch.append(run_item(wl, item, ctx))
            loops.append(calibration_s())
        for k, rec in enumerate(batch):
            rec["t"] *= 2 * CALIBRATION_REF_S / (loops[k] + loops[k + 1])
        rounds.append(sum(rec["t"] for rec in batch if rec["status"] != "deadline"))
        records += batch
        speeds.append(CALIBRATION_REF_S / statistics.median(loops))
        walls.append(time.monotonic() - started)
        r += 1
        # start another round only if it should end inside the time given
        if time.monotonic() - t0 + statistics.median(walls) > budget:
            break
        items = wl.make_round(W.round_rng(seed, r), ctx, r)
    peak_kb = resource.getrusage(who).ru_maxrss
    records += [run_item(wl, item, ctx) for item in probes]
    return {
        "records": records,
        "rounds": rounds,
        "peak_rss_kb": peak_kb,
        "speeds": speeds,
        "cross_checks": cross_check(wl.name, first),
    }


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _is_count(key: str) -> bool:
    return not key.endswith((".s", ".self_s"))


def traced_run(wl, ctx: Context, seed: int, spans_path: str) -> dict:
    """Round 0 traced twice, then untraced; the two traced counts must agree.

    Probes, and items that hit their deadline, run in the first traced pass
    only (for the innermost open span at the deadline).  Every per-layer
    figure comes from the second traced pass, over the items that wall_s
    covers, warm like the untraced pass it is compared with.
    """
    ctx.in_process = True
    tracer = Tracer()
    tracer.install()
    ctx.tracer = tracer
    passes = []
    skip: set[int] = set()
    try:
        for p in range(2):
            tracer.item = -1
            before = tracer.snapshot()
            items = wl.make_round(W.round_rng(seed, 0), ctx, 0)
            segments = {"setup": _delta(before, tracer.snapshot())}
            records = []
            for k, item in enumerate(items):
                if k in skip:
                    continue
                tracer.item = k
                tracer.rows_max = 0
                before = tracer.snapshot()
                rec = run_item(wl, item, ctx)
                if rec["status"] == "deadline":
                    tracer.reset_stack()
                if item.probe or rec["status"] == "deadline":
                    skip.add(k)
                else:
                    seg = _delta(before, tracer.snapshot())
                    seg["kohn.rows_max"] = tracer.rows_max
                    segments[k] = seg
                records.append(rec)
            passes.append({"records": records, "segments": segments})
            if p == 0:
                for log in (tracer.log_name, tracer.log_start, tracer.log_end,
                            tracer.log_parent, tracer.log_item):
                    del log[:]
        n_spans = tracer.write(spans_path)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    items = wl.make_round(W.round_rng(seed, 0), ctx, 0)
    untraced = [run_item(wl, item, ctx) for k, item in enumerate(items) if k not in skip]
    first, second = passes[0]["segments"], passes[1]["segments"]
    mismatches = []
    for key, seg in second.items():
        for name in sorted(set(seg) | set(first[key])):
            a, b = first[key].get(name, 0), seg.get(name, 0)
            if _is_count(name) and a != b:
                mismatches.append(f"item {key}: {name} {a} != {b}")
    totals: dict = {}
    for seg in second.values():
        for name, value in seg.items():
            if name == "kohn.rows_max":
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    startups = []
    for _ in range(3):
        before = cpu_s(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "import submult.cli"], check=True)
        startups.append(cpu_s(resource.RUSAGE_CHILDREN) - before)
    return {
        "records": passes[0]["records"] + passes[1]["records"] + untraced,
        "untraced_s": sum(r["t"] for r in untraced),
        "traced_s": sum(r["t"] for r in passes[1]["records"]),
        "totals": totals,
        "count_mismatches": mismatches[:20],
        "compared_items": len(second) - 1,
        "spans": n_spans,
        "spans_path": os.path.relpath(spans_path),
        "cli_startup_s": statistics.median(startups),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = W.WORKLOADS[args.workload]
    ctx = Context(args.workload, in_process=False)
    try:
        items = wl.make_round(W.round_rng(args.seed, 0), ctx, 0)
        setup_s = cpu_s()
        loops = [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
        setup_s *= CALIBRATION_REF_S / statistics.median(loops)
        if args.setup_only:
            doc = {}
        else:
            signal.signal(signal.SIGALRM, _alarm(ctx))
            if args.trace:
                spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
                doc = traced_run(wl, ctx, args.seed, spans)
            else:
                doc = timed_run(wl, items, ctx, args.seed, args.seconds)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    doc["setup_s"] = setup_s
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
