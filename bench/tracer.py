"""Spans and counts around the layers of submult, installed from outside.

Every traced function has one span name, ``<defining module>.<function>``.
A function is wrapped in every submult module that bound it (``kohn.det``,
``triangular.germ_colength``, ...), so calls through any binding are seen;
calls inside a module go through its patched global.  A few bindings also
feed a call-site metric: ``kohn.det`` counts ``kohn.minors`` and
``kohn.truncated_basis`` (the stall check) adds to ``kohn.stall_check.s``.

Self time is a span's duration minus the time its child spans cover.  A
function's inclusive time counts only spans with no open span of the same
name above them, so recursion (``det``, ``poly_gcd``) is not counted twice.
Spans are appended to flat arrays while the run goes and written out at the
end.  The hottest calls (``GaussianRational`` arithmetic, S-polynomials and
basis-cache lookups) are counted without spans.
"""

from __future__ import annotations

import json
import time
from array import array

_perf = time.perf_counter

# (defining module, attribute) -> span name; methods use "Class.method".
SPANNED = {
    ("poly", "Polynomial.__mul__"): "poly.mul",
    ("poly", "det"): "poly.det",
    ("poly", "poly_gcd"): "poly.poly_gcd",
    ("poly", "exact_div"): "poly.exact_div",
    ("poly", "parse"): "poly.parse",
    ("ideals", "germ_colength"): "ideals.germ_colength",
    ("ideals", "truncated_basis"): "ideals.truncated_basis",
    ("ideals", "_groebner_raw"): "ideals.groebner",
    ("ideals", "normal_form"): "ideals.normal_form",
    ("ideals", "radical_step"): "ideals.radical_step",
    ("ideals", "root_order"): "ideals.root_order",
    ("ideals", "is_germ_unit"): "ideals.is_germ_unit",
    ("kohn", "run"): "kohn.run",
    ("kohn", "step"): "kohn.step",
    ("triangular", "run_effective"): "triangular.run_effective",
    ("triangular", "certify"): "triangular.certify",
    ("triangular", "multiplicity"): "triangular.multiplicity",
    ("contact", "contact_family"): "contact.contact_family",
    ("contact", "balance_exponent"): "contact.balance_exponent",
    ("cli", "main"): "cli.main",
}

# Bindings that also feed a call-site metric: (module, name) -> metric prefix.
CALL_SITES = {
    ("kohn", "det"): "kohn.minors",
    ("kohn", "truncated_basis"): "kohn.stall_check",
}

MODULES = ("poly", "ideals", "kohn", "triangular", "contact", "cli", "corpus")


class Tracer:
    """Span log plus running per-name aggregates for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.log_name = array("H")
        self.log_start = array("d")
        self.log_end = array("d")
        self.log_parent = array("q")
        self.log_item = array("q")
        # open frames: [log index, name id, start, time covered by children]
        self.stack: list[list] = []
        self.depth: list[int] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = {}
        self.rows_max = 0
        self.item = -1
        self.last_spoly = None
        self._patched: list[tuple[object, str, object]] = []

    # -- bookkeeping -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
        return nid

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def innermost(self) -> str | None:
        return self.names[self.stack[-1][1]] if self.stack else None

    def reset_stack(self) -> None:
        """Drop frames left open by an interrupted item."""
        for frame in self.stack:
            self.depth[frame[1]] = 0
        self.stack.clear()

    def snapshot(self) -> dict[str, float]:
        """Every aggregate as one flat dict, for per-item differences."""
        out = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[nid]
            out[name + ".s"] = self.incl[nid]
            out[name + ".self_s"] = self.self_s[nid]
        return out

    # -- wrappers --------------------------------------------------------

    def spanned(self, fn, name: str, site: str | None = None, post=None):
        nid = self.name_id(name)
        stack, depth, calls, incl, self_s = (
            self.stack, self.depth, self.calls, self.incl, self.self_s
        )
        log_name, log_start, log_end, log_parent, log_item = (
            self.log_name, self.log_start, self.log_end, self.log_parent, self.log_item
        )
        tracer = self

        def wrapper(*args, **kwargs):
            start = _perf()
            idx = len(log_name)
            log_name.append(nid)
            log_start.append(start)
            log_end.append(0.0)
            log_parent.append(stack[-1][0] if stack else -1)
            log_item.append(tracer.item)
            frame = [idx, nid, start, 0.0]
            stack.append(frame)
            depth[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                dur = end - start
                log_end[idx] = end
                if stack and stack[-1] is frame:
                    stack.pop()
                    if stack:
                        stack[-1][3] += dur
                    depth[nid] -= 1
                    calls[nid] += 1
                    self_s[nid] += dur - frame[3]
                    if depth[nid] == 0:
                        incl[nid] += dur
                    if site is not None:
                        tracer.add(site + ".calls")
                        tracer.add(site + ".s", dur)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key: str, post=None):
        counts = self.counts
        counts.setdefault(key, 0)
        if post is None:

            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

        else:
            tracer = self

            def wrapper(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                post(tracer, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers of an already imported submult package."""
        import importlib

        pkg = importlib.import_module("submult")
        mods = {m: importlib.import_module(f"submult.{m}") for m in MODULES}
        bindings = [pkg] + list(mods.values())
        for (mod, attr), name in SPANNED.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                fn = cls.__dict__[meth]
                wrapped = self.spanned(fn, name)
                for alias, value in list(cls.__dict__.items()):
                    if value is fn:  # __rmul__ is the same function
                        self._set(cls, alias, wrapped)
                continue
            fn = getattr(mods[mod], attr)
            for owner in bindings:
                for alias, value in list(vars(owner).items()):
                    if value is fn:
                        site = CALL_SITES.get((owner.__name__.rsplit(".", 1)[-1], alias))
                        self._set(
                            owner, alias, self.spanned(fn, name, site, POSTS.get(name))
                        )
        gr = mods["poly"].GaussianRational
        for meth in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__"):
            fn = gr.__dict__[meth]
            wrapped = self.counted(fn, "poly.coeff_ops")
            for alias, value in list(gr.__dict__.items()):
                if value is fn:  # __radd__ and __rmul__ share a function
                    self._set(gr, alias, wrapped)
        ideals = mods["ideals"]
        self._set(ideals, "_spoly", self.counted(ideals._spoly, "ideals.spairs", _post_spoly))
        ideal_cls = ideals.Ideal
        self._set(ideal_cls, "groebner", _cache_probe(self, ideal_cls.__dict__["groebner"]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write(self, path: str) -> int:
        """Write the span log as JSON lines: name, start, end, parent, item."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.log_name)):
                fh.write(
                    json.dumps(
                        [
                            names[self.log_name[i]],
                            self.log_start[i],
                            self.log_end[i],
                            self.log_parent[i],
                            self.log_item[i],
                        ]
                    )
                )
                fh.write("\n")
        return len(self.log_name)


def _post_step(tracer, args, kwargs, result):
    rows = result[0].rows.nrows
    if rows > tracer.rows_max:
        tracer.rows_max = rows


def _post_radical(tracer, args, kwargs, result):
    if result.method == "partial":
        tracer.add("ideals.radical_step.partial")


def _post_germ(tracer, args, kwargs, result):
    if result.capped:
        tracer.add("ideals.germ_colength.capped")


def _post_truncated(tracer, args, kwargs, result):
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    tracer.add("ideals.truncated_basis.degree_sum", degree)


def _post_spoly(tracer, args, kwargs, result):
    tracer.last_spoly = result


def _post_normal_form(tracer, args, kwargs, result):
    # _groebner_raw reduces each S-polynomial straight after building it
    if args and args[0] is tracer.last_spoly:
        tracer.last_spoly = None
        if not result.is_zero():
            tracer.add("ideals.spairs.useful")


def _post_run_effective(tracer, args, kwargs, result):
    tracer.add("triangular.rungs", result.L)


def _cache_probe(tracer, fn):
    def groebner(self, order=None):
        tracer.add("ideals.groebner.lookups")
        if (order or self.default_order()) in self._cache:
            tracer.add("ideals.groebner.cache_hits")
        return fn(self, order)

    groebner.__wrapped__ = fn
    return groebner


POSTS = {
    "kohn.step": _post_step,
    "ideals.radical_step": _post_radical,
    "ideals.germ_colength": _post_germ,
    "ideals.truncated_basis": _post_truncated,
    "ideals.normal_form": _post_normal_form,
    "triangular.run_effective": _post_run_effective,
}
