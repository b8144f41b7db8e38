"""Outside-in tracing of dunklosc: spans and work counts recorded by
rebinding module attributes, with no edit to the package.

A call that one dunklosc module makes to another module's public
function goes through the name the caller imported, so rebinding that
name in the caller's namespace records the call.  The names in INTERNAL
are also rebound in their own module, for calls that never cross a
module boundary but carry work the benchmark reports.

Every span records its name, start, end, parent span and run id in
memory; ``write_spans`` writes them out when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

MODULES = ("special", "hermite", "polydunkl", "quadrature", "heat", "riesz",
           "estimates", "suite", "cli")

# Rebound in their own module as well: cli.main is the entry point the
# harness calls; ball_measure is called per pair from estimates._ball_values
# and gauss_rule_1d per axis from quadrature.default_rule.
INTERNAL = ("cli.main", "estimates.ball_measure", "quadrature.gauss_rule_1d")

# Functions the per-layer metrics name.  Tracing refuses to start when one
# of them is missing or no longer called through a rebindable name, so a
# rename cannot silently report zero.
REQUIRED = (
    "special.bessel_ratio_scaled", "special.bessel_i_scaled", "special.bessel_ratio",
    "riesz.riesz_kernel", "riesz.riesz_kernel_components", "riesz.riesz_kernel_direct",
    "estimates.ball_measure", "estimates.growth_scan", "estimates.smoothness_scan",
    "heat.heat_kernel", "heat.heat_kernel_component", "heat.heat_kernel_series",
    "heat.heat_apply_kernel", "quadrature.gauss_rule_1d", "quadrature.default_rule",
    "hermite.hermite_fn_all_1d", "hermite.hermite_fn", "hermite.delta_hermite",
    "hermite.delta_star_hermite", "polydunkl.verify_eldwa", "polydunkl.fund_identity_check",
    "suite.run_suite", "cli.main",
)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


# Work counted from a call's arguments: function -> (count name, parameter, measure).
COUNTED = {
    "special.bessel_ratio_scaled": ("elements", "z", np.size),
    "riesz.riesz_kernel": ("pairs", "x", _rows),
    "riesz.riesz_kernel_components": ("pairs", "x", _rows),
    "heat.heat_kernel": ("pairs", "x", _rows),
    "heat.heat_kernel_component": ("pairs", "x", _rows),
}

# Spans split by the s-integration route of the KernelConfig argument.
ROUTED = {"riesz.riesz_kernel": "cfg"}


class _Param:
    """Reads one parameter of a call, positional or keyword, with its default."""

    def __init__(self, fn, name: str):
        params = list(inspect.signature(fn).parameters.values())
        names = [p.name for p in params]
        if name not in names:
            raise RuntimeError(f"{fn.__module__}.{fn.__name__} has no parameter {name!r}")
        self.index = names.index(name)
        self.name = name
        self.default = params[self.index].default

    def __call__(self, args, kwargs):
        if len(args) > self.index:
            return args[self.index]
        return kwargs.get(self.name, self.default)


def _modules() -> dict:
    return {name: importlib.import_module(f"dunklosc.{name}") for name in MODULES}


def installed_wrappers() -> list[str]:
    """Names of dunklosc module attributes that are currently wrappers."""
    return [f"{mname}.{attr}" for mname, mod in _modules().items()
            for attr, obj in vars(mod).items() if hasattr(obj, "__perfbench_original__")]


def _bindings(mods: dict) -> list[tuple[object, str, str]]:
    """(module, attribute, qualified function name) for every name to rebind."""
    home = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                home[obj] = f"{mname}.{attr}"
    out = []
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            qual = home.get(obj) if inspect.isfunction(obj) else None
            if qual is not None and (not qual.startswith(mname + ".") or qual in INTERNAL):
                out.append((mod, attr, qual))
    missing = sorted(set(REQUIRED) - {qual for _, _, qual in out})
    if missing:
        raise RuntimeError("traced functions not found or no longer called across "
                           "modules: " + ", ".join(missing))
    return out


class Tracer:
    """Spans, work counts and RuntimeWarnings of the traced batches."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run]
        self.counts: Counter = Counter()  # (run, span name, count name) -> total
        self.warnings: Counter = Counter()  # (run, module) -> RuntimeWarnings
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._warn_ctx = None

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, qual in _bindings(_modules()):
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, qual))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, qual: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        counted = COUNTED.get(qual)
        if counted:
            cname, param, measure = counted
            read = _Param(fn, param)
        route = _Param(fn, ROUTED[qual]) if qual in ROUTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{qual}.{route(args, kwargs).s_method}" if route else qual
            if counted:
                counts[self.run, name, cname] += int(measure(read(args, kwargs)))
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- one traced batch --------------------------------------------------

    def __enter__(self):
        self.install()
        self._warn_ctx = warnings.catch_warnings()
        self._warn_ctx.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def on_warning(message, category, filename, lineno, file=None, line=None):
            if not issubclass(category, RuntimeWarning):
                return shown(message, category, filename, lineno, file, line)
            module = self.spans[self._stack[-1]][0].split(".")[0] if self._stack else "bench"
            self.warnings[self.run, module] += 1

        warnings.showwarning = on_warning
        return self

    def __exit__(self, *exc):
        self._warn_ctx.__exit__(*exc)
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def summary(self, run: int) -> dict:
        """Per span name: calls and self seconds; root seconds; counts; warnings."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] == run and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls, self_s = Counter(), defaultdict(float)
        root_s = 0.0
        for i, s in enumerate(self.spans):
            if s[4] != run:
                continue
            dur = s[2] - s[1]
            calls[s[0]] += 1
            self_s[s[0]] += dur - child[i]
            if s[3] < 0:
                root_s += dur
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "root_s": root_s,
            "counts": {f"{n}.{c}": v for (r, n, c), v in self.counts.items() if r == run},
            "warnings": {m: v for (r, m), v in self.warnings.items() if r == run},
        }

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
