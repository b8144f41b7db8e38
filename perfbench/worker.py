"""One workload run in its own process: set-up, timed batches, oracle gates.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE [--setup-only] [--tiny] [--spans FILE]

run.py starts this script with the checkout's ``src`` on PYTHONPATH and
the BLAS/OpenMP thread count pinned; it writes one JSON result to
``--result``.  Set-up is the cold ``import dunklosc``, input generation
and one warm-up call.  The batch then repeats until ``--seconds`` have
passed, at least twice so that repeats can be compared byte for byte.
With ``--trace 1`` batches alternate untraced and traced; the untraced
ones give the tracing overhead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up starts before the cold import of dunklosc

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BATCH_BUDGET_S = 120.0  # no batch starts that would end later than this

# Per-span metrics of the traced run: span name -> measures.
SPAN_METRICS = {
    "special.bessel_ratio_scaled": ("elements", "self_s", "ns_per_element"),
    "special.bessel_i_scaled": ("calls", "self_s"),
    "special.bessel_ratio": ("calls", "self_s"),
    "riesz.riesz_kernel.exact": ("pairs", "self_s", "us_per_pair"),
    "riesz.riesz_kernel.gauss-jacobi": ("pairs", "self_s", "us_per_pair"),
    "riesz.riesz_kernel_components": ("pairs", "self_s"),
    "riesz.riesz_kernel_direct": ("calls", "self_s", "ms_per_call"),
    "estimates.ball_measure": ("calls", "self_s", "ms_per_call"),
    "estimates.growth_scan": ("self_s",),
    "estimates.smoothness_scan": ("self_s",),
    "heat.heat_kernel": ("pairs", "self_s"),
    "heat.heat_kernel_component": ("pairs", "self_s"),
    "heat.heat_kernel_series": ("self_s",),
    "heat.heat_apply_kernel": ("calls", "self_s"),
    "quadrature.gauss_rule_1d": ("calls", "self_s"),
    "quadrature.default_rule": ("calls",),
    "hermite.hermite_fn_all_1d": ("calls", "self_s"),
    "hermite.hermite_fn": ("calls", "self_s"),
    "hermite.delta_hermite": ("calls", "self_s"),
    "hermite.delta_star_hermite": ("calls", "self_s"),
    "polydunkl.verify_eldwa": ("calls", "self_s"),
    "polydunkl.fund_identity_check": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
RATES = {"ns_per_element": ("elements", 1e9), "us_per_pair": ("pairs", 1e6),
         "ms_per_call": ("calls", 1e3)}
UNITS = {"self_s": "s", "calls": "count", "pairs": "count", "elements": "count",
         "ns_per_element": "ns", "us_per_pair": "us", "ms_per_call": "ms"}


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git must not report an enclosing repo
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_batch(cli, wl, calls):
    """All calls of one batch, then their gates; returns (wall_s, outputs, gates)."""
    from workloads import Gate
    outputs, status, gates = {}, {}, []
    t0 = time.perf_counter()
    for call in calls:
        if os.path.exists(call.output):
            os.remove(call.output)
        try:
            status[call.label] = cli.main(call.argv)
            with open(call.output, "rb") as fh:
                outputs[call.label] = fh.read()
        except (Exception, SystemExit) as e:
            sys.stderr.write(f"{call.label} raised {e!r}\n")
            gates.append(Gate(f"{call.label}:raised", False))
    if len(outputs) == len(calls):
        try:
            gates += wl.check(outputs, status)
        except (ValueError, KeyError, IndexError) as e:
            sys.stderr.write(f"unreadable output: {e!r}\n")
            gates.append(Gate("outputs:readable", False))
    return time.perf_counter() - t0, outputs, gates


def layer_metrics(summaries, traced_wall, untraced_wall, timings, out_bytes,
                  fail_share, margin) -> dict:
    """Per-layer metrics from the traced batches (medians of their times)."""
    from tracing import MODULES
    from workloads import Verify
    med = lambda xs: statistics.median(xs) if xs else 0.0
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    first = summaries[0]
    for span, measures in SPAN_METRICS.items():
        work = {"calls": first["calls"].get(span, 0),
                "pairs": first["counts"].get(f"{span}.pairs", 0),
                "elements": first["counts"].get(f"{span}.elements", 0)}
        self_s = med([s["self_s"].get(span, 0.0) for s in summaries])
        for m in measures:
            if m == "self_s":
                value = self_s
            elif m in RATES:
                base, scale = RATES[m]
                value = self_s / work[base] * scale if work[base] else 0.0
            else:
                value = work[m]
            put(f"{span}.{m}", value, UNITS[m])
    for module in MODULES:
        put(f"{module}.self_s", med([sum(v for k, v in s["self_s"].items()
                                         if k.startswith(module + "."))
                                     for s in summaries]), "s")
        put(f"{module}.warnings", first["warnings"].get(module, 0), "count")
    for name in Verify.CHECKS:
        put(f"suite.check.{name}.s", med([t.get(name, 0.0) for t in timings]), "s")
    put("cli.output_bytes", out_bytes, "bytes")
    put("trace.overhead_s", med(traced_wall) - med(untraced_wall), "s")
    put("trace.harness_s", med([w - s["root_s"] for w, s in zip(traced_wall, summaries)]), "s")
    put("fail_share", fail_share, "ratio")
    put("tol_margin_digits", margin, "digits")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    import dunklosc.cli as cli
    src = ROOT / "src"
    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"dunklosc imported from {cli.__file__}, not from {src}")
    from workloads import MARGIN_CAP, WORKLOADS, Gate
    from tracing import Tracer, installed_wrappers

    wl = WORKLOADS[args.workload](args.workdir, args.seed, args.tiny)
    cli.main(wl.warmup().argv)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    wl.prepare()
    calls = wl.calls()
    tracer = Tracer() if args.trace else None
    batches = []
    first = {}
    start = time.perf_counter()
    while True:
        run = len(batches)
        traced = bool(args.trace) and run % 2 == 1
        wrappers = []
        if traced:
            tracer.run = run
            with tracer:
                wall, outputs, gates = run_batch(cli, wl, calls)
        else:
            wrappers = installed_wrappers()
            wall, outputs, gates = run_batch(cli, wl, calls)
            wrappers += installed_wrappers()
            if wrappers:
                gates.append(Gate("untraced:no_wrappers", False))
        for label, data in outputs.items():
            norm = wl.normalize(label, data)
            if label in first:
                gates.append(Gate(f"{label}:deterministic", norm == first[label]))
            else:
                first[label] = norm
        batches.append({"wall_s": wall, "traced": traced, "gates": gates, "outputs": outputs,
                        "run": run, "wrappers": wrappers})
        elapsed = time.perf_counter() - start
        if len(batches) >= 2 and (elapsed >= args.seconds or elapsed + wall > BATCH_BUDGET_S):
            break

    gates = [g for b in batches for g in b["gates"]]
    untraced = [b for b in batches if not b["traced"]]
    traced = [b for b in batches if b["traced"]]
    summaries = [tracer.summary(b["run"]) for b in traced] if tracer else []
    if len(summaries) > 1:
        work = [(s["calls"], s["counts"]) for s in summaries]
        gates.append(Gate("trace:counts_repeat", all(w == work[0] for w in work)))
    failed = [g for g in gates if not g.passed]
    compared = [g for g in gates if g.margin is not None]
    tightest = min(compared, key=lambda g: g.margin, default=None)
    margin = tightest.margin if tightest else MARGIN_CAP
    fail_share = len(failed) / len(gates)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": [b["wall_s"] for b in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(gates),
        "failed": len(failed),
        "correct": not any(g.source == "bench" for g in failed),
        "failures": sorted({g.label for g in failed}),
        "fail_share": fail_share,
        "tol_margin_digits": margin,
        "comparisons": len(compared),
        "tightest": tightest.label if tightest else None,
        "wrappers_untraced": sorted({w for b in untraced for w in b["wrappers"]}),
        "env": environment(),
    }
    if tracer is not None:
        timings = [wl.timings(b["outputs"]) for b in traced]
        out_bytes = sum(len(v) for v in traced[0]["outputs"].values())
        result["traced_wall_s"] = [b["wall_s"] for b in traced]
        result["per_layer"] = layer_metrics(summaries, result["traced_wall_s"], result["wall_s"],
                                            timings, out_bytes, fail_share, margin)
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
