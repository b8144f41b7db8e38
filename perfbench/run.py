"""Benchmark harness for dunklosc.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Workloads (see workloads.py and BENCHMARK.json): ``verify``, ``cz_scan``
and ``kernel_table``.  Each run starts one worker process for the
workload (worker.py), which imports the checkout's own ``src/dunklosc``
and drives ``dunklosc.cli.main`` in-process.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics ``wall_s`` (median batch time, set-up excluded), ``setup_s``
(median over SETUP_SAMPLES cold set-ups, the worker's own and those of
set-up-only workers) and ``peak_rss_mb`` (the worker's peak resident
memory).  With ``--trace 1`` it carries the per-layer metrics of a
traced run instead.  ``attempted`` and ``failed`` count oracle
comparisons; ``correct`` is false when one of the benchmark's own
comparisons failed (see workloads.py).  Lines before the JSON give every
metric with its unit and sample count, the failed operations, and the
environment.

Every child process gets BLAS and OpenMP pinned to one thread, so that
runs do not depend on how many cores the machine lends them.  Scratch
files go to .bench_build/perfbench/ inside the checkout; the spans of a
traced run are kept there as spans-<workload>-s<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("verify", "cz_scan", "kernel_table")
SETUP_SAMPLES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 30


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(args: list[str], workdir: Path, timeout: float) -> dict:
    result = workdir / f"result-{len(list(workdir.glob('result-*')))}.json"
    log = workdir / "worker.log"
    with open(log, "ab") as fh:
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *args, "--workdir", str(workdir),
                                   "--result", str(result)], cwd=ROOT, env=child_env(),
                                  stdout=fh, stderr=fh, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"worker exceeded {timeout} s")
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text(errors="replace")[-3000:]
        raise WorkerError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One run of one workload; returns the contract result plus a report."""
    workdir = OUT / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        spans = OUT / f"spans-{workload}-s{seed}.jsonl"
        main = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                                    "--spans", str(spans)], workdir, WORKER_TIMEOUT_S)
        setups = [main["setup_s"]]
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(common + ["--setup-only"], workdir,
                                         SETUP_TIMEOUT_S)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = main["per_layer"]
        samples = {name: len(main["traced_wall_s"]) for name in metrics}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(main["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
        samples = {"wall_s": len(main["wall_s"]), "setup_s": len(setups), "peak_rss_mb": 1}
    report = {"worker": main, "samples": samples,
              "spans_file": str(spans.relative_to(ROOT)) if trace else None}
    result = {"correct": main["correct"], "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    return {"result": result, "report": report}


def print_report(workload: str, seed: int, trace: int, run: dict):
    w = run["report"]["worker"]
    print(f"env {json.dumps(w['env'], sort_keys=True)}")
    print(f"workload {workload} seed {seed} trace {trace}")
    notes = {"fail_share": f"{w['failed']} of {w['attempted']} operations failed",
             "tol_margin_digits": f"min over {w['comparisons']} oracle comparisons, "
                                  f"at {w['tightest']}"}
    metrics = dict(run["result"]["metrics"])
    metrics.setdefault("fail_share", {"value": w["fail_share"], "unit": "ratio"})
    metrics.setdefault("tol_margin_digits", {"value": w["tol_margin_digits"], "unit": "digits"})
    for name, m in metrics.items():
        note = notes[name] if name in notes else f"n={run['report']['samples'][name]}"
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:7s} {note}")
    if w["failures"]:
        print("  failed: " + ", ".join(w["failures"]))
    if run["report"]["spans_file"]:
        print(f"  spans: {w['spans']} in {run['report']['spans_file']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dunklosc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no dunklosc sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, args.trace, args.tiny)
            print_report(name, args.seed, args.trace, run)
            results[name] = run["result"]
    except WorkerError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    sys.stdout.flush()
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
