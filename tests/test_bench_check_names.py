"""The benchmark's pinned verify check names are the ones the suite reports.

perfbench/workloads.py lists every check of `verify --suite all` in
Verify.CHECKS and stops a traced run on a name it does not know.  Loading
it here, read-only, makes an added or renamed check fail in Tier-1 rather
than only inside a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from dunklosc.suite import RunConfig, run_suite

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_pinned_check_names_match_the_suite(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    _, report = run_suite(RunConfig((0.0,)), "all")
    assert workloads.Verify.CHECKS == tuple(rec["name"] for rec in report["checks"])
