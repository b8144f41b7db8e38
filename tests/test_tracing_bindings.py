"""The benchmark tracer finds every function its per-layer metrics name.

perfbench/tracing.py rebinds the names one dunklosc module imports from
another, and refuses to start when a name in its REQUIRED list has no
such caller left.  Loading it here, read-only, makes a simplification
that drops the last cross-module caller fail in Tier-1 rather than only
in a benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_binds_every_required_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bound = {qual for _, _, qual in tracing._bindings(tracing._modules())}
    assert set(tracing.REQUIRED) <= bound
