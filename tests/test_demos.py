import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # each demo is a script against the public API: it must run to the end
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
