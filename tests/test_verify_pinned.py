"""`verify --suite all` reproduces the records pinned in verify_pinned.json.

The file holds four configs' records (tests/make_verify_pinned.py writes it
and prints what moved).  Names, `passed`, tolerances and every field of a
check that runs no eigensolver must match exactly; the other float fields
of the checks the file lists under "approx" match to its rel_tol, or its
abs_tol at rounding level, so that another LAPACK build does not fail here.
A change that moves a record regenerates the file and lists the move.
"""

import json
import math
from pathlib import Path

import pytest

from dunklosc.suite import parse_config, run_suite

PINNED = json.loads((Path(__file__).with_name("verify_pinned.json")).read_text())
APPROX = PINNED["approx"]


def _matches(check: str, key: str, old, new) -> bool:
    if isinstance(old, float) and isinstance(new, float):
        if math.isnan(old) or math.isnan(new):
            return math.isnan(old) and math.isnan(new)
        if check in APPROX["checks"] and key != "tolerance":
            return math.isclose(new, old, rel_tol=APPROX["rel_tol"], abs_tol=APPROX["abs_tol"])
    return type(old) is type(new) and old == new


@pytest.mark.parametrize("label", sorted(PINNED["configs"]))
def test_verify_records_are_pinned(label):
    pinned = PINNED["configs"][label]
    _, report = run_suite(parse_config(json.dumps(pinned["config"])), "all")
    records = json.loads(json.dumps(report["checks"]))
    assert [r["name"] for r in records] == [r["name"] for r in pinned["records"]]
    for old, new in zip(pinned["records"], records):
        assert sorted(old) == sorted(new), old["name"]
        moved = {key: (old[key], new[key]) for key in old
                 if not _matches(old["name"], key, old[key], new[key])}
        assert not moved, f"{label} {old['name']} moved (old, new): {moved}"
