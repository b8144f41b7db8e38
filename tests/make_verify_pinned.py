"""Write tests/verify_pinned.json: the `verify --suite all` records of four
configs, which tests/test_verify_pinned.py holds the suite to.

    PYTHONPATH=src python tests/make_verify_pinned.py      # a few seconds

The configs are d = 1 and d = 2 on the documented defaults, perfbench's
Gauss-Jacobi DEFAULT_CONFIG at alpha = (-1/2, 0.7), and alpha = (0) at
config seed 571454438, where `cz_scans` fails (ROADMAP item 1).  Each
record is kept whole, timings dropped.  The script prints every record
field that moved against the file it replaces, as the Markdown table
CHANGES.md uses, then rewrites the file.

Names, `passed`, tolerances and every field of a check that runs no
eigensolver are pinned exactly.  The float fields other than the tolerance
of a check whose rule comes from ``np.linalg.eigvalsh`` (every Gauss rule:
the Laguerre and Gegenbauer rules and ``leggauss``) are pinned to APPROX:
relative 1e-6, or 1e-13 absolute, since another LAPACK build moves those
nodes by a few ulps and a rounding-level residual by as much as itself.
"""

import importlib.util
import json
import math
import pathlib
import sys

from dunklosc.suite import parse_config, run_suite

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "verify_pinned.json"
WORKLOADS = HERE.parent / "perfbench" / "workloads.py"

# Checks whose numbers go through np.linalg.eigvalsh (a Gauss rule).
EIGEN_CHECKS = ("orthonormality", "fischer_layer", "heat_semigroup", "heat_contraction",
                "schlafli_normalization", "riesz_route_agreement", "ball_measure", "cz_scans")
APPROX = {"checks": list(EIGEN_CHECKS), "rel_tol": 1e-6, "abs_tol": 1e-13}


def perfbench_default_config() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return dict(workloads.DEFAULT_CONFIG)


def configs() -> dict:
    return {
        "d1-defaults": {"alpha": [0.0]},
        "d2-defaults": {"alpha": [-0.5, 0.7]},
        "d2-perfbench-gauss-jacobi": dict(perfbench_default_config(), alpha=[-0.5, 0.7]),
        "d1-seed-571454438": {"alpha": [0.0], "seed": 571454438},
    }


def records(config: dict) -> list[dict]:
    # through JSON, so that a record compares with its stored copy
    return json.loads(json.dumps(run_suite(parse_config(json.dumps(config)), "all")[1]["checks"]))


def same(old, new) -> bool:
    """Equal, with NaN equal to NaN."""
    if isinstance(old, float) and isinstance(new, float) and math.isnan(old) and math.isnan(new):
        return True
    return type(old) is type(new) and old == new


def moved(old: dict, new: dict):
    """(config, check, field, old, new) for every field of ``new`` that differs
    from ``old``, the file's previous content (a missing side reads None); a
    config that ``old`` lacks is one row."""
    for label, cur in new["configs"].items():
        if label not in old.get("configs", {}):
            yield label, "*", "*", None, "new config"
            continue
        before = {r["name"]: r for r in old["configs"][label]["records"]}
        for rec in cur["records"]:
            was = before.get(rec["name"], {})
            for key in sorted(set(rec) | set(was)):
                if not same(was.get(key), rec.get(key)):
                    yield label, rec["name"], key, was.get(key), rec.get(key)


def main():
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    new = {"approx": APPROX,
           "configs": {label: {"config": cfg, "records": records(cfg)}
                       for label, cfg in configs().items()}}
    rows = list(moved(old, new))
    print("| config | check | field | old | new |\n|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(f"`{v}`" if i < 3 else repr(v) for i, v in enumerate(row)) + " |")
    print(f"{len(rows)} field(s) moved")
    OUT.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
