"""Rewrite the outputs of tests/spectral_apply_pinned.json, whose bytes
tests/test_cli.py::TestSubcommands::test_spectral_apply_bytes_pinned holds
the CLI to.

    PYTHONPATH=src python tests/make_spectral_pinned.py      # a few seconds

Each key of "outputs" is a command line.  It runs through
``dunklosc.cli.main`` in a scratch directory holding the file's own inputs,
as the test runs it: "input" as c.json (the --coeffs of the *-apply
commands), "pairs" as pairs.csv and "points" as points.csv.  The inputs are
kept.  The script prints every number that moved, old -> new, as the
Markdown table CHANGES.md uses, then rewrites the file.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import tempfile

from dunklosc.cli import main as cli_main

OUT = pathlib.Path(__file__).resolve().with_name("spectral_apply_pinned.json")


def run(argv: str, doc: dict, workdir: pathlib.Path) -> str:
    (workdir / "c.json").write_text(json.dumps(doc["input"]))
    (workdir / "pairs.csv").write_text(doc["pairs"])
    (workdir / "points.csv").write_text(doc["points"])
    coeffs = ["--coeffs", "c.json"] if "-apply" in argv else []
    here, out = os.getcwd(), io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            status = cli_main([*argv.split(), *coeffs])
    finally:
        os.chdir(here)
    if status != 0:
        raise SystemExit(f"{argv!r} exited with {status}")
    return out.getvalue()


def _leaves(doc, path: str):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, doc


def numbers(text: str) -> list:
    """(where, value) for every number of an output: a CSV cell by data row
    and column name, a JSON leaf by its path."""
    if not text.startswith("#"):
        return list(_leaves(json.loads(text), ""))
    lines = text.splitlines()
    cols = lines[2].split(",")  # after the version and metadata comments
    return [(f"row {r} {c}", float(v)) for r, line in enumerate(lines[3:])
            for c, v in zip(cols, line.split(","))]


def moved(argv: str, old: str, new: str):
    """(command, where, old, new, relative change) for every number that moved."""
    before, after = numbers(old), numbers(new)
    if [w for w, _ in before] != [w for w, _ in after]:
        yield argv, "*", "layout", "layout", math.inf
        return
    for (where, a), (_, b) in zip(before, after):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            yield argv, where, a, b, abs(b - a) / abs(a) if a else math.inf


def main():
    doc = json.loads(OUT.read_text())
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, old in doc["outputs"].items():
            doc["outputs"][argv] = new = run(argv, doc, pathlib.Path(tmp))
            rows += moved(argv, old, new)
    print("| command | where | old | new | relative |\n|---|---|---|---|---|")
    for argv, where, a, b, rel in rows:
        print(f"| `{argv}` | `{where}` | {a!r} | {b!r} | {rel:.2g} |")
    print(f"{len(rows)} number(s) moved")
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
