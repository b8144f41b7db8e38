"""Batch command-line interface.

Subcommands (coordinates are 1-based on the command line):

  hermite-eval      evaluate h_n^alpha on a grid or point file -> CSV
  heat-kernel       heat-kernel slices (with per-parity breakdown) -> CSV
  heat-apply        apply e^{-t L} to expansion coefficients -> JSON
  riesz-apply       apply R_j to expansion coefficients -> JSON
  riesz-kernel      Riesz kernel on a pair file (per-parity breakdown) -> CSV
  pairing-check     spectral vs double-integral dual pairing -> JSON
  verify            run a named check suite from a config -> JSON
  scan-growth       Calderon-Zygmund growth-estimate scan -> JSON (seeded)
  scan-smoothness   gradient-estimate scan -> JSON (seeded)

Outputs are deterministic for fixed inputs and seeds (the verify report
keeps wall times in a separate "timings" map).  CSV files start with a
versioned header comment naming the columns.

Every subcommand exits 0 on success, 1 when a check, scan or pairing
fails, and 2 on bad input or config, after an "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .estimates import growth_scan, smoothness_scan
from .heat import all_parities, heat_apply_spectral, heat_kernel, heat_kernel_component
from .hermite import AlphaParams, hermite_fn
from .quadrature import SpectralCoeffs, default_rule
from .riesz import (KernelConfig, _orbit_gap, dual_pairing_check, riesz_apply_spectral,
                    riesz_kernel_components)
from .suite import SUITES, _grid_points, parse_config, run_suite

CSV_VERSION = "v1"
# The kernel flags' defaults: a verify config's, at the subcommands' own zeta count.
CLI_KERNEL = KernelConfig(zeta_points=192)


def _parse_tuple(text: str, kind=float) -> tuple:
    try:
        return tuple(kind(tok) for tok in text.split(","))
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")


def _support(values: tuple, flag: str) -> tuple[tuple[float, float]]:
    """The one interval (LO, HI) of a support flag, refused unless 0 < LO < HI."""
    if len(values) != 2 or not 0.0 < values[0] < values[1] < np.inf:
        raise ValueError(f"{flag} must be LO,HI with 0 < LO < HI, got {list(values)}")
    return (values,)


def _kernel_config(ns) -> KernelConfig:
    return KernelConfig(**{f.name: getattr(ns, f.name) for f in fields(KernelConfig)})


def _add_kernel_flags(p: argparse.ArgumentParser, s_method: bool = True):
    """The kernel quadrature flags, each stored under its KernelConfig field,
    with CLI_KERNEL's defaults; the scans take no ``--s-method`` or
    ``--s-points``, as they need the exact route near the diagonal, which
    has no s-nodes."""
    p.add_argument("--zeta-points", type=int, dest="zeta_points")
    p.add_argument("--zeta-grading", type=float, dest="zeta_grading")
    if s_method:
        p.add_argument("--s-points", type=int, dest="s_points_per_dim")
        p.add_argument("--s-method", choices=["gauss-jacobi", "exact"], dest="s_method")
    p.set_defaults(**asdict(CLI_KERNEL))


def _read_pairs(path: str, d: int) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != 2 * d:
        raise ValueError(f"pair file must have {2*d} columns (x1..x{d},y1..y{d})")
    return data[:, :d], data[:, d:]


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(ns, meta: str, cols: list[str], rows) -> None:
    """The versioned header naming the subcommand, a metadata line, the
    column names and one row of .17g numbers per entry of ``rows``."""
    lines = [f"# dunklosc {ns.command} {CSV_VERSION}", f"# {meta}", ",".join(cols)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    _write("\n".join(lines) + "\n", ns.output)


def _coordinate(ns, d: int) -> int:
    """The 0-based coordinate of the 1-based ``--j``, refused outside 1..d."""
    if not 1 <= ns.j <= d:
        raise ValueError(f"--j must be in 1..{d}")
    return ns.j - 1


def _load_coeffs(path: str) -> SpectralCoeffs:
    with open(path) as fh:  # objects as tuples of pairs, so that a repeated key is seen
        doc = json.load(fh, object_pairs_hook=tuple)
    doc = dict(doc) if isinstance(doc, tuple) else {}
    for key, kind, what in (("alpha", list, "an array"), ("coeffs", tuple, "an object")):
        if type(doc.get(key)) is not kind:
            raise ValueError(f"coefficient file field {key!r} must be present and {what}")
    alpha = AlphaParams(tuple(doc["alpha"]))
    coeffs = {}
    for key, val in doc["coeffs"]:
        try:
            n = tuple(int(tok) for tok in key.split(","))
        except ValueError as e:
            raise ValueError(f"coefficient index {key!r}: {e}") from e
        if min(n) < 0:
            raise ValueError(f"coefficient index {key!r}: entries must be >= 0")
        if len(n) != alpha.dim:
            raise ValueError(f"coefficient index {key!r} does not match alpha dimension")
        if n in coeffs:
            raise ValueError(f"coefficient index {key!r} repeats the index {n}")
        if isinstance(val, bool) or not isinstance(val, (int, float)) or not np.isfinite(val):
            raise ValueError(f"coefficient {key!r} must be a finite number, got {val!r}")
        coeffs[n] = float(val)
    return SpectralCoeffs(np.reshape(list(coeffs), (-1, alpha.dim)), list(coeffs.values()), alpha)


def _dump_coeffs(c: SpectralCoeffs) -> str:
    keys = (",".join(str(k) for k in n) for n in c.n.tolist())
    doc = {"alpha": list(c.alpha.alpha), "coeffs": dict(zip(keys, c.values.tolist()))}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _eps_label(eps) -> str:
    return "".join(str(int(e)) for e in eps)


# --- subcommand implementations ---------------------------------------------

def _cmd_hermite_eval(ns) -> int:
    al = AlphaParams(ns.alpha)
    if ns.points:
        pts = np.loadtxt(ns.points, delimiter=",", comments="#", ndmin=2)
        if pts.shape[1] != al.dim:
            raise ValueError(f"point file must have {al.dim} columns")
        bad = ~np.isfinite(pts).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"point {k} of --points is not finite: {pts[k].tolist()}")
    else:
        if len(ns.grid) != 3 or not (np.isfinite(ns.grid[:2]).all() and ns.grid[2] >= 1
                                     and ns.grid[2].is_integer()):
            raise ValueError(f"--grid must be LO,HI,COUNT with LO and HI finite and COUNT a "
                             f"positive integer, got {list(ns.grid)}")
        lo, hi, cnt = ns.grid
        pts = _grid_points(al.dim, lo, hi, int(cnt))
    vals = hermite_fn(ns.n, al, pts)
    _write_csv(ns, f"alpha={list(al.alpha)} n={list(ns.n)}",
               [f"x{i+1}" for i in range(al.dim)] + ["h"],
               ([*row, v] for row, v in zip(pts, vals)))
    return 0


def _cmd_heat_kernel(ns) -> int:
    al = AlphaParams(ns.alpha)
    d = al.dim
    X, Y = _read_pairs(ns.pairs, d)
    eps_list = all_parities(d)
    cols = ["t"] + [f"x{i+1}" for i in range(d)] + [f"y{i+1}" for i in range(d)] + ["G"]
    cols += [f"G_eps{_eps_label(e)}" for e in eps_list]
    rows = []
    for t in ns.t:
        total = heat_kernel(al, t, X, Y)
        comps = [heat_kernel_component(al, e, t, X, Y) for e in eps_list]
        rows += [[t, *X[p], *Y[p], total[p], *[c[p] for c in comps]] for p in range(X.shape[0])]
    _write_csv(ns, f"alpha={list(al.alpha)}", cols, rows)
    return 0


def _cmd_heat_apply(ns) -> int:
    _write(_dump_coeffs(heat_apply_spectral(_load_coeffs(ns.coeffs), ns.t)), ns.output)
    return 0


def _cmd_riesz_apply(ns) -> int:
    c = _load_coeffs(ns.coeffs)
    _write(_dump_coeffs(riesz_apply_spectral(c, _coordinate(ns, c.dim))), ns.output)
    return 0


def _cmd_riesz_kernel(ns) -> int:
    al = AlphaParams(ns.alpha)
    d = al.dim
    j = _coordinate(ns, d)
    X, Y = _read_pairs(ns.pairs, d)
    cfg = _kernel_config(ns)
    total, comps = riesz_kernel_components(al, j, X, Y, cfg)
    eps_list = all_parities(d)
    cols = ([f"x{i+1}" for i in range(d)] + [f"y{i+1}" for i in range(d)] + ["R"]
            + [f"R_eps{_eps_label(e)}" for e in eps_list])
    _write_csv(ns, f"alpha={list(al.alpha)} j={ns.j} zeta_points={cfg.zeta_points} "
                   f"s_points={cfg.s_points_per_dim} s_method={cfg.s_method}", cols,
               ([*X[p], *Y[p], total[p], *[comps[e][p] for e in eps_list]]
                for p in range(X.shape[0])))
    return 0


def _cmd_pairing_check(ns) -> int:
    al = AlphaParams(ns.alpha)
    f, g = _support(ns.f_support, "--f-support"), _support(ns.g_support, "--g-support")
    # the first axis's rule only, so that d > 1 is refused before a d-dimensional rule is built
    rule = default_rule(AlphaParams(al.alpha[:1]), ns.quad_points)
    resid, spectral, integral = dual_pairing_check(
        f, g, _coordinate(ns, al.dim), al, rule, _kernel_config(ns), max_degree=ns.max_degree)
    rel = resid / max(abs(spectral), 1e-300)
    report = {
        "alpha": list(al.alpha), "j": ns.j,
        "f_support": list(ns.f_support), "g_support": list(ns.g_support),
        "separation": _orbit_gap(f, g),
        "spectral": spectral, "integral": integral,
        "residual": resid, "relative_residual": rel,
        "passed": rel <= 1e-3,
    }
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", ns.output)
    return 0 if report["passed"] else 1


def _cmd_verify(ns) -> int:
    with open(ns.config) as fh:
        cfg = parse_config(fh.read())
    status, report = run_suite(cfg, ns.suite)
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", ns.output)
    for check in report["checks"]:
        line = "PASS" if check["passed"] else "FAIL"
        sys.stderr.write(f"{line} {check['name']} residual={check['residual']:.3g}\n")
    return status


def _cmd_scan(ns, which: str) -> int:
    al = AlphaParams(ns.alpha)
    j = _coordinate(ns, al.dim)
    fn = growth_scan if which == "growth" else smoothness_scan
    rep = fn(al, j, n_pairs=ns.pairs, seed=ns.seed, cfg=_kernel_config(ns),
             positive_orthant=ns.positive_orthant)
    doc = asdict(rep)
    doc["scan"] = which
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", ns.output)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dunklosc",
                                  description="Dunkl harmonic oscillator toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, alpha=True):
        if alpha:
            p.add_argument("--alpha", type=_parse_tuple, required=True,
                           help="comma-separated alpha vector, each >= -0.5")
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")

    p = sub.add_parser("hermite-eval", help="evaluate a generalized Hermite function")
    common(p)
    p.add_argument("--n", type=lambda text: _parse_tuple(text, int), required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--grid", type=_parse_tuple, metavar="LO,HI,COUNT")
    grp.add_argument("--points", help="CSV file of evaluation points")
    p.set_defaults(fn=_cmd_hermite_eval)

    p = sub.add_parser("heat-kernel", help="heat kernel slices as CSV")
    common(p)
    p.add_argument("--t", type=_parse_tuple, required=True)
    p.add_argument("--pairs", required=True, help="CSV with columns x1..xd,y1..yd")
    p.set_defaults(fn=_cmd_heat_kernel)

    p = sub.add_parser("heat-apply", help="apply the heat semigroup to coefficients")
    common(p, alpha=False)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--coeffs", required=True, help="JSON coefficient file")
    p.set_defaults(fn=_cmd_heat_apply)

    p = sub.add_parser("riesz-apply", help="apply R_j to coefficients")
    common(p, alpha=False)
    p.add_argument("--j", type=int, required=True, help="coordinate, 1-based")
    p.add_argument("--coeffs", required=True)
    p.set_defaults(fn=_cmd_riesz_apply)

    p = sub.add_parser("riesz-kernel", help="Riesz kernel on a pair file")
    common(p)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--pairs", required=True)
    _add_kernel_flags(p)
    p.set_defaults(fn=_cmd_riesz_kernel)

    p = sub.add_parser("pairing-check", help="dual pairing: spectral vs kernel integral")
    common(p)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--f-support", type=_parse_tuple, default=(0.4, 2.0),
                   metavar="LO,HI")
    p.add_argument("--g-support", type=_parse_tuple, default=(3.0, 5.0),
                   metavar="LO,HI")
    p.add_argument("--max-degree", type=int, default=900)
    p.add_argument("--quad-points", type=int, default=512)
    _add_kernel_flags(p)
    p.set_defaults(fn=_cmd_pairing_check)

    p = sub.add_parser("verify", help="run a verification suite from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=_cmd_verify)

    for which in ("growth", "smoothness"):
        p = sub.add_parser(f"scan-{which}", help=f"Calderon-Zygmund {which} scan")
        common(p)
        p.add_argument("--j", type=int, default=1)
        p.add_argument("--pairs", type=int, default=1000)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--positive-orthant", action="store_true")
        _add_kernel_flags(p, s_method=False)
        p.set_defaults(fn=lambda ns, w=which: _cmd_scan(ns, w))

    return top


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
