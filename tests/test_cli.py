import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dunklosc.cli import _kernel_config, build_parser, main
from dunklosc.hermite import AlphaParams
from dunklosc.riesz import KernelConfig, riesz_kernel
from dunklosc.suite import RunConfig, parse_config, run_suite, serialize_config, worst_of

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    # The child may run in another directory, so every PYTHONPATH entry is
    # made absolute and the repo's own src comes first.
    inherited = [os.path.abspath(p)
                 for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *inherited]))


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "dunklosc.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


# Malformed fixed-arity or counted inputs, each with the flag or field its error
# names: the one-number support crashed with a TypeError, a third support number
# was taken as the bump's amplitude, a two-number grid named no flag, a
# fractional or zero COUNT wrote 2 rows or none, a non-finite grid end or
# point wrote nan rows with exit 0, a negative seed got numpy's message, which
# names no field, after verify had run checks, and a max degree below 1 either
# crashed on a negative dimension or reported a residual of 1e296.
NAMED_IN_ERROR = {
    "pairing-check --alpha=0 --f-support=0.4": "--f-support",
    "pairing-check --alpha=0 --f-support=0.4,2,7": "--f-support",
    "pairing-check --alpha=0 --g-support=5,3": "--g-support",
    "pairing-check --alpha=0 --g-support=-5,-3": "--g-support",
    "pairing-check --alpha=0,0,0": "one-dimensional",
    "hermite-eval --alpha=0 --n=1 --grid=-1,1": "--grid",
    "hermite-eval --alpha=0 --n=1 --grid=-1,1,2.5": "--grid",
    "hermite-eval --alpha=0 --n=1 --grid=-1,1,0": "--grid",
    "hermite-eval --alpha=0 --n=1 --grid=nan,1,3": "--grid",
    "hermite-eval --alpha=0 --n=1 --grid=0,inf,3": "--grid",
    "hermite-eval --alpha=0,0 --n=1,1 --points={dir}/nan.csv": "point 1 of --points",
    "scan-growth --alpha=0 --seed=1 --pairs=0": "n_pairs",
    "scan-smoothness --alpha=0 --seed=1 --pairs=-3": "n_pairs",
    "scan-growth --alpha=0 --pairs=3 --seed=-1": "seed",
    "verify --config={dir}/negative-seed.json": "config error at seed",
    "pairing-check --alpha=0 --max-degree=-5": "max_degree",
    "pairing-check --alpha=0 --max-degree=0": "max_degree",
}


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_defers_oracle_modules():
    # The package runs on numpy alone, so the CLI starts without scipy.
    code = f"import sys, dunklosc.cli; print({SCIPY_LOADED})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    "scan-growth --alpha=0,-0.5,1.3 --seed=3 --pairs=2",
    "scan-smoothness --alpha=-0.5,0.7 --seed=3 --pairs=4",
    "riesz-kernel --alpha=-0.5,0.7 --j=1 --pairs={dir}/pairs.csv --s-method=gauss-jacobi",
    "riesz-kernel --alpha=-0.5,0.7 --j=2 --pairs={dir}/pairs.csv --s-method=exact",
    "heat-kernel --alpha=-0.5,0.7 --t=0.3,2 --pairs={dir}/pairs.csv",
    "verify --config={dir}/cfg.json --suite=all",
    "verify --config={dir}/cfg-d2.json --suite=all",
])
def test_default_paths_load_no_scipy(argv, tmp_path):
    # Each command runs through cli.main in a fresh interpreter; at d = 2
    # verify's ball-measure check runs the quasi-Monte Carlo oracle.
    (tmp_path / "pairs.csv").write_text("0.5,1.0,0.2,-0.3\n-1.2,0.4,0.9,2.0\n")
    (tmp_path / "cfg.json").write_text('{"alpha": [0.0]}')
    (tmp_path / "cfg-d2.json").write_text('{"alpha": [-0.5, 0.7]}')
    code = (f"import sys; from dunklosc.cli import main; "
            f"rc = main(sys.argv[1:]); print(rc, {SCIPY_LOADED})")
    argv = argv.format(dir=tmp_path).split() + ["-o", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []", proc.stderr


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config('{"alpha": [-0.5]}')
        assert cfg.alpha == (-0.5,)
        assert cfg.max_degree == 40
        assert cfg.quad_points == 80
        assert cfg.kernel.zeta_points == 96
        assert cfg.seed == 1234

    def test_alpha_bound_named_in_error(self):
        with pytest.raises(ValueError, match=r"alpha\[0\].*-0.5"):
            parse_config('{"alpha": [-0.6]}')
        for bad in ("NaN", "Infinity", "-Infinity", "1e400", "true", '"1"'):
            with pytest.raises(ValueError, match=r"alpha\[1\]"):
                parse_config(f'{{"alpha": [0.0, {bad}]}}')

    def test_bad_value_named_in_error(self):
        # a JSON true is a Python int, NaN and Infinity parse as floats
        for field, path in [('"max_degree": true', "max_degree"), ('"seed": false', "seed"),
                            ('"quad_points": 40.0', "quad_points"),
                            ('"kernel": {"zeta_grading": NaN}', "kernel.zeta_grading"),
                            ('"kernel": {"zeta_grading": true}', "kernel.zeta_grading"),
                            ('"kernel": {"zeta_points": 100.5}', "kernel.zeta_points"),
                            ('"kernel": {"s_points_per_dim": false}', "kernel.s_points_per_dim")]:
            with pytest.raises(ValueError, match=path):
                parse_config(f'{{"alpha": [0.0], {field}}}')
        # the CLI's kernel flags reach KernelConfig without parse_config
        for bad in (dict(zeta_grading=math.nan), dict(zeta_points=100.5)):
            with pytest.raises(ValueError, match=list(bad)[0]):
                KernelConfig(**bad)

    def test_kernel_section_is_a_kernel_config(self):
        assert parse_config('{"alpha": [0.0]}').kernel == KernelConfig()
        # every KernelConfig field is a kernel.* key
        kcfg = KernelConfig(zeta_points=128, zeta_grading=2.0, s_points_per_dim=16,
                            s_method="exact")
        doc = {"alpha": [0.0], "kernel": asdict(kcfg)}
        assert parse_config(json.dumps(doc)).kernel == kcfg

    def test_zeta_points_the_rule_cannot_build_refused(self):
        # 97 would integrate 96 nodes; 4096 builds, as each node carries 1 - zeta
        with pytest.raises(ValueError, match="kernel: zeta_points must be even, got 97"):
            parse_config('{"alpha": [0.0], "kernel": {"zeta_points": 97}}')
        cfg = parse_config('{"alpha": [0.0], "kernel": {"zeta_points": 4096}}')
        assert cfg.kernel == KernelConfig(zeta_points=4096)

    def test_too_steep_grading_refused(self):
        with pytest.raises(ValueError, match="kernel: zeta_grading 100.0 is too steep for "
                                             "zeta_points 256: the node next to 0 underflows"):
            parse_config('{"alpha": [0.0], "kernel": {"zeta_points": 256, "zeta_grading": 100}}')

    @pytest.mark.parametrize("grading,npoints", [(90.0, 256), (75.0, 384)])
    def test_grading_too_steep_for_a_check_rule_refused(self, grading, npoints):
        # 96 nodes build at these gradings, but riesz_route_agreement runs 256
        # and cz_scans reruns 192 doubled to 384
        msg = (f"config error at kernel.zeta_grading: zeta_grading {grading} is too steep "
               f"for zeta_points {npoints}")
        with pytest.raises(ValueError, match=msg):
            parse_config(json.dumps({"alpha": [0.0], "kernel": {"zeta_grading": grading}}))
        with pytest.raises(ValueError, match=msg):
            RunConfig((0.0,), kernel=KernelConfig(zeta_grading=grading))

    def test_run_config_checks_its_ranges(self):
        # a RunConfig built in Python is refused as a parsed one is
        for kwargs, path in [(dict(quad_points=0), "quad_points"),
                             (dict(quad_points=513), "quad_points"),
                             (dict(max_degree=0), "max_degree"),
                             (dict(seed=-1), "seed"),
                             (dict(alpha=(0.0, -0.6)), r"alpha\[1\]")]:
            with pytest.raises(ValueError, match=f"config error at {path}"):
                RunConfig(**{"alpha": (0.0,), **kwargs})
        for doc, path in [('"quad_points": 0', "quad_points"), ('"max_degree": 0', "max_degree"),
                          ('"seed": -1', "seed")]:
            with pytest.raises(ValueError, match=f"config error at {path}"):
                parse_config(f'{{"alpha": [0.0], {doc}}}')

    def test_readme_config_is_the_defaults(self):
        # the README shows its verify config as "the documented defaults"
        readme = (SRC.parent / "README.md").read_text()
        block = readme.split("A config for `verify` looks like")[1]
        block = block.split("```json")[1].split("```")[0]
        assert parse_config(block) == parse_config('{"alpha": [0.0]}')

    def test_unknown_field_path(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_config('{"alpha": [0.0], "bogus": 1}')
        with pytest.raises(ValueError, match="kernel.bad"):
            parse_config('{"alpha": [0.0], "kernel": {"bad": 1}}')
        with pytest.raises(ValueError, match="config error at output: unknown field"):
            parse_config('{"alpha": [0.0], "output": "report.json"}')

    def test_atomic_threshold_rejected(self):
        with pytest.raises(ValueError, match=r"kernel\.atomic_threshold"):
            parse_config('{"alpha": [0.0], "kernel": {"atomic_threshold": 0}}')

    def test_round_trip_identity(self):
        cfg = parse_config('{"alpha": [0.0, 1.3], "max_degree": 12, "seed": 7,'
                           ' "kernel": {"zeta_points": 128, "s_method": "exact"}}')
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_not_json(self):
        with pytest.raises(ValueError, match="JSON"):
            parse_config("not json at all")


class TestWorstOf:
    def test_running_maximum(self):
        assert worst_of(0.0, 3e-12) == 3e-12
        assert worst_of(3e-12, np.array([1e-13, 2e-12])) == 3e-12
        assert worst_of(-math.inf, -0.5) == -0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.array([1e-14, np.nan])])
    def test_nonfinite_fails_the_check(self, bad):
        worst = worst_of(0.0, bad)
        assert not worst <= 1e-10
        # a NaN already met is not overwritten by later finite residuals
        assert not worst_of(worst, 1e-15) <= 1e-10


class TestRunSuite:
    def test_basis_suite_passes(self):
        cfg = parse_config('{"alpha": [0.0], "max_degree": 4, "quad_points": 24}')
        status, report = run_suite(cfg, "basis")
        assert status == 0
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "orthonormality" in names and "ladder_identities" in names

    def test_one_rule_per_config(self, monkeypatch):
        # orthonormality and the heat checks share cfg.rule, one 1-d rule per
        # axis; the only rule of dimension > 1 is fischer_layer's 3-point rule,
        # which its degree-4 monomials need.  No check builds the n^d tensor rule.
        import dunklosc.suite as suite
        built = []
        build = suite.default_rule
        monkeypatch.setattr(suite, "default_rule",
                            lambda al, n: built.append((al.alpha, n)) or build(al, n))
        cfg = RunConfig((-0.5, 0.7))
        run_suite(cfg, "all")
        assert sorted(built) == [((-0.5,), cfg.quad_points), ((-0.5, 0.7), 3),
                                 ((0.7,), cfg.quad_points)]

    def test_d3_runs_in_one_gib_of_address_space(self, tmp_path):
        # The tensor rule has 160^3 nodes at d = 3 on the documented defaults,
        # and a basis matrix on it asked for 5 GiB; per-axis rules need
        # megabytes (measured: a 56 MB peak in 0.4 s).  One BLAS thread, so
        # that its buffers do not count against the limit on a wide machine.
        import resource
        limit = 1 << 30
        (tmp_path / "cfg.json").write_text('{"alpha": [0.0, -0.5, 1.3]}')
        proc = subprocess.run(
            [sys.executable, "-m", "dunklosc.cli", "verify", "--config", str(tmp_path / "cfg.json"),
             "--suite", "all", "-o", str(tmp_path / "report.json")],
            capture_output=True, text=True, env=dict(child_env(), OPENBLAS_NUM_THREADS="1"),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "report.json").read_text())["all_passed"]

    @pytest.mark.parametrize("alpha", [(0.0,), (-0.5, 0.7), (0.0, -0.5, 1.3)])
    def test_multiplier_norm_refuses_a_misplaced_adjoint(self, monkeypatch, alpha):
        # R_j and R^_j take the index stack in any order, reversed or rotated
        # by a row.  An adjoint that moves its rows by e_1, or shifts
        # coordinate (j + 1) mod d, does not take R_j's output back onto the
        # indices with n_j > 0, and the check then fails with a NaN instead
        # of comparing a different operator.
        import dunklosc.suite as suite
        from dunklosc.quadrature import SpectralCoeffs
        from dunklosc.suite import _check_multiplier_norm
        indices, adjoint, d = suite.multi_indices_upto, suite.riesz_adjoint_spectral, len(alpha)
        for order in (lambda n: n[::-1], lambda n: n[1:] + n[:1]):
            monkeypatch.setattr(suite, "multi_indices_upto", lambda d, N: order(indices(d, N)))
            assert _check_multiplier_norm(RunConfig(alpha))["passed"]
        monkeypatch.setattr(suite, "multi_indices_upto", indices)
        mutants = [lambda c, j: SpectralCoeffs(adjoint(c, j).n + np.eye(d, dtype=int)[0],
                                               adjoint(c, j).values, c.alpha)]
        if d > 1:
            mutants.append(lambda c, j: adjoint(c, (j + 1) % d))
        for mutant in mutants:
            monkeypatch.setattr(suite, "riesz_adjoint_spectral", mutant)
            rec = _check_multiplier_norm(RunConfig(alpha))
            assert not rec["passed"] and math.isnan(rec["residual"])

    @pytest.mark.parametrize("alpha", [(0.0,), (-0.5, 0.7), (1.3,)])
    def test_multiplier_norm_sees_every_row(self, monkeypatch, alpha):
        # R^_j's multiplier scaled by 1 + 1e-6 at the row of its smallest
        # value only, which the largest entry does not show: the check reads
        # every row (measured: 6.7e-7, 1.4e-7 and 4.7e-7)
        import dunklosc.suite as suite
        from dunklosc.quadrature import SpectralCoeffs
        from dunklosc.suite import _check_multiplier_norm
        adjoint = suite.riesz_adjoint_spectral

        def scaled(c, j):
            adj = adjoint(c, j)
            values = adj.values.copy()
            values[np.argmin(values)] *= 1 + 1e-6
            return SpectralCoeffs(adj.n, values, c.alpha)

        assert _check_multiplier_norm(RunConfig(alpha))["passed"]
        monkeypatch.setattr(suite, "riesz_adjoint_spectral", scaled)
        rec = _check_multiplier_norm(RunConfig(alpha))
        assert not rec["passed"] and rec["residual"] > 1e-7

    def test_unknown_suite(self):
        cfg = parse_config('{"alpha": [0.0]}')
        with pytest.raises(ValueError):
            run_suite(cfg, "nope")


@pytest.fixture()
def workdir(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("# x1,y1\n0.5,1.5\n-1.0,0.8\n2.0,0.3\n")
    (tmp_path / "nan.csv").write_text("# x1,y1\n0.5,1.5\n-1.0,nan\n")
    (tmp_path / "negative-seed.json").write_text('{"alpha": [0.0], "seed": -1}')
    coeffs = tmp_path / "c.json"
    coeffs.write_text(json.dumps({"alpha": [0.0], "coeffs": {"0": 1.0, "2": -0.5}}))
    return tmp_path


class TestSubcommands:
    def test_hermite_eval(self, workdir):
        rc, out, err = run_cli("hermite-eval", "--alpha=0.7", "--n=3", "--grid=-2,2,5")
        assert rc == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "x1,h"
        assert len(lines) == 6
        # odd function: antisymmetric values
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert vals[0] == -vals[4] and abs(vals[2]) == 0.0

    def test_heat_kernel_columns(self, workdir):
        rc, out, err = run_cli("heat-kernel", "--alpha=-0.5,0.7", "--t=0.3,0.7",
                               "--pairs", "pairs2.csv", cwd=str(workdir))
        assert rc == 2  # missing file
        p2 = workdir / "pairs2.csv"
        p2.write_text("0.5,1.0,0.2,-0.3\n")
        rc, out, err = run_cli("heat-kernel", "--alpha=-0.5,0.7", "--t=0.3,0.7",
                               "--pairs", str(p2))
        assert rc == 0
        header = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header == "t,x1,x2,y1,y2,G,G_eps00,G_eps01,G_eps10,G_eps11"
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 2
        # parity components sum to the kernel
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            assert sum(vals[6:]) == pytest.approx(vals[5], rel=1e-12)

    def test_riesz_kernel_csv(self, workdir):
        rc, out, err = run_cli("riesz-kernel", "--alpha=0.0", "--j=1",
                               "--pairs", str(workdir / "pairs.csv"))
        assert rc == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "x1,y1,R,R_eps0,R_eps1"
        for row in rows[1:]:
            vals = [float(v) for v in row.split(",")]
            assert vals[3] + vals[4] == pytest.approx(vals[2], rel=1e-12)

    def test_riesz_kernel_csv_writes_the_kernel_pass(self, tmp_path):
        # R is the kernel's own pass, equal to riesz_kernel, not the sum of
        # the R_eps columns: near a reflected diagonal those are +-328 and
        # cancel to R = 1.5e-8, so their sum is off by the rounding of the
        # larger values
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("2.0,-1.5,2.2,-2.01,1.52,2.19\n")
        out = tmp_path / "out.csv"
        assert main(["riesz-kernel", "--alpha=-0.5,-0.5,-0.5", "--j=3", "--pairs", str(pairs),
                     "--s-method=gauss-jacobi", "-o", str(out)]) == 0
        row = [float(v) for v in out.read_text().splitlines()[-1].split(",")]
        want = riesz_kernel(AlphaParams((-0.5, -0.5, -0.5)), 2, np.array([2.0, -1.5, 2.2]),
                            np.array([-2.01, 1.52, 2.19]),
                            KernelConfig(zeta_points=192, s_method="gauss-jacobi"))
        assert row[6] == want
        assert abs(sum(row[7:]) - want) <= 1e-12 * sum(abs(v) for v in row[7:])

    def test_riesz_kernel_refuses_the_reflected_diagonal(self, tmp_path, capsys):
        # R_1 is infinite at y = -x for a_1 > -1/2: exit 2, naming the pair
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("0.5,1.5\n0.8,-0.8\n")
        assert main(["riesz-kernel", "--alpha=0.7", "--j=1", "--pairs", str(pairs)]) == 2
        assert capsys.readouterr().err.startswith("error: kernel evaluation refused at pair 1: ")

    def test_riesz_kernel_refuses_a_component_pass_on_the_diagonal(self, tmp_path, capsys):
        # the R_eps columns are the 2^d passes R_j(x, sigma y): at y = (1, -0.5)
        # the pass sigma = (1, -1) sits on the diagonal, so exit 2, naming it
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("2,2,-0.5,-0.5\n1,0.5,1,-0.5\n")
        for method in ("exact", "gauss-jacobi"):
            assert main(["riesz-kernel", "--alpha=0,0.7", "--j=1", "--pairs", str(pairs),
                         "--s-method", method]) == 2
            assert capsys.readouterr().err.startswith(
                "error: kernel evaluation refused at pair 1 in the pass (x, sigma y), "
                "sigma = [1, -1]: x = [1.  0.5], y = [1.  0.5], |x-y| < 0.001")

    def test_riesz_apply_round_trip(self, workdir):
        rc, out, err = run_cli("riesz-apply", "--j=1", "--coeffs", str(workdir / "c.json"))
        assert rc == 0
        doc = json.loads(out)
        assert doc["coeffs"]["1"] == pytest.approx(-0.5 * 2 / np.sqrt(6))

    def test_heat_apply(self, workdir):
        rc, out, err = run_cli("heat-apply", "--t=1.0", "--coeffs", str(workdir / "c.json"))
        assert rc == 0
        doc = json.loads(out)
        assert doc["coeffs"]["0"] == pytest.approx(np.exp(-2.0))
        assert doc["coeffs"]["2"] == pytest.approx(-0.5 * np.exp(-6.0))

    def test_deterministic_outputs(self, workdir):
        args = ("riesz-kernel", "--alpha=0.0", "--j=1", "--pairs", str(workdir / "pairs.csv"))
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2
        for which in ("growth", "smoothness"):
            args = (f"scan-{which}", "--alpha=0.0", "--j=1", "--pairs", "40", "--seed", "3")
            _, s1, _ = run_cli(*args)
            _, s2, _ = run_cli(*args)
            assert s1 == s2

    def test_scan_requires_seed(self):
        rc, out, err = run_cli("scan-growth", "--alpha=0.0", "--j=1", "--pairs", "10")
        assert rc == 2
        assert "--seed" in err

    @pytest.mark.parametrize("which", ["growth", "smoothness"])
    def test_scan_rejects_s_method(self, which):
        # the scans always integrate s exactly; the flag must not be ignored
        rc, out, err = run_cli(f"scan-{which}", "--alpha=0.0", "--j=1", "--pairs", "10",
                               "--seed", "3", "--s-method", "gauss-jacobi")
        assert rc == 2
        assert "--s-method" in err

    @pytest.mark.parametrize("which", ["growth", "smoothness"])
    def test_scan_rejects_s_points(self, which):
        # exact s has no s-nodes, so the count cannot change the output
        rc, out, err = run_cli(f"scan-{which}", "--alpha=0.0", "--j=1", "--pairs", "10",
                               "--seed", "3", "--s-points", "8")
        assert rc == 2
        assert "--s-points" in err

    def test_kernel_flag_defaults(self):
        parser = build_parser()
        cli_kernel = KernelConfig(zeta_points=192)
        assert cli_kernel.s_method == "exact"
        for argv in (["riesz-kernel", "--alpha=0", "--j=1", "--pairs=p.csv"],
                     ["pairing-check", "--alpha=0"], ["scan-growth", "--alpha=0", "--seed=1"],
                     ["scan-smoothness", "--alpha=0", "--seed=1"]):
            assert _kernel_config(parser.parse_args(argv)) == cli_kernel

    def test_scan_refuses_a_resolution_it_cannot_double(self, capsys):
        # an odd count is refused; 1024 runs, and its rerun at 2048 zeta points
        assert main(["scan-growth", "--alpha=0.0", "--seed=3", "--zeta-points=97"]) == 2
        assert "zeta_points must be even, got 97" in capsys.readouterr().err
        assert main(["scan-growth", "--alpha=0.0", "--seed=3", "--zeta-points=1024",
                     "--pairs", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_too_steep_grading_refused_before_any_work(self, workdir, capsys):
        # the config is refused when it is read: no check runs, no report is written
        cfgfile, outfile = workdir / "cfg.json", workdir / "report.json"
        cfgfile.write_text('{"alpha": [0.0], "kernel": {"zeta_points": 256, "zeta_grading": 100.0}}')
        assert main(["verify", "--config", str(cfgfile), "-o", str(outfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config error at kernel: zeta_grading 100.0 is too steep")
        assert "PASS" not in err and "FAIL" not in err and not outfile.exists()
        assert main(["scan-growth", "--alpha=0.0", "--seed=3", "--zeta-points=256",
                     "--zeta-grading=100"]) == 2
        assert capsys.readouterr().err.startswith("error: zeta_grading 100.0 is too steep")

    def test_grading_too_steep_for_a_check_refused_before_any_work(self, workdir, capsys,
                                                                   monkeypatch):
        # grading 90 builds at the config's own 96 nodes but not at the checks'
        # 256; grading 75 builds at a scan's 256 but not at its rerun's 512
        import dunklosc.estimates as est
        cfgfile, outfile = workdir / "cfg.json", workdir / "report.json"
        cfgfile.write_text('{"alpha": [0.0], "kernel": {"zeta_grading": 90.0}}')
        assert main(["verify", "--config", str(cfgfile), "-o", str(outfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config error at kernel.zeta_grading: zeta_grading 90.0 "
                              "is too steep for zeta_points 256")
        assert "PASS" not in err and "FAIL" not in err and not outfile.exists()
        monkeypatch.setattr(est, "pair_sample", lambda *a: pytest.fail("the scan ran"))
        assert main(["scan-growth", "--alpha=0.0", "--seed=3", "--zeta-points=256",
                     "--zeta-grading=75"]) == 2
        assert capsys.readouterr().err.startswith("error: zeta_grading 75.0 is too steep for "
                                                  "zeta_points 512")

    def test_scan_growth_json(self):
        rc, out, err = run_cli("scan-growth", "--alpha=0.0", "--j=1",
                               "--pairs", "40", "--seed", "3")
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["sample_count"] == 40
        assert doc["seed"] == 3

    def test_verify_roundtrip(self, workdir):
        cfgfile = workdir / "cfg.json"
        cfgfile.write_text('{"alpha": [0.0], "max_degree": 4, "quad_points": 24}')
        outfile = workdir / "report.json"
        rc, out, err = run_cli("verify", "--config", str(cfgfile), "--suite", "basis",
                               "-o", str(outfile))
        assert rc == 0
        report = json.loads(outfile.read_text())
        assert report["all_passed"] is True
        assert "PASS orthonormality" in err
        # determinism of the report minus timings
        outfile2 = workdir / "report2.json"
        run_cli("verify", "--config", str(cfgfile), "--suite", "basis", "-o", str(outfile2))
        r1 = json.loads(outfile.read_text())
        r2 = json.loads(outfile2.read_text())
        r1.pop("timings"), r2.pop("timings")
        assert r1 == r2

    def test_verify_corrupted_config(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{alpha: oops")
        rc, out, err = run_cli("verify", "--config", str(bad))
        assert rc == 2
        rc, out, err = run_cli("verify", "--config", str(workdir / "missing.json"))
        assert rc == 2

    def test_verify_reports_an_oracle_refusal(self, workdir, monkeypatch):
        # A direct-oracle batch that does not converge fails its check only:
        # the report is written and the exit status is 1.
        def refuse(*args):
            raise RuntimeError("direct t-integral did not converge")
        monkeypatch.setattr("dunklosc.suite.riesz_kernel_direct", refuse)
        cfgfile, outfile = workdir / "cfg.json", workdir / "report.json"
        cfgfile.write_text('{"alpha": [0.0], "max_degree": 4}')
        argv = ["verify", "--config", str(cfgfile), "--suite", "riesz", "-o", str(outfile)]
        assert main(argv) == 1
        rec = {c["name"]: c for c in json.loads(outfile.read_text())["checks"]}
        rec = rec["riesz_route_agreement"]
        assert not rec["passed"] and math.isnan(rec["residual"]) and rec["refused_j"] == [0]

    @pytest.mark.parametrize("argv", [
        "riesz-apply --j=2 --coeffs={dir}/c.json",
        "riesz-kernel --alpha=0 --j=2 --pairs={dir}/pairs.csv",
        "pairing-check --alpha=0 --j=2 --max-degree=8 --quad-points=16",
        "scan-growth --alpha=0,0 --j=5 --seed=1",
        "scan-smoothness --alpha=0 --j=0 --seed=1",
        "heat-kernel --alpha=0 --t=0.3,0 --pairs={dir}/pairs.csv",
        "heat-apply --t=-1 --coeffs={dir}/c.json",
        "heat-apply --t=nan --coeffs={dir}/c.json",
        "heat-kernel --alpha=0 --t=nan --pairs={dir}/pairs.csv",
        "heat-kernel --alpha=0 --t=0.3 --pairs={dir}/nan.csv",
        "riesz-kernel --alpha=0 --j=1 --pairs={dir}/nan.csv",
        "heat-kernel --alpha=0,0 --t=0.3 --pairs={dir}/pairs.csv",
        "riesz-kernel --alpha=0,0 --j=1 --pairs={dir}/pairs.csv",
        "pairing-check --alpha=0 --f-support=0.4,2 --g-support=1,3",
        "pairing-check --alpha=0,0",
        "hermite-eval --alpha=0 --n=1,1 --grid=-1,1,3",
        "scan-growth --alpha=-0.7 --seed=1",
        *NAMED_IN_ERROR,
    ])
    def test_bad_input_exits_2(self, argv, workdir, capsys):
        # exit 1 is kept for a check, scan or pairing that fails
        assert main(argv.format(dir=workdir).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and NAMED_IN_ERROR.get(argv, "") in err

    @pytest.mark.parametrize("coeffs,named", [
        ('{"-1": 1.0}', "'-1'"),
        ('{"1": 1.0, "01": 2.0}', "'01'"),
        ('{"1": 1.0, "1": 2.0}', "'1'"),
        ('{"1": NaN}', "'1'"),
        ('{"0": "1.0"}', "'0'"),
        ('{"1.5": 1.0}', "'1.5'"),
    ], ids=["negative", "same-index", "same-key", "nan", "string", "non-integer"])
    def test_bad_coefficient_file_names_the_key(self, coeffs, named, tmp_path, capsys):
        # otherwise h_{-1} is written out, a later key for the same index
        # silently replaces the earlier one, and a NaN reaches the output
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": [0.0], "coeffs": %s}' % coeffs)
        for argv in (["heat-apply", "--t=1"], ["riesz-apply", "--j=1"]):
            assert main([*argv, "--coeffs", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("doc,named", [
        ('{"coeffs": {"1": 2.0}}', "'alpha'"),
        ('{"alpha": [0.0]}', "'coeffs'"),
        ('{"alpha": [0.0], "coeffs": [1, 2]}', "'coeffs'"),
        ('{"alpha": {"0": 0.0}, "coeffs": {"1": 2.0}}', "'alpha'"),
        ('{"alpha": [[0]], "coeffs": {"1": 2.0}}', "alpha[0]"),
        ('{"alpha": [null], "coeffs": {"1": 2.0}}', "alpha[0]"),
        ('{"alpha": [0.0, "0.5"], "coeffs": {"1,0": 2.0}}', "alpha[1]"),
        ('{"alpha": [true], "coeffs": {"1": 2.0}}', "alpha[0]"),
        ('{"alpha": [], "coeffs": {}}', "alpha: must be nonempty"),
    ], ids=["no-alpha", "no-coeffs", "coeffs-array", "alpha-object", "alpha-entry-array",
            "alpha-entry-null", "alpha-entry-string", "alpha-entry-bool", "alpha-empty"])
    def test_bad_coefficient_file_names_the_field(self, doc, named, tmp_path, capsys):
        # these raised KeyError or TypeError with a traceback and exit 1, or
        # took "0.5" and true as 0.5 and 1.0; an empty alpha met a numpy
        # reshape error that named no field
        path = tmp_path / "bad.json"
        path.write_text(doc)
        for argv in (["heat-apply", "--t=1"], ["riesz-apply", "--j=1"]):
            assert main([*argv, "--coeffs", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("j", [0, 2])
    def test_pairing_check_j_is_one_based(self, j, capsys):
        # --j=0 was reported as "coordinate j must be in 0..0, got -1"
        assert main(["pairing-check", "--alpha=0", f"--j={j}", "--max-degree=8",
                     "--quad-points=16"]) == 2
        assert capsys.readouterr().err == "error: --j must be in 1..1\n"

    @pytest.mark.parametrize("argv", [
        "riesz-apply --j=1", "riesz-apply --j=2", "heat-apply --t=0.3", "heat-apply --t=2.5",
        "scan-growth --alpha=-0.5,0.7 --j=1 --pairs=8 --seed=2021",
        "scan-smoothness --alpha=-0.5,0.7 --j=2 --pairs=8 --seed=2022",
        "scan-growth --alpha=0,-0.5,1.3 --j=3 --pairs=8 --seed=2023",
        "scan-smoothness --alpha=0,-0.5,1.3 --j=1 --pairs=8 --seed=2024",
        "riesz-kernel --alpha=-0.5,0.7 --j=1 --pairs=pairs.csv --s-method=exact",
        "riesz-kernel --alpha=-0.5,0.7 --j=2 --pairs=pairs.csv --s-method=gauss-jacobi",
        "heat-kernel --alpha=-0.5,0.7 --t=0.05,1.0 --pairs=pairs.csv",
        "hermite-eval --alpha=-0.5,0.7 --n=2,3 --points=points.csv",
    ])
    def test_spectral_apply_bytes_pinned(self, argv, tmp_path, capsys, monkeypatch):
        # d = 2 coefficients with a -0.0, a 1e-300 and a -3.5e10 entry; a
        # -0.0 moved by R_j is written as 0.0.  The scans (the (alpha, j) of
        # the benchmark's cz_scan workload) and the CSV tables (pairs clear of
        # the reflected diagonals) are pinned to the same bytes
        pinned = json.loads(Path(__file__).with_name("spectral_apply_pinned.json").read_text())
        (tmp_path / "c.json").write_text(json.dumps(pinned["input"]))
        (tmp_path / "pairs.csv").write_text(pinned["pairs"])
        (tmp_path / "points.csv").write_text(pinned["points"])
        monkeypatch.chdir(tmp_path)
        coeffs = ["--coeffs", "c.json"] if "-apply" in argv else []
        assert main([*argv.split(), *coeffs]) == 0
        assert capsys.readouterr().out == pinned["outputs"][argv]

    def test_pairing_check_small(self, workdir):
        rc, out, err = run_cli("pairing-check", "--alpha=0.0", "--j=1",
                               "--max-degree", "500", "--quad-points", "300",
                               "--zeta-points", "128")
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["separation"] >= 1.0
