"""The benchmark's workloads: seeded inputs, CLI calls and oracle gates.

Each workload is a fixed batch of ``dunklosc`` CLI calls made in-process
through ``dunklosc.cli.main``.  ``--seed`` generates every input; the
program sees only the generated config and pair files.  After a batch,
every output is checked against an oracle, and each comparison is one
operation (a Gate).

Gates come from two sources.  "program" gates are verdicts the program
reports about itself (a verify check's ``passed``, a scan's ``passed``);
a failure there is counted, never filtered.  "bench" gates are the
benchmark's own comparisons (independent routes, closed forms, input
echo, exit status, byte-determinism); a failure there also means the
outputs are not correct.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

MARGIN_CAP = 16.0

# The documented defaults of a verify config (README, suite.parse_config).
DEFAULT_CONFIG = {"max_degree": 40, "quad_points": 80,
                  "kernel": {"zeta_points": 96, "zeta_grading": 3.0,
                             "s_points_per_dim": 48, "s_method": "gauss-jacobi"}}


@dataclass
class Gate:
    """One oracle comparison; tolerance 0 marks a predicate or count."""

    label: str
    passed: bool
    tolerance: float = 0.0
    residual: float = 0.0
    source: str = "bench"

    @property
    def margin(self) -> float | None:
        """log10(tolerance / residual), capped at 16; None for predicates."""
        if self.tolerance <= 0:
            return None
        if not math.isfinite(self.residual):
            return -MARGIN_CAP
        if self.residual <= 0:
            return MARGIN_CAP
        return max(min(math.log10(self.tolerance / self.residual), MARGIN_CAP), -MARGIN_CAP)


def _tol_gate(label, residual, tolerance) -> Gate:
    residual = float(residual)
    return Gate(label, math.isfinite(residual) and residual <= tolerance, tolerance, residual)


@dataclass
class Call:
    label: str
    argv: list[str]
    output: str


class Workload:
    """Inputs for one seed, the batch of calls, and the gates on their outputs."""

    name = ""

    def __init__(self, workdir: str, seed: int, tiny: bool = False):
        """Generate the inputs from ``seed``; ``tiny`` shrinks them for smoke tests."""
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self):
        """Reference values, computed once per run outside every timed region."""

    def normalize(self, label: str, data: bytes) -> bytes:
        """The part of an output that must repeat byte for byte."""
        return data

    def warmup(self) -> Call:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def check(self, outputs: dict[str, bytes], status: dict[str, int]) -> list[Gate]:
        raise NotImplementedError

    def timings(self, outputs: dict[str, bytes]) -> dict[str, float]:
        """Wall times the program reports per check, summed over one batch."""
        return {}


# --- verify ------------------------------------------------------------------

class Verify(Workload):
    """Both documented default configs, the whole suite; the only workload
    through the spectral layers and riesz_kernel_direct."""

    name = "verify"
    # Every check of `verify --suite all`; a renamed or added check stops the
    # traced run instead of reading 0 under its old name.
    CHECKS = ("orthonormality", "ladder_identities", "eigen_relation", "fischer_layer",
              "heat_series_vs_kernel", "heat_semigroup", "heat_contraction",
              "schlafli_normalization", "star_identity", "apriori_identity",
              "multiplier_norm", "riesz_route_agreement", "soni_scan", "ap_power_weight",
              "ball_measure", "cz_scans")

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed, tiny)
        alphas = [[0.0]] if tiny else [[0.0], [-0.5, 0.7]]
        self.suite = "heat" if tiny else "all"
        self.configs = []
        for alpha in alphas:
            cfg = dict(DEFAULT_CONFIG, alpha=alpha, seed=int(self.rng.integers(1, 2**31 - 1)))
            path = self.path(f"config-d{len(alpha)}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh, sort_keys=True)
            self.configs.append((f"verify-d{len(alpha)}", path))

    def warmup(self):
        return Call("warmup", ["verify", "--config", self.configs[0][1], "--suite", "basis",
                               "-o", self.path("warmup.json")], self.path("warmup.json"))

    def calls(self):
        return [Call(label, ["verify", "--config", path, "--suite", self.suite,
                             "-o", self.path(f"{label}.json")], self.path(f"{label}.json"))
                for label, path in self.configs]

    def normalize(self, label, data):
        doc = json.loads(data)
        doc.pop("timings")
        return json.dumps(doc, sort_keys=True).encode()

    def check(self, outputs, status):
        gates = []
        for label, _ in self.configs:
            report = json.loads(outputs[label])
            for rec in report["checks"]:
                residual = float(rec["residual"])
                gates.append(Gate(f"{label}:{rec['name']}",
                                  bool(rec["passed"]) and math.isfinite(residual),
                                  float(rec["tolerance"]), residual, "program"))
            expected = 0 if report["all_passed"] else 1
            gates.append(Gate(f"{label}:exit_status", status[label] == expected))
        return gates

    def timings(self, outputs):
        total: dict[str, float] = {}
        for data in outputs.values():
            for name, sec in json.loads(data)["timings"].items():
                if name not in self.CHECKS:
                    raise RuntimeError(f"verify reports an unknown check {name!r}")
                total[name] = total.get(name, 0.0) + sec
        return total


# --- cz_scan -----------------------------------------------------------------

SCANS = (("growth", (-0.5, 0.7), 1), ("smoothness", (-0.5, 0.7), 2),
         ("growth", (0.0, -0.5, 1.3), 3), ("smoothness", (0.0, -0.5, 1.3), 1))
SCAN_PAIRS = 64
DRIFT_TOL = 0.05


class CzScan(Workload):
    """Growth and smoothness scans at d = 2 and 3, each with its own j: the
    exact-s kernel and the per-pair ball measures near the diagonal."""

    name = "cz_scan"

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed, tiny)
        self.pairs = 3 if tiny else SCAN_PAIRS
        self.scans = []
        for which, alpha, j in SCANS:
            label = f"{which}-d{len(alpha)}-j{j}"
            self.scans.append((label, which, alpha, j, int(self.rng.integers(1, 2**31 - 1))))

    @staticmethod
    def _argv(which, alpha, j, pairs, seed, out):
        return [f"scan-{which}", "--alpha=" + ",".join(repr(a) for a in alpha), "--j", str(j),
                "--pairs", str(pairs), "--seed", str(seed), "-o", out]

    def warmup(self):
        _, which, alpha, j, seed = self.scans[0]
        out = self.path("warmup.json")
        return Call("warmup", self._argv(which, alpha, j, 2, seed, out), out)

    def calls(self):
        return [Call(label, self._argv(which, alpha, j, self.pairs, seed,
                                       self.path(f"{label}.json")), self.path(f"{label}.json"))
                for label, which, alpha, j, seed in self.scans]

    def check(self, outputs, status):
        gates = []
        for label, which, alpha, j, seed in self.scans:
            doc = json.loads(outputs[label])
            drift = float(doc["refinement_drift"])
            finite = math.isfinite(float(doc["max_ratio"])) and math.isfinite(drift)
            gates.append(Gate(f"{label}:passed", bool(doc["passed"]) and finite,
                              DRIFT_TOL, drift, "program"))
            gates.append(Gate(f"{label}:inputs", doc["scan"] == which and doc["seed"] == seed
                              and doc["sample_count"] == self.pairs
                              and doc["extra"]["j"] == j - 1
                              and doc["extra"]["alpha"] == list(alpha)))
            gates.append(Gate(f"{label}:exit_status", status[label] == (0 if doc["passed"] else 1)))
        return gates


# --- kernel_table --------------------------------------------------------------

TABLE_ALPHA = (-0.5, 0.7)
CLASSICAL_ALPHA = (-0.5, -0.5)
TABLE_J = 1
TABLE_PAIRS = 120
HEAT_T = (0.05, 0.3, 1.0, 3.0)
SERIES_T_MIN = 0.3      # the 60-term series diverges numerically at t = 0.05
SERIES_TERMS = 60
# Gauss-Jacobi against exact s-integration, per pair relative to the sum of
# |R_eps| over the parity components: the components cancel near the
# reflected diagonals, and a fixed s-grid is accurate relative to them,
# not to their sum.
ROUTE_TOL = 1e-4
SUM_TOL = 1e-12         # R against the sum of its parity columns
HEAT_TOL = 1e-11        # heat kernel against the series and the Mehler kernel


def reflection_distance(x: np.ndarray, y: np.ndarray) -> float:
    """min over nontrivial sign flips s of |s x - y|."""
    best = math.inf
    for bits in np.ndindex(*([2] * x.size)):
        if any(bits):
            sg = np.where(np.array(bits) == 1, -1.0, 1.0)
            best = min(best, float(np.linalg.norm(sg * x - y)))
    return best


def table_pairs(rng, n: int, d: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Pairs in [-2.5, 2.5]^d with 0.5 <= |x-y| <= 5 and reflection distance
    >= 0.4: away from the diagonal and the reflected diagonals, where the
    parity components are near-singular (the rules of acceptance test 06)."""
    xs, ys = [], []
    while len(xs) < n:
        x = rng.uniform(-2.5, 2.5, size=d)
        y = rng.uniform(-2.5, 2.5, size=d)
        if 0.5 <= np.linalg.norm(x - y) <= 5.0 and reflection_distance(x, y) >= 0.4:
            xs.append(x)
            ys.append(y)
    return np.array(xs), np.array(ys)


def mehler_kernel(t: float, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Classical Mehler kernel of e^{-t(-Delta + |x|^2)} on R^d."""
    sh = math.sinh(2.0 * t)
    cth = math.cosh(2.0 * t) / sh
    d = X.shape[1]
    return ((2.0 * math.pi * sh) ** (-d / 2.0)
            * np.exp(-0.5 * cth * np.sum(X * X + Y * Y, axis=1) + np.sum(X * Y, axis=1) / sh))


def parse_csv(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    cols = lines[0].split(",")
    return cols, np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)


def _envelope_gap(a: np.ndarray, ref: tuple[np.ndarray, np.ndarray]) -> float:
    """max over pairs of |a - b| / envelope, for ref = (b, envelope).

    The envelope is the reference kernel at (|x|, |y|), which bounds it in
    absolute value: the closed form loses relative accuracy where x_i y_i < 0
    (its Bessel terms cancel), but not accuracy against this envelope."""
    b, env = ref
    return float(np.max(np.abs(a - b) / env))


class KernelTable(Workload):
    """Riesz kernel by both s-routes and heat-kernel slices on one pair file:
    per-parity columns and CSV output, no ball measures, no direct oracle."""

    name = "kernel_table"

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed, tiny)
        self.X, self.Y = table_pairs(self.rng, 3 if tiny else TABLE_PAIRS)
        self.pairs_file = self.path("pairs.csv")
        np.savetxt(self.pairs_file, np.hstack([self.X, self.Y]), delimiter=",", fmt="%.17g",
                   header="x1,x2,y1,y2")
        self.references = {}

    def _riesz(self, label, method, pairs_file=None):
        out = self.path(f"{label}.csv")
        return Call(label, ["riesz-kernel", "--alpha=" + ",".join(map(repr, TABLE_ALPHA)),
                            "--j", str(TABLE_J), "--pairs", pairs_file or self.pairs_file,
                            "--s-method", method, "-o", out], out)

    def _heat(self, label, alpha):
        out = self.path(f"{label}.csv")
        return Call(label, ["heat-kernel", "--alpha=" + ",".join(map(repr, alpha)),
                            "--t=" + ",".join(map(repr, HEAT_T)), "--pairs", self.pairs_file,
                            "-o", out], out)

    def warmup(self):
        first = self.path("warmup-pairs.csv")
        np.savetxt(first, np.hstack([self.X[:1], self.Y[:1]]), delimiter=",", fmt="%.17g")
        return self._riesz("warmup", "gauss-jacobi", first)

    def calls(self):
        return [self._riesz("riesz-gauss-jacobi", "gauss-jacobi"),
                self._riesz("riesz-exact", "exact"),
                self._heat("heat", TABLE_ALPHA),
                self._heat("heat-classical", CLASSICAL_ALPHA)]

    def prepare(self):
        from dunklosc.heat import heat_kernel_series
        from dunklosc.hermite import AlphaParams
        al = AlphaParams(TABLE_ALPHA)
        aX, aY = np.abs(self.X), np.abs(self.Y)
        for t in HEAT_T:
            self.references["heat-classical", t] = (mehler_kernel(t, self.X, self.Y),
                                                    mehler_kernel(t, aX, aY))
            if t >= SERIES_T_MIN:
                self.references["heat", t] = (
                    heat_kernel_series(al, t, self.X, self.Y, SERIES_TERMS),
                    heat_kernel_series(al, t, aX, aY, SERIES_TERMS))

    def check(self, outputs, status):
        gates = []
        d = self.X.shape[1]
        P = self.X.shape[0]
        routes = {}
        for label in ("riesz-gauss-jacobi", "riesz-exact"):
            cols, data = parse_csv(outputs[label])
            eps = data[:, [i for i, c in enumerate(cols) if c.startswith("R_eps")]]
            routes[label] = data[:, cols.index("R")], eps
            gates.append(Gate(f"{label}:exit_status", status[label] == 0))
            gates.append(Gate(f"{label}:pairs", data.shape[0] == P
                              and np.array_equal(data[:, :2 * d], np.hstack([self.X, self.Y]))))
            gates.append(Gate(f"{label}:finite", bool(np.all(np.isfinite(data)))))
            gap = np.max(np.abs(routes[label][0] - eps.sum(axis=1)) / np.abs(eps).sum(axis=1))
            gates.append(_tol_gate(f"{label}:R_equals_sum_of_R_eps", gap, SUM_TOL))
        gj, exact = routes["riesz-gauss-jacobi"], routes["riesz-exact"]
        gap = np.max(np.abs(gj[0] - exact[0]) / np.abs(exact[1]).sum(axis=1))
        gates.append(_tol_gate("riesz:gauss-jacobi_vs_exact", gap, ROUTE_TOL))
        for label, oracle in (("heat", "series"), ("heat-classical", "mehler")):
            cols, data = parse_csv(outputs[label])
            gates.append(Gate(f"{label}:exit_status", status[label] == 0))
            gates.append(Gate(f"{label}:finite", bool(np.all(np.isfinite(data)))))
            ok = data.shape[0] == P * len(HEAT_T)
            gates.append(Gate(f"{label}:pairs", ok and all(
                np.array_equal(data[k * P:(k + 1) * P, 1:1 + 2 * d], np.hstack([self.X, self.Y]))
                and np.all(data[k * P:(k + 1) * P, 0] == t) for k, t in enumerate(HEAT_T))))
            if not ok:
                continue
            G = data[:, cols.index("G")]
            for k, t in enumerate(HEAT_T):
                if (label, t) in self.references:
                    gap = _envelope_gap(G[k * P:(k + 1) * P], self.references[label, t])
                    gates.append(_tol_gate(f"{label}:t={t}:vs_{oracle}", gap, HEAT_TOL))
        return gates


WORKLOADS = {w.name: w for w in (Verify, CzScan, KernelTable)}
