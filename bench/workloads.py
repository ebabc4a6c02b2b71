"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with one caller. Its inputs are made from
the seed before any timing starts; the package receives only those inputs.

  sweep-csv      one ``kerrmich sweep`` over three grids around giant-eit
                 (~1e5 CSV rows): the bulk closed-form path, dominated by
                 per-row plumbing in ``sweep.evaluate`` and CSV output.
  design-points  ~1.5e5 separate ``kerrmich.sweep.evaluate`` calls on random
                 designs near both presets: the same closed forms one point
                 at a time, so per-call overhead and latency show.
  verify-oracle  one ``kerrmich verify --max-photons 30 --cases K``: the
                 exact Fock oracle (~90% of the time) against the closed forms.

Every output is checked against a recomputation made here by calling
``derive`` and ``sensitivity_report`` directly (for verify: every exact
check must PASS, and each Monte Carlo line must equal one recomputed here
from the same seeded stream); `check` returns (attempted, failed).
"""

from __future__ import annotations

import json
import math
import operator
import time
from pathlib import Path

import numpy as np

import kerrmich.cli
import kerrmich.sweep
from kerrmich.analytic import sensitivity_report
from kerrmich.core import (
    GeometrySpec,
    MediumSpec,
    NoiseSpec,
    PulseSpec,
    derive,
    get_preset,
    operating_arm_length,
)

THRESHOLD = 1e-2

# Fields of one evaluated design point, in SweepRow order.
ROW_FIELDS = (
    "tau_s",
    "area_m2",
    "power_w",
    "n2_m2_per_w",
    "wavelength_m",
    "eta",
    "sigma",
    "nt",
    "arm_length_m",
    "signal_x_m",
    "n_photons",
    "chi",
    "k_per_m",
    "delta_x_m",
    "delta_x_linear_m",
    "improvement",
    "margin_small_signal",
    "margin_thermal",
    "margin_dephasing",
    "margin_operating_point",
    "margin_nl_dominant",
    "small_signal",
    "weak_thermal",
    "weak_dephasing",
    "on_operating_point",
    "nonlinearity_dominant",
)


def reference_row(
    wavelength: float,
    tau: float,
    area: float,
    power: float,
    n2: float,
    eta: float,
    sigma: float,
    nt: float,
) -> dict[str, float]:
    """One design point computed straight from `derive` and
    `sensitivity_report`, at the m = 1 operating point and zero signal."""
    d = derive(PulseSpec(wavelength, tau, area, power), MediumSpec(1.0, n2))
    arm = operating_arm_length(d) if d.chi > 0.0 else 1.0
    r = sensitivity_report(d, GeometrySpec(arm, 0.0), NoiseSpec(eta, sigma, nt), THRESHOLD)
    v = r.validity
    checks = (
        v.small_signal,
        v.weak_thermal,
        v.weak_dephasing,
        v.on_operating_point,
        v.nonlinearity_dominant,
    )
    values = (
        tau, area, power, n2, wavelength, eta, sigma, nt, arm, 0.0,
        d.photons, d.chi, d.wavenumber, r.delta_x, r.delta_x_linear, r.improvement,
        *(c.margin for c in checks),
        *(c.ok for c in checks),
    )
    return dict(zip(ROW_FIELDS, values))


class SweepCsv:
    """One CLI sweep: tau (log) x power (log) x sigma (linear) around giant-eit."""

    name = "sweep-csv"
    op = "row"
    POINTS = (50, 50, 40)
    SAMPLE = 200

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        rng = np.random.default_rng([seed, 1])
        base = get_preset("giant-eit")
        self.base = base
        self.points = tuple(max(2, round(p * scale ** (1 / 3))) for p in self.POINTS)
        tau, power = base.pulse.duration, base.pulse.power
        self.bounds = (
            (tau * 10.0 ** rng.uniform(-1.25, -0.75), tau * 10.0 ** rng.uniform(0.75, 1.25)),
            (power * 10.0 ** rng.uniform(-1.25, -0.75), power * 10.0 ** rng.uniform(0.75, 1.25)),
            (0.0, 10.0 ** rng.uniform(-4.0, -2.0)),
        )
        spacing = ("log", "log", "linear")
        self.axes = [
            (np.geomspace if s == "log" else np.linspace)(lo, hi, n).tolist()
            for (lo, hi), n, s in zip(self.bounds, self.points, spacing)
        ]
        self.rows = math.prod(self.points)
        self.sample = sorted(rng.choice(self.rows, size=min(self.SAMPLE, self.rows), replace=False).tolist())
        self.output = workdir / "sweep.csv"
        self.argv = ["sweep", "--regime", "giant-eit"]
        for param, (lo, hi), n, s in zip(("tau", "power", "sigma"), self.bounds, self.points, spacing):
            self.argv += ["--grid", f"{param}={lo!r}:{hi!r}:{n}:{s}"]
        self.argv += ["--output", str(self.output)]
        # one-point sweep vs estimate, at a seeded grid point
        i, j, k = (int(rng.integers(0, n)) for n in self.points)
        self.point_flags = [
            "--regime", "giant-eit",
            "--tau", repr(self.axes[0][i]),
            "--power", repr(self.axes[1][j]),
            "--sigma", repr(self.axes[2][k]),
        ]
        self.workdir = workdir

    def inputs(self) -> dict:
        return {"argv": self.argv, "sample": self.sample}

    def run_once(self) -> dict:
        main = kerrmich.cli.main
        t0 = time.perf_counter()
        rc = main(self.argv)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "ops": self.rows, "rc": rc, "output_bytes": _output_bytes(self.output)}

    def expected_line(self, row: int) -> str:
        n2, n3 = self.points[1], self.points[2]
        i, rest = divmod(row, n2 * n3)
        j, k = divmod(rest, n3)
        p = self.base
        ref = reference_row(
            p.pulse.wavelength, self.axes[0][i], p.pulse.cross_section, self.axes[1][j],
            p.medium.kerr_coefficient, p.noise.efficiency, self.axes[2][k], p.noise.thermal_photons,
        )
        return ",".join(repr(ref[c]) for c in kerrmich.sweep.CSV_COLUMNS)

    def check(self, result: dict) -> tuple[int, int]:
        """Exit code, header, row count, and a seeded sample of rows
        recomputed bit for bit (repr). Any of the first three failing
        fails every row."""
        if result["rc"] != 0 or not self.output.is_file():
            return self.rows, self.rows
        wanted = set(self.sample)
        got: dict[int, str] = {}
        count = 0
        with self.output.open() as f:
            header = f.readline().rstrip("\n")
            for idx, line in enumerate(f):
                if idx in wanted:
                    got[idx] = line.rstrip("\n")
                count += 1
        if header != ",".join(kerrmich.sweep.CSV_COLUMNS) or count != self.rows:
            return self.rows, self.rows
        return self.rows, sum(got[r] != self.expected_line(r) for r in self.sample)

    def check_once(self) -> tuple[int, int]:
        """A one-point sweep must equal `estimate` bit for bit."""
        sweep_out = self.workdir / "point.csv"
        est_out = self.workdir / "point.json"
        rc1 = kerrmich.cli.main(["sweep", *self.point_flags, "--output", str(sweep_out)])
        rc2 = kerrmich.cli.main(["estimate", *self.point_flags, "--output", str(est_out)])
        if rc1 or rc2:
            return 1, 1
        header, line = sweep_out.read_text().splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        est = json.loads(est_out.read_text())
        pairs = [("n_photons", est["n_photons"]), ("chi", est["chi"]), ("k_per_m", est["k"])]
        pairs += [(k, est[k]) for k in ("delta_x_m", "delta_x_linear_m", "improvement")]
        pairs += [(k, v) for k, v in est["validity"].items() if k.startswith("margin_")]
        same = all(row[k] == repr(v) for k, v in pairs) and len(pairs) == 11
        return 1, 0 if same else 1


def _output_bytes(path: Path) -> int:
    sidecar = path.with_name(path.name + ".manifest.json")
    return sum(p.stat().st_size for p in (path, sidecar) if p.is_file())


# ParameterSet fields of one design, in `reference_row` argument order.
DESIGN_FIELDS = ("wavelength", "tau", "area", "power", "n2", "eta", "sigma", "nt")


class DesignPoints:
    """Separate `kerrmich.sweep.evaluate` calls, one random design each."""

    name = "design-points"
    op = "evaluate call"
    COUNT = 150_000
    BLOCK = 1000

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        rng = np.random.default_rng([seed, 2])
        n = max(2, round(self.COUNT * scale))
        presets = (get_preset("giant-eit"), get_preset("natural"))
        # +-1 decade in tau, area, power around the preset; eta in [0.5, 1];
        # sigma and nt log-uniform. Designs alternate between the presets.
        decade = rng.uniform(-1.0, 1.0, size=(n, 3))
        eta = rng.uniform(0.5, 1.0, size=n)
        sigma = 10.0 ** rng.uniform(-6.0, -2.0, size=n)
        nt = 10.0 ** rng.uniform(-3.0, 2.0, size=n)
        preset = np.array([
            [p.pulse.wavelength, p.pulse.duration, p.pulse.cross_section, p.pulse.power,
             p.medium.kerr_coefficient]
            for p in presets
        ])[np.arange(n) % 2]
        preset[:, 1:4] *= 10.0 ** decade
        # columns in DESIGN_FIELDS order
        self.designs = np.column_stack([preset, eta, sigma, nt])
        self.expected = np.empty((n, len(ROW_FIELDS)))
        for i, d in enumerate(self.designs.tolist()):
            self.expected[i] = tuple(reference_row(*d).values())
        self.latency_ns = [0] * n

    def inputs(self) -> dict:
        return {"designs": self.designs.tolist()}

    def parameter_sets(self, lo: int, hi: int) -> list:
        """Designs lo..hi as the package's input type, built untimed."""
        ParameterSet = kerrmich.sweep.ParameterSet
        return [ParameterSet(**dict(zip(DESIGN_FIELDS, d))) for d in self.designs[lo:hi].tolist()]

    def run_once(self) -> dict:
        """Time the calls block by block; check each block's results bit
        for bit against the recomputation, outside the timed region, and
        drop them, so the working set stays that of one caller."""
        evaluate = kerrmich.sweep.evaluate
        clock = time.perf_counter_ns
        lat = self.latency_ns
        wall = 0.0
        failed = 0
        for lo in range(0, len(self.designs), self.BLOCK):
            chunk = self.parameter_sets(lo, lo + self.BLOCK)
            rows = [None] * len(chunk)
            t0 = time.perf_counter()
            for j, params in enumerate(chunk):
                c0 = clock()
                row = evaluate(params)
                c1 = clock()
                lat[lo + j] = c1 - c0
                rows[j] = row
            wall += time.perf_counter() - t0
            failed += self._mismatches(lo, rows)
        return {"wall_s": wall, "ops": len(self.designs), "latency_ns": lat, "failed": failed}

    def _mismatches(self, lo: int, rows: list) -> int:
        got = np.array([self._getter(r) for r in rows], dtype=np.float64)
        want = self.expected[lo : lo + len(rows)]
        return int((got.view(np.uint64) != want.view(np.uint64)).any(axis=1).sum())

    _getter = staticmethod(operator.attrgetter(*ROW_FIELDS))

    def check(self, result: dict) -> tuple[int, int]:
        return result["ops"], result["failed"]

    def check_once(self) -> tuple[int, int]:
        return 0, 0


# Fixed checks of `verify` at --max-photons 30: mean 75, identity 28,
# variance 80, quadrature 3, noise 12, Monte Carlo 4.
VERIFY_FIXED_CHECKS = 202

# The Monte Carlo checks of `verify`: label, offset of the stream seed from
# --seed, phase sigma, integrand, and its exact Gaussian average. Each
# compares a 1e5-sample mean with that average on a 3-standard-error band.
MC_SAMPLES = 100_000
MC_BAND = 3.0
MC_CASES = tuple(
    case
    for idx, sigma in enumerate((0.1, 0.3))
    for case in (
        (f"mc sin sigma={sigma}", idx, sigma,
         lambda phi: np.sin(phi + 0.6), math.exp(-0.5 * sigma * sigma) * math.sin(0.6)),
        (f"mc cos2 sigma={sigma}", 100 + idx, sigma,
         lambda phi: np.cos(2.0 * phi), math.exp(-2.0 * sigma * sigma)),
    )
)


def expected_mc_lines(seed: int) -> dict[str, str]:
    """The report line of each Monte Carlo check, recomputed here from the
    same seeded normal stream, keyed by label."""
    lines = {}
    for label, offset, sigma, fn, want in MC_CASES:
        phi = sigma * np.random.default_rng(seed + offset).standard_normal(MC_SAMPLES)
        values = fn(phi)
        z = abs(float(values.mean()) - want) / (float(values.std(ddof=1)) / math.sqrt(MC_SAMPLES))
        status = "PASS" if z <= MC_BAND else "FAIL"
        lines[label] = f"{status} [gaussian-mc] {label}: error {z:.3e} (limit {MC_BAND:.3e})"
    return lines


class VerifyOracle:
    """One CLI verify call at the desk-scale cap with K random mean cases."""

    name = "verify-oracle"
    op = "check"
    CASES = 20_000

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        self.seed = seed
        self.cases = max(1, round(self.CASES * scale))
        self.checks = VERIFY_FIXED_CHECKS + self.cases
        self.output = workdir / "verify.txt"
        self.argv = [
            "verify", "--max-photons", "30", "--cases", str(self.cases),
            "--seed", str(seed), "--output", str(self.output),
        ]
        self.mc_lines = expected_mc_lines(seed)
        # Monte Carlo FAIL verdicts that match the recomputation: a 3-sigma
        # band rejects a correct estimate for ~0.27% of seeds per check.
        self.mc_fail_verdicts = 0

    def inputs(self) -> dict:
        return {"argv": self.argv}

    def run_once(self) -> dict:
        main = kerrmich.cli.main
        t0 = time.perf_counter()
        rc = main(self.argv)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "ops": self.checks, "rc": rc, "output_bytes": _output_bytes(self.output)}

    def check(self, result: dict) -> tuple[int, int]:
        """202 + K check lines and an exit code that agrees with them.
        Each exact check must PASS; each Monte Carlo check must equal its
        recomputation, z-score and verdict alike, so a seed whose correct
        estimate falls outside the 3-sigma band is not a failure, while any
        change to the sampled numbers is. A malformed report, or an exit
        code that disagrees with it, fails every check."""
        if not self.output.is_file():
            return self.checks, self.checks
        lines = self.output.read_text().splitlines()
        checks = [ln for ln in lines[:-1] if ln.startswith(("PASS [", "FAIL ["))]
        reported_fail = sum(ln.startswith("FAIL") for ln in checks)
        summary_ok = bool(lines) and lines[-1].startswith(("PASS ", "FAIL ")) and (
            f" {self.checks} checks," in lines[-1]
        )
        if len(checks) != self.checks or not summary_ok or result["rc"] != (2 if reported_fail else 0):
            return self.checks, self.checks
        mc = [ln for ln in checks if ln[4:].startswith(" [gaussian-mc] ")]
        mc_labels = [ln.split("] ", 1)[1].split(": ", 1)[0] for ln in mc]
        if sorted(mc_labels) != sorted(self.mc_lines):
            return self.checks, self.checks
        mc_bad = sum(ln != self.mc_lines[label] for ln, label in zip(mc, mc_labels))
        mc_fail = sum(ln.startswith("FAIL") for ln in mc)
        self.mc_fail_verdicts += mc_fail
        return self.checks, reported_fail - mc_fail + mc_bad

    def check_once(self) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {w.name: w for w in (SweepCsv, DesignPoints, VerifyOracle)}
