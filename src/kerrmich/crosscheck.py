"""Brute-force verification of the closed forms against the Fock oracle.

Five families of checks, each pitting an independent computation against a
closed form at desk scale (a few tens of photons):

  mean      exact <M> formula vs the contraction of the evolved product input
  identity  the coherent-state expectation identity behind that formula
  variance  <M^2> at balance vs its closed form, on the operating point
  gaussian  dephasing factors vs Gauss-Hermite quadrature and Monte Carlo
  noise     the efficiency/dephasing/thermal replacement rules end to end

Deterministic for a fixed seed. Monte Carlo cases pass on a 3-standard-
error band. Every other case compares its error with the requested
tolerance: the identity residual |direct - closed| as an absolute error,
the rest as relative errors, NaN (a failure) when either side is NaN.

The report is columnar. Each section gives blocks of checks
(`CheckBlock`: one limit, a label format, the label's argument columns and
an array of errors); the mean section gives one per window, the fixed
grid and each window of MEAN_WINDOW random draws. Each window gets its
exact <M> from one `signal_mean_exact` call and its oracle values from
one `kerr_means` call. A report line, label included, is made by one `%`
from a block's columns; verdicts (`CheckBlock.passed`, the one rule), the
failure count and each section's worst error are array operations. One
`CheckCase` per check is built only when `CrossCheckReport.cases` is read.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analytic import (
    balanced_second_moment,
    signal_mean_exact,
    signal_variance,
)
from .core import NoiseSpec
from .fock import (
    DEFAULT_TRUNCATION_BUDGET,
    apply_kerr,
    coherent_amplitudes,
    coherent_identity_residual,
    fock_dim,
    gauss_hermite_phase,
    kerr_means,
    level_weights,
    moments,
    monte_carlo_phase,
    noisy_moments,
    product_input,
)

DEFAULT_PHOTON_NUMBERS = (1, 4, 9, 16, 25)
DEFAULT_CHIS = (0.0, 0.01, 0.1)
# Five (phi1, phi2, offset) settings chosen to keep the mean well away
# from zero for every default photon number and chi.
DEFAULT_PHASE_SETTINGS = (
    (0.30, 0.32, 0.0),
    (0.00, 0.40, 0.25),
    (1.10, 0.90, -0.40),
    (0.70, 0.70, 0.60),
    (2.00, 2.50, 1.00),
)
MC_SAMPLES = 100_000
MC_SIGMA_BAND = 3.0
# Random mean settings drawn at a time; the kept ones are evaluated in
# one kernel call.
MEAN_WINDOW = 2048
# Largest basis enlargement a run accepts: every section builds arrays of
# fock_dim + dim_margin levels (squared in the dense sections).
MAX_DIM_MARGIN = 100
# Most random mean cases a run accepts (the sweep's MAX_ROWS): the report
# keeps one error per case.
MAX_CASES = 1_000_000
# Unit of each section's error: relative error, absolute residual, or
# standard errors from the exact value (limit MC_SIGMA_BAND).
SECTION_UNITS = {
    "mean": "rel",
    "identity": "abs",
    "variance": "rel",
    "gaussian": "rel",
    "noise": "rel",
    "gaussian-mc": f"z (limit {MC_SIGMA_BAND:g})",
}


class CheckCase(NamedTuple):
    """One comparison: a label, its error, and the limit it must meet."""

    section: str
    label: str
    error: float
    limit: float


class CheckBlock(NamedTuple):
    """Checks of one section under one limit, as columns: check i is
    labelled `label_format % (column[i] for each of label_columns)` and has
    error `errors[i]`. A column is a numpy array or a sequence of Python
    values (a list, or a range for running indices)."""

    section: str
    limit: float
    label_format: str
    label_columns: tuple
    errors: np.ndarray

    def columns(self) -> list:
        """The label columns as sequences of Python values, which `%`
        formats as it formats the values they came from."""
        return [c.tolist() if isinstance(c, np.ndarray) else c for c in self.label_columns]

    def passed(self) -> np.ndarray:
        """Each check's verdict; a NaN error fails."""
        return self.errors <= self.limit

    def lines(self) -> list[str]:
        """One report line per check, each made by one `%`."""
        line = (
            f"%s [{self.section}] {self.label_format}: error %.3e "
            f"(limit {self.limit:.3e})"
        )
        status = np.where(self.passed(), "PASS", "FAIL").tolist()
        return list(map(line.__mod__, zip(status, *self.columns(), self.errors.tolist())))

    def cases(self) -> list[CheckCase]:
        return [
            CheckCase(self.section, self.label_format % row[:-1], row[-1], self.limit)
            for row in zip(*self.columns(), self.errors.tolist())
        ]


def _worse(a: float, b: float) -> float:
    """The larger of two errors, or NaN if either is NaN (`max` keeps or
    drops a NaN by where it stands)."""
    return a if a != a or a >= b else b


@dataclass(frozen=True, eq=False)
class CrossCheckReport:
    """The checks in report order, as blocks of columns, and the seconds
    each section took to compute (`run_crosscheck` fills `stages`).
    Reports compare by identity, as their blocks hold arrays."""

    blocks: tuple[CheckBlock, ...]
    tolerance: float
    seed: int
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def checks(self) -> int:
        return sum(len(b.errors) for b in self.blocks)

    @functools.cached_property
    def failed(self) -> int:
        return sum(int(np.count_nonzero(~b.passed())) for b in self.blocks)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @functools.cached_property
    def cases(self) -> tuple[CheckCase, ...]:
        return tuple(itertools.chain.from_iterable(b.cases() for b in self.blocks))

    @functools.cached_property
    def _worst(self) -> dict[str, float]:
        # a block's max is NaN if any of its errors is, as `_worse` keeps it
        worst: dict[str, float] = {}
        for b in self.blocks:
            if len(b.errors):
                error = float(b.errors.max())
                worst[b.section] = _worse(worst.get(b.section, error), error)
        return worst

    def max_error(self, section: str | None = None) -> float:
        """The worst error of a section (of every case if None): NaN if any
        of its errors is NaN, 0.0 if it has no cases."""
        if section is not None:
            return self._worst.get(section, 0.0)
        worst = self._worst.values()
        return functools.reduce(_worse, worst) if worst else 0.0

    def lines(self) -> Iterator[str]:
        """One line per check, then the summary: verdict, counts, and each
        section's worst error in that section's unit, as `max_error` gives
        it."""
        for block in self.blocks:
            yield from block.lines()
        worst = ", ".join(
            f"{section} {error:.3e} {SECTION_UNITS[section]}"
            for section, error in self._worst.items()
        )
        status = "PASS" if self.ok else "FAIL"
        yield f"{status} {self.checks} checks, {self.failed} failed, worst error: {worst}"


def relative_error(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """|a - b| / max(|a|, |b|) for floats or, elementwise, arrays: 0 where
    both are 0, NaN where either is NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(all="ignore"):
        errors = np.where(scale == 0.0, 0.0, np.abs(a - b) / scale)
    return errors if errors.ndim else float(errors)


def _photon_grid(max_photons: int) -> tuple[int, ...]:
    ns = tuple(n for n in DEFAULT_PHOTON_NUMBERS if n <= max_photons)
    return ns if ns else (0,)


def _product_input(n: int, dim_margin: int):
    return product_input(math.sqrt(float(n)), dim=fock_dim(n / 2.0) + dim_margin)


def _labelled_block(
    section: str, limit: float, labels: list[str], errors: list[float] | np.ndarray
) -> CheckBlock:
    return CheckBlock(section, limit, "%s", (labels,), np.asarray(errors, dtype=float))


def _mean_settings(
    max_photons: int, count: int, rng: np.random.Generator
) -> Iterator[tuple]:
    """The mean checks as windows of columns (n, chi, phi1, phi2, offset,
    label format, label columns, exact <M>): the fixed grid, then the first
    `count` kept draws from rng, drawn MEAN_WINDOW at a time, one window
    per draw."""
    grid = [
        (n, chi, *phases)
        for n, chi, phases in itertools.product(
            _photon_grid(max_photons), DEFAULT_CHIS, DEFAULT_PHASE_SETTINGS
        )
    ]
    columns = tuple(np.array(c) for c in zip(*grid))
    yield (*columns, "N=%d chi=%s phi=(%s,%s) off=%s", columns, signal_mean_exact(*columns))
    # each batch draws MEAN_WINDOW settings whatever count is, so draw i
    # depends on the seed and i alone; a draw is kept only if n == 0 or its
    # mean is not pathologically small, so a relative comparison stays
    # meaningful
    top = max(max_photons, 0)
    i = 0
    while i < count:
        ns = rng.integers(0, top + 1, size=MEAN_WINDOW)
        columns = rng.uniform(
            (0.0, 0.0, 0.0, -1.0), (0.12, 2.5, 2.5, 1.0), size=(MEAN_WINDOW, 4)
        ).T
        wants = signal_mean_exact(ns, *columns)
        keep = np.flatnonzero((ns == 0) | (np.abs(wants) >= 1e-3))[: count - i]
        ns, columns, wants = ns[keep], columns[:, keep], wants[keep]
        label_columns = (range(i, i + len(keep)), ns, columns[0])
        yield ns, *columns, "random[%d] N=%d chi=%.4f", label_columns, wants
        i += len(keep)


def _mean_blocks(
    windows: Iterator[tuple], dim_margin: int, tolerance: float
) -> list[CheckBlock]:
    # one kernel call and one block per window, so the draws take
    # O(window) memory next to the O(count) errors; each photon number's
    # level weights, from the one-mode amplitudes of `_product_input`, are
    # built once per run and kept across windows
    weights: dict[int, np.ndarray] = {}
    blocks = []
    for ns, chi, phi1, phi2, offset, label_format, label_columns, wants in windows:
        present, rows = np.unique(ns, return_inverse=True)
        present = present.tolist()
        for n in present:
            if n not in weights:
                beta = math.sqrt(float(n)) / math.sqrt(2.0)
                dim = fock_dim(n / 2.0) + dim_margin
                amps, _ = coherent_amplitudes(beta, dim, budget=DEFAULT_TRUNCATION_BUDGET)
                weights[n] = level_weights(amps)
        # fock_dim grows with n, so the largest n has the longest row; zero
        # padding leaves the values of the others unchanged to the bit
        table = np.zeros((len(present), len(weights[present[-1]])), dtype=complex)
        for row, n in zip(table, present):
            row[: len(weights[n])] = weights[n]
        got = kerr_means(table, rows, phi1, phi2, chi, offset)
        blocks.append(CheckBlock(
            "mean", tolerance, label_format, label_columns, relative_error(got, wants)
        ))
    return blocks


def _identity_block(max_photons: int, tolerance: float) -> CheckBlock:
    mus = tuple(mu for mu in (0.5, 2.0, 5.0, 10.0) if mu <= max(max_photons, 0))
    checks = [
        (f"|beta|^2={mu} z={z:.4f}", coherent_identity_residual(math.sqrt(mu), float(z)))
        for mu in mus or (0.0,)
        for z in np.linspace(0.0, math.pi, 7)
    ]
    return _labelled_block("identity", tolerance, *zip(*checks))


def _variance_block(max_photons: int, dim_margin: int, tolerance: float) -> CheckBlock:
    # phi0 puts the empty interferometer on the operating point, where the
    # balanced closed form is exact; each state is evolved once and read at
    # every offset
    labels, got, want = [], [], []
    for n in _photon_grid(max_photons):
        state = _product_input(n, dim_margin)
        for chi, phi0 in ((0.0, 0.0), (0.1, 2.0 * math.pi / 0.1)):
            evolved = apply_kerr(state, phi0, phi0, chi)
            for offset in (j * math.pi / 4.0 + 0.35 for j in range(8)):
                labels.append(f"N={n} chi={chi} off={offset:.4f}")
                got.append(moments(evolved, offset=offset).mean_m2)
                want.append(balanced_second_moment(float(n), offset))
    return _labelled_block("variance", tolerance, labels, relative_error(got, want))


def _gaussian_blocks(seed: int, tolerance: float) -> tuple[CheckBlock, CheckBlock]:
    """Quadrature checks (relative tolerance) and Monte Carlo checks (3 se)."""
    # full exact mean under a random common phase: the sigma dependence
    # must be exactly the factor exp(-sigma^2/2)
    averaged = functools.partial(signal_mean_exact, 9.0, 0.01, 0.3, 0.32)
    sigmas = (0.1, 0.3, 0.5)
    got = [gauss_hermite_phase(averaged, sigma) for sigma in sigmas]
    want = [
        math.exp(-0.5 * sigma * sigma) * signal_mean_exact(9.0, 0.01, 0.3, 0.32)
        for sigma in sigmas
    ]
    quad = _labelled_block(
        "gaussian",
        tolerance,
        [f"quadrature sigma={sigma}" for sigma in sigmas],
        relative_error(got, want),
    )
    sin, cos2 = (lambda phi: np.sin(phi + 0.6)), (lambda phi: np.cos(2.0 * phi))
    # label, seed offset, sigma, integrand, its exact Gaussian average
    mc_table = (
        ("mc sin sigma=0.1", 0, 0.1, sin, math.exp(-0.5 * 0.1 * 0.1) * math.sin(0.6)),
        ("mc cos2 sigma=0.1", 100, 0.1, cos2, math.exp(-2.0 * 0.1 * 0.1)),
        ("mc sin sigma=0.3", 1, 0.3, sin, math.exp(-0.5 * 0.3 * 0.3) * math.sin(0.6)),
        ("mc cos2 sigma=0.3", 101, 0.3, cos2, math.exp(-2.0 * 0.3 * 0.3)),
    )
    z_scores = []
    for _, seed_offset, sigma, integrand, want in mc_table:
        est, se = monte_carlo_phase(integrand, sigma, MC_SAMPLES, seed + seed_offset)
        z_scores.append(abs(est - want) / se)
    mc = _labelled_block("gaussian-mc", MC_SIGMA_BAND, [t[0] for t in mc_table], z_scores)
    return quad, mc


def _noise_block(max_photons: int, dim_margin: int, tolerance: float) -> CheckBlock:
    n = min(16, max_photons) if max_photons > 0 else 0
    chi = 0.1
    phi0 = 2.0 * math.pi / chi
    base = moments(apply_kerr(_product_input(n, dim_margin), phi0, phi0, chi), offset=0.0)
    settings = list(itertools.product((0.5, 1.0), (0.0, 0.05, 0.2), (0.0, 2.0)))
    got = [
        noisy_moments(
            base, NoiseSpec(efficiency=eta, phase_sigma=sigma, thermal_photons=nt)
        ).mean_m2
        for eta, sigma, nt in settings
    ]
    want = [
        signal_variance(float(n), eta, sigma, nt, exact=True) for eta, sigma, nt in settings
    ]
    return _labelled_block(
        "noise",
        tolerance,
        [f"N={n} eta={eta} sigma={sigma} nt={nt}" for eta, sigma, nt in settings],
        relative_error(got, want),
    )


def run_crosscheck(
    max_photons: int = 25,
    tolerance: float = 1e-9,
    seed: int = 42,
    extra_cases: int = 0,
    dim_margin: int = 0,
) -> CrossCheckReport:
    """Run the whole suite; tolerance applies to every non-Monte-Carlo case."""
    if max_photons < 0:
        raise ValueError(f"max_photons must be >= 0, got {max_photons}")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be >= 0 and finite, got {tolerance!r}")
    if dim_margin < 0:
        raise ValueError(f"dim_margin must be >= 0, got {dim_margin}")
    if dim_margin > MAX_DIM_MARGIN:
        raise ValueError(f"dim_margin {dim_margin} exceeds the cap of {MAX_DIM_MARGIN}")
    if extra_cases < 0:
        raise ValueError(f"extra_cases must be >= 0, got {extra_cases}")
    if extra_cases > MAX_CASES:
        raise ValueError(f"extra_cases {extra_cases} exceeds the cap of {MAX_CASES}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    stages: dict[str, float] = {}
    last = time.perf_counter()

    def lap(section: str) -> None:
        nonlocal last
        now = time.perf_counter()
        stages[section], last = now - last, now

    blocks = _mean_blocks(_mean_settings(max_photons, extra_cases, rng), dim_margin, tolerance)
    lap("mean")
    blocks.append(_identity_block(max_photons, tolerance))
    lap("identity")
    blocks.append(_variance_block(max_photons, dim_margin, tolerance))
    lap("variance")
    quad, mc = _gaussian_blocks(seed, tolerance)
    lap("gaussian")
    blocks.append(quad)
    blocks.append(_noise_block(max_photons, dim_margin, tolerance))
    lap("noise")
    blocks.append(mc)
    return CrossCheckReport(tuple(blocks), tolerance, seed, stages)
