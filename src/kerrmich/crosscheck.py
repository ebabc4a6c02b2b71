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
the rest as relative errors.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

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
# Mean cases drawn, then evaluated in one kernel call, at a time.
MEAN_WINDOW = 2048
# Largest basis enlargement a run accepts: every section builds arrays of
# fock_dim + dim_margin levels (squared in the dense sections).
MAX_DIM_MARGIN = 100
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


@dataclass(frozen=True)
class CheckCase:
    """One comparison: a label, its error, and the limit it must meet."""

    section: str
    label: str
    error: float
    limit: float

    @property
    def ok(self) -> bool:
        return self.error <= self.limit


@dataclass(frozen=True)
class CrossCheckReport:
    """The checks in report order, and the seconds each section took to
    compute (`run_crosscheck` fills `stages`; it takes no part in ==)."""

    cases: tuple[CheckCase, ...]
    tolerance: float
    seed: int
    stages: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def failures(self) -> tuple[CheckCase, ...]:
        return tuple(c for c in self.cases if not c.ok)

    def max_error(self, section: str | None = None) -> float:
        errs = [c.error for c in self.cases if section is None or c.section == section]
        return max(errs, default=0.0)

    def lines(self) -> Iterator[str]:
        """One line per check, then the summary: verdict, counts, and each
        section's worst error in that section's unit."""
        for c in self.cases:
            status = "PASS" if c.ok else "FAIL"
            yield (
                f"{status} [{c.section}] {c.label}: error {c.error:.3e} "
                f"(limit {c.limit:.3e})"
            )
        worst = ", ".join(
            f"{section} {self.max_error(section):.3e} {SECTION_UNITS[section]}"
            for section in dict.fromkeys(c.section for c in self.cases)
        )
        status = "PASS" if self.ok else "FAIL"
        yield (
            f"{status} {len(self.cases)} checks, "
            f"{len(self.failures)} failed, worst error: {worst}"
        )


def relative_error(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _photon_grid(max_photons: int) -> tuple[int, ...]:
    ns = tuple(n for n in DEFAULT_PHOTON_NUMBERS if n <= max_photons)
    return ns if ns else (0,)


def _evolved_moments(n: int, chi: float, phi1: float, phi2: float, offset: float,
                     dim_margin: int):
    dim = fock_dim(n / 2.0) + dim_margin
    state = product_input(math.sqrt(float(n)), dim=dim)
    return moments(apply_kerr(state, phi1, phi2, chi), offset=offset)


def _relative_case(
    section: str, label: str, got: float, want: float, tolerance: float
) -> CheckCase:
    return CheckCase(section, label, relative_error(got, want), tolerance)


def _mean_settings(
    max_photons: int, count: int, rng: np.random.Generator
) -> Iterator[tuple[tuple, str, float]]:
    """(setting, label, exact <M>) of each mean check: the fixed grid, then
    the first `count` kept draws from rng, drawn MEAN_WINDOW at a time."""
    for n, chi, (phi1, phi2, offset) in itertools.product(
        _photon_grid(max_photons), DEFAULT_CHIS, DEFAULT_PHASE_SETTINGS
    ):
        yield (
            (n, chi, phi1, phi2, offset),
            f"N={n} chi={chi} phi=({phi1},{phi2}) off={offset}",
            signal_mean_exact(float(n), chi, phi1, phi2, offset),
        )
    # each batch draws MEAN_WINDOW settings whatever count is, so draw i
    # depends on the seed and i alone; a draw is kept only if n == 0 or its
    # mean is not pathologically small, so a relative comparison stays
    # meaningful
    top = max(max_photons, 0)
    i = 0
    while i < count:
        ns = rng.integers(0, top + 1, size=MEAN_WINDOW).tolist()
        columns = rng.uniform(
            (0.0, 0.0, 0.0, -1.0), (0.12, 2.5, 2.5, 1.0), size=(MEAN_WINDOW, 4)
        ).T.tolist()
        for n, chi, phi1, phi2, offset in zip(ns, *columns):
            want = signal_mean_exact(float(n), chi, phi1, phi2, offset)
            if n == 0 or abs(want) >= 1e-3:
                yield (n, chi, phi1, phi2, offset), f"random[{i}] N={n} chi={chi:.4f}", want
                i += 1
                if i == count:
                    return


def _mean_cases(
    stream: Iterator[tuple[tuple, str, float]], dim_margin: int, tolerance: float
) -> list[CheckCase]:
    # draw and evaluate a window of settings at a time, so they take
    # O(window) memory next to the O(count) cases; each photon number's
    # level weights, from the one-mode amplitudes of `_evolved_moments`'
    # product input, are built once per run and kept across windows
    weights: dict[int, np.ndarray] = {}
    cases = []
    while window := list(itertools.islice(stream, MEAN_WINDOW)):
        settings, labels, wants = zip(*window)
        ns, chi, phi1, phi2, offset = zip(*settings)
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
        cases += [
            _relative_case("mean", label, value, want, tolerance)
            for label, want, value in zip(labels, wants, got.tolist())
        ]
    return cases


def _identity_cases(max_photons: int, tolerance: float) -> list[CheckCase]:
    mus = tuple(mu for mu in (0.5, 2.0, 5.0, 10.0) if mu <= max(max_photons, 0))
    return [
        CheckCase(
            "identity",
            f"|beta|^2={mu} z={z:.4f}",
            coherent_identity_residual(math.sqrt(mu), float(z)),
            tolerance,
        )
        for mu in mus or (0.0,)
        for z in np.linspace(0.0, math.pi, 7)
    ]


def _variance_cases(
    max_photons: int, dim_margin: int, tolerance: float
) -> list[CheckCase]:
    # phi0 puts the empty interferometer on the operating point, where the
    # balanced closed form is exact
    return [
        _relative_case(
            "variance",
            f"N={n} chi={chi} off={offset:.4f}",
            _evolved_moments(n, chi, phi0, phi0, offset, dim_margin).mean_m2,
            balanced_second_moment(float(n), offset),
            tolerance,
        )
        for n in _photon_grid(max_photons)
        for chi, phi0 in ((0.0, 0.0), (0.1, 2.0 * math.pi / 0.1))
        for offset in (j * math.pi / 4.0 + 0.35 for j in range(8))
    ]


def _gaussian_cases(
    seed: int, tolerance: float
) -> tuple[list[CheckCase], list[CheckCase]]:
    """Quadrature cases (relative tolerance) and Monte Carlo cases (3 se)."""
    # full exact mean under a random common phase: the sigma dependence
    # must be exactly the factor exp(-sigma^2/2)
    def averaged(phis: np.ndarray) -> np.ndarray:
        return np.array([signal_mean_exact(9.0, 0.01, 0.3, 0.32, float(p)) for p in phis])

    quad_cases = [
        _relative_case(
            "gaussian",
            f"quadrature sigma={sigma}",
            gauss_hermite_phase(averaged, sigma),
            math.exp(-0.5 * sigma * sigma) * signal_mean_exact(9.0, 0.01, 0.3, 0.32),
            tolerance,
        )
        for sigma in (0.1, 0.3, 0.5)
    ]
    sin, cos2 = (lambda phi: np.sin(phi + 0.6)), (lambda phi: np.cos(2.0 * phi))
    # label, seed offset, sigma, integrand, its exact Gaussian average
    mc_table = (
        ("mc sin sigma=0.1", 0, 0.1, sin, math.exp(-0.5 * 0.1 * 0.1) * math.sin(0.6)),
        ("mc cos2 sigma=0.1", 100, 0.1, cos2, math.exp(-2.0 * 0.1 * 0.1)),
        ("mc sin sigma=0.3", 1, 0.3, sin, math.exp(-0.5 * 0.3 * 0.3) * math.sin(0.6)),
        ("mc cos2 sigma=0.3", 101, 0.3, cos2, math.exp(-2.0 * 0.3 * 0.3)),
    )
    mc_cases = []
    for label, seed_offset, sigma, integrand, want in mc_table:
        est, se = monte_carlo_phase(integrand, sigma, MC_SAMPLES, seed + seed_offset)
        mc_cases.append(CheckCase("gaussian-mc", label, abs(est - want) / se, MC_SIGMA_BAND))
    return quad_cases, mc_cases


def _noise_cases(max_photons: int, dim_margin: int, tolerance: float) -> list[CheckCase]:
    n = min(16, max_photons) if max_photons > 0 else 0
    chi = 0.1
    phi0 = 2.0 * math.pi / chi
    base = _evolved_moments(n, chi, phi0, phi0, 0.0, dim_margin)
    return [
        _relative_case(
            "noise",
            f"N={n} eta={eta} sigma={sigma} nt={nt}",
            noisy_moments(
                base, NoiseSpec(efficiency=eta, phase_sigma=sigma, thermal_photons=nt)
            ).mean_m2,
            signal_variance(float(n), eta, sigma, nt, exact=True),
            tolerance,
        )
        for eta in (0.5, 1.0)
        for sigma in (0.0, 0.05, 0.2)
        for nt in (0.0, 2.0)
    ]


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    stages: dict[str, float] = {}
    last = time.perf_counter()

    def lap(section: str) -> None:
        nonlocal last
        now = time.perf_counter()
        stages[section], last = now - last, now

    cases = _mean_cases(_mean_settings(max_photons, extra_cases, rng), dim_margin, tolerance)
    lap("mean")
    cases += _identity_cases(max_photons, tolerance)
    lap("identity")
    cases += _variance_cases(max_photons, dim_margin, tolerance)
    lap("variance")
    quad, mc = _gaussian_cases(seed, tolerance)
    lap("gaussian")
    cases += quad
    cases += _noise_cases(max_photons, dim_margin, tolerance)
    lap("noise")
    cases += mc
    return CrossCheckReport(tuple(cases), tolerance, seed, stages)
