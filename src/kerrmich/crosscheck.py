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
# Random mean cases drawn, then evaluated by photon number, at a time.
MEAN_WINDOW = 2048
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


def _kerr_means(settings: list[tuple], dim_margin: int) -> list[float]:
    """Exact <M> of each (n, chi, phi1, phi2, offset), from the one-mode
    amplitudes of `_evolved_moments`' product input, built once per n."""
    groups: dict[int, list[int]] = {}
    for i, setting in enumerate(settings):
        groups.setdefault(setting[0], []).append(i)
    got = [0.0] * len(settings)
    for n, idx in groups.items():
        beta, dim = math.sqrt(float(n)) / math.sqrt(2.0), fock_dim(n / 2.0) + dim_margin
        amps, _ = coherent_amplitudes(beta, dim, budget=DEFAULT_TRUNCATION_BUDGET)
        _, chi, phi1, phi2, offset = zip(*(settings[i] for i in idx))
        for i, value in zip(idx, kerr_means(amps, phi1, phi2, chi, offset).tolist()):
            got[i] = value
    return got


def _mean_cases(max_photons: int, dim_margin: int, tolerance: float) -> list[CheckCase]:
    settings = [
        (n, chi, phi1, phi2, offset)
        for n in _photon_grid(max_photons)
        for chi in DEFAULT_CHIS
        for phi1, phi2, offset in DEFAULT_PHASE_SETTINGS
    ]
    return [
        CheckCase(
            section="mean",
            label=f"N={n} chi={chi} phi=({phi1},{phi2}) off={offset}",
            error=relative_error(
                got, signal_mean_exact(float(n), chi, phi1, phi2, offset)
            ),
            limit=tolerance,
        )
        for (n, chi, phi1, phi2, offset), got in zip(
            settings, _kerr_means(settings, dim_margin)
        )
    ]


def _extra_mean_cases(
    max_photons: int,
    dim_margin: int,
    count: int,
    rng: np.random.Generator,
    tolerance: float,
) -> list[CheckCase]:
    cases = []
    top = max(max_photons, 0)
    # draw and evaluate a window of cases at a time, so the drawn settings
    # take O(window) memory next to the O(count) cases
    for start in range(0, count, MEAN_WINDOW):
        settings = []
        wants = []
        for _ in range(min(MEAN_WINDOW, count - start)):
            # redraw until the expected mean is not pathologically small, so
            # a relative comparison stays meaningful
            while True:
                n = int(rng.integers(0, top + 1))
                chi = float(rng.uniform(0.0, 0.12))
                phi1 = float(rng.uniform(0.0, 2.5))
                phi2 = float(rng.uniform(0.0, 2.5))
                offset = float(rng.uniform(-1.0, 1.0))
                want = signal_mean_exact(float(n), chi, phi1, phi2, offset)
                if n == 0 or abs(want) >= 1e-3:
                    break
            settings.append((n, chi, phi1, phi2, offset))
            wants.append(want)
        cases += [
            CheckCase(
                section="mean",
                label=f"random[{i}] N={n} chi={chi:.4f}",
                error=relative_error(got, want),
                limit=tolerance,
            )
            for i, ((n, chi, *_), want, got) in enumerate(
                zip(settings, wants, _kerr_means(settings, dim_margin)), start
            )
        ]
    return cases


def _identity_cases(max_photons: int, tolerance: float) -> list[CheckCase]:
    mus = tuple(mu for mu in (0.5, 2.0, 5.0, 10.0) if mu <= max(max_photons, 0))
    if not mus:
        mus = (0.0,)
    cases = []
    for mu in mus:
        for z in np.linspace(0.0, math.pi, 7):
            residual = coherent_identity_residual(math.sqrt(mu), float(z))
            cases.append(
                CheckCase(
                    section="identity",
                    label=f"|beta|^2={mu} z={z:.4f}",
                    error=residual,
                    limit=tolerance,
                )
            )
    return cases


def _variance_cases(
    max_photons: int, dim_margin: int, tolerance: float
) -> list[CheckCase]:
    offsets = [j * math.pi / 4.0 + 0.35 for j in range(8)]
    cases = []
    for n in _photon_grid(max_photons):
        for chi in (0.0, 0.1):
            # phi0 puts the empty interferometer on the operating point,
            # where the balanced closed form is exact
            phi0 = 2.0 * math.pi / chi if chi > 0.0 else 0.0
            for offset in offsets:
                got = _evolved_moments(n, chi, phi0, phi0, offset, dim_margin).mean_m2
                want = balanced_second_moment(float(n), offset)
                cases.append(
                    CheckCase(
                        section="variance",
                        label=f"N={n} chi={chi} off={offset:.4f}",
                        error=relative_error(got, want),
                        limit=tolerance,
                    )
                )
    return cases


def _gaussian_cases(
    seed: int, tolerance: float
) -> tuple[list[CheckCase], list[CheckCase]]:
    """Quadrature cases (relative tolerance) and Monte Carlo cases (3 se)."""
    quad_cases = []
    mc_cases = []
    for sigma in (0.1, 0.3, 0.5):
        # full exact mean under a random common phase: the sigma dependence
        # must be exactly the factor exp(-sigma^2/2)
        def averaged(phis: np.ndarray) -> np.ndarray:
            return np.array(
                [signal_mean_exact(9.0, 0.01, 0.3, 0.32, float(p)) for p in phis]
            )

        got = gauss_hermite_phase(averaged, sigma)
        want = math.exp(-0.5 * sigma * sigma) * signal_mean_exact(9.0, 0.01, 0.3, 0.32)
        quad_cases.append(
            CheckCase(
                section="gaussian",
                label=f"quadrature sigma={sigma}",
                error=relative_error(got, want),
                limit=tolerance,
            )
        )
    for idx, sigma in enumerate((0.1, 0.3)):
        est, se = monte_carlo_phase(
            lambda phi: np.sin(phi + 0.6), sigma, MC_SAMPLES, seed + idx
        )
        want = math.exp(-0.5 * sigma * sigma) * math.sin(0.6)
        mc_cases.append(
            CheckCase(
                section="gaussian-mc",
                label=f"mc sin sigma={sigma}",
                error=abs(est - want) / se,
                limit=MC_SIGMA_BAND,
            )
        )
        est, se = monte_carlo_phase(
            lambda phi: np.cos(2.0 * phi), sigma, MC_SAMPLES, seed + 100 + idx
        )
        want = math.exp(-2.0 * sigma * sigma)
        mc_cases.append(
            CheckCase(
                section="gaussian-mc",
                label=f"mc cos2 sigma={sigma}",
                error=abs(est - want) / se,
                limit=MC_SIGMA_BAND,
            )
        )
    return quad_cases, mc_cases


def _noise_cases(max_photons: int, dim_margin: int, tolerance: float) -> list[CheckCase]:
    n = min(16, max_photons) if max_photons > 0 else 0
    chi = 0.1
    phi0 = 2.0 * math.pi / chi
    base = _evolved_moments(n, chi, phi0, phi0, 0.0, dim_margin)
    cases = []
    for eta in (0.5, 1.0):
        for sigma in (0.0, 0.05, 0.2):
            for nt in (0.0, 2.0):
                noisy = noisy_moments(
                    base, NoiseSpec(efficiency=eta, phase_sigma=sigma, thermal_photons=nt)
                )
                want = signal_variance(float(n), eta, sigma, nt, exact=True)
                cases.append(
                    CheckCase(
                        section="noise",
                        label=f"N={n} eta={eta} sigma={sigma} nt={nt}",
                        error=relative_error(noisy.mean_m2, want),
                        limit=tolerance,
                    )
                )
    return cases


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

    rng = np.random.default_rng(seed)
    stages: dict[str, float] = {}
    last = time.perf_counter()

    def lap(section: str) -> None:
        nonlocal last
        now = time.perf_counter()
        stages[section], last = now - last, now

    cases = _mean_cases(max_photons, dim_margin, tolerance)
    if extra_cases:
        cases += _extra_mean_cases(max_photons, dim_margin, extra_cases, rng, tolerance)
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
    return CrossCheckReport(
        cases=tuple(cases), tolerance=tolerance, seed=seed, stages=stages
    )
