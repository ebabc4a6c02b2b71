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
(`CheckBlock`: one limit, a byte table of labels and an array of errors);
the mean section gives one per window, the fixed grid and each window of
MEAN_WINDOW random draws. Each window gets its exact <M> from one
`signal_mean_exact` call, its oracle values from one `kerr_means` call
on the one level-major weight table the run builds first (column n for n
photons, zero-padded to the most levels), and its labels from
`rowtext`'s digit texts, laid out by `rowtext.join_texts` (`%` per label
for the grid and the other sections). Every other oracle input is built
once per run too: one coherent state per identity |beta|^2, one evolved
state per variance (N, chi), one undamped exact mean for the quadrature.
A block's report lines are one byte table (`CheckBlock.text`), byte for
byte what one `%` per line would give; verdicts (`CheckBlock.passed`,
the one rule), the failure count and each section's worst error are
array operations. One `CheckCase` per check is built only when
`CrossCheckReport.cases` is read.
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
from .core import MAX_CASES, MAX_PHOTONS, NoiseSpec, ParameterError
from .fock import (
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


# A check's status text as four bytes in one uint32, by its verdict.
_STATUS = np.frombuffer(b"FAILPASS", dtype=np.uint32)


class CheckBlock(NamedTuple):
    """Checks of one section under one limit, as columns: check i is
    labelled by row i of `labels`, a NUL-padded [n, width] uint8 table of
    UTF-8 texts whose NULs are not part of them (`rowtext.text_table`),
    and has error `errors[i]`."""

    section: str
    limit: float
    labels: np.ndarray
    errors: np.ndarray

    def passed(self) -> np.ndarray:
        """Each check's verdict; a NaN error fails."""
        return self.errors <= self.limit

    def text(self) -> str:
        """The block's report lines, each ending in a newline: for each
        check, "<PASS|FAIL> [section] <label>: error <%.3e of error>
        (limit <%.3e of limit>)", laid out as one byte table. A section
        holding a NUL, or labels and errors of unequal length, raise
        ValueError."""
        from .rowtext import join_texts, scaled_texts, text_table

        rows = len(self.errors)
        if len(self.labels) != rows:
            raise ValueError(f"{len(self.labels)} labels for {rows} errors in [{self.section}]")
        status = _STATUS[self.passed().view(np.uint8)].view(np.uint8).reshape(rows, 4)
        head = text_table([f" [{self.section}] "]).tobytes()  # NUL-checked
        tail = f" (limit {self.limit:.3e})\n".encode()
        errors = scaled_texts(self.errors, 3, True)
        # NULs are few here (padding of the labels' integers), and `replace`
        # skips from one to the next where `translate` visits every byte
        line = join_texts([status, head, self.labels, b": error ", errors, tail])
        return line.tobytes().replace(b"\0", b"").decode()

    def cases(self) -> list[CheckCase]:
        """One CheckCase per check; labels and errors of unequal length
        raise ValueError."""
        labels = (row.tobytes().replace(b"\0", b"").decode() for row in self.labels)
        return [
            CheckCase(self.section, label, error, self.limit)
            for label, error in zip(labels, self.errors.tolist(), strict=True)
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

    def texts(self) -> Iterator[str]:
        """The report as text, one chunk per block (`CheckBlock.text`),
        then the summary line: verdict, counts, and each section's worst
        error in that section's unit, as `max_error` gives it."""
        for block in self.blocks:
            yield block.text()
        worst = ", ".join(
            f"{section} {error:.3e} {SECTION_UNITS[section]}"
            for section, error in self._worst.items()
        )
        status = "PASS" if self.ok else "FAIL"
        yield f"{status} {self.checks} checks, {self.failed} failed, worst error: {worst}\n"


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


def _labelled_block(
    section: str, limit: float, labels: list[str], errors: list[float] | np.ndarray
) -> CheckBlock:
    from .rowtext import text_table

    return CheckBlock(section, limit, text_table(labels), np.asarray(errors, dtype=float))


def _mean_settings(
    max_photons: int, count: int, rng: np.random.Generator
) -> Iterator[tuple]:
    """The mean checks as windows of columns (n, chi, phi1, phi2, offset,
    label table, exact <M>): the fixed grid, then the first `count` kept
    draws from rng, drawn MEAN_WINDOW at a time, one window per draw."""
    from .rowtext import digit_texts, join_texts, scaled_texts, text_table

    grid = [
        (n, chi, *phases)
        for n, chi, phases in itertools.product(
            _photon_grid(max_photons), DEFAULT_CHIS, DEFAULT_PHASE_SETTINGS
        )
    ]
    columns = tuple(np.array(c) for c in zip(*grid))
    labels = text_table(["N=%d chi=%s phi=(%s,%s) off=%s" % setting for setting in grid])
    yield (*columns, labels, signal_mean_exact(*columns))
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
        # "random[%d] N=%d chi=%.4f" of each kept draw
        labels = join_texts([
            b"random[", digit_texts(np.arange(i, i + len(keep), dtype=np.uint64)),
            b"] N=", digit_texts(ns.astype(np.uint64)),
            b" chi=", scaled_texts(columns[0], 4, False),
        ])
        yield ns, *columns, labels, wants
        i += len(keep)


def _level_table(max_photons: int) -> np.ndarray:
    """The run's level-major weight table: levels[m, n] is level m's
    weight for n photons, `level_weights` of the one-mode amplitudes of
    `product_input`. fock_dim grows with n, so n = max_photons has the most
    levels and each other column is zero-padded to them."""
    top = max(max_photons, 0)
    levels = np.zeros((fock_dim(top / 2.0) - 1, top + 1), dtype=complex)
    for n in range(top + 1):
        beta = math.sqrt(float(n)) / math.sqrt(2.0)
        dim = fock_dim(n / 2.0)
        levels[: dim - 1, n] = level_weights(coherent_amplitudes(beta, dim))
    return levels


def _mean_blocks(
    max_photons: int, count: int, rng: np.random.Generator, tolerance: float
) -> list[CheckBlock]:
    """One block per window of `_mean_settings`, each from one `kerr_means`
    call on the one `_level_table` of the run. The draws take O(window)
    memory next to the O(count) errors, and so does each kernel call,
    whatever the basis size."""
    levels = _level_table(max_photons)
    blocks = []
    windows = _mean_settings(max_photons, count, rng)
    for ns, chi, phi1, phi2, offset, labels, wants in windows:
        got = kerr_means(levels, ns, phi1, phi2, chi, offset)
        blocks.append(CheckBlock("mean", tolerance, labels, relative_error(got, wants)))
    return blocks


def _identity_block(max_photons: int, tolerance: float) -> CheckBlock:
    mus = tuple(mu for mu in (0.5, 2.0, 5.0, 10.0) if mu <= max(max_photons, 0))
    zs = np.linspace(0.0, math.pi, 7)
    labels, errors = [], []
    for mu in mus or (0.0,):
        labels.extend(f"|beta|^2={mu} z={z:.4f}" for z in zs)
        errors.extend(coherent_identity_residual(math.sqrt(mu), zs).tolist())
    return _labelled_block("identity", tolerance, labels, errors)


def _variance_block(max_photons: int, tolerance: float) -> CheckBlock:
    # phi0 puts the empty interferometer on the operating point, where the
    # balanced closed form is exact; each state is evolved once and all
    # eight offsets are read from one contraction of it
    offsets = [j * math.pi / 4.0 + 0.35 for j in range(8)]
    labels, got, want = [], [], []
    for n in _photon_grid(max_photons):
        state = product_input(math.sqrt(n))
        for chi, phi0 in ((0.0, 0.0), (0.1, 2.0 * math.pi / 0.1)):
            evolved = apply_kerr(state, phi0, phi0, chi)
            got.extend(moments(evolved, offsets).mean_m2.tolist())
            for offset in offsets:
                labels.append(f"N={n} chi={chi} off={offset:.4f}")
                want.append(balanced_second_moment(float(n), offset))
    return _labelled_block("variance", tolerance, labels, relative_error(got, want))


def _gaussian_blocks(seed: int, tolerance: float) -> tuple[CheckBlock, CheckBlock]:
    """Quadrature checks (relative tolerance) and Monte Carlo checks (3 se)."""
    # full exact mean under a random common phase: the sigma dependence
    # must be exactly the factor exp(-sigma^2/2)
    averaged = functools.partial(signal_mean_exact, 9.0, 0.01, 0.3, 0.32)
    sigmas = (0.1, 0.3, 0.5)
    got = [gauss_hermite_phase(averaged, sigma) for sigma in sigmas]
    undamped = signal_mean_exact(9.0, 0.01, 0.3, 0.32)
    want = [math.exp(-0.5 * sigma * sigma) * undamped for sigma in sigmas]
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


def _noise_block(max_photons: int, tolerance: float) -> CheckBlock:
    n = min(16, max_photons) if max_photons > 0 else 0
    chi = 0.1
    phi0 = 2.0 * math.pi / chi
    base = moments(apply_kerr(product_input(math.sqrt(n)), phi0, phi0, chi), offset=0.0)
    settings = list(itertools.product((0.5, 1.0), (0.0, 0.05, 0.2), (0.0, 2.0)))
    got = [
        noisy_moments(
            base, NoiseSpec(efficiency=eta, phase_sigma=sigma, thermal_photons=nt)
        ).mean_m2
        for eta, sigma, nt in settings
    ]
    want = [signal_variance(float(n), eta, sigma, nt) for eta, sigma, nt in settings]
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
) -> CrossCheckReport:
    """Run the whole suite; tolerance applies to every non-Monte-Carlo case.

    Every input is checked before any table is built: a photon count,
    tolerance, case count or seed out of range raises `ParameterError`.
    """
    if max_photons < 0:
        raise ParameterError(f"max_photons must be >= 0, got {max_photons}")
    if max_photons > MAX_PHOTONS:
        raise ParameterError(f"max_photons {max_photons} exceeds the cap of {MAX_PHOTONS}")
    if not 0.0 <= tolerance < math.inf:
        raise ParameterError(f"tolerance must be >= 0 and finite, got {tolerance!r}")
    if extra_cases < 0:
        raise ParameterError(f"extra_cases must be >= 0, got {extra_cases}")
    if extra_cases > MAX_CASES:
        raise ParameterError(f"extra_cases {extra_cases} exceeds the cap of {MAX_CASES}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    stages: dict[str, float] = {}
    last = time.perf_counter()

    def lap(section: str) -> None:
        nonlocal last
        now = time.perf_counter()
        stages[section], last = now - last, now

    blocks = _mean_blocks(max_photons, extra_cases, rng, tolerance)
    lap("mean")
    blocks.append(_identity_block(max_photons, tolerance))
    lap("identity")
    blocks.append(_variance_block(max_photons, tolerance))
    lap("variance")
    quad, mc = _gaussian_blocks(seed, tolerance)
    lap("gaussian")
    blocks.append(quad)
    blocks.append(_noise_block(max_photons, tolerance))
    lap("noise")
    blocks.append(mc)
    return CrossCheckReport(tuple(blocks), stages)
