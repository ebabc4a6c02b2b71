"""Exact two-mode simulator in a truncated photon-number basis.

The interferometer is simulated directly in its internal modes a1, a2:
after the input beam splitter a coherent drive amplitude alpha becomes the
product state |alpha/sqrt(2)>|alpha/sqrt(2)>, the Kerr propagation is a
diagonal phase in the number basis, and every observable reduces to a dense
contraction over the coefficient matrix (`moments`, for any two-mode
state). The propagator acts on each arm alone, so a product input stays a
product: `kerr_means` uses that to get <M> from two single-mode sums per
setting, each over the phase increments g_j(n+1) - g_j(n) between adjacent
levels. The increment is linear in n, so each sum is a polynomial in
r_j = exp(i*phi_j*chi), evaluated by Horner's rule in one pass over a
whole batch of settings. No approximation enters anywhere except the
declared basis truncation, which makes this module the ground truth the
closed-form engine is checked against.

Sign convention: the difference photocount is M = i(a2^dag a1 - a1^dag a2),
so <M> = 2 Im<a1^dag a2>. A deterministic common phase ("offset") rotates
a1^dag a2 by exp(i*offset) before the moments are assembled.

States are immutable after construction and every function is pure, so
parameter-parallel runs share nothing mutable. The Monte Carlo helper draws
from one seed-keyed generator; results depend on the seed only.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NoiseSpec

DEFAULT_TRUNCATION_BUDGET = 1e-10


class TruncationError(RuntimeError):
    """The requested basis is too small for the amplitude and budget."""


def fock_dim(mean_photons: float) -> int:
    """Default basis size for a mode with the given mean photon number.

    ceil(mu + 10*sqrt(mu) + 20) keeps the Poisson tail far below the
    default truncation budget of 1e-10.
    """
    mu = float(mean_photons)
    if mu < 0.0 or not math.isfinite(mu):
        raise ValueError(f"mean photon number must be finite and >= 0, got {mu!r}")
    return math.ceil(mu + 10.0 * math.sqrt(mu) + 20.0)


def coherent_amplitudes(
    beta: complex, dim: int, budget: float | None = None
) -> tuple[np.ndarray, float]:
    """Truncated number-basis amplitudes of a coherent state.

    Entry n is exp(-|beta|^2/2) * beta^n / sqrt(n!), assembled in the log
    domain so no factorial is ever formed. Returns (amplitudes, tail mass),
    the tail being the Poisson probability left outside the basis; a
    TruncationError is raised if the tail exceeds the budget, when given.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    b = complex(beta)
    mu = abs(b) ** 2
    if mu == 0.0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps, 0.0
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(dim)])
    log_mag = -0.5 * mu + n * math.log(abs(b)) - 0.5 * log_fact
    amps = np.exp(log_mag) * np.exp(1j * n * cmath.phase(b))
    tail = max(1.0 - float(np.sum(np.abs(amps) ** 2)), 0.0)
    if budget is not None and tail > budget:
        raise TruncationError(
            f"tail mass {tail:.3e} exceeds budget {budget:.3e} "
            f"for |beta|^2 = {mu:.6g} at dim {dim}"
        )
    return amps, tail


@dataclass(frozen=True)
class TwoModeState:
    """Dense coefficient matrix c[n, m] over |n>_1 |m>_2."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise ValueError(f"coefficients must be a 2-d matrix, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def dims(self) -> tuple[int, int]:
        return self.coeffs.shape

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    @property
    def trunc_loss(self) -> float:
        """Probability mass lost to the truncation (>= 0)."""
        return max(1.0 - self.norm_sq, 0.0)


def product_input(
    alpha: complex,
    dim: int | None = None,
    budget: float | None = DEFAULT_TRUNCATION_BUDGET,
) -> TwoModeState:
    """Input state |alpha/sqrt(2)>_1 |alpha/sqrt(2)>_2 of the internal modes.

    dim is the per-mode basis size (default from `fock_dim`). If the
    per-mode Poisson tail exceeds `budget`, a TruncationError is raised;
    pass budget=None to skip the check.
    """
    beta = complex(alpha) / math.sqrt(2.0)
    if dim is None:
        dim = fock_dim(abs(beta) ** 2)
    amps, _ = coherent_amplitudes(beta, dim, budget=budget)
    return TwoModeState(np.outer(amps, amps))


def apply_kerr(
    state: TwoModeState, phi1: float, phi2: float, chi: float
) -> TwoModeState:
    """Propagate through both arms: c[n, m] picks up the diagonal phase
    exp(i*[phi1*(n + chi*n^2/2) + phi2*(m + chi*m^2/2)]). Norm-preserving."""
    d1, d2 = state.dims
    n = np.arange(d1, dtype=float)
    m = np.arange(d2, dtype=float)
    g1 = phi1 * (n + 0.5 * chi * n * n)
    g2 = phi2 * (m + 0.5 * chi * m * m)
    phases = np.exp(1j * g1)[:, None] * np.exp(1j * g2)[None, :]
    return TwoModeState(state.coeffs * phases)


def level_weights(amps: np.ndarray) -> np.ndarray:
    """w_n = sqrt(n+1) conj(amps[n]) amps[n+1] for n < d - 1: the one-mode
    sum <a> = sum_n w_n exp(i*(g(n+1) - g(n))) that `kerr_means` evaluates."""
    n = np.arange(len(amps) - 1, dtype=float)
    return np.sqrt(n + 1.0) * np.conj(amps[:-1]) * amps[1:]


def kerr_means(
    weights: np.ndarray,
    rows: np.ndarray,
    phi1: np.ndarray,
    phi2: np.ndarray,
    chi: np.ndarray,
    offset: np.ndarray,
) -> np.ndarray:
    """<M> of product inputs amps (x) amps under many Kerr settings at once.

    Setting i takes the level weights weights[rows[i]], `level_weights` of
    its one-mode amplitudes, each row zero-padded to the table's width. The
    Kerr propagator acts on each arm alone, so the product stays a product
    and <a1^dag a2> = conj(<a1>) <a2>, also in the truncated basis. With
    g_j as in `apply_kerr`, the increment g_j(n+1) - g_j(n) is
    phi_j*(1 + chi/2) + n*phi_j*chi, so
    <a_j> = exp(i*phi_j*(1 + chi/2)) * sum_n w_n r_j^n with
    r_j = exp(i*phi_j*chi). The polynomial is evaluated by Horner's rule
    from the top level down, one pass over all settings: two complex
    exponentials and d multiply-adds per setting and arm. Entry i equals
    moments(apply_kerr(product, phi1[i], phi2[i], chi[i]), offset[i]).mean_m
    up to rounding, at O(d) work per setting instead of O(d^2). Horner
    carries an exact zero through zero top coefficients and reduces each
    setting on its own (no BLAS), so a setting's value does not depend on
    the batch it came in or on the padding of its row. A call gathers
    d x len(rows) complex weights at once, so its batch bounds its memory.
    """
    phi = np.array([phi1, phi2], dtype=float)
    chi, offset = (np.asarray(v, dtype=float) for v in (chi, offset))
    # level-major, so each Horner step reads one contiguous row
    w = np.ascontiguousarray(np.asarray(weights, dtype=complex).T)[:, rows]
    r = np.exp(1j * (phi * chi))
    a = np.zeros_like(r)
    for w_n in w[::-1]:
        a *= r
        a += w_n
    a *= np.exp(1j * (phi * (1.0 + 0.5 * chi)))
    return 2.0 * (np.exp(1j * offset) * np.conj(a[0]) * a[1]).imag


@dataclass(frozen=True)
class MomentSet:
    """Moments of the difference photocount and its building blocks.

    mean_n1/mean_n2  arm photon numbers <N_j>
    mean_n1n2        <N_1 N_2>
    cross            <a1^dag a2>
    pair             <a1^dag^2 a2^2>
    offset           deterministic common phase applied to a1^dag a2
    mean_m           <M> at that offset
    mean_m2          <M^2> at that offset
    trunc_loss       norm deficit of the state the moments came from

    A MomentSet returned by `noisy_moments` carries the detected-channel
    values instead: there mean_m and mean_m2 follow the replacement rules
    for efficiency, dephasing, and thermal background, which drop thermal
    terms not multiplied by a photon number (of order nt*(nt + 2)/2).
    """

    mean_n1: float
    mean_n2: float
    mean_n1n2: float
    cross: complex
    pair: complex
    offset: float
    mean_m: float
    mean_m2: float
    trunc_loss: float


def moments(state: TwoModeState, offset: float | np.ndarray = 0.0) -> MomentSet:
    """First and second moments of M by direct coefficient contraction.

    M^2 expands to 2*N1*N2 + N1 + N2 - e^{2i*offset} a1^dag^2 a2^2 - h.c.,
    so only number moments and the two ladder contractions are needed. An
    array of offsets shares one contraction: offset, mean_m and mean_m2 are
    then read-only arrays of its shape, entry i with the bits of the call at
    offset[i]. `noisy_moments` takes the MomentSet of one float offset.
    """
    c = state.coeffs
    d1, d2 = c.shape
    p = np.abs(c) ** 2
    n = np.arange(d1, dtype=float)
    m = np.arange(d2, dtype=float)
    pn = p.sum(axis=1)
    pm = p.sum(axis=0)
    mean_n1 = float(n @ pn)
    mean_n2 = float(m @ pm)
    mean_n1n2 = float(n @ p @ m)

    cross = 0j
    if d1 >= 2 and d2 >= 2:
        # <a1^dag a2> = sum conj(c[n+1, m-1]) sqrt((n+1) m) c[n, m]
        f = np.sqrt(np.outer(n[1:], m[1:]))
        cross = complex(np.sum(np.conj(c[1:, :-1]) * f * c[:-1, 1:]))

    pair = 0j
    if d1 >= 3 and d2 >= 3:
        # <a1^dag^2 a2^2> = sum conj(c[n+2, m-2]) sqrt((n+1)(n+2) m(m-1)) c[n, m]
        f1 = np.sqrt(n[1 : d1 - 1] * (n[1 : d1 - 1] + 1.0))
        f2 = np.sqrt(m[1 : d2 - 1] * (m[1 : d2 - 1] + 1.0))
        pair = complex(np.sum(np.conj(c[2:, :-2]) * np.outer(f1, f2) * c[:-2, 2:]))

    second = 2.0 * mean_n1n2 + mean_n1 + mean_n2

    def at(offset: float) -> tuple[float, float, float]:
        rot, rot2 = cmath.exp(1j * offset), cmath.exp(2j * offset)
        return offset, 2.0 * (rot * cross).imag, second - 2.0 * (rot2 * pair).real

    offsets = np.asarray(offset, dtype=float)
    table = np.array(list(map(at, offsets.ravel().tolist()))).reshape(*offsets.shape, 3)
    table.flags.writeable = False
    offset, mean_m, mean_m2 = np.moveaxis(table, -1, 0) if offsets.ndim else table.tolist()
    return MomentSet(
        mean_n1, mean_n2, mean_n1n2, cross, pair, offset, mean_m, mean_m2, state.trunc_loss
    )


def noisy_moments(m: MomentSet, noise: NoiseSpec) -> MomentSet:
    """Moments after detector efficiency, Gaussian dephasing, and thermal
    background, applied at the observable level.

    mean_m gains the factor eta*exp(-sigma^2/2). mean_m2 becomes
    eta^2 * (phase-averaged <M0^2>) + eta*(<N1>+<N2>)*(nt + 1 - eta), the
    average multiplying the pair coherence by exp(-2 sigma^2). The arm
    photon numbers become the detected eta*<N_j> + nt/2, and <N1 N2>
    becomes eta^2 <N1 N2> + eta (nt/2) (<N1> + <N2>) + nt^2/4: binomial
    thinning of each arm plus independent thermal counts.
    """
    eta = noise.efficiency
    nt = noise.thermal_photons
    coh = math.exp(-0.5 * noise.phase_sigma**2)
    coh2 = math.exp(-2.0 * noise.phase_sigma**2)
    rot2 = cmath.exp(2j * m.offset)
    second = 2.0 * m.mean_n1n2 + m.mean_n1 + m.mean_n2
    averaged_m0_sq = second - 2.0 * (rot2 * (coh2 * m.pair)).real
    mean_m = eta * (coh * m.mean_m)
    mean_m2 = eta * eta * averaged_m0_sq + eta * (m.mean_n1 + m.mean_n2) * (
        nt + 1.0 - eta
    )
    return MomentSet(
        mean_n1=eta * m.mean_n1 + 0.5 * nt,
        mean_n2=eta * m.mean_n2 + 0.5 * nt,
        mean_n1n2=(
            eta * eta * m.mean_n1n2 + eta * (0.5 * nt) * (m.mean_n1 + m.mean_n2) + 0.25 * nt * nt
        ),
        cross=eta * coh * m.cross,
        pair=eta * eta * coh2 * m.pair,
        offset=m.offset,
        mean_m=mean_m,
        mean_m2=mean_m2,
        trunc_loss=m.trunc_loss,
    )


def coherent_identity_residual(
    beta: complex, z: float, dim: int | None = None
) -> float:
    """|direct - closed| for <beta| e^{i 2 z N} a |beta>.

    The direct side is the truncated-basis contraction; the closed side is
    beta * exp(|beta|^2 (e^{i 2 z} - 1)).
    """
    b = complex(beta)
    mu = abs(b) ** 2
    if dim is None:
        dim = fock_dim(mu)
    amps, _ = coherent_amplitudes(b, dim, budget=DEFAULT_TRUNCATION_BUDGET)
    n = np.arange(dim - 1, dtype=float)
    direct = complex(
        np.sum(np.conj(amps[:-1]) * np.exp(2j * z * n) * np.sqrt(n + 1.0) * amps[1:])
    )
    closed = b * cmath.exp(mu * (cmath.exp(2j * z) - 1.0))
    return abs(direct - closed)


def monte_carlo_phase(
    mean_fn: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Sample mean of mean_fn(phi) with phi ~ Normal(0, sigma^2).

    mean_fn must accept an ndarray of phases. Returns (estimate, standard
    error). The stream is keyed by the seed alone, so a fixed seed gives a
    bit-identical estimate regardless of where the call runs.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    rng = np.random.default_rng(seed)
    phi = sigma * rng.standard_normal(samples)
    values = np.asarray(mean_fn(phi), dtype=float)
    if values.shape != phi.shape:
        raise ValueError("mean_fn must map an (n,) phase array to (n,) values")
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    return estimate, stderr


def gauss_hermite_phase(
    mean_fn: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    order: int = 64,
) -> float:
    """Gaussian average of mean_fn over phi ~ Normal(0, sigma^2) by
    Gauss-Hermite quadrature; the deterministic cross-check for the Monte
    Carlo path and for closed-form dephasing factors."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    nodes, weights = _hermgauss(order)
    phi = math.sqrt(2.0) * sigma * nodes
    values = np.asarray(mean_fn(phi), dtype=float)
    return float(np.sum(weights * values) / math.sqrt(math.pi))


@functools.cache
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights of one order, built once, read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
