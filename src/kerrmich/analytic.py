"""Closed-form signal, noise, and displacement resolution.

The probe is a coherent pulse of N photons split over the two arms of a
Michelson interferometer filled with a Kerr medium, and the readout is the
difference photocount M between the output ports. Three descriptions of
<M> are provided, from exact to linearized, together with the variance of
M at the balance point and the resolution this noise-to-signal ratio
implies for an anti-symmetric arm-length change x.

Everything here is a pure function of floats (`signal_mean_exact` also of
arrays); none of it is restricted to photon numbers a simulator could
reach. The desk-scale regime where the formulas can be checked against
the exact Fock-space contraction lives in `kerrmich.fock`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GeometrySpec, KerrDerived, NoiseSpec


def signal_mean_exact(
    n_photons: float | np.ndarray,
    chi: float | np.ndarray,
    phi1: float | np.ndarray,
    phi2: float | np.ndarray,
    offset: float | np.ndarray = 0.0,
    eta: float | np.ndarray = 1.0,
) -> float | np.ndarray:
    """Exact <M> for a coherent probe, valid for any arm phases.

    With z_j = phi_j*chi/2:

        eta*N * exp{(N/2)[cos 2z1 + cos 2z2 - 2]}
              * sin{offset + phi2 - phi1 + z2 - z1
                    + (N/2)[sin 2z2 - sin 2z1]}

    No small-parameter assumption; the only idealization is the coherent
    input itself.

    The arguments are floats or arrays that broadcast together. Each entry
    of an array result has the bits of the call on that entry's floats:
    + - * are NumPy's, correctly rounded as Python's are, and cos, sin and
    exp are `math`'s, mapped over the values, because NumPy's own ufuncs
    round differently from `math` on some hosts. A call on floats (or 0-d
    arrays) returns a float.
    """
    n, chi, phi1, phi2, offset, eta = (
        np.asarray(v, dtype=float) for v in (n_photons, chi, phi1, phi2, offset, eta)
    )
    # inf and NaN propagate silently, as through Python's float operations
    with np.errstate(all="ignore"):
        z1 = 0.5 * phi1 * chi
        z2 = 0.5 * phi2 * chi
        envelope = _mapped(
            math.exp, 0.5 * n * (_mapped(math.cos, 2.0 * z1) + _mapped(math.cos, 2.0 * z2) - 2.0)
        )
        arg = (
            offset
            + (phi2 - phi1)
            + (z2 - z1)
            + 0.5 * n * (_mapped(math.sin, 2.0 * z2) - _mapped(math.sin, 2.0 * z1))
        )
        mean = eta * n * envelope * _mapped(math.sin, arg)
    return mean if mean.ndim else float(mean)


def _mapped(fn, x: np.ndarray) -> np.ndarray:
    """fn, a `math` function, at each value of x."""
    return np.array(list(map(fn, np.ravel(x).tolist())), dtype=float).reshape(np.shape(x))


def signal_mean(
    n_photons: float,
    chi: float,
    k: float,
    x: float,
    sigma: float = 0.0,
    eta: float = 1.0,
) -> float:
    """Dephasing-averaged <M> near the operating point, small signal:

        eta*N * exp(-N chi^2 k^2 x^2 / 8) * exp(-sigma^2/2)
              * sin[k x (1 + chi N / 2)]

    Intended for |z0 - m*pi| small and chi*N*k*x << 1; neither condition is
    enforced here, `validity` reports them separately.
    """
    gauss = math.exp(-0.125 * n_photons * (chi * k * x) ** 2)
    deph = math.exp(-0.5 * sigma * sigma)
    return eta * n_photons * gauss * deph * math.sin(k * x * (1.0 + 0.5 * chi * n_photons))


def signal_mean_linear(
    n_photons: float, chi: float, k: float, x: float, eta: float = 1.0
) -> float:
    """Linearized signal eta*N*k*x*(1 + chi*N/2); its x-derivative is the
    denominator of the noise-to-signal resolution."""
    return eta * n_photons * k * x * (1.0 + 0.5 * chi * n_photons)


def signal_slope(n_photons: float, chi: float, k: float, eta: float = 1.0) -> float:
    """d<M>/dx of the linearized signal at x = 0: eta*N*k*(1 + chi*N/2)."""
    return eta * n_photons * k * (1.0 + 0.5 * chi * n_photons)


def signal_variance(
    n_photons: float,
    eta: float = 1.0,
    sigma: float = 0.0,
    thermal: float = 0.0,
    exact: bool = False,
) -> float:
    """Variance of M at the balance point x = 0, on the operating point.

    Default is the small-sigma budget

        eta*N + eta^2 N^2 sigma^2 + eta*N*nt .

    exact=True keeps the full dephasing factor instead,

        eta*N + eta^2 (N^2/2) (1 - exp(-2 sigma^2)) + eta*N*nt ,

    which the default overshoots by eta^2 N^2 sigma^4 at leading order.
    The result does not depend on the Kerr phase: at the operating point
    the nonlinearity drops out of the balance-point noise.

    Total over finite inputs: a square past the largest double gives inf
    rather than raising.
    """
    shot = eta * n_photons
    if exact:
        deph = eta * eta * (0.5 * n_photons * n_photons) * (
            1.0 - math.exp(-2.0 * sigma * sigma)
        )
    else:
        deph = _square(eta * n_photons * sigma)
    return shot + deph + eta * n_photons * thermal


def _square(x: float) -> float:
    """x ** 2, or inf where that passes the largest double and ** raises."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def balanced_second_moment(n_photons: float, offset: float) -> float:
    """<M^2> at x = 0 before dephasing, as a function of a deterministic
    common phase: N^2/2 + N - (N^2/2) cos(2*offset)."""
    half_sq = 0.5 * n_photons * n_photons
    return half_sq + n_photons - half_sq * math.cos(2.0 * offset)


def displacement_resolution(
    n_photons: float,
    chi: float,
    k: float,
    eta: float = 1.0,
    sigma: float = 0.0,
    thermal: float = 0.0,
) -> float:
    """Smallest resolvable arm-length change,

        sqrt[(1 + eta N sigma^2 + nt) / (eta k^2 N)] / (1 + chi N / 2) .

    Total over the whole parameter space: a dark input returns inf rather
    than raising, so sweeps never stop.
    """
    if n_photons <= 0.0:
        return math.inf
    noise = 1.0 + eta * n_photons * sigma * sigma + thermal
    return math.sqrt(noise / (eta * k * k * n_photons)) / (1.0 + 0.5 * chi * n_photons)


def displacement_resolution_linear(
    n_photons: float, k: float, eta: float = 1.0, thermal: float = 0.0
) -> float:
    """Resolution of the same interferometer with the medium removed
    (chi = 0, propagation in vacuum, dephasing neglected):
    sqrt[(1 + nt) / (eta k^2 N)]."""
    if n_photons <= 0.0:
        return math.inf
    noise = 1.0 + thermal
    return math.sqrt(noise / (eta * k * k * n_photons))


def improvement_ratio(
    n_photons: float,
    chi: float,
    eta: float = 1.0,
    sigma: float = 0.0,
    thermal: float = 0.0,
) -> float:
    """Resolution ratio nonlinear/linear; the wavenumber cancels.

    sqrt[(1 + eta N sigma^2 + nt)/(1 + nt)] / (1 + chi N / 2); equal to
    1/(1 + chi N/2) when sigma = 0, approaching 2/(chi N) for chi*N >> 1.
    A dark input returns 1: with no photons the two schemes coincide.
    """
    if n_photons <= 0.0:
        return 1.0
    noise = 1.0 + eta * n_photons * sigma * sigma + thermal
    return math.sqrt(noise / (1.0 + thermal)) / (1.0 + 0.5 * chi * n_photons)


def scaling_figure(
    duration: float, cross_section: float, wavelength: float, n_photons: float
) -> float:
    """Conjectured optimal resolution scaling tau*A*lambda^2/N^2.

    A relative figure only (unit proportionality constant): halving the
    duration halves it, doubling the photon number divides it by four.
    Reaching this scaling would need non-classical probes; nothing else in
    this package depends on it.
    """
    for name, value in (
        ("duration", duration),
        ("cross_section", cross_section),
        ("wavelength", wavelength),
        ("n_photons", n_photons),
    ):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    return duration * cross_section * wavelength**2 / n_photons**2


@dataclass(frozen=True)
class ValidityCheck:
    """One validity condition: its margin ratio and whether it is met."""

    margin: float
    ok: bool


@dataclass(frozen=True)
class ValidityFlags:
    """The five conditions under which the closed forms apply.

    Each margin is the ratio that the corresponding "much less than one"
    condition compares against 1; the flag is true when the margin is below
    the threshold. Ratios with a vanishing denominator are 0 when the
    numerator also vanishes and inf otherwise.
    """

    small_signal: ValidityCheck  # chi * N * k * x
    weak_thermal: ValidityCheck  # nt / N
    weak_dephasing: ValidityCheck  # sigma
    on_operating_point: ValidityCheck  # |z0 - m*pi| / pi
    nonlinearity_dominant: ValidityCheck  # (eta N sigma^2 + nt) / (chi N)^2


def _ratio(numerator: float, denominator: float) -> float:
    if numerator == 0.0:
        return 0.0
    if denominator == 0.0:
        return math.inf
    return numerator / denominator


def validity(
    derived: KerrDerived,
    geometry: GeometrySpec,
    noise: NoiseSpec,
    threshold: float = 1e-2,
) -> ValidityFlags:
    """Margin ratios for the five closed-form validity conditions."""
    n = derived.photons
    chi = derived.chi
    k = derived.wavenumber
    z0 = k * geometry.arm_length * chi / 2.0
    # distance to the nearest operating point m*pi, within [-pi/2, pi/2]
    detuning = z0 - round(z0 / math.pi) * math.pi

    def check(margin: float) -> ValidityCheck:
        return ValidityCheck(margin=margin, ok=margin < threshold)

    nl_noise = noise.efficiency * n * _square(noise.phase_sigma) + noise.thermal_photons
    return ValidityFlags(
        small_signal=check(chi * n * k * abs(geometry.signal)),
        weak_thermal=check(_ratio(noise.thermal_photons, n)),
        weak_dephasing=check(noise.phase_sigma),
        on_operating_point=check(abs(detuning) / math.pi),
        nonlinearity_dominant=check(_ratio(nl_noise, _square(chi * n))),
    )


@dataclass(frozen=True)
class SensitivityReport:
    """Resolution of the interferometer and of its linear counterpart.

    delta_x is computed by `displacement_resolution`, which equals
    sqrt(signal_variance)/signal_slope algebraically;
    improvement is the ratio delta_x/delta_x_linear, <= 1 whenever the
    linear scheme sees the same noise floor.
    """

    delta_x: float
    delta_x_linear: float
    improvement: float
    validity: ValidityFlags


def sensitivity_report(
    derived: KerrDerived,
    geometry: GeometrySpec,
    noise: NoiseSpec,
    threshold: float = 1e-2,
) -> SensitivityReport:
    """Assemble the resolution numbers and validity flags for one design."""
    n = derived.photons
    chi = derived.chi
    k = derived.wavenumber
    return SensitivityReport(
        delta_x=displacement_resolution(
            n, chi, k, noise.efficiency, noise.phase_sigma, noise.thermal_photons
        ),
        delta_x_linear=displacement_resolution_linear(
            n, k, noise.efficiency, noise.thermal_photons
        ),
        improvement=improvement_ratio(
            n, chi, noise.efficiency, noise.phase_sigma, noise.thermal_photons
        ),
        validity=validity(derived, geometry, noise, threshold),
    )
