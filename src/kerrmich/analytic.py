"""Closed-form signal, noise, and displacement resolution.

The probe is a coherent pulse of N photons split over the two arms of a
Michelson interferometer filled with a Kerr medium, and the readout is the
difference photocount M between the output ports. Two descriptions of
<M> are provided, the exact one and its dephasing-averaged small-signal
form, together with the variance of M at the balance point and the
resolution this noise-to-signal ratio implies for an anti-symmetric
arm-length change x.

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
        cos1, sin1 = _mapped(2.0 * z1, math.cos, math.sin)
        cos2, sin2 = _mapped(2.0 * z2, math.cos, math.sin)
        (envelope,) = _mapped(0.5 * n * (cos1 + cos2 - 2.0), math.exp)
        arg = offset + (phi2 - phi1) + (z2 - z1) + 0.5 * n * (sin2 - sin1)
        (sine,) = _mapped(arg, math.sin)
        mean = eta * n * envelope * sine
    return mean if mean.ndim else float(mean)


def _mapped(x: np.ndarray, *fns) -> list[np.ndarray]:
    """Each fn, a `math` function, at each value of x, all read from one
    list of x's values."""
    values = np.ravel(x).tolist()
    return [
        np.fromiter(map(fn, values), dtype=float, count=len(values)).reshape(np.shape(x))
        for fn in fns
    ]


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


def signal_variance(
    n_photons: float,
    eta: float = 1.0,
    sigma: float = 0.0,
    thermal: float = 0.0,
) -> float:
    """Variance of M at the balance point x = 0, on the operating point,
    with the full dephasing factor:

        eta*N + eta^2 (N^2/2) (1 - exp(-2 sigma^2)) + eta*N*nt .

    At small sigma this is the budget eta*N + eta^2 N^2 sigma^2 + eta*N*nt
    that `displacement_resolution` divides by the slope, less
    eta^2 N^2 sigma^4 at leading order. The result does not depend on the
    Kerr phase: at the operating point the nonlinearity drops out of the
    balance-point noise. Past N ~ 1e154 the square N^2 overflows and the
    dephasing term is inf, except where the dephasing factor rounds to 0
    (sigma below ~5e-9): there the term is 0, not inf * 0.
    """
    shot = eta * n_photons
    factor = 1.0 - math.exp(-2.0 * sigma * sigma)
    deph = eta * eta * (0.5 * n_photons * n_photons) * factor if factor else 0.0
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

    delta_x is computed by `displacement_resolution`: the square root of the
    small-sigma noise budget eta*N + eta^2 N^2 sigma^2 + eta*N*nt over the
    slope d<M>/dx = eta*N*k*(1 + chi*N/2) at x = 0; improvement is the
    ratio delta_x/delta_x_linear, <= 1 whenever the linear scheme sees the
    same noise floor.
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
