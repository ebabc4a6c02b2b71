"""Domain types and derived quantities for a Kerr-loaded Michelson interferometer.

Everything is SI internally (meters, seconds, watts). The only unit
convenience is `kerr_cm2`, which converts the cm^2/W values customary in
the nonlinear-optics literature into m^2/W.

A design is one flat `ParameterSet`, as is each built-in preset; its
`pulse`, `medium` and `noise` build the checked specs `derive` takes.

All types are frozen dataclasses and all functions are pure, so the module
is safe to use from any number of threads or worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s


class ParameterError(ValueError):
    """A physical input is missing, out of range, or inconsistent."""


def _positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")


def _nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{name} must be >= 0 and finite, got {value!r}")


def kerr_cm2(value: float) -> float:
    """Convert a nonlinear index from cm^2/W to m^2/W (factor 1e-4 exactly)."""
    return value * 1e-4


@dataclass(frozen=True)
class PulseSpec:
    """One classical probe pulse.

    wavelength     vacuum wavelength (m)
    duration       pulse duration (s)
    cross_section  beam cross section (m^2)
    power          pulse power (W); zero is allowed and means a dark input
    """

    wavelength: float
    duration: float
    cross_section: float
    power: float

    def __post_init__(self) -> None:
        _positive("wavelength", self.wavelength)
        _positive("duration", self.duration)
        _positive("cross_section", self.cross_section)
        _nonnegative("power", self.power)

    @property
    def angular_frequency(self) -> float:
        """Mean angular frequency 2*pi*c/wavelength (rad/s)."""
        return 2.0 * math.pi * C_LIGHT / self.wavelength


@dataclass(frozen=True)
class MediumSpec:
    """Refractive response of the gas filling the interferometer.

    linear_index      index in darkness, n0 > 0 (values below 1 are accepted)
    kerr_coefficient  intensity response in m^2/W, >= 0; media with a
                      negative response are rejected
    """

    linear_index: float = 1.0
    kerr_coefficient: float = 0.0

    def __post_init__(self) -> None:
        _positive("linear_index", self.linear_index)
        _nonnegative("kerr_coefficient", self.kerr_coefficient)


@dataclass(frozen=True)
class KerrDerived:
    """Per-pulse quantities derived from a pulse and a medium.

    photons     mean photon number per pulse, P*tau/(hbar*omega)
    intensity   P/A (W/m^2)
    chi         nonlinear phase per photon (rad), (n2/n0)*hbar*omega/(A*tau)
    wavenumber  n0*omega/c (1/m)
    """

    photons: float
    intensity: float
    chi: float
    wavenumber: float


def derive(pulse: PulseSpec, medium: MediumSpec) -> KerrDerived:
    """Photon budget, intensity, per-photon Kerr phase, and wavenumber."""
    omega = pulse.angular_frequency
    photons = pulse.power * pulse.duration / (HBAR * omega)
    intensity = pulse.power / pulse.cross_section
    chi = (medium.kerr_coefficient / medium.linear_index) * HBAR * omega / (
        pulse.cross_section * pulse.duration
    )
    wavenumber = medium.linear_index * omega / C_LIGHT
    return KerrDerived(
        photons=photons, intensity=intensity, chi=chi, wavenumber=wavenumber
    )


@dataclass(frozen=True)
class GeometrySpec:
    """Arm lengths. The signal displaces the arms anti-symmetrically:
    arm 1 shortens by signal/2 while arm 2 lengthens by the same amount.
    """

    arm_length: float
    signal: float = 0.0

    def __post_init__(self) -> None:
        _positive("arm_length", self.arm_length)
        if not math.isfinite(self.signal):
            raise ParameterError(f"signal must be finite, got {self.signal!r}")
        if self.arm1 <= 0.0 or self.arm2 <= 0.0:
            raise ParameterError(
                f"signal {self.signal!r} makes an arm non-positive "
                f"(arm_length {self.arm_length!r})"
            )

    @property
    def arm1(self) -> float:
        return self.arm_length - 0.5 * self.signal

    @property
    def arm2(self) -> float:
        return self.arm_length + 0.5 * self.signal


def operating_arm_length(derived: KerrDerived) -> float:
    """Shortest arm length putting the empty interferometer on the operating
    point z0 = pi, i.e. 2*pi/(k*chi). Requires chi > 0."""
    if derived.chi <= 0.0:
        raise ParameterError("operating arm length undefined for chi = 0")
    kchi = derived.wavenumber * derived.chi
    arm = 2.0 * math.pi / kchi if kchi > 0.0 else math.inf
    if not 0.0 < arm < math.inf:
        raise ParameterError(
            f"operating arm 2*pi/(k*chi) must be positive and finite, got {arm!r} "
            f"(k*chi = {kchi!r})"
        )
    return arm


@dataclass(frozen=True)
class NoiseSpec:
    """Detection and dephasing imperfections.

    efficiency       detector quantum efficiency, in (0, 1]
    phase_sigma      std deviation of the Gaussian random relative phase (rad)
    thermal_photons  mean number of stray thermal photons entering through
                     the loss channel, split evenly between the two arms
    """

    efficiency: float = 1.0
    phase_sigma: float = 0.0
    thermal_photons: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.efficiency) and 0.0 < self.efficiency <= 1.0):
            raise ParameterError(
                f"efficiency must be in (0, 1], got {self.efficiency!r}"
            )
        _nonnegative("phase_sigma", self.phase_sigma)
        _nonnegative("thermal_photons", self.thermal_photons)


@dataclass(frozen=True)
class ParameterSet:
    """A complete design, flat and in SI units.

    arm_length None means "the shortest arm length on the operating point
    for m = 1", falling back to 1 m when the medium is linear and the
    operating condition holds for any length. `pulse`, `medium` and
    `noise` build the checked specs from the fields, and raise
    `ParameterError` for a field out of range.
    """

    wavelength: float
    tau: float
    area: float
    power: float
    n2: float
    n0: float = 1.0
    eta: float = 1.0
    sigma: float = 0.0
    nt: float = 0.0
    arm_length: float | None = None
    signal_x: float = 0.0

    @property
    def pulse(self) -> PulseSpec:
        return PulseSpec(self.wavelength, self.tau, self.area, self.power)

    @property
    def medium(self) -> MediumSpec:
        return MediumSpec(self.n0, self.n2)

    @property
    def noise(self) -> NoiseSpec:
        return NoiseSpec(self.eta, self.sigma, self.nt)


PRESETS: dict[str, ParameterSet] = {
    # Natural gas-phase nonlinearity driven hard: 1 ps, 1 PW pulses focused
    # to 1e-9 m^2, n2 = 1e-17 cm^2/W.
    "natural": ParameterSet(wavelength=500e-9, tau=1e-12, area=1e-9, power=1e15, n2=kerr_cm2(1e-17)),
    # Giant nonlinearity from electromagnetically induced transparency:
    # 100 ps, 1 MW pulses over 1e-6 m^2, n2 = 1e-2 cm^2/W.
    "giant-eit": ParameterSet(wavelength=500e-9, tau=1e-10, area=1e-6, power=1e6, n2=kerr_cm2(1e-2)),
}


def get_preset(name: str) -> ParameterSet:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ParameterError(f"unknown regime {name!r} (known: {known})") from None
