import math

import pytest
from hypothesis import given, strategies as st

from kerrmich.core import (
    C_LIGHT,
    HBAR,
    PRESETS,
    GeometrySpec,
    KerrDerived,
    MediumSpec,
    NoiseSpec,
    ParameterError,
    PulseSpec,
    derive,
    get_preset,
    kerr_cm2,
    operating_arm_length,
)
from kerrmich.analytic import signal_mean_exact, validity


def order_band(value, decade, factor=5.0):
    """True when value is within the given factor of the quoted decade."""
    return decade / factor <= value <= decade * factor


# strategies kept well inside float range so products never overflow
pulses = st.builds(
    PulseSpec,
    wavelength=st.floats(1e-7, 1e-5),
    duration=st.floats(1e-13, 1e-9),
    cross_section=st.floats(1e-10, 1e-4),
    power=st.floats(1e-3, 1e16),
)
media = st.builds(
    MediumSpec,
    linear_index=st.floats(0.5, 3.0),
    kerr_coefficient=st.floats(0.0, 1e-4),
)


class TestDerive:
    def test_natural_preset_orders(self):
        p = get_preset("natural")
        d = derive(p.pulse, p.medium)
        assert order_band(d.photons, 1e21)
        assert order_band(d.chi, 1e-18)

    def test_giant_preset_orders(self):
        p = get_preset("giant-eit")
        d = derive(p.pulse, p.medium)
        assert order_band(d.photons, 1e14)
        assert order_band(d.chi, 1e-8)

    def test_linear_medium_zeroes_chi_only(self):
        pulse = get_preset("natural").pulse
        with_kerr = derive(pulse, MediumSpec(1.0, 1e-21))
        without = derive(pulse, MediumSpec(1.0, 0.0))
        assert without.chi == 0.0
        assert without.photons == with_kerr.photons
        assert without.intensity == with_kerr.intensity

    def test_dark_pulse_gives_zero_photons(self):
        pulse = PulseSpec(500e-9, 1e-12, 1e-9, 0.0)
        d = derive(pulse, MediumSpec())
        assert d.photons == 0.0
        assert d.intensity == 0.0

    def test_formulas_against_direct_arithmetic(self):
        pulse = PulseSpec(800e-9, 2e-12, 3e-9, 5e12)
        medium = MediumSpec(1.4, 2e-20)
        d = derive(pulse, medium)
        omega = 2.0 * math.pi * C_LIGHT / 800e-9
        assert d.photons == pytest.approx(5e12 * 2e-12 / (HBAR * omega), rel=1e-12)
        assert d.intensity == pytest.approx(5e12 / 3e-9, rel=1e-12)
        assert d.chi == pytest.approx(
            (2e-20 / 1.4) * HBAR * omega / (3e-9 * 2e-12), rel=1e-12
        )
        assert d.wavenumber == pytest.approx(1.4 * omega / C_LIGHT, rel=1e-12)

    @given(pulses, media)
    def test_power_round_trip(self, pulse, medium):
        d = derive(pulse, medium)
        back = d.photons * HBAR * pulse.angular_frequency / pulse.duration
        assert back == pytest.approx(pulse.power, rel=1e-12)

    @given(pulses, media)
    def test_halving_duration_doubles_chi_exactly(self, pulse, medium):
        d = derive(pulse, medium)
        half = derive(
            PulseSpec(
                pulse.wavelength,
                pulse.duration / 2.0,
                pulse.cross_section,
                pulse.power,
            ),
            medium,
        )
        assert half.chi == 2.0 * d.chi
        # photon number follows the duration linearly
        assert half.photons == 0.5 * d.photons

    @given(pulses, media)
    def test_halving_area_doubles_chi_exactly(self, pulse, medium):
        d = derive(pulse, medium)
        half = derive(
            PulseSpec(
                pulse.wavelength,
                pulse.duration,
                pulse.cross_section / 2.0,
                pulse.power,
            ),
            medium,
        )
        assert half.chi == 2.0 * d.chi

    @given(pulses, media)
    def test_doubling_power_doubles_photons_exactly(self, pulse, medium):
        d = derive(pulse, medium)
        double = derive(
            PulseSpec(
                pulse.wavelength,
                pulse.duration,
                pulse.cross_section,
                pulse.power * 2.0,
            ),
            medium,
        )
        assert double.photons == 2.0 * d.photons
        assert double.chi == d.chi


def refractive_index(medium, d):
    """Effective index n0*(1 + chi*N), which should equal n0 + n2*I."""
    return medium.linear_index * (1.0 + d.chi * d.photons)


class TestRefractiveIndex:
    def test_dark_medium_returns_linear_index(self):
        pulse = PulseSpec(500e-9, 1e-12, 1e-9, 0.0)
        medium = MediumSpec(1.5, 1e-20)
        assert refractive_index(medium, derive(pulse, medium)) == 1.5

    def test_zero_kerr_returns_linear_index(self):
        pulse = get_preset("natural").pulse
        medium = MediumSpec(1.5, 0.0)
        assert refractive_index(medium, derive(pulse, medium)) == 1.5

    def test_natural_preset_both_forms(self):
        p = get_preset("natural")
        d = derive(p.pulse, p.medium)
        shift = refractive_index(p.medium, d) - p.medium.linear_index
        assert shift == pytest.approx(
            p.medium.kerr_coefficient * d.intensity, rel=1e-12
        )

    @given(pulses, media)
    def test_both_forms_agree(self, pulse, medium):
        d = derive(pulse, medium)
        as_photons = refractive_index(medium, d)
        as_intensity = medium.linear_index + medium.kerr_coefficient * d.intensity
        assert as_photons == pytest.approx(as_intensity, rel=1e-12)


def detuning_margin(d, geometry):
    """|z0 - m*pi| / pi for the nearest integer m, z0 = k * arm * chi / 2."""
    return validity(d, geometry, NoiseSpec()).on_operating_point.margin


class TestKerrPhases:
    def test_symmetric_arms(self):
        # equal arms: no relative phase, so the exact mean signal vanishes
        p = get_preset("giant-eit")
        d = derive(p.pulse, p.medium)
        g = GeometrySpec(arm_length=2.0, signal=0.0)
        assert g.arm1 == g.arm2 == 2.0
        k = d.wavenumber
        assert signal_mean_exact(d.photons, d.chi, k * g.arm1, k * g.arm2) == 0.0

    def test_zero_chi(self):
        pulse = get_preset("natural").pulse
        d = derive(pulse, MediumSpec(1.0, 0.0))
        assert detuning_margin(d, GeometrySpec(arm_length=3.0)) == 0.0

    def test_z_definition(self):
        # the signal shortens arm 1 and lengthens arm 2 by half each
        g = GeometrySpec(arm_length=1.5, signal=0.4)
        assert g.arm1 == 1.3
        assert g.arm2 == 1.7

    def test_giant_operating_point_feedback(self):
        # solve z0 = pi for the arm length, feed it back, expect no detuning
        p = get_preset("giant-eit")
        d = derive(p.pulse, p.medium)
        ell0 = 2.0 * math.pi / (d.wavenumber * d.chi)
        assert detuning_margin(d, GeometrySpec(arm_length=ell0)) < 1e-9 / math.pi
        assert ell0 == operating_arm_length(d, m=1)

    def test_detuning_bounded(self):
        d = KerrDerived(photons=1.0, intensity=1.0, chi=0.77, wavenumber=3.1)
        for arm in (0.1, 0.5, 1.0, 7.3, 42.0):
            assert detuning_margin(d, GeometrySpec(arm_length=arm)) <= 0.5 + 1e-12

    def test_operating_arm_length_rejects_linear_medium(self):
        d = KerrDerived(photons=1.0, intensity=1.0, chi=0.0, wavenumber=1.0)
        with pytest.raises(ParameterError):
            operating_arm_length(d)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(wavelength=-5e-7, duration=1e-12, cross_section=1e-9, power=1.0), "wavelength"),
            (dict(wavelength=5e-7, duration=0.0, cross_section=1e-9, power=1.0), "duration"),
            (dict(wavelength=5e-7, duration=1e-12, cross_section=-1e-9, power=1.0), "cross_section"),
            (dict(wavelength=5e-7, duration=1e-12, cross_section=1e-9, power=-1.0), "power"),
        ],
    )
    def test_pulse_errors_name_the_field(self, kwargs, field):
        with pytest.raises(ParameterError, match=field):
            PulseSpec(**kwargs)

    def test_medium_rejects_negative_kerr(self):
        with pytest.raises(ParameterError, match="kerr_coefficient"):
            MediumSpec(1.0, -1e-20)

    def test_medium_rejects_nonpositive_index(self):
        with pytest.raises(ParameterError, match="linear_index"):
            MediumSpec(0.0, 1e-20)

    def test_geometry_rejects_arm_swallowing_signal(self):
        with pytest.raises(ParameterError, match="signal"):
            GeometrySpec(arm_length=1.0, signal=3.0)

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.5])
    def test_noise_rejects_bad_efficiency(self, eta):
        with pytest.raises(ParameterError, match="efficiency"):
            NoiseSpec(efficiency=eta)

    def test_noise_rejects_negative_sigma_and_nt(self):
        with pytest.raises(ParameterError, match="phase_sigma"):
            NoiseSpec(phase_sigma=-0.1)
        with pytest.raises(ParameterError, match="thermal_photons"):
            NoiseSpec(thermal_photons=-1.0)


class TestPresets:
    def test_exactly_two_presets(self):
        assert sorted(PRESETS) == ["giant-eit", "natural"]

    def test_natural_values_bit_exact(self):
        p = get_preset("natural")
        assert p.pulse == PulseSpec(500e-9, 1e-12, 1e-9, 1e15)
        assert p.medium.linear_index == 1.0
        assert p.medium.kerr_coefficient == 1e-17 * 1e-4
        assert p.noise == NoiseSpec(1.0, 0.0, 0.0)

    def test_giant_values_bit_exact(self):
        p = get_preset("giant-eit")
        assert p.pulse == PulseSpec(500e-9, 1e-10, 1e-6, 1e6)
        assert p.medium.kerr_coefficient == 1e-2 * 1e-4
        assert p.noise == NoiseSpec(1.0, 0.0, 0.0)

    def test_unknown_preset(self):
        with pytest.raises(ParameterError, match="unknown regime"):
            get_preset("huge")

    def test_arm_length_hints(self):
        giant = operating_arm_length(get_preset("giant-eit").derived())
        assert giant == pytest.approx(125.85, rel=1e-3)
        assert order_band(operating_arm_length(get_preset("natural").derived()), 1e12)


def test_kerr_cm2_is_exactly_1e_minus_4():
    assert kerr_cm2(1e-17) == 1e-17 * 1e-4
    assert kerr_cm2(0.0) == 0.0
    assert kerr_cm2(2.5) == 2.5e-4
