import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kerrmich.analytic import (
    balanced_second_moment,
    displacement_resolution,
    displacement_resolution_linear,
    improvement_ratio,
    scaling_figure,
    sensitivity_report,
    signal_mean,
    signal_mean_exact,
    signal_mean_linear,
    signal_slope,
    signal_variance,
    validity,
)
from kerrmich.core import (
    GeometrySpec,
    KerrDerived,
    MediumSpec,
    NoiseSpec,
    derive,
    get_preset,
    operating_arm_length,
)
from kerrmich.fock import gauss_hermite_phase

GIANT = get_preset("giant-eit")
NATURAL = get_preset("natural")
GIANT_ARM = operating_arm_length(GIANT.derived())


def order_band(value, decade, factor=5.0):
    return decade / factor <= value <= decade * factor


photon_numbers = st.floats(1.0, 1e6)
chis = st.floats(0.0, 10.0)
wavenumbers = st.floats(1.0, 1e8)
etas = st.floats(0.01, 1.0)
sigmas = st.floats(0.0, 1.0)
thermals = st.floats(0.0, 100.0)


class TestSignalMeanExact:
    def test_linear_interferometer_limit(self):
        assert signal_mean_exact(50.0, 0.0, 0.2, 0.9) == pytest.approx(
            50.0 * math.sin(0.7), rel=1e-12
        )

    def test_balanced_arms_give_zero(self):
        assert signal_mean_exact(50.0, 0.37, 1.1, 1.1) == 0.0

    def test_efficiency_scales_linearly(self):
        full = signal_mean_exact(9.0, 0.05, 0.4, 0.6, 0.1, eta=1.0)
        half = signal_mean_exact(9.0, 0.05, 0.4, 0.6, 0.1, eta=0.5)
        assert half == pytest.approx(0.5 * full, rel=1e-14)

    def test_periodic_in_offset(self):
        a = signal_mean_exact(16.0, 0.03, 0.4, 0.7, offset=0.9)
        b = signal_mean_exact(16.0, 0.03, 0.4, 0.7, offset=0.9 + 2.0 * math.pi)
        assert b == pytest.approx(a, abs=1e-12)

    def test_odd_under_arm_swap_and_offset_flip(self):
        a = signal_mean_exact(16.0, 0.03, 0.4, 0.7, offset=0.9)
        b = signal_mean_exact(16.0, 0.03, 0.7, 0.4, offset=-0.9)
        assert b == pytest.approx(-a, rel=1e-12)

    def test_envelope_never_amplifies(self):
        for phi1, phi2 in [(0.3, 7.9), (2.0, 2.5), (0.0, 30.0)]:
            v = signal_mean_exact(1000.0, 0.3, phi1, phi2, 0.3)
            assert abs(v) <= 1000.0


    @pytest.mark.parametrize("n", [1e4, 1e6])
    @pytest.mark.parametrize("scaled_detuning", [0.3, 1.0, 3.0])
    def test_revival_envelope_is_exp_of_sin_squared(self, n, scaled_detuning):
        # both arms detuned by delta from the revival at z = pi, around a
        # small signal phase s: z_j = pi + delta -/+ s chi / 4
        chi, offset = 1e3 / n, 0.5 * math.pi
        s = 1e-3 / (chi * n)
        delta = scaled_detuning / math.sqrt(n)

        def mean(delta):
            z1, z2 = (math.pi + delta - s * chi / 4, math.pi + delta + s * chi / 4)
            return signal_mean_exact(n, chi, 2.0 * z1 / chi, 2.0 * z2 / chi, offset)

        ratio = mean(delta) / mean(0.0)
        assert ratio / math.exp(-2.0 * n * math.sin(delta) ** 2) == pytest.approx(1.0, abs=1e-8)
        # exp(-2 N delta^2) falls short by exp((2/3) N delta^4) - 1, as
        # sin^2 delta = delta^2 - delta^4/3 + ...: 5.4e-3 at N = 1e4 and
        # sqrt(N) delta = 3
        excess = ratio / math.exp(-2.0 * n * delta**2) - 1.0
        assert excess == pytest.approx(2.0 / 3.0 * n * delta**4, rel=1e-2, abs=1e-8)


class TestSignalMeanGaussian:
    def test_no_signal_no_mean(self):
        assert signal_mean(1e4, 1e-3, 1e7, 0.0) == 0.0

    def test_linear_michelson_limit(self):
        got = signal_mean(100.0, 0.0, 2.0, 0.1, sigma=0.0, eta=1.0)
        assert got == pytest.approx(100.0 * math.sin(0.2), rel=1e-12)

    def test_matches_exact_at_operating_point(self):
        # compensated arms around z0 = pi: phi_j = 2 pi / chi -/+ k x / 2
        n, chi, k, x = 1e4, 1e-3, 1.0, 1e-3
        phi0 = 2.0 * math.pi / chi
        exact = signal_mean_exact(n, chi, phi0 - 0.5 * k * x, phi0 + 0.5 * k * x)
        approx = signal_mean(n, chi, k, x)
        # the approximation drops the z2 - z1 term, worth at most n*chi*k*x/2
        assert abs(exact - approx) <= 1.01 * n * (0.5 * chi * k * x)
        assert approx == pytest.approx(exact, rel=1e-3)

    def test_degrades_off_operating_point(self):
        n, chi, k, x = 1e4, 1e-3, 1.0, 1e-3
        detuned = 2.0 * math.pi / chi + 2.0 * 0.05 / chi  # z0 = pi + 0.05
        exact = signal_mean_exact(n, chi, detuned - 0.5 * k * x, detuned + 0.5 * k * x)
        approx = signal_mean(n, chi, k, x)
        assert abs(exact - approx) / abs(approx) > 0.5

    def test_sigma_dependence_is_pure_gaussian_factor(self):
        base = signal_mean(1e4, 1e-3, 1.0, 1e-3, sigma=0.0)
        for sigma in (0.1, 0.4, 0.9):
            with_noise = signal_mean(1e4, 1e-3, 1.0, 1e-3, sigma=sigma)
            assert with_noise == pytest.approx(
                math.exp(-0.5 * sigma**2) * base, rel=1e-12
            )

    def test_gaussian_factor_against_quadrature(self):
        # averaging the exact mean over the random phase must land on the
        # closed-form exp(-sigma^2/2) factor
        n, chi, phi1, phi2 = 9.0, 0.01, 0.30, 0.32
        for sigma in (0.1, 0.3, 0.5):
            def fn(phis: np.ndarray) -> np.ndarray:
                return np.array(
                    [signal_mean_exact(n, chi, phi1, phi2, float(p)) for p in phis]
                )

            averaged = gauss_hermite_phase(fn, sigma)
            want = math.exp(-0.5 * sigma**2) * signal_mean_exact(n, chi, phi1, phi2)
            assert averaged == pytest.approx(want, rel=1e-8)


class TestVariance:
    def test_shot_noise_only(self):
        assert signal_variance(100.0) == 100.0

    def test_efficiency_scaling(self):
        assert signal_variance(100.0, eta=0.5) == 50.0

    def test_small_sigma_budget_vs_exact_form(self):
        n, eta, sigma, nt = 100.0, 1.0, 0.1, 2.0
        budget = signal_variance(n, eta, sigma, nt)
        exact = signal_variance(n, eta, sigma, nt, exact=True)
        assert budget == 100.0 + 100.0 + 200.0
        # overshoot is eta^2 N^2 sigma^4 at leading order, and positive
        assert 0.0 < budget - exact <= (eta * n) ** 2 * sigma**4

    @pytest.mark.parametrize(
        "n, eta, sigma, nt",
        [
            (100.0, 1.0, 0.1, 2.0),
            (2.517e14, 0.7, 1e-3, 0.0),
            (2.517e14, 1.0, 1e139, 0.0),
            (1e300, 1.0, 1e-146, 1e-300),
        ],
    )
    def test_budget_is_the_python_square_where_finite(self, n, eta, sigma, nt):
        want = eta * n + (eta * n * sigma) ** 2 + eta * n * nt
        assert math.isfinite(want)
        assert signal_variance(n, eta, sigma, nt).hex() == want.hex()

    @pytest.mark.parametrize("n, sigma", [(2.517e14, 1e140), (1.0, 1e155), (1e300, 1.0)])
    def test_budget_is_inf_where_the_square_overflows(self, n, sigma):
        with pytest.raises(OverflowError):
            (n * sigma) ** 2
        assert signal_variance(n, 1.0, sigma) == math.inf

    def test_exact_form_at_zero_sigma(self):
        assert signal_variance(64.0, 0.8, 0.0, 3.0, exact=True) == signal_variance(
            64.0, 0.8, 0.0, 3.0
        )


class TestBalancedSecondMoment:
    def test_zero_offset(self):
        assert balanced_second_moment(49.0, 0.0) == 49.0

    def test_quarter_turn(self):
        n = 49.0
        assert balanced_second_moment(n, math.pi / 2.0) == pytest.approx(
            n * n + n, rel=1e-12
        )

    def test_frozen_point(self):
        # 9 photons, offset 0.7: N^2/2 + N - (N^2/2) cos 1.4
        assert balanced_second_moment(9.0, 0.7) == pytest.approx(
            42.61633071254024, rel=1e-12
        )


class TestResolution:
    def test_shot_noise_limit(self):
        n, k = 1e6, 2.0
        assert displacement_resolution(n, 0.0, k) == pytest.approx(
            1.0 / (k * math.sqrt(n)), rel=1e-12
        )
        assert displacement_resolution_linear(n, k) == pytest.approx(
            1.0 / (k * math.sqrt(n)), rel=1e-12
        )

    def test_linear_thermal_point(self):
        assert displacement_resolution_linear(4.0, 1.0, eta=1.0, thermal=3.0) == 1.0

    def test_giant_preset_order(self):
        d = GIANT.derived()
        assert order_band(
            displacement_resolution(d.photons, d.chi, d.wavenumber), 1e-20
        )
        assert order_band(displacement_resolution_linear(d.photons, d.wavenumber), 1e-14)

    def test_natural_preset_order(self):
        d = NATURAL.derived()
        assert order_band(
            displacement_resolution(d.photons, d.chi, d.wavenumber), 1e-21
        )

    def test_dark_input_is_total(self):
        assert displacement_resolution(0.0, 0.1, 1.0) == math.inf
        assert displacement_resolution_linear(0.0, 1.0) == math.inf

    @given(photon_numbers, wavenumbers, etas, thermals)
    def test_linear_coincides_with_chi_zero(self, n, k, eta, nt):
        assert displacement_resolution(
            n, 0.0, k, eta, 0.0, nt
        ) == displacement_resolution_linear(n, k, eta, nt)

    @given(photon_numbers, chis, wavenumbers, etas)
    def test_noise_to_signal_assembly(self, n, chi, k, eta):
        # resolution = sqrt(variance) / |slope| at every parameter point
        dx = displacement_resolution(n, chi, k, eta)
        assembled = math.sqrt(signal_variance(n, eta)) / signal_slope(n, chi, k, eta)
        assert dx == pytest.approx(assembled, rel=1e-12)

    @given(photon_numbers, st.floats(0.01, 10.0), st.floats(0.1, 4.0))
    def test_strictly_decreasing_in_chi(self, n, chi, factor):
        lo = displacement_resolution(n, chi, 1.0)
        hi = displacement_resolution(n, chi * (1.0 + factor), 1.0)
        assert hi < lo

    @given(st.floats(1.0, 1e5), st.floats(0.01, 10.0), st.floats(0.5, 4.0))
    def test_strictly_decreasing_in_photons(self, n, chi, factor):
        lo = displacement_resolution(n, chi, 1.0)
        hi = displacement_resolution(n * (1.0 + factor), chi, 1.0)
        assert hi < lo


def coherent_generator_variance(mu, c):
    """Var(n + c n^2) for n Poisson of mean mu, in closed form."""
    return mu + 2.0 * c * (2.0 * mu**2 + mu) + c**2 * (4.0 * mu**3 + 6.0 * mu**2 + mu)


class TestQuantumBound:
    """The paper's resolution against the quantum Cramer-Rao bound of a
    coherent probe. A shift x moves the arm phases by -/+ k x / 2, so the
    generator is G = (k/2)[(n2 + chi n2^2/2) - (n1 + chi n1^2/2)], and for
    two coherent modes of mean N/2 each F_Q = 4 Var(G) = 2 k^2 V(N/2, chi/2)."""

    @pytest.mark.parametrize("mu, c", [(12.5, 0.05), (3.0, 0.3)])
    def test_variance_matches_poisson_sum(self, mu, c):
        ns = range(int(mu + 40.0 * math.sqrt(mu) + 40.0))
        weights = [math.exp(n * math.log(mu) - mu - math.lgamma(n + 1.0)) for n in ns]
        values = [n + c * n * n for n in ns]
        mean = math.fsum(w * v for w, v in zip(weights, values))
        variance = math.fsum(w * (v - mean) ** 2 for w, v in zip(weights, values))
        assert coherent_generator_variance(mu, c) == pytest.approx(variance, rel=1e-12)

    @pytest.mark.parametrize("preset", [GIANT, NATURAL], ids=["giant-eit", "natural"])
    def test_presets_reach_the_bound_at_ideal_detection(self, preset):
        d = preset.derived()
        report = sensitivity_report(
            d, GeometrySpec(operating_arm_length(d)), NoiseSpec(1.0, 0.0, 0.0)
        )
        fisher = 2.0 * d.wavenumber**2 * coherent_generator_variance(0.5 * d.photons, 0.5 * d.chi)
        assert abs(report.delta_x * math.sqrt(fisher) - 1.0) <= 1e-12

    def test_few_photons_fall_short_of_the_bound(self):
        n, chi, k = 25.0, 0.1, 1.0
        fisher = 2.0 * k**2 * coherent_generator_variance(0.5 * n, 0.5 * chi)
        ratio = displacement_resolution(n, chi, k) * math.sqrt(fisher)
        assert round(ratio, 4) == 1.0282


class TestImprovement:
    def test_no_kerr_no_improvement(self):
        assert improvement_ratio(1e9, 0.0) == 1.0

    def test_preset_orders(self):
        giant, natural = GIANT.derived(), NATURAL.derived()
        assert order_band(improvement_ratio(giant.photons, giant.chi), 1e-6)
        assert order_band(improvement_ratio(natural.photons, natural.chi), 1e-3)

    def test_large_gain_asymptote(self):
        n, chi = 1e10, 1e-3
        assert improvement_ratio(n, chi) == pytest.approx(2.0 / (chi * n), rel=1e-6)

    @given(photon_numbers, chis)
    def test_ideal_ratio_identity(self, n, chi):
        ratio = improvement_ratio(n, chi)
        assert ratio * (1.0 + 0.5 * chi * n) == pytest.approx(1.0, abs=1e-14)

    @given(photon_numbers, chis, etas, thermals)
    def test_matches_resolution_quotient(self, n, chi, eta, nt):
        k = 5.0e6
        quotient = displacement_resolution(
            n, chi, k, eta, 0.0, nt
        ) / displacement_resolution_linear(n, k, eta, nt)
        assert improvement_ratio(n, chi, eta, 0.0, nt) == pytest.approx(
            quotient, rel=1e-12
        )

    @given(photon_numbers, chis, etas, thermals)
    def test_bounded_when_noise_floors_match(self, n, chi, eta, nt):
        ratio = improvement_ratio(n, chi, eta, 0.0, nt)
        assert 0.0 < ratio <= 1.0


class TestScalingFigure:
    def test_doubling_photons_quarters(self):
        base = scaling_figure(1e-10, 1e-6, 5e-7, 1e14)
        assert scaling_figure(1e-10, 1e-6, 5e-7, 2e14) == base / 4.0

    def test_doubling_duration_doubles(self):
        base = scaling_figure(1e-10, 1e-6, 5e-7, 1e14)
        assert scaling_figure(2e-10, 1e-6, 5e-7, 1e14) == 2.0 * base

    def test_regime_comparison(self):
        g, n = GIANT, NATURAL
        dg, dn = g.derived(), n.derived()
        ratio = scaling_figure(
            g.pulse.duration, g.pulse.cross_section, g.pulse.wavelength, dg.photons
        ) / scaling_figure(
            n.pulse.duration, n.pulse.cross_section, n.pulse.wavelength, dn.photons
        )
        # 1e5 from tau*A, (1e7)^2 from the photon numbers
        assert ratio == pytest.approx(1e19, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="duration"):
            scaling_figure(0.0, 1e-6, 5e-7, 1e14)


def checks(flags):
    """The five ValidityCheck fields of a ValidityFlags."""
    return [getattr(flags, f.name) for f in dataclasses.fields(flags)]


class TestValidity:
    def test_all_clean_at_ideal_point(self):
        d = KerrDerived(photons=100.0, intensity=1.0, chi=0.0, wavenumber=1.0)
        flags = validity(d, GeometrySpec(1.0, 0.0), NoiseSpec(1.0, 0.0, 0.0))
        assert all(c.ok for c in checks(flags))
        assert all(c.margin == 0.0 for c in checks(flags))

    def test_giant_small_signal_margin(self):
        d = GIANT.derived()
        geometry = GeometrySpec(GIANT_ARM, signal=1e-15)
        flags = validity(d, geometry, GIANT.noise)
        # chi*N*k*x = 1e6 * 1.2566e7 * 1e-15, just above the default 1e-2
        assert flags.small_signal.margin == pytest.approx(1.2566e-2, rel=1e-3)
        assert not flags.small_signal.ok
        relaxed = validity(d, geometry, GIANT.noise, threshold=0.1)
        assert relaxed.small_signal.ok

    def test_giant_deep_inside_window(self):
        d = GIANT.derived()
        geometry = GeometrySpec(GIANT_ARM, signal=1e-16)
        assert validity(d, geometry, GIANT.noise).small_signal.ok

    def test_giant_heavy_dephasing_breaks_dominance(self):
        d = GIANT.derived()
        geometry = GeometrySpec(GIANT_ARM, signal=0.0)
        noise = NoiseSpec(1.0, 0.5, 0.0)
        flags = validity(d, geometry, noise)
        assert not flags.nonlinearity_dominant.ok
        assert flags.nonlinearity_dominant.margin == pytest.approx(62.93, rel=1e-3)
        assert not flags.weak_dephasing.ok

    def test_zero_over_zero_margins_are_zero(self):
        d = KerrDerived(photons=0.0, intensity=0.0, chi=0.0, wavenumber=1.0)
        flags = validity(d, GeometrySpec(1.0), NoiseSpec(1.0, 0.0, 0.0))
        assert all(c.ok for c in checks(flags))

    def test_infinite_margin_when_nonlinearity_absent(self):
        d = KerrDerived(photons=100.0, intensity=1.0, chi=0.0, wavenumber=1.0)
        flags = validity(d, GeometrySpec(1.0), NoiseSpec(1.0, 0.3, 0.0))
        assert flags.nonlinearity_dominant.margin == math.inf
        assert not flags.nonlinearity_dominant.ok

    def test_as_dict_schema(self):
        d = GIANT.derived()
        flags = validity(d, GeometrySpec(1.0), GIANT.noise)
        assert [f.name for f in dataclasses.fields(flags)] == [
            "small_signal",
            "weak_thermal",
            "weak_dephasing",
            "on_operating_point",
            "nonlinearity_dominant",
        ]
        assert all(set(vars(c)) == {"margin", "ok"} for c in checks(flags))


class TestMeanForms:
    def test_three_forms_agree_to_first_order(self):
        n, chi, k, x = 1e4, 1e-3, 1.0, 1e-3
        phi0 = 2.0 * math.pi / chi
        exact = signal_mean_exact(n, chi, phi0 - 0.5 * k * x, phi0 + 0.5 * k * x)
        gauss = signal_mean(n, chi, k, x)
        lin = signal_mean_linear(n, chi, k, x)
        # the three agree to first order in the signal
        assert gauss == pytest.approx(lin, rel=2e-5)
        assert exact == pytest.approx(lin, rel=1e-3)


class TestSensitivityReport:
    def test_assembles_consistently(self):
        d = GIANT.derived()
        geometry = GeometrySpec(GIANT_ARM, 0.0)
        rep = sensitivity_report(d, geometry, GIANT.noise)
        noise = GIANT.noise
        var_m = signal_variance(
            d.photons, noise.efficiency, noise.phase_sigma, noise.thermal_photons
        )
        dmdx = signal_slope(d.photons, d.chi, d.wavenumber, noise.efficiency)
        assert rep.delta_x == pytest.approx(math.sqrt(var_m) / dmdx, rel=1e-12)
        assert rep.improvement == pytest.approx(
            rep.delta_x / rep.delta_x_linear, rel=1e-12
        )
        assert all(c.ok for c in checks(rep.validity))

    def test_medium_free_report_has_no_gain(self):
        pulse = get_preset("giant-eit").pulse
        d = derive(pulse, MediumSpec(1.0, 0.0))
        rep = sensitivity_report(d, GeometrySpec(1.0), NoiseSpec())
        assert rep.improvement == 1.0
        assert rep.delta_x == rep.delta_x_linear
