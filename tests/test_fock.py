import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrmich.fock
from kerrmich.analytic import balanced_second_moment, signal_mean_exact, signal_variance
from kerrmich.core import NoiseSpec
from kerrmich.crosscheck import run_crosscheck
from kerrmich.fock import (
    MomentSet,
    TruncationError,
    TwoModeState,
    apply_kerr,
    coherent_amplitudes,
    coherent_identity_residual,
    fock_dim,
    gauss_hermite_phase,
    moments,
    monte_carlo_phase,
    noisy_moments,
    product_input,
)


def poisson_head(mu: float, dim: int) -> float:
    """Independent partial Poisson sum, the oracle for truncation masses."""
    return sum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(dim))


class TestCoherentAmplitudes:
    def test_vacuum(self):
        amps, tail = coherent_amplitudes(0.0, 5)
        assert amps[0] == 1.0
        assert np.all(amps[1:] == 0.0)
        assert tail == 0.0

    def test_two_level_truncation_of_unit_amplitude(self):
        # |beta|^2 = 1 kept to two levels captures e^-1 * (1 + 1) of the norm
        amps, tail = coherent_amplitudes(1.0, 2)
        captured = float(np.sum(np.abs(amps) ** 2))
        assert captured == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        assert tail == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-9)

    def test_default_rule_tail_below_budget(self):
        mu = 4.0
        dim = 4 + 10 * 2 + 20
        assert fock_dim(mu) == dim
        _, tail = coherent_amplitudes(2.0, dim)
        head = poisson_head(mu, dim)
        assert tail == pytest.approx(1.0 - head, abs=1e-13)
        assert tail < 1e-10

    def test_amplitudes_match_direct_formula(self):
        beta = 1.3 - 0.4j
        amps, _ = coherent_amplitudes(beta, 30)
        mu = abs(beta) ** 2
        for n in (0, 1, 2, 7, 15):
            direct = math.exp(-mu / 2.0) * beta**n / math.sqrt(math.factorial(n))
            assert amps[n] == pytest.approx(direct, rel=1e-12)

    def test_log_domain_survives_large_amplitude(self):
        # mu = 30 per mode; a naive factorial-based sum would be fragile here
        amps, tail = coherent_amplitudes(math.sqrt(30.0), fock_dim(30.0))
        assert tail < 1e-10
        assert np.all(np.isfinite(amps))

    def test_rejects_empty_basis(self):
        with pytest.raises(ValueError):
            coherent_amplitudes(1.0, 0)

    def test_budget_enforced_when_requested(self):
        with pytest.raises(TruncationError):
            coherent_amplitudes(1.0, 2, budget=1e-6)
        amps, tail = coherent_amplitudes(1.0, 2)  # no budget, just reported
        assert tail > 0.26


class TestProductInput:
    def test_vacuum_input(self):
        state = product_input(0.0)
        assert state.coeffs[0, 0] == 1.0
        assert state.norm_sq == 1.0

    def test_budget_violation_raises(self):
        # alpha = sqrt(2) puts one photon in each internal mode; two levels
        # keep only ~74% of each mode
        with pytest.raises(TruncationError):
            product_input(math.sqrt(2.0), dim=2, budget=1e-6)

    def test_mean_photons_split_between_arms(self):
        state = product_input(math.sqrt(8.0))
        ms = moments(state)
        assert ms.mean_n1 == pytest.approx(4.0, rel=1e-9)
        assert ms.mean_n2 == pytest.approx(4.0, rel=1e-9)

    def test_common_phase_is_irrelevant(self):
        a = moments(apply_kerr(product_input(2.0), 0.4, 0.5, 0.08))
        b = moments(apply_kerr(product_input(2.0 * cmath.exp(0.9j)), 0.4, 0.5, 0.08))
        assert b.mean_m == pytest.approx(a.mean_m, abs=1e-12)
        assert b.mean_m2 == pytest.approx(a.mean_m2, rel=1e-12)

    def test_coefficients_are_frozen(self):
        state = product_input(1.0)
        with pytest.raises(ValueError):
            state.coeffs[0, 0] = 0.0


class TestApplyKerr:
    def test_zero_phases_is_identity(self):
        state = product_input(2.0)
        evolved = apply_kerr(state, 0.0, 0.0, 0.5)
        assert np.array_equal(evolved.coeffs, state.coeffs)

    def test_full_turn_linear_phase_fixes_moments(self):
        state = product_input(2.0)
        evolved = apply_kerr(state, 2.0 * math.pi, 2.0 * math.pi, 0.0)
        before, after = moments(state), moments(evolved)
        assert after.mean_m == pytest.approx(before.mean_m, abs=1e-10)
        assert after.mean_m2 == pytest.approx(before.mean_m2, rel=1e-12)

    def test_cornerstone_mean_against_closed_form(self):
        state = product_input(2.0, dim=max(fock_dim(2.0), 40))
        ms = moments(apply_kerr(state, 0.30, 0.32, 0.1))
        want = signal_mean_exact(4.0, 0.1, 0.30, 0.32)
        assert ms.mean_m == pytest.approx(want, rel=1e-9)

    @given(
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
        st.floats(0.0, 1.0),
    )
    def test_unitarity(self, phi1, phi2, chi):
        state = product_input(math.sqrt(6.0))
        evolved = apply_kerr(state, phi1, phi2, chi)
        assert evolved.norm_sq == pytest.approx(state.norm_sq, rel=1e-12)


class TestMoments:
    def test_vacuum_moments_all_zero(self):
        ms = moments(product_input(0.0))
        assert ms.mean_n1 == ms.mean_n2 == ms.mean_n1n2 == 0.0
        assert ms.cross == 0.0
        assert ms.pair == 0.0
        assert ms.mean_m == ms.mean_m2 == 0.0

    def test_unevolved_cross_is_real_half_alpha_sq(self):
        alpha_sq = 8.0
        ms = moments(product_input(math.sqrt(alpha_sq)))
        assert ms.cross.real == pytest.approx(alpha_sq / 2.0, rel=1e-9)
        assert abs(ms.cross.imag) < 1e-12
        assert ms.mean_m == pytest.approx(0.0, abs=1e-12)

    def test_mean_is_twice_imag_cross(self):
        ms = moments(apply_kerr(product_input(2.0), 0.7, 0.9, 0.05), offset=0.4)
        rot = cmath.exp(0.4j)
        assert ms.mean_m == pytest.approx(2.0 * (rot * ms.cross).imag, abs=1e-14)

    def test_variance_nonnegative(self):
        ms = moments(apply_kerr(product_input(3.0), 1.1, 0.3, 0.2), offset=1.3)
        assert ms.mean_m2 >= ms.mean_m**2 - 1e-10

    @pytest.mark.parametrize("offset", [0.0, 0.7, math.pi / 2.0, 2.0])
    def test_balanced_second_moment_closed_form(self, offset):
        # x = 0 on the operating point z0 = pi, common offset injected
        n = 9.0
        phi0 = 2.0 * math.pi / 0.1
        ms = moments(apply_kerr(product_input(3.0), phi0, phi0, 0.1), offset=offset)
        assert ms.mean_m2 == pytest.approx(
            balanced_second_moment(n, offset), rel=1e-9
        )

    def test_truncation_loss_reported(self):
        state = product_input(math.sqrt(2.0), dim=3, budget=None)
        assert moments(state).trunc_loss == pytest.approx(state.trunc_loss)
        assert state.trunc_loss > 1e-3

    def test_doubling_margin_leaves_moments_alone(self):
        # truncation control: a much larger basis moves nothing by more
        # than the declared budget
        tight = moments(apply_kerr(product_input(4.0), 0.5, 0.6, 0.07))
        dim = fock_dim(8.0) + 60
        loose = moments(
            apply_kerr(product_input(4.0, dim=dim), 0.5, 0.6, 0.07)
        )
        assert abs(tight.mean_m - loose.mean_m) < 1e-10
        assert abs(tight.mean_m2 - loose.mean_m2) < 1e-10 * max(1.0, loose.mean_m2)


def field_bits(value) -> bytes:
    """The bits of a float or complex field, -0.0 told apart from 0.0."""
    z = complex(value)
    return struct.pack("<2d", z.real, z.imag)


def all_bits(values) -> list[bytes]:
    return [field_bits(v) for v in np.ravel(values).tolist()]


OFFSET_FIELDS = ("offset", "mean_m", "mean_m2")


class TestMomentsAtManyOffsets:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 10.0),
        st.floats(-math.pi, math.pi),
        st.none() | st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, 1.0)),
        st.lists(
            st.sampled_from([0.0, -0.0, math.pi, -math.pi, 1e6])
            | st.floats(-1e6, 1e6, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
    )
    def test_entry_i_is_the_call_at_offset_i_bit_for_bit(self, photons, phase, kerr, offsets):
        state = product_input(math.sqrt(photons) * cmath.exp(1j * phase))
        if kerr is not None:
            state = apply_kerr(state, *kerr)
        many = moments(state, np.array(offsets))
        for i, offset in enumerate(offsets):
            one = moments(state, offset)
            for name in MomentSet.__dataclass_fields__:
                got = getattr(many, name)
                got = got[i] if name in OFFSET_FIELDS else got
                assert field_bits(got) == field_bits(getattr(one, name)), (name, offset)

    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 4)])
    def test_array_offsets_keep_their_shape_and_are_read_only(self, shape):
        state = apply_kerr(product_input(2.0), 0.3, 0.5, 0.05)
        offsets = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
        ms = moments(state, offsets)
        for name in OFFSET_FIELDS:
            column = getattr(ms, name)
            assert column.shape == shape and not column.flags.writeable
        assert all_bits(ms.offset) == all_bits(offsets)
        # a float or 0-d offset gives floats, as before
        zero_d = moments(state, np.array(0.4))
        assert all(type(getattr(zero_d, name)) is float for name in OFFSET_FIELDS)
        assert zero_d == moments(state, 0.4)


class TestNoisyMoments:
    def _balanced(self, n: float, offset: float = 0.0):
        phi0 = 2.0 * math.pi / 0.1
        return moments(
            apply_kerr(product_input(math.sqrt(n)), phi0, phi0, 0.1), offset=offset
        )

    def test_no_noise_is_identity(self):
        ms = self._balanced(9.0, offset=0.3)
        noisy = noisy_moments(ms, NoiseSpec(1.0, 0.0, 0.0))
        assert noisy.mean_m == ms.mean_m
        assert noisy.mean_m2 == ms.mean_m2
        assert noisy.mean_n1 == ms.mean_n1

    def test_full_dephasing_kills_coherence(self):
        n = 9.0
        ms = self._balanced(n)
        noisy = noisy_moments(ms, NoiseSpec(1.0, 60.0, 0.0))
        assert noisy.mean_m == 0.0
        assert noisy.mean_m2 == pytest.approx(n * n / 2.0 + n, rel=1e-9)

    def test_sigma_zero_contraction_is_exact(self):
        ms = self._balanced(16.0)
        for eta in (0.4, 1.0):
            for nt in (0.0, 2.0):
                noisy = noisy_moments(ms, NoiseSpec(eta, 0.0, nt))
                want = eta * eta * ms.mean_m2 + eta * (ms.mean_n1 + ms.mean_n2) * (
                    nt + 1.0 - eta
                )
                assert noisy.mean_m2 == want

    def test_against_small_sigma_budget(self):
        # the small-sigma budget overshoots the exact form by eta^2 N^2 sigma^4
        n = 16.0
        ms = self._balanced(n)
        eta, sigma, nt = 0.7, 0.05, 0.5
        noisy = noisy_moments(ms, NoiseSpec(eta, sigma, nt))
        exact = signal_variance(n, eta, sigma, nt, exact=True)
        budget = signal_variance(n, eta, sigma, nt)
        assert noisy.mean_m2 == pytest.approx(exact, rel=1e-9)
        assert abs(noisy.mean_m2 - budget) <= (eta * n * sigma) ** 2 * sigma**2 + 1e-9

    def test_correlated_pair_count(self):
        # (|2,0> + |0,2>)/sqrt(2) has <N1 N2> = 0 but <N1> = <N2> = 1, so the
        # detected <N1 N2> is eta (nt/2) * 2 + nt^2/4, not the product of
        # the detected arm means
        c = np.zeros((3, 3))
        c[2, 0] = c[0, 2] = 1.0 / math.sqrt(2.0)
        ms = moments(TwoModeState(c))
        noisy = noisy_moments(ms, NoiseSpec(0.5, 0.0, 2.0))
        assert noisy.mean_n1 * noisy.mean_n2 == pytest.approx(2.25, rel=1e-12)
        assert noisy.mean_n1n2 == pytest.approx(2.0, rel=1e-12)

    def test_mean_scaling(self):
        ms = moments(apply_kerr(product_input(2.0), 0.3, 0.5, 0.05))
        noisy = noisy_moments(ms, NoiseSpec(0.8, 0.2, 1.0))
        assert noisy.mean_m == pytest.approx(
            0.8 * math.exp(-0.5 * 0.04) * ms.mean_m, rel=1e-12
        )


class TestIdentityResidual:
    def test_zero_rotation(self):
        assert coherent_identity_residual(1.7, 0.0) < 1e-12

    def test_vacuum(self):
        assert coherent_identity_residual(0.0, 0.3) == 0.0

    def test_example_point(self):
        assert coherent_identity_residual(math.sqrt(6.0), 0.3, dim=80) < 1e-10

    def test_grid_up_to_ten_photons(self):
        for mu in (0.5, 2.0, 5.0, 10.0):
            for z in np.linspace(0.0, math.pi, 9):
                assert coherent_identity_residual(math.sqrt(mu), float(z)) < 1e-10


class TestPhaseAveraging:
    def test_zero_sigma_collapses(self):
        est, se = monte_carlo_phase(np.cos, 0.0, 1000, seed=1)
        assert est == 1.0
        assert se == 0.0

    def test_sin_charfunction(self):
        sigma, c = 0.3, 0.6
        est, se = monte_carlo_phase(lambda p: np.sin(p + c), sigma, 100_000, seed=7)
        want = math.exp(-0.5 * sigma**2) * math.sin(c)
        assert abs(est - want) <= 3.0 * se

    def test_cos2_charfunction(self):
        sigma = 0.3
        est, se = monte_carlo_phase(lambda p: np.cos(2.0 * p), sigma, 100_000, seed=9)
        assert abs(est - math.exp(-2.0 * sigma**2)) <= 3.0 * se

    def test_seed_reproducibility(self):
        a = monte_carlo_phase(lambda p: np.sin(p + 0.2), 0.4, 5000, seed=321)
        b = monte_carlo_phase(lambda p: np.sin(p + 0.2), 0.4, 5000, seed=321)
        assert a == b

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            monte_carlo_phase(np.sin, 0.1, 1, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_phase(np.sin, -0.1, 10, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -0.1])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            gauss_hermite_phase(np.cos, sigma)
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            monte_carlo_phase(np.cos, sigma, 10, seed=0)

    def test_quadrature_rule_is_built_once_per_order(self, monkeypatch):
        built = []
        real = np.polynomial.hermite.hermgauss

        def spy(order):
            built.append(order)
            return real(order)

        kerrmich.fock._hermgauss.cache_clear()
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", spy)
        for _ in range(2):
            assert run_crosscheck(max_photons=30).ok
        assert built == [64]

    def test_cached_rule_is_read_only(self):
        for array in kerrmich.fock._hermgauss(64):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("order", [1, 2, 64, 100])
    def test_quadrature_keeps_the_bits_of_the_uncached_rule(self, order):
        def integrand(phi):
            return np.sin(phi + 0.6) * np.exp(-0.1 * phi * phi)

        nodes, weights = np.polynomial.hermite.hermgauss(order)
        values = integrand(math.sqrt(2.0) * 0.3 * nodes)
        want = float(np.sum(weights * values) / math.sqrt(math.pi))
        assert field_bits(gauss_hermite_phase(integrand, 0.3, order)) == field_bits(want)

    def test_quadrature_matches_charfunction(self):
        for sigma in (0.1, 0.5):
            got = gauss_hermite_phase(lambda p: np.sin(p + 0.6), sigma)
            want = math.exp(-0.5 * sigma**2) * math.sin(0.6)
            assert got == pytest.approx(want, rel=1e-12)


def test_two_mode_state_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TwoModeState(np.zeros(3, dtype=complex))
