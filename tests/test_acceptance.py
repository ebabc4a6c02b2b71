"""Acceptance gate: one test per criterion, each at a pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; a failed assertion marks the criterion failed before its
line is printed.
"""

import math
import time

import numpy as np
import pytest

from kerrmich.analytic import (
    displacement_resolution,
    displacement_resolution_linear,
    improvement_ratio,
)
from kerrmich.cli import main
from kerrmich.core import (
    MediumSpec,
    NoiseSpec,
    PulseSpec,
    derive,
)
from kerrmich.crosscheck import run_crosscheck
from kerrmich.fock import (
    apply_kerr,
    coherent_identity_residual,
    moments,
    monte_carlo_phase,
    noisy_moments,
    product_input,
)
from kerrmich.sweep import regime_report

DRAWS = 1000


def _report(number: int, title: str) -> None:
    print(f"criterion {number} ({title}): PASS")


def test_criterion_1_mean_equivalence():
    started = time.perf_counter()
    report = run_crosscheck(max_photons=25, tolerance=1e-9)
    elapsed = time.perf_counter() - started
    mean_cases = [c for c in report.cases if c.section == "mean"]
    assert len(mean_cases) == 75  # 5 photon numbers x 3 chis x 5 phases
    worst = max(c.error for c in mean_cases)
    assert worst <= 1e-9, f"worst mean relative error {worst:.3e}"
    assert elapsed < 60.0, f"suite took {elapsed:.1f} s"
    _report(1, f"oracle vs exact mean, worst {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_expectation_identity():
    worst = 0.0
    for mu in (0.5, 1.0, 2.0, 4.0, 7.0, 10.0):
        for z in np.linspace(0.0, math.pi, 13):
            worst = max(worst, coherent_identity_residual(math.sqrt(mu), float(z)))
    assert worst < 1e-10, f"worst identity residual {worst:.3e}"
    _report(2, f"coherent rotation identity, worst residual {worst:.2e}")


def test_criterion_3_variance_closed_form():
    chi = 0.1
    phi0 = 2.0 * math.pi / chi  # operating point z0 = pi
    offsets = [j * math.pi / 4.0 + 0.35 for j in range(8)]
    worst = 0.0
    for n in (1, 4, 9, 16, 25):
        state = apply_kerr(product_input(math.sqrt(float(n))), phi0, phi0, chi)
        for offset in offsets:
            got = moments(state, offset=offset).mean_m2
            half_sq = 0.5 * n * n
            want = half_sq + n - half_sq * math.cos(2.0 * offset)
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-9, f"worst variance relative error {worst:.3e}"
    _report(3, f"balanced second moment, worst {worst:.2e}")


def test_criterion_4_noise_assembly():
    n = 16.0
    chi = 0.1
    base = moments(apply_kerr(product_input(4.0), 2.0 * math.pi / chi, 2.0 * math.pi / chi, chi))
    for eta in (0.5, 1.0):
        for sigma in (0.0, 0.05, 0.2):
            for nt in (0.0, 2.0):
                got = noisy_moments(base, NoiseSpec(eta, sigma, nt)).mean_m2
                exact = (
                    eta * n
                    + eta * eta * 0.5 * n * n * (1.0 - math.exp(-2.0 * sigma * sigma))
                    + eta * n * nt
                )
                budget = eta * n + (eta * n * sigma) ** 2 + eta * n * nt
                # the oracle must land on the exact dephasing form, which the
                # small-sigma budget overshoots by at most eta^2 N^2 sigma^4
                # (modulo contraction rounding)
                assert got == pytest.approx(exact, rel=1e-9)
                slack = 1e-9 * n
                assert -slack <= budget - got <= (eta * n) ** 2 * sigma**4 + slack
    _report(4, "noise replacement rules within the sigma^4 correction")


def test_criterion_5_regime_reproduction():
    def band(value, decade):
        assert decade / 5.0 <= value <= decade * 5.0, f"{value} not within 5x of {decade}"

    natural = regime_report("natural")
    band(natural["derived"]["n_photons"], 1e21)
    band(natural["derived"]["chi"], 1e-18)
    band(natural["report"]["delta_x_m"], 1e-21)
    band(natural["report"]["delta_x_linear_m"], 1e-21 / 1e-3)
    band(natural["report"]["improvement"], 1e-3)
    band(natural["report"]["arm_length_m"], 1e12)
    band(natural["report"]["sigma_max"], 1e-8)
    band(natural["report"]["nt_max"], 1e6)

    giant = regime_report("giant-eit")
    band(giant["derived"]["n_photons"], 1e14)
    band(giant["derived"]["chi"], 1e-8)
    band(giant["report"]["delta_x_m"], 1e-20)
    band(giant["report"]["delta_x_linear_m"], 1e-20 / 1e-6)
    band(giant["report"]["improvement"], 1e-6)
    band(giant["report"]["arm_length_m"], 100.0)
    band(giant["report"]["sigma_max"], 1e-1)
    band(giant["report"]["nt_max"], 1e12)
    _report(5, "both built-in regimes within a factor of 5")


def test_criterion_6_algebraic_identities():
    rng = np.random.default_rng(20240803)

    for _ in range(DRAWS):
        n = float(10.0 ** rng.uniform(0.0, 8.0))
        k = float(10.0 ** rng.uniform(0.0, 8.0))
        eta = float(rng.uniform(0.01, 1.0))
        nt = float(rng.uniform(0.0, 100.0))
        assert displacement_resolution(
            n, 0.0, k, eta, 0.0, nt
        ) == displacement_resolution_linear(n, k, eta, nt)

    for _ in range(DRAWS):
        n = float(10.0 ** rng.uniform(0.0, 8.0))
        chi = float(10.0 ** rng.uniform(-8.0, 1.0))
        assert abs(improvement_ratio(n, chi) * (1.0 + 0.5 * chi * n) - 1.0) <= 1e-13

    for _ in range(DRAWS):
        pulse = PulseSpec(
            wavelength=float(10.0 ** rng.uniform(-7.0, -5.0)),
            duration=float(10.0 ** rng.uniform(-13.0, -9.0)),
            cross_section=float(10.0 ** rng.uniform(-10.0, -4.0)),
            power=float(10.0 ** rng.uniform(0.0, 15.0)),
        )
        medium = MediumSpec(
            linear_index=float(rng.uniform(0.5, 3.0)),
            kerr_coefficient=float(10.0 ** rng.uniform(-22.0, -5.0)),
        )
        d = derive(pulse, medium)
        as_photons = medium.linear_index * (1.0 + d.chi * d.photons)
        as_intensity = medium.linear_index + medium.kerr_coefficient * d.intensity
        assert as_photons == pytest.approx(as_intensity, rel=1e-12)

    for _ in range(DRAWS):
        pulse = PulseSpec(
            wavelength=float(10.0 ** rng.uniform(-7.0, -5.0)),
            duration=float(10.0 ** rng.uniform(-13.0, -9.0)),
            cross_section=float(10.0 ** rng.uniform(-10.0, -4.0)),
            power=float(10.0 ** rng.uniform(0.0, 15.0)),
        )
        medium = MediumSpec(1.0, 1e-8)
        chi = derive(pulse, medium).chi
        halved_tau = PulseSpec(
            pulse.wavelength, pulse.duration / 2.0, pulse.cross_section, pulse.power
        )
        halved_area = PulseSpec(
            pulse.wavelength, pulse.duration, pulse.cross_section / 2.0, pulse.power
        )
        assert derive(halved_tau, medium).chi == 2.0 * chi
        assert derive(halved_area, medium).chi == 2.0 * chi
    _report(6, f"four identities over {DRAWS} draws each")


def test_criterion_7_monte_carlo_factors():
    worst = 0.0
    for idx, sigma in enumerate((0.1, 0.3)):
        est, se = monte_carlo_phase(
            lambda p: np.sin(p + 0.6), sigma, 100_000, seed=42 + idx
        )
        z = abs(est - math.exp(-0.5 * sigma**2) * math.sin(0.6)) / se
        assert z <= 3.0, f"sin factor off by {z:.2f} standard errors"
        worst = max(worst, z)
        est, se = monte_carlo_phase(
            lambda p: np.cos(2.0 * p), sigma, 100_000, seed=142 + idx
        )
        z = abs(est - math.exp(-2.0 * sigma**2)) / se
        assert z <= 3.0, f"cos2 factor off by {z:.2f} standard errors"
        worst = max(worst, z)
    _report(7, f"Monte Carlo vs closed-form factors, worst {worst:.2f} se")


def test_criterion_8_determinism(capsys):
    verify_args = ["verify", "--seed", "42", "--max-photons", "16"]
    assert main(verify_args) == 0
    first = capsys.readouterr().out
    assert main(verify_args) == 0
    second = capsys.readouterr().out
    assert first == second and first

    sweep_args = [
        "sweep", "--regime", "giant-eit", "--grid", "sigma=0:0.2:25",
    ]
    assert main(sweep_args) == 0
    first = capsys.readouterr().out
    assert main(sweep_args) == 0
    second = capsys.readouterr().out
    assert first == second and first
    _report(8, "verify and sweep outputs byte-identical across reruns")
