import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrmich.core import (
    C_LIGHT,
    HBAR,
    MediumSpec,
    NoiseSpec,
    ParameterError,
    PulseSpec,
    derive,
    PRESETS,
    get_preset,
)
from kerrmich.sweep import (
    CSV_COLUMNS,
    MAX_ROWS,
    GridSpec,
    ParameterSet,
    evaluate,
    regime_report,
    run_sweep,
    sweep_blocks,
)


def order_band(value, decade, factor=5.0):
    return decade / factor <= value <= decade * factor


GIANT_BASE = get_preset("giant-eit")
NATURAL_BASE = get_preset("natural")


class TestGridSpec:
    def test_endpoints_echoed_exactly(self):
        lin = GridSpec("tau", 1e-13, 1e-10, 7)
        assert lin.values()[0] == 1e-13
        assert lin.values()[-1] == 1e-10
        log = GridSpec("tau", 1e-13, 1e-10, 50, "log")
        assert log.values()[0] == 1e-13
        assert log.values()[-1] == 1e-10

    def test_log_spacing_has_constant_ratio(self):
        vals = GridSpec("power", 1.0, 1e6, 7, "log").values()
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        for r in ratios:
            assert r == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(parameter="frequency", lo=1.0, hi=2.0, points=3),
            dict(parameter="tau", lo=2.0, hi=1.0, points=3),
            dict(parameter="tau", lo=1.0, hi=2.0, points=1),
            dict(parameter="tau", lo=0.0, hi=2.0, points=3, spacing="log"),
            dict(parameter="tau", lo=1.0, hi=2.0, points=3, spacing="cubic"),
        ],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ParameterError):
            GridSpec(**kwargs)


class TestRunSweep:
    def test_no_grid_is_single_row(self):
        (row,) = run_sweep(GIANT_BASE)
        assert order_band(row.improvement, 1e-6)
        assert order_band(row.delta_x_m, 1e-20)

    def test_row_order_is_lexicographic(self):
        rows = run_sweep(
            GIANT_BASE,
            [GridSpec("eta", 0.5, 1.0, 2), GridSpec("nt", 0.0, 1.0, 2)],
        )
        seen = [(r.eta, r.nt) for r in rows]
        assert seen == [(0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_grid_inputs_echoed_without_drift(self):
        rows = list(run_sweep(GIANT_BASE, [GridSpec("tau", 1e-13, 1e-10, 4, "log")]))
        assert rows[0].tau_s == 1e-13
        assert rows[-1].tau_s == 1e-10

    def test_determinism(self):
        grids = [GridSpec("sigma", 0.0, 0.1, 5), GridSpec("eta", 0.2, 1.0, 3)]
        first = run_sweep(GIANT_BASE, grids)
        second = run_sweep(GIANT_BASE, grids)
        assert list(first) == list(second)

    def test_rows_are_idempotent(self):
        rows = run_sweep(
            GIANT_BASE, [GridSpec("power", 1e5, 1e7, 3, "log")]
        )
        for row in rows:
            again = evaluate(
                ParameterSet(
                    wavelength=row.wavelength_m,
                    tau=row.tau_s,
                    area=row.area_m2,
                    power=row.power_w,
                    n2=row.n2_m2_per_w,
                    n0=GIANT_BASE.n0,
                    eta=row.eta,
                    sigma=row.sigma,
                    nt=row.nt,
                    arm_length=row.arm_length_m,
                    signal_x=row.signal_x_m,
                )
            )
            assert again == row

    def test_too_many_axes(self):
        grids = [
            GridSpec("tau", 1e-13, 1e-10, 2),
            GridSpec("eta", 0.5, 1.0, 2),
            GridSpec("nt", 0.0, 1.0, 2),
            GridSpec("sigma", 0.0, 0.1, 2),
        ]
        with pytest.raises(ParameterError, match="at most 3"):
            run_sweep(GIANT_BASE, grids)

    def test_duplicate_axis(self):
        grids = [GridSpec("tau", 1e-13, 1e-10, 2), GridSpec("tau", 1e-12, 1e-11, 2)]
        with pytest.raises(ParameterError, match="duplicate"):
            run_sweep(GIANT_BASE, grids)

    def test_row_cap(self):
        with pytest.raises(ParameterError, match="cap"):
            run_sweep(GIANT_BASE, [GridSpec("eta", 0.1, 1.0, 11)], max_rows=10)

    @pytest.mark.parametrize("max_rows", [0, -5])
    def test_row_cap_below_one_rejected(self, max_rows):
        for grids in ([], [GridSpec("eta", 0.1, 1.0, 11)]):
            with pytest.raises(ParameterError, match=f"^max_rows must be >= 1, got {max_rows}$"):
                run_sweep(GIANT_BASE, grids, max_rows=max_rows)

    def test_row_cap_checked_before_axes_are_built(self, monkeypatch):
        # a 1e12-point axis would need terabytes: the cap must reject it
        # from the point counts alone; an axis is built whole, so a 1e17-point
        # one is rejected the same way under a row cap raised above it
        def values(self):
            raise AssertionError("grid axis built before the row cap check")

        monkeypatch.setattr(GridSpec, "values", values)
        for points, max_rows, message in (
            (10**12, MAX_ROWS, r"sweep would emit 1000000000000 rows, cap is"),
            (10**17, 10**20, r"a grid has 100000000000000000 points, cap is 1000000 per axis"),
        ):
            grid = GridSpec("tau", 1e-12, 1e-10, points)
            blocks = sweep_blocks(GIANT_BASE, [grid], max_rows=max_rows)
            with pytest.raises(ParameterError, match=message):
                next(blocks)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        for call in (evaluate, run_sweep):
            with pytest.raises(ParameterError, match="threshold must be finite and > 0"):
                call(GIANT_BASE, threshold=threshold)

    def test_chi_halves_when_tau_doubles_at_fixed_photons(self):
        # hold the photon number by co-varying power with tau
        base = GIANT_BASE
        photons = evaluate(base).n_photons
        omega = 2.0 * math.pi * C_LIGHT / base.wavelength
        taus = [base.tau * 2.0**j for j in range(5)]
        rows = [
            evaluate(
                dataclasses.replace(
                    base, tau=tau, power=photons * HBAR * omega / tau
                )
            )
            for tau in taus
        ]
        for a, b in zip(rows, rows[1:]):
            assert b.n_photons == pytest.approx(a.n_photons, rel=1e-12)
            assert b.chi == pytest.approx(0.5 * a.chi, rel=1e-12)
            # smaller chi means the nonlinear advantage erodes; deep in the
            # chi*N >> 1 asymptote the ratio tracks tau linearly
            assert b.improvement > a.improvement
            assert b.improvement == pytest.approx(2.0 * a.improvement, rel=1e-4)

    def test_pulse_duration_at_fixed_energy(self):
        # The abstract's "pulse duration as a new variable": at a fixed
        # pulse energy E = P tau the photon number is fixed and chi goes as
        # 1/tau, so delta_x = 1/(k sqrt(eta N) (1 + chi N / 2)) and, deep
        # in chi N >> 1, delta_x / tau is constant to within 2 / (chi N).
        # The window x_max / delta_x, with x_max = 1/(chi N k) as
        # `regime_report` defines it, is sqrt(eta N) (1/(chi N) + 1/2).
        for preset in (GIANT_BASE, NATURAL_BASE):
            energy = preset.power * preset.tau
            base = dataclasses.replace(preset, sigma=0.0, nt=0.0)
            rows = [
                evaluate(dataclasses.replace(base, tau=tau, power=energy / tau))
                for tau in (preset.tau * np.geomspace(1e-2, 1e2, 9)).tolist()
            ]
            for row in rows:
                gain = 1.0 + row.chi * row.n_photons / 2.0
                root = math.sqrt(row.eta * row.n_photons)
                product = row.delta_x_m * row.k_per_m * root * gain
                assert abs(product - 1.0) <= 4 * math.ulp(1.0), row.tau_s
                x_max = 1.0 / (row.chi * row.n_photons * row.k_per_m)
                window = root * (1.0 / (row.chi * row.n_photons) + 0.5)
                assert abs(x_max / row.delta_x_m / window - 1.0) <= 4 * math.ulp(1.0), row.tau_s
            assert rows[0].n_photons == pytest.approx(rows[-1].n_photons, rel=1e-12)
            ratios = [row.delta_x_m / row.tau_s for row in rows]
            smallest_gain = min(row.chi * row.n_photons for row in rows)
            assert max(ratios) / min(ratios) - 1.0 <= 2.0 / smallest_gain

    def test_linear_resolution_scales_as_inverse_sqrt_photons(self):
        rows = run_sweep(GIANT_BASE, [GridSpec("power", 1e5, 1e7, 5, "log")])
        products = [r.delta_x_linear_m * math.sqrt(r.n_photons) for r in rows]
        for p in products[1:]:
            assert p == pytest.approx(products[0], rel=1e-9)

    def test_dominance_flag_flips_at_the_margin_crossing(self):
        # margin (eta N sigma^2)/(chi N)^2 crosses the threshold at
        # sigma = sqrt(threshold) * chi * sqrt(N / eta)
        derived = derive(get_preset("giant-eit").pulse, get_preset("giant-eit").medium)
        threshold = 1e-2
        sigma_star = math.sqrt(threshold) * derived.chi * math.sqrt(derived.photons)
        grid = GridSpec("sigma", 0.0, 0.02, 41)
        rows = list(run_sweep(GIANT_BASE, [grid], threshold=threshold))
        flips = [
            i
            for i, (a, b) in enumerate(zip(rows, rows[1:]))
            if a.nonlinearity_dominant and not b.nonlinearity_dominant
        ]
        assert len(flips) == 1
        step = grid.values()[1] - grid.values()[0]
        assert rows[flips[0]].sigma <= sigma_star <= rows[flips[0] + 1].sigma + step


class TestRegimeReport:
    def test_giant_regime(self):
        rep = regime_report("giant-eit")["report"]
        assert order_band(rep["arm_length_m"], 100.0)
        assert order_band(rep["delta_x_m"], 1e-20)
        assert order_band(rep["x_max_m"], 1e-13)
        assert order_band(rep["sigma_max"], 1e-1)
        assert order_band(rep["nt_max"], 1e12)
        assert rep["notes"] == []
        assert evaluate(get_preset("giant-eit")).on_operating_point

    def test_natural_regime(self):
        rep = regime_report("natural")["report"]
        assert order_band(rep["arm_length_m"], 1e12)
        assert order_band(rep["sigma_max"], 1e-8)
        assert order_band(rep["nt_max"], 1e6)
        assert order_band(rep["x_max_m"], 1e-10)
        assert len(rep["notes"]) == 1
        assert "compensating" in rep["notes"][0]

    def test_unknown_regime(self):
        with pytest.raises(ParameterError, match="unknown regime"):
            regime_report("mystery")

    def test_window_is_wide_open_for_giant(self):
        rep = regime_report("giant-eit")["report"]
        assert rep["x_max_m"] / rep["delta_x_m"] > 1e5


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


class TestGainIsTheIndexChange:
    # chi N = n2 I / n0 with I = P/A, so at sigma = nt = 0 the resolution
    # gain over the linear scheme is 1 + dn/(2 n0), with dn = n2 I the
    # Kerr index change
    TOLERANCE = 8 * math.ulp(1.0)

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_regimes_entry(self, name):
        entry = regime_report(name)
        inputs = entry["inputs"]
        assert inputs["sigma"] == inputs["nt"] == 0.0
        dn = inputs["n2_m2_per_w"] * inputs["power_w"] / inputs["area_m2"]
        expected = 1.0 / (1.0 + dn / (2.0 * inputs["n0"]))
        assert abs(entry["report"]["improvement"] / expected - 1.0) <= self.TOLERANCE

    @settings(max_examples=300, deadline=None)
    @given(
        wavelength=_log_uniform(1e-7, 1e-5),
        tau=_log_uniform(1e-15, 1e-6),
        area=_log_uniform(1e-12, 1e-2),
        power=_log_uniform(1e-3, 1e16),
        n2=_log_uniform(1e-26, 1e-4),
        n0=st.floats(1.0, 4.0),
        eta=st.floats(0.01, 1.0),
    )
    def test_random_designs(self, wavelength, tau, area, power, n2, n0, eta):
        row = evaluate(ParameterSet(wavelength, tau, area, power, n2, n0=n0, eta=eta))
        expected = 1.0 / (1.0 + n2 * (power / area) / (2.0 * n0))
        assert abs(row.improvement / expected - 1.0) <= self.TOLERANCE


class TestParameterSet:
    def test_specs_round_trip_fields(self):
        other = ParameterSet(800e-9, 2e-12, 3e-9, 5e12, 2e-20, n0=1.4, eta=0.9, sigma=1e-3, nt=0.5)
        for base in (get_preset("giant-eit"), other):
            assert PulseSpec(base.wavelength, base.tau, base.area, base.power) == base.pulse
            assert MediumSpec(base.n0, base.n2) == base.medium
            assert NoiseSpec(base.eta, base.sigma, base.nt) == base.noise

    def test_arm_length_defaults_to_operating_point(self):
        row = evaluate(GIANT_BASE)
        assert row.arm_length_m == pytest.approx(125.85, rel=1e-3)
        assert row.margin_operating_point < 1e-9

    def test_arm_length_fallback_for_linear_medium(self):
        base = dataclasses.replace(GIANT_BASE, n2=0.0)
        row = evaluate(base)
        assert row.arm_length_m == 1.0
        assert row.improvement == 1.0


def test_csv_columns_fixed():
    assert CSV_COLUMNS == (
        "tau_s",
        "area_m2",
        "power_w",
        "n2_m2_per_w",
        "wavelength_m",
        "eta",
        "sigma",
        "nt",
        "n_photons",
        "chi",
        "k_per_m",
        "delta_x_m",
        "delta_x_linear_m",
        "improvement",
        "margin_small_signal",
        "margin_thermal",
        "margin_dephasing",
        "margin_operating_point",
        "margin_nl_dominant",
    )


def test_csv_values_round_trip():
    row = evaluate(GIANT_BASE)
    texts = [repr(getattr(row, col)) for col in CSV_COLUMNS]
    assert len(texts) == len(CSV_COLUMNS)
    for col, text in zip(CSV_COLUMNS, texts):
        assert float(text) == getattr(row, col)
