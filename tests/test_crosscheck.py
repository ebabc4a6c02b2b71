"""The factorised mean kernel against the dense oracle, the random mean
settings, and the report.

`kerr_means` writes each arm's <a_j> as exp(i phi_j (1 + chi/2)) times the
polynomial sum_n w_n r_j^n in r_j = exp(i phi_j chi), with level weights
w_n = sqrt(n+1) conj(amps[n]) amps[n+1], and evaluates it by Horner's rule
from the top level down. It must agree with the dense two-mode path,
moments(apply_kerr(product_input(...))).mean_m, and with a 40-digit sum, to
1e-14*(1 + N), whatever the batch size and wherever the block boundaries
fall; and a setting's value must not change by a bit with the batch it
comes in or with the zero padding of its weights to a longer row. `verify`
builds each photon number's weights once per run and evaluates a whole
window of settings in one kernel call. The random mean settings are drawn
MEAN_WINDOW at a time, so draw i depends on the seed and i alone; each
stays in its range, passes the redraw rule and carries its exact mean.
`verify` must print the same check lines as the dense path did, up to the
random mean cases and the last digits of the mean errors.
"""

import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrmich.crosscheck
import kerrmich.fock
from kerrmich.cli import main
from kerrmich.analytic import signal_mean_exact
from kerrmich.crosscheck import (
    MAX_DIM_MARGIN,
    MC_SIGMA_BAND,
    MEAN_WINDOW,
    CheckCase,
    CrossCheckReport,
    _mean_settings,
    run_crosscheck,
)
from kerrmich.fock import (
    DEFAULT_TRUNCATION_BUDGET,
    KERR_BLOCK_ENTRIES,
    apply_kerr,
    coherent_amplitudes,
    fock_dim,
    kerr_means,
    level_weights,
    moments,
    product_input,
)

GOLDEN = Path(__file__).parent / "data" / "golden"


def one_mode(n, dim_margin=0):
    """One arm's amplitudes at n photons in all, as `verify` builds them."""
    beta = math.sqrt(float(n)) / math.sqrt(2.0)
    amps, _ = coherent_amplitudes(
        beta, fock_dim(n / 2.0) + dim_margin, budget=DEFAULT_TRUNCATION_BUDGET
    )
    return amps


def means(amps, phi1, phi2, chi, offset):
    """`kerr_means` with every setting on the one row of amps's weights."""
    rows = np.zeros(len(offset), dtype=int)
    return kerr_means(level_weights(amps)[None], rows, phi1, phi2, chi, offset)


def assert_matches_dense(n, dim_margin, phi1, phi2, chi, offset):
    amps = one_mode(n, dim_margin)
    got = means(amps, phi1, phi2, chi, offset)
    assert got.shape == (len(phi1),)
    state = product_input(math.sqrt(float(n)), dim=len(amps))
    assert np.array_equal(state.coeffs, np.outer(amps, amps))
    want = [
        moments(apply_kerr(state, p1, p2, c), o).mean_m
        for p1, p2, c, o in zip(phi1, phi2, chi, offset)
    ]
    assert np.all(np.abs(got - want) <= 1e-14 * (1 + n))


@st.composite
def block_and_batch(draw, dim):
    """Entries per block, and a batch size of 1 or at or around one or two
    block boundaries (at most 100); small blocks put boundaries inside
    small batches. A setting takes dim - 1 weights and four more entries."""
    entries = draw(st.sampled_from([1, 64, 300, 2**12, KERR_BLOCK_ENTRIES]))
    step = max(1, entries // (dim + 3))
    sizes = [k for k in (1, 2, step - 1, step, step + 1, 2 * step + 1) if 1 <= k <= 100]
    return entries, draw(st.sampled_from(sizes))


def settings_for(draw, k):
    def floats(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))

    return floats(0.0, 2.5), floats(0.0, 2.5), floats(0.0, 0.12), floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 30), dim_margin=st.integers(0, 12))
def test_product_input_matches_per_case(data, n, dim_margin):
    entries, k = data.draw(block_and_batch(fock_dim(n / 2.0) + dim_margin))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kerrmich.fock, "KERR_BLOCK_ENTRIES", entries)
        assert_matches_dense(n, dim_margin, *settings_for(data.draw, k))


def mp_amplitudes(n, dim):
    beta = mpmath.sqrt(n) / mpmath.sqrt(2)
    return [
        mpmath.exp(-beta**2 / 2) * beta**j / mpmath.sqrt(mpmath.factorial(j))
        for j in range(dim)
    ]


def mp_mean(n, chi, phi1, phi2, offset, dim):
    """<M> of the truncated product input at 40 digits, from the dense
    two-mode sum of conj(c[j+1, m-1]) sqrt((j+1) m) c[j, m]."""
    with mpmath.workdps(40):
        amps = mp_amplitudes(n, dim)

        def evolved(phi):
            phi, c = mpmath.mpf(phi), mpmath.mpf(chi)
            return [a * mpmath.expj(phi * (j + c * j * j / 2))
                    for j, a in enumerate(amps)]

        u, v = evolved(phi1), evolved(phi2)
        cross = mpmath.fsum(
            mpmath.conj(u[j + 1] * v[m - 1]) * mpmath.sqrt((j + 1) * m) * u[j] * v[m]
            for j in range(dim - 1)
            for m in range(1, dim)
        )
        return float(2 * mpmath.im(mpmath.expj(mpmath.mpf(offset)) * cross))


def mp_one_mode_mean(n, chi, phi1, phi2, offset, dim):
    """The same at 40 digits from the one-mode sums <a_j> of the evolved
    amplitudes, sum_j conj(u[j]) sqrt(j+1) u[j+1]: O(d), not O(d^2)."""
    with mpmath.workdps(40):
        amps = mp_amplitudes(n, dim)

        def mean_a(phi):
            phi, c = mpmath.mpf(phi), mpmath.mpf(chi)
            u = [a * mpmath.expj(phi * (j + c * j * j / 2)) for j, a in enumerate(amps)]
            return mpmath.fsum(
                mpmath.conj(u[j]) * mpmath.sqrt(j + 1) * u[j + 1] for j in range(dim - 1)
            )

        cross = mpmath.conj(mean_a(phi1)) * mean_a(phi2)
        return float(2 * mpmath.im(mpmath.expj(mpmath.mpf(offset)) * cross))


@pytest.mark.parametrize("n", [1, 9, 25, 30, 100])
def test_kernel_matches_40_digit_sum(n):
    # (chi, phi1, phi2, offset): the largest Kerr phases verify draws, one
    # arm left unshifted, and a default setting; the dense 40-digit sum up
    # to verify's 30 photons, the one-mode sum beyond
    cases = [(0.12, 2.5, 2.5, 1.0), (0.12, 2.5, 0.0, -1.0), (0.1, 1.1, 0.9, -0.4)]
    amps = one_mode(n)
    chi, phi1, phi2, offset = zip(*cases)
    got = means(amps, phi1, phi2, chi, offset)
    reference = mp_mean if n <= 30 else mp_one_mode_mean
    for value, (c, p1, p2, o) in zip(got, cases):
        assert abs(value - reference(n, c, p1, p2, o, len(amps))) <= 1e-14 * (1 + n)


@pytest.mark.parametrize("n", [1, 16, 30])
def test_kernel_value_does_not_depend_on_its_batch(n):
    # each row is reduced on its own, so a setting gets the same bits alone,
    # inside a batch of 2048, and wherever the KERR_BLOCK_ENTRIES blocks
    # split that batch (shifting it by one moves every boundary); Horner
    # carries an exact 0 through zero top weights, so its bits also stay
    # the same when its row is zero-padded to n = 30's length in a window
    # that mixes it with n = 30 settings (a pairwise np.sum over the padded
    # row regroups the terms and moves the last bits for n = 11 to 28)
    amps = one_mode(n)
    rng = np.random.default_rng(n)
    columns = rng.uniform((0.0, 0.0, 0.0, -1.0), (2.5, 2.5, 0.12, 1.0), size=(2048, 4)).T
    assert KERR_BLOCK_ENTRIES // (len(amps) + 3) < 2048
    batch = means(amps, *columns)
    alone = [means(amps, *columns[:, i : i + 1])[0] for i in range(2048)]
    assert np.array_equal(batch, alone)
    assert np.array_equal(means(amps, *columns[:, 1:]), batch[1:])
    w, longest = level_weights(amps), level_weights(one_mode(30))
    table = np.zeros((2, len(longest)), dtype=complex)
    table[0, : len(w)], table[1] = w, longest
    rows = rng.integers(0, 2, size=2048)
    padded = kerr_means(table, rows, *columns)
    assert np.array_equal(padded[rows == 0], batch[rows == 0])
    assert np.array_equal(padded[rows == 1], means(one_mode(30), *columns)[rows == 1])


def test_empty_batch():
    assert means(one_mode(4), [], [], [], []).shape == (0,)


def test_one_level_basis_has_no_mean():
    # d = 1 leaves no ladder term, as in the dense contraction
    amps, _ = coherent_amplitudes(0.0, 1)
    got = means(amps, [0.3, 1.0], [0.4, 2.0], [0.1, 0.0], [0.0, 0.5])
    assert got.tolist() == [0.0, 0.0]


def test_mean_section_builds_each_photon_numbers_amplitudes_once(monkeypatch):
    # 75 fixed + 4200 random cases over N = 0..30 take three windows, and
    # every window holds most photon numbers; each is built once per run
    calls = []

    def spy(beta, dim, budget=None):
        calls.append(beta)
        return coherent_amplitudes(beta, dim, budget)

    monkeypatch.setattr(kerrmich.crosscheck, "coherent_amplitudes", spy)
    report = run_crosscheck(max_photons=30, seed=7, extra_cases=4200)
    assert sum(c.section == "mean" for c in report.cases) == 75 + 4200
    assert len(calls) == len(set(calls)) <= 31


@pytest.mark.parametrize("dim_margin", [0, 7])
def test_check_lines_match_golden(capsys, dim_margin):
    # captured from the per-case oracle; the [mean] error digits, the random
    # [mean] labels and the summary line were recaptured from the kernel and
    # the batched draws, every other byte is unchanged
    argv = ["verify", "--max-photons", "30", "--cases", "300", "--seed", "7",
            "--dim-margin", str(dim_margin)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    want = (GOLDEN / f"verify_seed7_margin{dim_margin}.txt").read_text()
    assert out == want
    assert len(out.splitlines()) == 202 + 300 + 1


def test_mean_lines_stable_across_a_window_boundary():
    # 75 fixed + 2100 random mean cases span two windows of 2048; the
    # golden file's 375 mean cases fit in one
    lines = list(run_crosscheck(max_photons=30, seed=7, extra_cases=2100).lines())
    mean = [line for line in lines if " [mean] " in line]
    assert len(mean) == 75 + 2100
    golden = (GOLDEN / "verify_seed7_margin0.txt").read_text().splitlines()
    assert mean[:375] == golden[:375]


def random_draws(max_photons, count, seed=7):
    stream = _mean_settings(max_photons, count, np.random.default_rng(seed))
    return [item for item in stream if item[1].startswith("random[")]


@pytest.mark.parametrize("count", [2040, 2100])
def test_random_draws_are_a_prefix_of_a_longer_run(count):
    # 4100 draws take at least three batches of MEAN_WINDOW; draw i depends
    # on the seed and i alone, not on how many draws follow it
    assert 2 * MEAN_WINDOW < 4100
    draws = random_draws(30, count)
    assert len(draws) == count
    assert draws == random_draws(30, 4100)[:count]


@pytest.mark.parametrize("max_photons", [0, 1, 30])
def test_random_draws_are_in_range_and_carry_their_exact_mean(max_photons):
    draws = random_draws(max_photons, 4100)
    assert len(draws) == 4100
    for i, ((n, chi, phi1, phi2, offset), label, want) in enumerate(draws):
        assert 0 <= n <= max_photons
        assert 0.0 <= chi < 0.12
        assert 0.0 <= phi1 < 2.5 and 0.0 <= phi2 < 2.5
        assert -1.0 <= offset < 1.0
        assert label == f"random[{i}] N={n} chi={chi:.4f}"
        assert want == signal_mean_exact(float(n), chi, phi1, phi2, offset)
        assert n == 0 or abs(want) >= 1e-3


@pytest.mark.parametrize("dim_margin", [MAX_DIM_MARGIN + 1, 10**9])
def test_dim_margin_above_the_cap_rejected_before_any_basis_is_built(
    monkeypatch, dim_margin
):
    def refuse(*args, **kwargs):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(kerrmich.crosscheck, "coherent_amplitudes", refuse)
    monkeypatch.setattr(kerrmich.fock, "coherent_amplitudes", refuse)
    with pytest.raises(ValueError, match=f"dim_margin {dim_margin} exceeds the cap"):
        run_crosscheck(max_photons=1, dim_margin=dim_margin)


def test_dim_margin_at_the_cap_runs():
    assert run_crosscheck(max_photons=1, dim_margin=MAX_DIM_MARGIN).ok


def test_negative_extra_cases_rejected():
    with pytest.raises(ValueError, match="extra_cases must be >= 0"):
        run_crosscheck(max_photons=0, extra_cases=-1)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_crosscheck(max_photons=0, seed=-1)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
def test_tolerance_must_be_finite_and_non_negative(tolerance):
    with pytest.raises(ValueError, match="tolerance must be >= 0 and finite"):
        run_crosscheck(max_photons=0, tolerance=tolerance)


def test_summary_reports_worst_error_per_section():
    cases = (
        CheckCase("mean", "a", 2e-15, 1e-9),
        CheckCase("mean", "b", 5e-16, 1e-9),
        CheckCase("identity", "c", 3e-16, 1e-9),
        CheckCase("gaussian-mc", "d", 3.5, MC_SIGMA_BAND),
        CheckCase("noise", "e", 0.0, 1e-9),
    )
    lines = list(CrossCheckReport(cases=cases, tolerance=1e-9, seed=1).lines())
    assert len(lines) == len(cases) + 1
    assert lines[3] == "FAIL [gaussian-mc] d: error 3.500e+00 (limit 3.000e+00)"
    assert lines[-1] == (
        "FAIL 5 checks, 1 failed, worst error: mean 2.000e-15 rel, "
        "identity 3.000e-16 abs, gaussian-mc 3.500e+00 z (limit 3), "
        "noise 0.000e+00 rel"
    )


def test_summary_line_of_a_cli_run(capsys):
    assert main(["verify", "--max-photons", "9", "--cases", "5"]) == 0
    lines = capsys.readouterr()[0].splitlines()
    worst = {}
    for line in lines[:-1]:
        section, error = re.match(r"PASS \[(\S+)\] .*: error (\S+) ", line).groups()
        worst[section] = max(worst.get(section, 0.0), float(error))
    assert lines[-1] == (
        f"PASS {len(lines) - 1} checks, 0 failed, worst error: "
        f"mean {worst['mean']:.3e} rel, identity {worst['identity']:.3e} abs, "
        f"variance {worst['variance']:.3e} rel, gaussian {worst['gaussian']:.3e} rel, "
        f"noise {worst['noise']:.3e} rel, gaussian-mc {worst['gaussian-mc']:.3e} z (limit 3)"
    )


def test_output_file_gets_the_same_lines_and_a_sidecar(capsys, tmp_path):
    argv = ["verify", "--max-photons", "4", "--cases", "3"]
    assert main(argv) == 0
    printed = capsys.readouterr()[0]
    target = tmp_path / "verify.txt"
    assert main([*argv, "--output", str(target)]) == 0
    assert capsys.readouterr()[0] == ""
    assert target.read_text() == printed
    assert (tmp_path / "verify.txt.manifest.json").is_file()


def test_manifest_counts_checks_and_times_each_section(capsys, tmp_path):
    # this seed fails a Monte Carlo check on correct code, so "failed" is seen
    target = tmp_path / "verify.txt"
    argv = ["verify", "--max-photons", "4", "--cases", "3", "--seed", "1828106889"]
    assert main([*argv, "--output", str(target)]) == 2
    assert capsys.readouterr()[0] == ""
    lines = target.read_text().splitlines()
    manifest = json.loads((tmp_path / "verify.txt.manifest.json").read_text())
    failed = sum(line.startswith("FAIL [") for line in lines)
    assert manifest["checks"] == len(lines) - 1
    assert manifest["failed"] == failed > 0
    assert lines[-1].startswith(f"FAIL {manifest['checks']} checks, {failed} failed,")
    stages = manifest["stages"]
    assert list(stages) == ["mean_s", "identity_s", "variance_s", "gaussian_s", "noise_s"]
    assert all(isinstance(t, float) and t >= 0.0 for t in stages.values())
