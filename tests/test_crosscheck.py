"""The factorised mean kernel against the dense oracle, and the report.

`kerr_means` contracts one sum per arm over the one-mode amplitudes of the
product input. It must agree with the dense two-mode path,
moments(apply_kerr(product_input(...))).mean_m, and with a 40-digit
evaluation of the truncated two-mode sum, to 1e-14*(1 + N), whatever the
batch size and wherever the block boundaries fall. `verify` must print
the same check lines as the dense path did, up to the last digits of the
mean errors.
"""

import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrmich.fock
from kerrmich.cli import main
from kerrmich.crosscheck import MC_SIGMA_BAND, CheckCase, CrossCheckReport, run_crosscheck
from kerrmich.fock import (
    DEFAULT_TRUNCATION_BUDGET,
    KERR_BLOCK_ENTRIES,
    apply_kerr,
    coherent_amplitudes,
    fock_dim,
    kerr_means,
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


def assert_matches_dense(n, dim_margin, phi1, phi2, chi, offset):
    amps = one_mode(n, dim_margin)
    got = kerr_means(amps, phi1, phi2, chi, offset)
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
    small batches."""
    entries = draw(st.sampled_from([1, 64, 300, 2**12, KERR_BLOCK_ENTRIES]))
    step = max(1, entries // (2 * dim))
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


def mp_mean(n, chi, phi1, phi2, offset, dim):
    """<M> of the truncated product input at 40 digits, from the dense
    two-mode sum of conj(c[j+1, m-1]) sqrt((j+1) m) c[j, m]."""
    with mpmath.workdps(40):
        beta = mpmath.sqrt(n) / mpmath.sqrt(2)
        amps = [
            mpmath.exp(-beta**2 / 2) * beta**j / mpmath.sqrt(mpmath.factorial(j))
            for j in range(dim)
        ]

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


@pytest.mark.parametrize("n", [1, 9, 25, 30])
def test_kernel_matches_40_digit_sum(n):
    # (chi, phi1, phi2, offset): the largest Kerr phases verify draws, one
    # arm left unshifted, and a default setting
    cases = [(0.12, 2.5, 2.5, 1.0), (0.12, 2.5, 0.0, -1.0), (0.1, 1.1, 0.9, -0.4)]
    amps = one_mode(n)
    chi, phi1, phi2, offset = zip(*cases)
    got = kerr_means(amps, phi1, phi2, chi, offset)
    for value, (c, p1, p2, o) in zip(got, cases):
        assert abs(value - mp_mean(n, c, p1, p2, o, len(amps))) <= 1e-14 * (1 + n)


def test_empty_batch():
    assert kerr_means(one_mode(4), [], [], [], []).shape == (0,)


def test_one_level_basis_has_no_mean():
    # d = 1 leaves no ladder term, as in the dense contraction
    amps, _ = coherent_amplitudes(0.0, 1)
    got = kerr_means(amps, [0.3, 1.0], [0.4, 2.0], [0.1, 0.0], [0.0, 0.5])
    assert got.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("dim_margin", [0, 7])
def test_check_lines_match_golden(capsys, dim_margin):
    # captured from the per-case oracle; the [mean] error digits and the
    # summary line were recaptured from the factorised kernel, every other
    # byte is unchanged
    argv = ["verify", "--max-photons", "30", "--cases", "300", "--seed", "7",
            "--dim-margin", str(dim_margin)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    want = (GOLDEN / f"verify_seed7_margin{dim_margin}.txt").read_text()
    assert out == want
    assert len(out.splitlines()) == 202 + 300 + 1


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
