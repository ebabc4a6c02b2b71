"""The batched mean kernel against the per-case oracle, and the report.

`kerr_means` must equal moments(apply_kerr(...)).mean_m bit for bit for
every setting, whatever the batch size and wherever the block boundaries
fall; `verify` must print the same check lines as before the batching.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrmich.fock
from kerrmich.cli import main
from kerrmich.crosscheck import MC_SIGMA_BAND, CheckCase, CrossCheckReport
from kerrmich.fock import (
    KERR_BLOCK_ENTRIES,
    TwoModeState,
    apply_kerr,
    fock_dim,
    kerr_means,
    moments,
    product_input,
)

GOLDEN = Path(__file__).parent / "data" / "golden"


def per_case(state, phi1, phi2, chi, offset):
    return [
        moments(apply_kerr(state, p1, p2, c), o).mean_m
        for p1, p2, c, o in zip(phi1, phi2, chi, offset)
    ]


def assert_bitwise(state, phi1, phi2, chi, offset):
    got = kerr_means(state, phi1, phi2, chi, offset)
    assert got.shape == (len(phi1),)
    want = per_case(state, phi1, phi2, chi, offset)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


@st.composite
def batch_size(draw, dims, block_entries=KERR_BLOCK_ENTRIES):
    """1, or a size at or around one or two block boundaries (at most 100)."""
    step = max(1, block_entries // (dims[0] * dims[1]))
    sizes = [k for k in (1, 2, step - 1, step, step + 1, 2 * step + 1) if 1 <= k <= 100]
    return draw(st.sampled_from(sizes))


def settings_for(draw, k):
    def floats(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))

    return floats(0.0, 2.5), floats(0.0, 2.5), floats(0.0, 0.12), floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 30), dim_margin=st.integers(0, 12))
def test_product_input_matches_per_case(data, n, dim_margin):
    state = product_input(math.sqrt(float(n)), dim=fock_dim(n / 2.0) + dim_margin)
    k = data.draw(batch_size(state.dims))
    assert_bitwise(state, *settings_for(data.draw, k))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    d1=st.integers(1, 12),
    d2=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_general_input_matches_per_case(data, d1, d2, seed):
    # an entangled, unnormalised, non-square coefficient matrix; d < 2 has
    # no <a1^dag a2> term at all
    rng = np.random.default_rng(seed)
    state = TwoModeState(rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2)))
    # small blocks put boundaries inside small batches
    entries = data.draw(st.sampled_from([1, 7, 64, 300, KERR_BLOCK_ENTRIES]))
    k = data.draw(batch_size(state.dims, entries))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kerrmich.fock, "KERR_BLOCK_ENTRIES", entries)
        assert_bitwise(state, *settings_for(data.draw, k))


def test_empty_batch():
    state = product_input(2.0)
    assert kerr_means(state, [], [], [], []).shape == (0,)


@pytest.mark.parametrize("dim_margin", [0, 7])
def test_check_lines_match_golden(capsys, dim_margin):
    # captured from the per-case oracle, before the batched kernel
    argv = ["verify", "--max-photons", "30", "--cases", "300", "--seed", "7",
            "--dim-margin", str(dim_margin)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    want = (GOLDEN / f"verify_seed7_margin{dim_margin}.txt").read_text()
    assert out.splitlines()[:-1] == want.splitlines()[:-1]
    assert len(out.splitlines()) == 202 + 300 + 1


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
