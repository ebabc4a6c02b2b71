"""The factorised mean kernel against the dense oracle, the random mean
settings, and the report.

`kerr_means` writes each arm's <a_j> as exp(i phi_j (1 + chi/2)) times the
polynomial sum_n w_n r_j^n in r_j = exp(i phi_j chi), with level weights
w_n = sqrt(n+1) conj(amps[n]) amps[n+1], and evaluates it by Horner's rule
from the top level down, in one pass over a whole batch. It must agree
with the dense two-mode path, moments(apply_kerr(product_input(...))).mean_m,
and with a 40-digit sum, to 1e-14*(1 + N) up to 100 photons whatever the
batch size, and at 1000 photons near the revival to a bound from Horner's
rounding, of order d*eps*(1 + N); and a setting's value must not change by
a bit with the batch it comes in or with the zero padding of its weights
to a longer row. `verify` builds one table of weights per run, row n for n
photons zero-padded to the longest row, and evaluates a whole window of
settings in one kernel call. `_mean_settings` yields the fixed
grid, then one window of columns per draw of MEAN_WINDOW random settings,
so draw i depends on the seed and i alone; each stays in its range, passes
the keep rule and carries its exact mean from its window's one
`signal_mean_exact` call. On arrays that function must equal the call on
each entry's floats bit for bit, and on floats it must keep the bits of
plain Python float arithmetic. `verify` must print the same check lines
as the dense path did, up to the random mean cases and the last digits of
the mean errors. A relative error with a NaN on either side is NaN, and a
section's worst error is NaN if any of its errors is, whatever the order.
The report holds its checks as blocks of columns, one per mean window and
one per other section; its lines, its `cases` view of one `CheckCase` (a
NamedTuple) per check, its counts and its worst errors must agree with one
another and with the report as it was printed from one `CheckCase` at a
time, and `CheckBlock.passed` is the one verdict rule. Each variance state
is built and evolved once and read at every offset from one contraction,
and `--cases` is capped at MAX_CASES.
"""

import collections
import functools
import itertools
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kerrmich.crosscheck
import kerrmich.fock
from kerrmich.cli import main
from kerrmich.analytic import signal_mean_exact
from kerrmich.crosscheck import (
    MAX_CASES,
    MAX_DIM_MARGIN,
    MC_SIGMA_BAND,
    MEAN_WINDOW,
    SECTION_UNITS,
    CheckBlock,
    CheckCase,
    CrossCheckReport,
    _mean_settings,
    _worse,
    relative_error,
    run_crosscheck,
)
from kerrmich.fock import (
    DEFAULT_TRUNCATION_BUDGET,
    apply_kerr,
    coherent_amplitudes,
    coherent_identity_residual,
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


def settings_for(draw, k):
    def floats(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))

    return floats(0.0, 2.5), floats(0.0, 2.5), floats(0.0, 0.12), floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(), n=st.integers(0, 30), dim_margin=st.integers(0, 12), k=st.integers(1, 100)
)
def test_product_input_matches_per_case(data, n, dim_margin, k):
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


# (chi, phi1, phi2, offset): the largest Kerr phases verify draws, one arm
# left unshifted, and a default setting
VERIFY_SETTINGS = [(0.12, 2.5, 2.5, 1.0), (0.12, 2.5, 0.0, -1.0), (0.1, 1.1, 0.9, -0.4)]


def near_revival(n):
    """Settings at chi = 0.1 with both arms within 1/sqrt(N) of the revival
    at phi = 2*pi/chi, and a small phi2 - phi1."""
    chi = 0.1
    phi, step = 2.0 * math.pi / chi, 1.0 / math.sqrt(n)
    return [
        (chi, phi + step, phi + step + 1e-3, 0.0),
        (chi, phi - step, phi - step + 2e-3, 0.5),
        (chi, phi, phi + 1e-3, -0.3),
    ]


def horner_bound(n, cases):
    """A first-order bound on |error| / (1 + N) from the kernel's rounding,
    with u = eps/2 and d levels. Each level is one complex multiply
    (relative error <= 2*sqrt(2)*u; Higham, Accuracy and Stability of
    Numerical Algorithms, Lemma 3.5) and one add (<= u). The rounding of
    phi_j*chi and of exp, <= (|phi_j chi| + 2)*u, turns r_j^n by n times
    that. With sum_n |w_n| <= sqrt(<n_j>) = sqrt(N/2) (Cauchy-Schwarz),
    <a_j> is off by at most (2*sqrt(2) + 3 + |phi_j chi|)*d*u*sqrt(N/2), and
    <M> = 2 Im(... conj(<a_1>) <a_2>) by 4*sqrt(N/2) times that. The outer
    phases exp(i*phi_j*(1 + chi/2)) and exp(i*offset) and the last products
    add at most (2*|phi_j|*(1 + chi/2) + 4)*eps*N."""
    d = fock_dim(n / 2.0)
    arms = [(chi, phi) for chi, *phis, _ in cases for phi in phis]
    horner = (2.0 * math.sqrt(2.0) + 3.0 + max(abs(phi * chi) for chi, phi in arms)) * d
    outer = 2.0 * max(abs(phi) * (1.0 + chi / 2.0) for chi, phi in arms) + 4.0
    return (horner + outer) * np.finfo(float).eps


@pytest.mark.parametrize(
    "n, cases, bound",
    [pytest.param(n, VERIFY_SETTINGS, 1e-14, id=str(n)) for n in (1, 9, 25, 30, 100)]
    + [pytest.param(1000, near_revival(1000), horner_bound(1000, near_revival(1000)), id="1000")],
)
def test_kernel_matches_40_digit_sum(n, cases, bound):
    # the dense 40-digit sum up to verify's 30 photons, the one-mode sum
    # beyond; n = 1000 (d = 744) is the scale of a large-N oracle, where the
    # rounding of r_j^n, which grows with d, passes 1e-14*(1 + N)
    amps = one_mode(n)
    chi, phi1, phi2, offset = zip(*cases)
    got = means(amps, phi1, phi2, chi, offset)
    reference = mp_mean if n <= 30 else mp_one_mode_mean
    for value, (c, p1, p2, o) in zip(got, cases):
        assert abs(value - reference(n, c, p1, p2, o, len(amps))) <= bound * (1 + n)


@pytest.mark.parametrize("n", [1, 16, 30])
def test_kernel_value_does_not_depend_on_its_batch(n):
    # each row is reduced on its own, so a setting gets the same bits alone,
    # inside a batch of 2048 and in that batch shifted by one; Horner
    # carries an exact 0 through zero top weights, so its bits also stay
    # the same when its row is zero-padded to the longest row of a
    # 30-photon run, n = 30's, in a window that mixes it with n = 30
    # settings (a pairwise np.sum over the padded row regroups the terms
    # and moves the last bits for n = 11 to 28)
    amps = one_mode(n)
    rng = np.random.default_rng(n)
    columns = rng.uniform((0.0, 0.0, 0.0, -1.0), (2.5, 2.5, 0.12, 1.0), size=(2048, 4)).T
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
    # 75 fixed + 4200 random cases over N = 0..30 take at least four
    # windows (the grid, then one per draw of MEAN_WINDOW); the run builds
    # one table row per photon number 0..30 before the first window, and
    # each window makes one kernel call on that table
    calls, tables = [], []

    def spy(beta, dim, budget=None):
        calls.append(beta)
        return coherent_amplitudes(beta, dim, budget)

    def kernel(table, *args):
        tables.append(table)
        return kerr_means(table, *args)

    monkeypatch.setattr(kerrmich.crosscheck, "coherent_amplitudes", spy)
    monkeypatch.setattr(kerrmich.crosscheck, "kerr_means", kernel)
    report = run_crosscheck(max_photons=30, seed=7, extra_cases=4200)
    assert sum(c.section == "mean" for c in report.cases) == 75 + 4200
    assert len(calls) == len(set(calls)) == 31
    assert len(tables) == sum(b.section == "mean" for b in report.blocks) >= 4
    assert all(table is tables[0] for table in tables)


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


def test_dim_margin_reaches_the_identity_residuals():
    report = run_crosscheck(max_photons=10, dim_margin=7)
    (block,) = [b for b in report.blocks if b.section == "identity"]
    want = [
        coherent_identity_residual(math.sqrt(mu), float(z), fock_dim(mu) + 7)
        for mu in (0.5, 2.0, 5.0, 10.0)
        for z in np.linspace(0.0, math.pi, 7)
    ]
    assert block.errors.tolist() == want


def test_mean_lines_stable_across_a_window_boundary():
    # 2100 random mean cases take at least two draws of MEAN_WINDOW; the
    # golden file's 300 fit in one
    lines = list(run_crosscheck(max_photons=30, seed=7, extra_cases=2100).lines())
    mean = [line for line in lines if " [mean] " in line]
    assert len(mean) == 75 + 2100
    golden = (GOLDEN / "verify_seed7_margin0.txt").read_text().splitlines()
    assert mean[:375] == golden[:375]


def window_labels(label_format, label_columns):
    """A window's labels, formatted the way the report formats them."""
    block = CheckBlock("mean", 0.0, label_format, label_columns, np.zeros(0))
    return [label_format % row for row in zip(*block.columns())]


def random_draws(max_photons, count, seed=7):
    """The random mean checks as ((n, chi, phi1, phi2, offset), label,
    exact <M>), one per case, from the windows of `_mean_settings`."""
    draws = []
    for ns, *columns, label_format, label_columns, wants in _mean_settings(
        max_photons, count, np.random.default_rng(seed)
    ):
        labels = window_labels(label_format, label_columns)
        assert len(ns) == len(labels) == len(wants) <= MEAN_WINDOW
        settings = zip(ns.tolist(), *(c.tolist() for c in columns))
        draws += (
            item
            for item in zip(settings, labels, wants.tolist())
            if item[1].startswith("random[")
        )
    return draws


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


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def scalar_means(n, *columns):
    """`signal_mean_exact` called once per setting, on Python floats."""
    columns = (np.asarray(c).tolist() for c in columns)
    return [signal_mean_exact(float(k), *args) for k, *args in zip(n, *columns)]


def python_mean(n, chi, phi1, phi2, offset, eta):
    """The exact mean in plain Python float arithmetic."""
    z1 = 0.5 * phi1 * chi
    z2 = 0.5 * phi2 * chi
    envelope = math.exp(0.5 * n * (math.cos(2.0 * z1) + math.cos(2.0 * z2) - 2.0))
    arg = offset + (phi2 - phi1) + (z2 - z1) + 0.5 * n * (math.sin(2.0 * z2) - math.sin(2.0 * z1))
    return eta * n * envelope * math.sin(arg)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            st.floats(-10.0, 10.0),
            st.floats(-10.0, 10.0),
            st.floats(-4.0, 4.0),
            st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        ),
        min_size=1,
        max_size=40,
    )
)
@example([(0, 0.0, 1.0, 2.0, 0.5, 1.0), (0, 0.1, 1.0, 2.0, 0.5, 0.3),
          (9, 0.0, 1.0, 2.0, 0.5, 0.7)])
def test_signal_mean_exact_on_arrays_is_the_scalar_call_bit_for_bit(settings_):
    n, *columns = (np.array(c) for c in zip(*settings_))
    n = n.astype(np.int64)
    got = signal_mean_exact(n, *columns)
    assert type(got) is np.ndarray and got.shape == n.shape
    want = scalar_means(n.tolist(), *columns)
    assert all(type(w) is float for w in want)
    assert bits(got) == bits(want)
    # the scalar call keeps the bits of the formula in Python floats
    assert bits(want) == bits([python_mean(float(row[0]), *row[1:]) for row in settings_])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    st.floats(0.0, 1.0),
    st.floats(-10.0, 10.0),
    st.floats(-10.0, 10.0),
    st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=64),
)
def test_signal_mean_exact_broadcasts_floats_against_arrays(ns, chi, phi1, phi2, offsets):
    # the quadrature's shape: one setting at many common phases
    n = float(ns[0])
    got = signal_mean_exact(n, chi, phi1, phi2, np.array(offsets))
    assert bits(got) == bits([signal_mean_exact(n, chi, phi1, phi2, o) for o in offsets])
    # a column of photon numbers against a row of phases
    grid = signal_mean_exact(np.array(ns)[:, None], chi, phi1, phi2, np.array(offsets))
    assert grid.shape == (len(ns), len(offsets))
    assert bits(grid.ravel()) == bits(
        [signal_mean_exact(float(k), chi, phi1, phi2, o) for k in ns for o in offsets]
    )
    # a 0-d input gives a float, as a call on floats does
    zero_d = signal_mean_exact(np.array(n), chi, phi1, phi2, offsets[0])
    assert type(zero_d) is float
    assert bits([zero_d]) == bits(got[:1])


@pytest.mark.parametrize("shape", [(0,), (), (3, 4)])
def test_signal_mean_exact_keeps_the_shape_of_empty_0d_and_2d_arrays(shape):
    rng = np.random.default_rng(sum(shape) + len(shape))
    ns = rng.integers(0, 30, size=shape)
    columns = rng.uniform((0.0, 0.0, 0.0, -1.0), (0.12, 2.5, 2.5, 1.0), size=(*shape, 4))
    columns = np.moveaxis(columns, -1, 0)
    got = signal_mean_exact(ns, *columns)
    assert np.shape(got) == shape
    want = scalar_means(np.ravel(ns).tolist(), *(c.ravel() for c in columns))
    assert bits(np.ravel(got)) == bits(want)


@pytest.mark.parametrize("max_photons, first_n, size", [(0, 0, 15), (30, 1, 75)])
def test_fixed_mean_window_carries_exact_means_bit_for_bit(max_photons, first_n, size):
    # the grid is the first window, in report order; no random draw follows
    windows = list(_mean_settings(max_photons, 0, np.random.default_rng(0)))
    assert len(windows) == 1
    ns, chi, phi1, phi2, offset, label_format, label_columns, wants = windows[0]
    labels = window_labels(label_format, label_columns)
    assert len(labels) == size
    assert labels[0] == f"N={first_n} chi=0.0 phi=(0.3,0.32) off=0.0"
    assert bits(wants) == bits(scalar_means(ns.tolist(), chi, phi1, phi2, offset))


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


def test_extra_cases_above_the_cap_rejected_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a case was drawn")

    monkeypatch.setattr(kerrmich.crosscheck, "_mean_settings", refuse)
    value = MAX_CASES + 1
    with pytest.raises(ValueError, match=f"extra_cases {value} exceeds the cap of {MAX_CASES}"):
        run_crosscheck(max_photons=1, extra_cases=value)


def test_each_dense_state_is_built_and_evolved_once(monkeypatch):
    # variance: 5 photon numbers x 2 chis, each evolved state read at 8
    # offsets in one contraction; noise: one state
    calls = collections.Counter()
    for name in ("product_input", "apply_kerr", "moments"):
        def spy(*args, _real=getattr(kerrmich.crosscheck, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(kerrmich.crosscheck, name, spy)
    assert run_crosscheck(max_photons=30).ok
    assert calls == {"product_input": 5 + 1, "apply_kerr": 10 + 1, "moments": 10 + 1}


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


def blocks_of(cases):
    """Hand-built checks as report blocks: one block of "%s" labels per run
    of cases with the same section and limit."""
    runs = itertools.groupby(cases, key=lambda c: (c.section, c.limit))
    return tuple(
        CheckBlock(section, limit, "%s", ([c.label for c in run],),
                   np.array([c.error for c in run]))
        for (section, limit), run in ((key, list(run)) for key, run in runs)
    )


def test_summary_reports_worst_error_per_section():
    cases = (
        CheckCase("mean", "a", 2e-15, 1e-9),
        CheckCase("mean", "b", 5e-16, 1e-9),
        CheckCase("identity", "c", 3e-16, 1e-9),
        CheckCase("gaussian-mc", "d", 3.5, MC_SIGMA_BAND),
        CheckCase("noise", "e", 0.0, 1e-9),
    )
    lines = list(CrossCheckReport(blocks_of(cases), tolerance=1e-9, seed=1).lines())
    assert len(lines) == len(cases) + 1
    assert lines[3] == "FAIL [gaussian-mc] d: error 3.500e+00 (limit 3.000e+00)"
    assert lines[-1] == (
        "FAIL 5 checks, 1 failed, worst error: mean 2.000e-15 rel, "
        "identity 3.000e-16 abs, gaussian-mc 3.500e+00 z (limit 3), "
        "noise 0.000e+00 rel"
    )


@pytest.mark.parametrize("a, b", [(0.0, math.nan), (1.0, math.nan), (math.nan, math.nan)])
def test_relative_error_of_a_nan_is_nan_in_either_order(a, b):
    # Python's max(0.0, nan) is 0.0: a zero Fock value must not hide a NaN
    # exact value, nor the other way round
    for x, y in ((a, b), (b, a)):
        assert math.isnan(relative_error(x, y))
        assert math.isnan(relative_error(np.array([x]), np.array([y]))[0])


def test_relative_error_scalar_and_array_rules_agree():
    values = [0.0, -0.0, 1e-300, 1.0, -2.5, 3.0, 1e308, -1e308, math.inf, math.nan]
    pairs = [(a, b) for a in values for b in values]
    a, b = (np.array(c) for c in zip(*pairs))
    assert bits(relative_error(a, b)) == bits([relative_error(x, y) for x, y in pairs])
    assert relative_error(0.0, -0.0) == 0.0
    assert relative_error(3.0, 1.0) == 2.0 / 3.0


@pytest.mark.parametrize("order", [1, -1])
def test_summary_worst_error_is_nan_if_any_error_is(order):
    # max([1e-3, nan]) is 1e-3 but max([nan, 1e-3]) is nan
    cases = (
        CheckCase("mean", "a", 1e-3, 1e-9),
        CheckCase("mean", "b", math.nan, 1e-9),
        CheckCase("noise", "c", 2e-16, 1e-9),
    )[::order]
    report = CrossCheckReport(blocks_of(cases), tolerance=1e-9, seed=1)
    assert math.isnan(report.max_error("mean"))
    assert math.isnan(report.max_error())
    assert report.max_error("noise") == 2e-16
    assert report.max_error("variance") == 0.0
    lines = list(report.lines())
    assert "FAIL [mean] b: error nan (limit 1.000e-09)" in lines
    assert lines[-1].startswith("FAIL 3 checks, 2 failed, worst error: ")
    assert "mean nan rel" in lines[-1]
    assert not report.ok and report.failed == 2
    assert sum(line.startswith("FAIL [") for line in lines) == 2


def test_check_case_fields_and_verdict():
    assert CheckCase._fields == ("section", "label", "error", "limit")
    case = CheckCase("mean", "a", 1e-9, 1e-9)
    assert case.error == 1e-9 and case.limit == 1e-9
    # the one verdict rule: an error at the limit passes; above it, or
    # NaN, fails
    block = CheckBlock("mean", 1e-9, "%s", (["a", "b", "c"],), np.array([1e-9, 2e-9, math.nan]))
    assert block.passed().tolist() == [True, False, False]


def test_report_holds_one_check_case_per_check():
    report = run_crosscheck(max_photons=4, seed=3, extra_cases=2500)
    lines = list(report.lines())
    assert type(report.cases) is tuple
    # mean 30 + 2500 (two draws), identity 14, variance 32, quadrature 3,
    # noise 12, Monte Carlo 4
    assert len(report.cases) == len(lines) - 1 == 30 + 2500 + 14 + 32 + 3 + 12 + 4
    assert all(type(c) is CheckCase for c in report.cases)
    assert [c.section for c in report.cases].count("mean") == 30 + 2500


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


def render(case):
    """A check line as the report printed it from one `CheckCase` each."""
    status = "PASS" if case.error <= case.limit else "FAIL"
    return (
        f"{status} [{case.section}] {case.label}: error {case.error:.3e} "
        f"(limit {case.limit:.3e})"
    )


def hand_built_report():
    # PASS, FAIL, NaN and inf in several sections; the mean section in three
    # blocks, one of them empty, with its NaN in the first
    blocks = (
        CheckBlock(
            "mean", 1e-9, "N=%d chi=%s phi=(%s,%s) off=%s",
            (np.array([1, 4]), np.array([0.0, 0.1]), [0.3, 1.1], [0.32, 0.9], [0.0, -0.4]),
            np.array([2e-15, math.nan]),
        ),
        CheckBlock(
            "mean", 1e-9, "random[%d] N=%d chi=%.4f",
            (range(0, 3), np.array([0, 7, 30]), np.array([0.0, 0.05, 0.11999])),
            np.array([0.0, 3e-9, math.inf]),
        ),
        CheckBlock(
            "mean", 1e-9, "random[%d] N=%d chi=%.4f",
            (range(3, 3), np.zeros(0, dtype=int), np.zeros(0)), np.zeros(0),
        ),
        CheckBlock("identity", 1e-9, "%s", (["|beta|^2=0.5 z=0.0000"],), np.array([1e-9])),
        CheckBlock(
            "gaussian-mc", MC_SIGMA_BAND, "%s",
            (["mc sin sigma=0.1", "mc cos2 sigma=0.1"],), np.array([3.5, 0.2]),
        ),
        CheckBlock("noise", 1e-9, "%s", (["N=16 eta=0.5 sigma=0.0 nt=0.0"],),
                   np.array([math.inf])),
    )
    return CrossCheckReport(blocks, tolerance=1e-9, seed=1)


def same_error(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize(
    "build",
    [
        hand_built_report,
        # 2100 random cases cross a window boundary: the grid and two windows
        lambda: run_crosscheck(max_photons=30, seed=5, extra_cases=2100),
    ],
    ids=["hand-built", "run"],
)
def test_lines_and_cases_view_agree(build):
    report = build()
    assert sum(b.section == "mean" for b in report.blocks) == 3
    lines = list(report.lines())
    assert [render(c) for c in report.cases] == lines[:-1]
    # the summary and the counts, as folded from the cases one at a time
    worst = {}
    for c in report.cases:
        worst[c.section] = _worse(worst.get(c.section, c.error), c.error)
    failures = tuple(c for c in report.cases if not c.error <= c.limit)
    summary = ", ".join(f"{s} {e:.3e} {SECTION_UNITS[s]}" for s, e in worst.items())
    status = "FAIL" if failures else "PASS"
    assert lines[-1] == (
        f"{status} {len(report.cases)} checks, {len(failures)} failed, "
        f"worst error: {summary}"
    )
    # NaN != NaN, so compare the failures by their lines
    assert [line for line in lines[:-1] if line.startswith("FAIL")] == list(
        map(render, failures)
    )
    assert report.checks == len(report.cases)
    assert report.failed == len(failures)
    assert report.ok == (not failures)
    for section in (*SECTION_UNITS, None):
        errors = [c.error for c in report.cases if section is None or c.section == section]
        want = functools.reduce(_worse, errors) if errors else 0.0
        assert same_error(report.max_error(section), want)


def test_hand_built_report_verdicts():
    report = hand_built_report()
    failed = [
        label
        for b in report.blocks
        for label, ok in zip(window_labels(b.label_format, b.label_columns), b.passed())
        if not ok
    ]
    assert failed == [
        "N=4 chi=0.1 phi=(1.1,0.9) off=-0.4",
        "random[1] N=7 chi=0.0500",
        "random[2] N=30 chi=0.1200",
        "mc sin sigma=0.1",
        "N=16 eta=0.5 sigma=0.0 nt=0.0",
    ]
    assert math.isnan(report.max_error("mean")) and math.isnan(report.max_error())
    assert report.max_error("noise") == math.inf
    assert report.max_error("identity") == 1e-9
    assert report.max_error("variance") == 0.0
    assert list(report.lines())[-1] == (
        "FAIL 9 checks, 5 failed, worst error: mean nan rel, identity 1.000e-09 abs, "
        "gaussian-mc 3.500e+00 z (limit 3), noise inf rel"
    )
