"""The straight-line `evaluate` against `_evaluate_reference`.

`_evaluate_reference` composes the spec types, `derive` and
`sensitivity_report`. `evaluate` must return the same row for every input
(every field of the same type and `repr`, so -0.0 stays apart from 0.0 and
NaN matches NaN) and raise the same exception with the same message; it
may compute a point itself only when the point is clean.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrmich.sweep as sweep
from kerrmich.sweep import ParameterSet, SweepRow, _evaluate_reference, evaluate
from test_sweep_table import TYPICAL, bits, number

GIANT_BASE = ParameterSet.from_preset("giant-eit")
NATURAL_BASE = ParameterSet.from_preset("natural")
FIELDS = [f.name for f in dataclasses.fields(ParameterSet)]


def outcome(function, params, threshold):
    try:
        return bits(function(params, threshold))
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def fallbacks(monkeypatch):
    """The points `evaluate` hands to `_evaluate_reference`."""
    calls = []

    def spy(params, threshold=1e-2):
        calls.append(params)
        return _evaluate_reference(params, threshold)

    monkeypatch.setattr(sweep, "_evaluate_reference", spy)
    return calls


@st.composite
def value(draw, typical):
    """A float from `number`, or an int as a library caller may pass it:
    the float truncated, a small int, or one too large for a float."""
    x = draw(number(typical))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return int(x)
    if kind == 1:
        return draw(st.sampled_from([0, 1, 2, -1, 10**6, 10**400]))
    return x


@st.composite
def designs(draw):
    base = draw(st.sampled_from([GIANT_BASE, NATURAL_BASE]))
    changes = {}
    for name in draw(st.lists(st.sampled_from(FIELDS), max_size=3, unique=True)):
        changes[name] = draw(value(TYPICAL.get(name, 1.0)))
    threshold = draw(st.sampled_from([1e-2, 1e-9, 0.5, 1, float("nan")]))
    return dataclasses.replace(base, **changes), threshold


@settings(max_examples=300, deadline=None)
@given(designs())
def test_evaluate_equals_reference(design):
    params, threshold = design
    assert outcome(evaluate, params, threshold) == outcome(
        _evaluate_reference, params, threshold
    )


@pytest.mark.parametrize(
    "base, sigma", [(GIANT_BASE, 1e-3), (NATURAL_BASE, 1e-8)], ids=["giant", "natural"]
)
@pytest.mark.parametrize("parameter", ["sigma", "power"])
def test_squares_round_like_python_power(base, sigma, parameter, fallbacks):
    # sigma ** 2 and (chi * N) ** 2 differ from x * x in the last bit for a
    # few of these points, and so would the dominance margin
    base = dataclasses.replace(base, sigma=sigma)
    lo, hi = (1e-4, 1e-1) if parameter == "sigma" else (base.power / 100, base.power)
    for x in np.geomspace(lo, hi, 3000).tolist():
        point = dataclasses.replace(base, **{parameter: x})
        assert bits(evaluate(point)) == bits(_evaluate_reference(point)), x
    assert fallbacks == []


@pytest.mark.parametrize(
    "changes",
    [
        # dark input: infinite resolution
        dict(power=0.0),
        # N > 0, but eta * k**2 * N underflows to a zero divisor
        dict(eta=1e-200, power=1e-200),
        # (chi * N) ** 2 overflows
        dict(power=1e160),
        # round(inf) on the operating order
        dict(arm_length=1e300, n2=1e10),
        # signal_x makes arm 1, then arm 2, negative
        dict(signal_x=1e3),
        dict(signal_x=-1e3),
    ],
    ids=["dark", "zero-divisor", "gain-square", "round-inf", "arm-1", "arm-2"],
)
def test_unclean_points_take_the_fallback(changes, fallbacks):
    params = dataclasses.replace(GIANT_BASE, **changes)
    want = outcome(_evaluate_reference, params, 1e-2)
    assert outcome(evaluate, params, 1e-2) == want
    assert fallbacks == [params]


@pytest.mark.parametrize("changes", [dict(tau="1e-10"), dict(power=None), dict(eta=1j)])
def test_non_numbers_raise_what_the_reference_raises(changes, fallbacks):
    params = dataclasses.replace(GIANT_BASE, **changes)
    want = outcome(_evaluate_reference, params, 1e-2)
    assert want[0] is TypeError
    assert outcome(evaluate, params, 1e-2) == want
    assert fallbacks == [params]


# giant-eit's m = 1 operating arm length
GIANT_ARM = 125.85291426568021


@pytest.mark.parametrize(
    "changes",
    [
        # linear medium without noise: 1 m arm, zero dominance margin
        dict(n2=0.0),
        # linear medium: 1 m arm, infinite dominance margin under dephasing
        dict(n2=0.0, sigma=0.05),
        # (chi * N) ** 2 is subnormal and the dominance margin overflows
        dict(n2=1e-170, sigma=1e-4),
        # negative zeros are echoed, and a zero thermal margin is +0.0
        dict(nt=-0.0, sigma=-0.0, signal_x=-0.0),
        # ints as a library caller may pass them are echoed as ints
        dict(power=10**6, n0=1, eta=1, sigma=0, nt=0, signal_x=0),
        dict(arm_length=126, nt=3),
        # z0 / pi is the odd integer 2**52 + 3, where round() (half to
        # even) and floor(x + 0.5) differ by one
        dict(arm_length=GIANT_ARM * (2**52 + 3)),
        # (eta * N * sigma) ** 2 overflows in signal_variance, which gives
        # inf for it; no row field carries that variance
        dict(sigma=1e140),
    ],
    ids=[
        "linear-medium", "linear-medium-dephased", "margin-overflow", "negative-zeros",
        "ints", "int-arm", "round-half-even", "variance-square",
    ],
)
def test_clean_edge_points_take_the_fast_path(changes, fallbacks):
    params = dataclasses.replace(GIANT_BASE, **changes)
    assert bits(evaluate(params)) == bits(_evaluate_reference(params))
    assert fallbacks == []


def test_clean_preset_designs_never_fall_back(fallbacks):
    # designs drawn like the design-points benchmark: +-1 decade in tau,
    # area and power around either preset, eta in [0.5, 1], sigma and nt
    # log-uniform
    rng = np.random.default_rng(2)
    for i in range(2000):
        base = (GIANT_BASE, NATURAL_BASE)[i % 2]
        tau, area, power = (
            getattr(base, name) * 10.0 ** rng.uniform(-1.0, 1.0)
            for name in ("tau", "area", "power")
        )
        params = dataclasses.replace(
            base,
            tau=tau,
            area=area,
            power=power,
            eta=rng.uniform(0.5, 1.0),
            sigma=10.0 ** rng.uniform(-6.0, -2.0),
            nt=10.0 ** rng.uniform(-3.0, 2.0),
        )
        assert bits(evaluate(params)) == bits(_evaluate_reference(params))
    assert fallbacks == []


def test_rows_stay_frozen_dataclasses():
    row = evaluate(GIANT_BASE)
    want = _evaluate_reference(GIANT_BASE)
    assert type(row) is SweepRow
    assert row == want and hash(row) == hash(want)
    assert dataclasses.asdict(row) == dataclasses.asdict(want)
    assert dataclasses.replace(row, eta=0.5) == dataclasses.replace(want, eta=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.eta = 0.5
