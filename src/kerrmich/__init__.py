"""Kerr-nonlinear Michelson interferometry with classical pulses.

Closed-form signal/noise/resolution engine (`analytic`), exact truncated
Fock-space cross-check (`fock`, `crosscheck`), deterministic design sweeps
(`sweep`), and the `kerrmich` command line (`cli`).

`import kerrmich` loads only the closed-form engine (`core`, `analytic`,
`sweep`). The oracle modules `fock` and `crosscheck`, and the names this
package exports from them, load on first use; the command line loads them
only for `verify`.
"""

__version__ = "0.1.0"

from .analytic import (
    SensitivityReport,
    ValidityCheck,
    ValidityFlags,
    balanced_second_moment,
    displacement_resolution,
    displacement_resolution_linear,
    improvement_ratio,
    sensitivity_report,
    signal_mean,
    signal_mean_exact,
    signal_variance,
    validity,
)
from .core import (
    C_LIGHT,
    HBAR,
    PRESETS,
    GeometrySpec,
    KerrDerived,
    MediumSpec,
    NoiseSpec,
    ParameterError,
    ParameterSet,
    PulseSpec,
    derive,
    get_preset,
    kerr_cm2,
    operating_arm_length,
)
from .sweep import (
    CSV_COLUMNS,
    GridSpec,
    SweepRow,
    SweepTable,
    evaluate,
    regime_report,
    run_sweep,
    sweep_blocks,
)

# The truncated-Fock oracle only checks the closed forms above at a few tens
# of photons, so its modules load on first access (PEP 562), not with the
# package: name -> the oracle module that defines it; a module maps to itself.
_ORACLE = {
    "crosscheck": "crosscheck",
    "CheckBlock": "crosscheck",
    "CheckCase": "crosscheck",
    "CrossCheckReport": "crosscheck",
    "run_crosscheck": "crosscheck",
    "fock": "fock",
    "MomentSet": "fock",
    "TruncationError": "fock",
    "TwoModeState": "fock",
    "apply_kerr": "fock",
    "coherent_amplitudes": "fock",
    "coherent_identity_residual": "fock",
    "fock_dim": "fock",
    "gauss_hermite_phase": "fock",
    "moments": "fock",
    "monte_carlo_phase": "fock",
    "noisy_moments": "fock",
    "product_input": "fock",
}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_ORACLE))


def __getattr__(name: str):
    if name not in _ORACLE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_ORACLE[name]}", __name__)
    value = globals()[name] = module if name == _ORACLE[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORACLE))
