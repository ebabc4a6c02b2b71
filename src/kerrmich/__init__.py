"""Kerr-nonlinear Michelson interferometry with classical pulses.

Closed-form signal/noise/resolution engine (`analytic`), exact truncated
Fock-space cross-check (`fock`, `crosscheck`), deterministic design sweeps
(`sweep`), and the `kerrmich` command line (`cli`).
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
from .crosscheck import CheckBlock, CheckCase, CrossCheckReport, run_crosscheck
from .fock import (
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
