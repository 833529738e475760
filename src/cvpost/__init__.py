"""Conditional optical state engineering by continuous-variable
post-selection: a squeezed-vacuum ancilla interferes with the input on a
beam splitter, the reflected amplitude quadrature is homodyned, and the
transmitted state is kept when the outcome falls inside a window.

Subpackages: :mod:`cvpost.fock` (truncated number-basis engine),
:mod:`cvpost.conditioner` (homodyne post-selection), :mod:`cvpost.wigner`
(phase-space evaluation), :mod:`cvpost.gaussian` (closed-form covariance
engine), :mod:`cvpost.emulator` (Monte Carlo bench emulation),
:mod:`cvpost.cli` (scenario runner).
"""

__version__ = "0.1.0"

from .conditioner import (
    ConditionalResult,
    WindowResult,
    build_joint,
    fidelity,
    homodyne_project,
    postselect_map,
    run_window,
    s_prime,
)
from .emulator import (
    EnsembleStats,
    ExperimentParams,
    estimate,
    bench_params,
    postselect,
    predict_stats,
    run_experiment,
    synthesize,
)
from .errors import EmptySelectionError, TruncationError
from .fock import (
    FockDensity,
    FockVector,
    TwoModeState,
    coherent_state,
    fock_state,
    interfere,
    quadrature_moments,
    scs_state,
    squeezed_number_state,
    squeezed_vacuum,
)
from .gaussian import (
    GainReport,
    GaussianState,
    classical_limit,
    coherent_gaussian,
    condition_coherent,
    condition_through,
    gaussian_fidelity,
    ideal_gains,
    ideal_target,
    purity,
    purity_norm,
    squeezed_gaussian,
)
from .wigner import (
    WignerGrid,
    scs_wigner,
    wigner_from_density,
)
