"""Conditional optical state engineering by continuous-variable
post-selection: a squeezed-vacuum ancilla interferes with the input on a
beam splitter, the reflected amplitude quadrature is homodyned, and the
transmitted state is kept when the outcome falls inside a window.

Subpackages: :mod:`cvpost.fock` (truncated number-basis engine),
:mod:`cvpost.conditioner` (homodyne post-selection), :mod:`cvpost.wigner`
(phase-space evaluation), :mod:`cvpost.gaussian` (closed-form covariance
engine and the output squeezing s'), :mod:`cvpost.emulator` (Monte Carlo
bench emulation), :mod:`cvpost.cli` (scenario runner).
"""

__version__ = "0.1.0"

from .conditioner import (
    WindowResult,
    build_joint,
    fidelity,
    homodyne_project,
    run_window,
)
from .emulator import (
    EnsembleStats,
    ExperimentParams,
    estimate,
    predict_stats,
    run_experiment,
)
from .fock import (
    TruncationError,
    coherent_state,
    fock_state,
    interfere,
    quadrature_moments,
    scs_state,
    squeezed_number_state,
)
from .gaussian import (
    GainReport,
    GaussianState,
    classical_limit,
    coherent_gaussian,
    condition_coherent,
    gaussian_fidelity,
    ideal_gains,
    ideal_target,
    purity,
    s_prime,
)
from .wigner import (
    WignerGrid,
    wigner_from_density,
)
