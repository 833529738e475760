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
    CoherentInput,
    ConditionalResult,
    FockInput,
    ProtocolConfig,
    ScsTarget,
    SqueezedFockTarget,
    WindowResult,
    build_joint,
    conditioned_coherent_target,
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
from .errors import ConvergenceError, EmptySelectionError, TruncationError
from .fock import (
    FockDensity,
    FockVector,
    TwoModeState,
    coherent_state,
    displaced_squeezed_vacuum,
    fock_state,
    interfere,
    quadrature_moments,
    quadrature_wavefunction,
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
    vacuum_state,
)
from .wigner import (
    WignerGrid,
    overlap,
    scs_wigner,
    single_photon_wigner,
    squeezed_vacuum_wigner,
    wigner_from_density,
)
