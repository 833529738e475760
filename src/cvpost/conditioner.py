"""Homodyne post-selection of the reflected mode.

The protocol: an input state interferes with a squeezed-vacuum ancilla on a
beam splitter of reflectivity R, the amplitude quadrature of the reflected
mode is homodyned with outcome x, and the transmitted state is kept when
|x| < x0.  All outcomes and thresholds here are in Wigner units
(vacuum quadrature variance 1/4).

The conditioning functions take the joint state after the beam splitter
(:func:`build_joint`) and the target (:func:`resolve_target`) as arguments,
so a caller builds each once and conditions on it as often as it needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import ConvergenceError
from .fock import FockDensity, FockVector, TwoModeState

DEFAULT_WINDOW_NODES = 65
DEFAULT_NORM_NODES = 193
CONVERGENCE_RTOL = 1e-4

#: Largest real matrix product (m*n*k multiply-adds) the projections issue
#: at once.  OpenBLAS runs a product this small on the calling thread.  A
#: larger one, or a complex one a quarter this size, wakes its worker
#: threads, which cost more than they save at these sizes and keep spinning
#: after the call: on 2 cores a dim-40 sweep ran 3x slower with them.
_BLAS_SERIAL_MNK = 1 << 18


# ---------------------------------------------------------------------------
# Input and target specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockInput:
    n: int


@dataclass(frozen=True)
class CoherentInput:
    gamma: complex


@dataclass(frozen=True)
class SqueezedFockTarget:
    """S(s')|n> with s' = s_prime(R, s) of the config."""

    n: int = 1


@dataclass(frozen=True)
class ScsTarget:
    gamma: complex
    parity: str = "even"


@dataclass(frozen=True)
class ProtocolConfig:
    """One post-selection scenario.

    ``x0`` is the window half-width in Wigner units.  ``dim`` is the Fock
    truncation used for both modes.
    """

    reflectivity: float
    squeezing: float
    x0: float
    input_spec: object = field(default_factory=lambda: FockInput(1))
    target_spec: object = field(default_factory=SqueezedFockTarget)
    dim: int = 40

    def __post_init__(self):
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError("reflectivity must be in [0, 1]")
        if self.x0 < 0.0:
            raise ValueError("x0 must be >= 0")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")


def prepare_input(spec, dim: int) -> FockVector:
    if isinstance(spec, FockInput):
        return fock.fock_state(spec.n, dim)
    if isinstance(spec, CoherentInput):
        return fock.coherent_state(spec.gamma, dim)
    raise TypeError(f"unknown input spec {spec!r}")


def resolve_target(config: ProtocolConfig) -> FockVector:
    spec = config.target_spec
    dim = config.dim
    if isinstance(spec, SqueezedFockTarget):
        return fock.squeezed_number_state(spec.n, s_prime(config.reflectivity, config.squeezing), dim)
    if isinstance(spec, ScsTarget):
        return fock.scs_state(spec.gamma, spec.parity, dim)
    raise TypeError(f"unknown target spec {spec!r}")


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def s_prime(reflectivity: float, s: float) -> float:
    """Output squeezing of the zero-outcome conditional state.

    ``s' = -ln[(T + e^{-2s} R)^2] / 4`` with T = 1 - R.  Monotone in s for
    fixed R; s' -> s as R -> 1 and s' -> -ln(T)/2 as s -> infinity.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must be in [0, 1]")
    t = 1.0 - reflectivity
    arg = t + np.exp(-2.0 * s) * reflectivity
    if arg <= 0.0:
        raise ValueError("degenerate configuration: log argument is not positive")
    return float(-np.log(arg**2) / 4.0)


def build_joint(config: ProtocolConfig) -> TwoModeState:
    """Interfere the configured input with the squeezed-vacuum ancilla."""
    psi_in = prepare_input(config.input_spec, config.dim)
    anc = fock.squeezed_vacuum(config.squeezing, config.dim)
    return fock.interfere(psi_in, anc, config.reflectivity)


def _project(joint: TwoModeState, xs):
    """Project the reflected mode onto the quadrature eigenstates |x_k>.

    Returns ``(re, im)``: column k of ``re + 1j*im`` is the unnormalized
    transmitted state ``<x_k|Psi>_r`` and its squared norm is the outcome
    density P1(x_k).  The wavefunctions are real, so this is two real
    products (half the work of one complex product), taken over blocks of
    nodes no larger than ``_BLAS_SERIAL_MNK`` allows.
    """
    psis = fock.quadrature_wavefunctions(joint.dim - 1, xs)
    step = max(1, _BLAS_SERIAL_MNK // joint.dim**2)
    blocks = range(0, psis.shape[1], step)
    amps = joint.amplitudes
    re, im = (
        np.hstack([half @ psis[:, k:k + step] for k in blocks])
        for half in (np.ascontiguousarray(amps.real), np.ascontiguousarray(amps.imag))
    )
    return re, im


def homodyne_project(joint: TwoModeState, x: float):
    """Project the reflected mode onto the quadrature eigenstate |x>.

    Returns the unnormalized transmitted state ``<x|rho|x>_r`` and the
    outcome density P1(x) = tr of that matrix (probability per Wigner-unit
    x, since |x> is delta-normalized).
    """
    if not np.isfinite(x):
        raise ValueError("homodyne outcome must be finite")
    re, im = _project(joint, float(x))
    phi = re[:, 0] + 1j * im[:, 0]
    density = float(np.real(np.vdot(phi, phi)))
    return FockDensity(np.outer(phi, phi.conj()), joint.dim, validate=False), density


def fidelity(rho: FockDensity, target: FockVector) -> float:
    """<target|rho|target> for a normalized state and pure target.

    Equals the pi-weighted Wigner overlap of the two states when the
    target is pure.
    """
    if rho.dim != target.dim:
        raise ValueError("state and target dimensions differ")
    if abs(rho.trace - 1.0) > 1e-6:
        raise ValueError("state must be normalized (trace 1)")
    if abs(target.norm - 1.0) > 1e-6:
        raise ValueError("target must be normalized")
    t = target.amplitudes
    val = float(np.real(t.conj() @ rho.matrix @ t))
    return min(max(val, 0.0), 1.0 + 1e-9)


@dataclass(frozen=True)
class ConditionalResult:
    """Conditional state, outcome density and target fidelity at one x."""

    state: FockDensity
    density: float
    fidelity: float
    x: float


@dataclass(frozen=True)
class WindowResult:
    """Window-averaged protocol output for |x| < x0."""

    avg_fidelity: float
    success_prob: float
    avg_state: FockDensity


def _simpson_weights(n_nodes: int, lo: float, hi: float) -> np.ndarray:
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    h = (hi - lo) / (n_nodes - 1)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def gate_density(joint: TwoModeState, xs) -> np.ndarray:
    """Outcome density P1 at many x values (vectorized)."""
    re, im = _project(joint, xs)
    return np.sum(re * re + im * im, axis=0)


def density_norm(joint: TwoModeState, half_range: float = 6.0, n_nodes: int = DEFAULT_NORM_NODES) -> float:
    """Integral of P1 over [-half_range, half_range] by composite Simpson."""
    xs = np.linspace(-half_range, half_range, n_nodes)
    w = _simpson_weights(n_nodes, -half_range, half_range)
    return float(w @ gate_density(joint, xs))


def run_window(joint: TwoModeState, target: FockVector, x0: float,
               n_nodes: int = DEFAULT_WINDOW_NODES) -> WindowResult:
    """Average the conditional output over the window |x| < x0.

    Integrates P1, P1*F1 and P1*rho(x) with composite Simpson on
    2 n_nodes - 1 uniform nodes and checks convergence against the same
    rule on the n_nodes nodes at even indices; the fine estimates are
    returned.

    Raises
    ------
    ConvergenceError
        If halving the nodes moves F_ave or P_s by more than 1e-4 relative.
    """
    if x0 <= 0.0:
        raise ValueError("run_window needs x0 > 0; use homodyne_project for a single outcome")
    if n_nodes < 33 or n_nodes % 2 == 0:
        raise ValueError("n_nodes must be an odd integer >= 33")
    fine_nodes = 2 * n_nodes - 1
    xs = np.linspace(-x0, x0, fine_nodes)
    re, im = _project(joint, xs)
    t_re, t_im = target.amplitudes.real, target.amplitudes.imag
    overlap_re = t_re @ re + t_im @ im
    overlap_im = t_re @ im - t_im @ re
    p1 = np.sum(re * re + im * im, axis=0)
    p1f1 = overlap_re * overlap_re + overlap_im * overlap_im

    w = _simpson_weights(fine_nodes, -x0, x0)
    w_c = _simpson_weights(n_nodes, -x0, x0)
    p_f, p_c = float(w @ p1), float(w_c @ p1[::2])
    f_f, f_c = float(w @ p1f1) / p_f, float(w_c @ p1f1[::2]) / p_c
    rel = max(abs(f_f - f_c) / max(abs(f_f), 1e-300), abs(p_f - p_c) / max(p_f, 1e-300))
    if rel > CONVERGENCE_RTOL:
        raise ConvergenceError(
            f"window quadrature did not converge (relative change {rel:.2e} on doubling "
            f"{n_nodes} -> {fine_nodes} nodes)",
            coarse={"avg_fidelity": f_c, "success_prob": p_c},
            fine={"avg_fidelity": f_f, "success_prob": p_f},
        )

    # Psi W Psi^dag with W = sum_k w_k psi_k psi_k^T, in real products.
    avg = ((re * w) @ re.T + (im * w) @ im.T) + 1j * ((im * w) @ re.T - (re * w) @ im.T)
    avg_state = FockDensity(avg, joint.dim, validate=False).normalized()
    return WindowResult(
        avg_fidelity=f_f,
        success_prob=p_f,
        avg_state=avg_state,
    )


def postselect_map(joint: TwoModeState, target: FockVector, x_grid) -> list:
    """Conditional state, density and fidelity to target at every grid node."""
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if xs.size == 0 or not np.all(np.isfinite(xs)):
        raise ValueError("x_grid must be a non-empty finite grid")
    re, im = _project(joint, xs)
    phis = re + 1j * im
    results = []
    for k, x in enumerate(xs):
        phi = phis[:, k]
        p1 = float(np.real(np.vdot(phi, phi)))
        if p1 <= 0.0:
            raise ValueError(f"outcome density vanished at x={x}; state undefined there")
        state = FockDensity(np.outer(phi, phi.conj()) / p1, joint.dim, validate=False)
        results.append(ConditionalResult(state, p1, fidelity(state, target), float(x)))
    return results


def conditioned_coherent_target(gamma: complex, reflectivity: float, s: float, dim: int) -> FockVector:
    """Pure state the protocol produces from a coherent input at outcome 0:
    ``D(sqrt(T)[e^{2s'} g+ + i g-]) S(s')|0>`` with s' = s_prime(R, s)."""
    sp = s_prime(reflectivity, s)
    t = 1.0 - reflectivity
    g = complex(gamma)
    shifted = np.sqrt(t) * (np.exp(2.0 * sp) * g.real + 1j * g.imag)
    return fock.displaced_squeezed_vacuum(shifted, sp, dim)
