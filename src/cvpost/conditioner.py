"""Homodyne post-selection of the reflected mode.

The protocol: an input state interferes with a squeezed-vacuum ancilla on a
beam splitter of reflectivity R, the amplitude quadrature of the reflected
mode is homodyned with outcome x, and the transmitted state is kept when
|x| < x0.  All outcomes and thresholds here are in Wigner units
(vacuum quadrature variance 1/4).

The conditioning functions take the joint state after the beam splitter
(:func:`build_joint`) and the target state as arguments, so a caller builds
each once and conditions on it as often as it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .emulator import _GL_NODES, _GL_WEIGHTS
from .fock import FockDensity, FockVector, TwoModeState

#: Below this window half-width (Wigner units) the diagonal of
#: :func:`window_matrix` is taken by Gauss-Legendre quadrature: its closed-form
#: recurrence subtracts terms near erf(sqrt(2) x0) and loses digits as x0 -> 0
#: (2e-12 relative at x0 = 0.01, 4e-4 at 1e-6), while 32 nodes agree with a
#: 1200-node rule to 1.3e-13 up to x0 = 0.3 at dims 40 to 401.
NARROW_WINDOW = 0.1


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


def build_joint(psi_in: FockVector, reflectivity: float, squeezing: float) -> TwoModeState:
    """Interfere ``psi_in`` with the squeezed-vacuum ancilla S(squeezing)|0>."""
    anc = fock.squeezed_vacuum(squeezing, psi_in.dim)
    return fock.interfere(psi_in, anc, reflectivity)


def _project(joint: TwoModeState, xs) -> np.ndarray:
    """Project the reflected mode onto the quadrature eigenstates |x_k>.

    Column k is the unnormalized transmitted state ``<x_k|Psi>_r``; its
    squared norm is the outcome density P1(x_k).  The wavefunctions are
    real, so this is two real products (half the work of one complex one).
    """
    psis = fock.quadrature_wavefunctions(joint.dim - 1, xs)
    re, im = (np.ascontiguousarray(half) @ psis for half in (joint.amplitudes.real, joint.amplitudes.imag))
    return re + 1j * im


def homodyne_project(joint: TwoModeState, x: float):
    """Project the reflected mode onto the quadrature eigenstate |x>.

    Returns the unnormalized transmitted state ``<x|rho|x>_r`` and the
    outcome density P1(x) = tr of that matrix (probability per Wigner-unit
    x, since |x> is delta-normalized).
    """
    if not np.isfinite(x):
        raise ValueError("homodyne outcome must be finite")
    phi = _project(joint, float(x))[:, 0]
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


def window_matrix(dim: int, x0: float) -> np.ndarray:
    """``M[m, n]``, the integral of ``psi_m psi_n`` over |x| < x0, for m, n < dim,
    where ``psi_n(x) = <n|x>``.

    Every window quantity is linear in ``Psi M Psi^dag``, so M is all the
    window needs.  The wavefunctions obey ``psi_n'' = (4x^2 - 4n - 2) psi_n``
    and ``psi_n' = sqrt(n) psi_{n-1} - sqrt(n+1) psi_{n+1}``, so
    ``(psi_m psi_n' - psi_n psi_m')' = 4 (m - n) psi_m psi_n``: an
    off-diagonal entry is that bracket at x0 over 2 (m - n), and zero for
    m + n odd, by parity.  The diagonal starts from ``M_00 = erf(sqrt(2) x0)``,
    and integrating ``(psi_n psi_{n-1})'`` gives each next entry from the
    entries two off the diagonal; these are taken on dim + 1 levels so the
    last step has its own.  Below :data:`NARROW_WINDOW` the diagonal is the
    32-node Gauss-Legendre rule instead.
    """
    if not x0 > 0.0:
        raise ValueError("the window needs x0 > 0; use homodyne_project for a single outcome")
    psi = fock.quadrature_wavefunctions(dim + 1, np.append(x0, x0 * _GL_NODES))
    edge = psi[:-1, 0]  # psi_n(x0), n = 0..dim
    root = np.sqrt(np.arange(dim + 2.0))
    bracket = np.outer(edge, root[:-1] * np.append(0.0, psi[:-2, 0]) - root[1:] * psi[1:, 0])
    bracket -= bracket.T
    gap = np.subtract.outer(np.arange(dim + 1), np.arange(dim + 1))
    m = np.where(gap % 2 == 0, bracket / (2 * gap + (gap == 0)), 0.0)  # the diagonal is set below
    if x0 < NARROW_WINDOW:
        diag = psi[:dim, 1:] ** 2 @ (x0 * _GL_WEIGHTS)
    else:
        two = np.diagonal(m, -2)  # m[j + 2, j]
        steps = (2 * edge[1:dim] * edge[:dim - 1] + root[2:dim + 1] * two[:dim - 1]
                 - root[:dim - 1] * np.append(0.0, two[:dim - 2])) / root[1:dim]
        diag = math.erf(math.sqrt(2.0) * x0) - np.append(0.0, np.cumsum(steps))
    m = m[:dim, :dim]
    np.fill_diagonal(m, diag)
    return m


def density_norm(joint: TwoModeState, x0: float = 6.0) -> float:
    """Integral of P1 over |x| < x0, the window's success probability;
    at the default x0 = 6 it is 1 up to the joint's truncation loss."""
    amps = joint.amplitudes
    return float(np.vdot(amps, amps @ window_matrix(joint.dim, x0)).real)


def run_window(joint: TwoModeState, target: FockVector, x0: float) -> WindowResult:
    """Average the conditional output over the window |x| < x0.

    The unnormalized averaged state is ``Psi M Psi^dag`` with M from
    :func:`window_matrix`; P_s is its trace and F_ave its overlap with the
    target over P_s.
    """
    amps = joint.amplitudes
    avg = (amps @ window_matrix(joint.dim, x0)) @ amps.conj().T
    p_s = float(np.trace(avg).real)
    t = target.amplitudes
    return WindowResult(
        avg_fidelity=float((t.conj() @ avg @ t).real) / p_s,
        success_prob=p_s,
        avg_state=FockDensity(avg / p_s, joint.dim, validate=False),
    )


def postselect_map(joint: TwoModeState, target: FockVector, x_grid) -> list:
    """Conditional state, density and fidelity to target at every grid node."""
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if xs.size == 0 or not np.all(np.isfinite(xs)):
        raise ValueError("x_grid must be a non-empty finite grid")
    phis = _project(joint, xs)
    results = []
    for k, x in enumerate(xs):
        phi = phis[:, k]
        p1 = float(np.real(np.vdot(phi, phi)))
        if p1 <= 0.0:
            raise ValueError(f"outcome density vanished at x={x}; state undefined there")
        state = FockDensity(np.outer(phi, phi.conj()) / p1, joint.dim, validate=False)
        results.append(ConditionalResult(state, p1, fidelity(state, target), float(x)))
    return results
