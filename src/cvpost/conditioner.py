"""Homodyne post-selection of the reflected mode.

The protocol: an input state interferes with a squeezed-vacuum ancilla on a
beam splitter of reflectivity R, the amplitude quadrature of the reflected
mode is homodyned with outcome x, and the transmitted state is kept when
|x| < x0.  All outcomes and thresholds here are in Wigner units
(vacuum quadrature variance 1/4).

The conditioning functions take the joint state after the beam splitter
(:func:`build_joint`) and the target state as arguments, so a caller builds
each once and conditions on it as often as it needs.  The single-photon
target S(s')|1> takes its s' from :func:`cvpost.gaussian.s_prime`, the
squeezing of the Gaussian engine's closed-form conditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .gaussian import GL_NODES, GL_WEIGHTS, checked

#: Below this window half-width (Wigner units) :func:`window_matrix` is taken
#: whole by Gauss-Legendre quadrature: its closed form subtracts nearly equal
#: terms as x0 -> 0, on the diagonal (the recurrence from erf(sqrt(2) x0),
#: 2e-12 relative at x0 = 0.01, 4e-4 at 1e-6) and between two odd levels
#: (M[1, 3] 6e-6 relative at 1e-6), while 32 nodes agree with a 400-node
#: rule to 7.4e-15 of the largest entry up to x0 = 0.1 at dims 60 to 401.
NARROW_WINDOW = 0.1


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def build_joint(psi_in: np.ndarray, reflectivity: float, squeezing: float) -> np.ndarray:
    """Interfere ``psi_in`` with the squeezed-vacuum ancilla S(squeezing)|0>."""
    anc = fock.squeezed_number_state(0, squeezing, fock.pure_dim(psi_in, what="input"))
    return fock.interfere(psi_in, anc, reflectivity)


def homodyne_project(joint: np.ndarray, x: float):
    """Project the reflected mode onto the quadrature eigenstate |x>.

    Returns the normalized transmitted state, a read-only 1-D array since the
    joint is pure, and the outcome density P1(x), the squared norm
    of ``<x|Psi>_r`` (probability per Wigner-unit x, since |x> is
    delta-normalized).
    """
    phi = (joint @ fock.quadrature_wavefunctions(len(joint) - 1, [checked(x, float, None, "x")]))[:, 0]
    p1 = float(np.real(np.vdot(phi, phi)))
    if p1 <= 0.0:
        raise ValueError(f"outcome density vanished at x={x}; state undefined there")
    state = phi / math.sqrt(p1)
    state.setflags(write=False)
    return state, p1


def fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """|<target|state>|^2 of two normalized pure states of one dim.

    Equals the pi-weighted Wigner overlap of the two states.
    """
    fock.pure_dim(target, fock.pure_dim(state), "target")
    for name, psi in (("state", state), ("target", target)):
        norm_sq = float(np.linalg.norm(psi)) ** 2
        if not abs(norm_sq - 1.0) <= 1e-6:  # a NaN norm fails too
            raise ValueError(f"{name} must be normalized (squared norm 1 within 1e-6), got {norm_sq!r}")
    return min(float(abs(np.vdot(target, state))) ** 2, 1.0 + 1e-9)


@dataclass(frozen=True)
class WindowResult:
    """Window-averaged protocol output for |x| < x0."""

    avg_fidelity: float
    success_prob: float
    #: The normalized averaged state, a read-only dim x dim density matrix.
    avg_state: np.ndarray


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
    last step has its own.  Below :data:`NARROW_WINDOW` all of M is the
    32-node Gauss-Legendre rule instead, with the parity zeros set exactly.
    """
    dim, x0 = fock.check_dim(dim), checked(x0, float, "(0, inf)", "x0")  # a single outcome is homodyne_project's
    if x0 < NARROW_WINDOW:
        psi = fock.quadrature_wavefunctions(dim - 1, x0 * GL_NODES)
        m = (psi * (x0 * GL_WEIGHTS)) @ psi.T
        m[np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 1] = 0.0
        return 0.5 * (m + m.T)
    psi = fock.quadrature_wavefunctions(dim + 1, x0)[:, 0]  # psi_n(x0), n = 0..dim + 1
    edge = psi[:-1]
    root = np.sqrt(np.arange(dim + 2.0))
    bracket = np.outer(edge, root[:-1] * np.append(0.0, psi[:-2]) - root[1:] * psi[1:])
    bracket -= bracket.T
    gap = np.subtract.outer(np.arange(dim + 1), np.arange(dim + 1))
    m = np.where(gap % 2 == 0, bracket / (2 * gap + (gap == 0)), 0.0)  # the diagonal is set below
    two = np.diagonal(m, -2)  # m[j + 2, j]
    steps = (2 * edge[1:dim] * edge[:dim - 1] + root[2:dim + 1] * two[:dim - 1]
             - root[:dim - 1] * np.append(0.0, two[:dim - 2])) / root[1:dim]
    diag = math.erf(math.sqrt(2.0) * x0) - np.append(0.0, np.cumsum(steps))
    m = m[:dim, :dim]
    np.fill_diagonal(m, diag)
    return m


def density_norm(joint: np.ndarray, x0: float = 6.0) -> float:
    """Integral of P1 over |x| < x0, the window's success probability;
    at the default x0 = 6 it is 1 up to the joint's truncation loss."""
    return float(np.vdot(joint, joint @ window_matrix(len(joint), x0)).real)


def run_window(joint: np.ndarray, target: np.ndarray, x0: float) -> WindowResult:
    """Average the conditional output over the window |x| < x0.

    The unnormalized averaged state is ``Psi M Psi^dag`` with M from
    :func:`window_matrix`; P_s is its trace and F_ave its overlap with the
    target over P_s.
    """
    fock.pure_dim(target, len(joint), "target")
    avg = (joint @ window_matrix(len(joint), x0)) @ joint.conj().T
    p_s = float(np.trace(avg).real)
    avg_state = avg / p_s
    avg_state.setflags(write=False)
    return WindowResult(float((target.conj() @ avg @ target).real) / p_s, p_s, avg_state)

