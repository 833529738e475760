"""Closed-form engine for Gaussian states in shot-noise-limit units.

A state is a mean quadrature vector and a symmetric covariance matrix with
the vacuum normalized to the identity (SNL units).  Relative to the Wigner
units of :mod:`cvpost.fock`, variances scale by exactly 4 and quadrature
values by 2: ``x_snl = 2 x_wig``.  A coherent amplitude ``gamma``
contributes an SNL-unit mean of ``2 gamma`` to (X+, X-).

Quadrature ordering is (X+, X-) per mode; for two modes
(X+_t, X-_t, X+_r, X-_r).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def symplectic_form(n_modes: int) -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = j
    return out


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix in SNL units (vacuum = identity).

    ``physical=False`` skips the uncertainty-relation check; estimated
    moments of measured records may sit slightly below the quantum bound
    after noise subtraction and finite sampling.
    """

    mean: np.ndarray
    cov: np.ndarray
    physical: bool = field(default=True, repr=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size) or mean.size % 2:
            raise ValueError("mean/cov shapes must be (2n,) and (2n, 2n)")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-10 * scale:
            raise ValueError("covariance matrix must be symmetric")
        if self.physical:
            omega = symplectic_form(mean.size // 2)
            evals = np.linalg.eigvalsh(cov + 1j * omega)
            # tolerance scales with the matrix norm: eigenvalues of strongly
            # squeezed states carry absolute roundoff of order eps * |cov|
            if evals.min() < -1e-9 * scale:
                raise ValueError("covariance violates the uncertainty relation")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def coherent_gaussian(gamma: complex) -> GaussianState:
    g = complex(gamma)
    return GaussianState(np.array([2.0 * g.real, 2.0 * g.imag]), np.eye(2))


def squeezed_gaussian(s: float) -> GaussianState:
    """S(s)|0>: V(X+) = e^{2s}, V(X-) = e^{-2s} (phase squeezed for s > 0)."""
    return GaussianState(np.zeros(2), np.diag([np.exp(2.0 * s), np.exp(-2.0 * s)]))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((mean.size, mean.size))
    na = a.mean.size
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(mean, cov)


def beam_splitter_symplectic(reflectivity: float) -> np.ndarray:
    """(t, r) <- (in, anc): t = sqrt(T) in - sqrt(R) anc, r = sqrt(R) in + sqrt(T) anc."""
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must be in [0, 1], got {reflectivity}")
    st = np.sqrt(1.0 - reflectivity)
    sr = np.sqrt(reflectivity)
    i2 = np.eye(2)
    return np.block([[st * i2, -sr * i2], [sr * i2, st * i2]])


def apply_symplectic(state: GaussianState, m: np.ndarray) -> GaussianState:
    return GaussianState(m @ state.mean, m @ state.cov @ m.T)


def condition_xplus(state: GaussianState, x: float):
    """Measure X+ of the last mode at outcome x; Schur-complement update.

    Returns the conditional state of the remaining mode(s) and the Gaussian
    outcome density evaluated at x (probability per SNL unit).  The
    conditional covariance does not depend on the outcome.
    """
    if state.n_modes < 2:
        raise ValueError("conditioning requires at least two modes")
    meas = state.mean.size - 2  # X+ of the last mode
    keep = [i for i in range(state.mean.size) if i not in (meas, meas + 1)]
    v_meas = state.cov[meas, meas]
    if v_meas <= 0:
        raise ValueError("measured quadrature has non-positive variance")
    cross = state.cov[keep, meas]
    mean_c = state.mean[keep] + cross * (x - state.mean[meas]) / v_meas
    cov_c = state.cov[np.ix_(keep, keep)] - np.outer(cross, cross) / v_meas
    cov_c = 0.5 * (cov_c + cov_c.T)
    density = float(
        np.exp(-0.5 * (x - state.mean[meas]) ** 2 / v_meas) / np.sqrt(2.0 * np.pi * v_meas)
    )
    return GaussianState(mean_c, cov_c), density


def condition_through(
    input_state: GaussianState,
    ancilla: GaussianState,
    reflectivity: float,
    x: float,
):
    """Full protocol step: interfere with the ancilla, homodyne the
    reflected X+ at outcome x, return (conditional state, outcome density)."""
    joint = apply_symplectic(tensor(input_state, ancilla), beam_splitter_symplectic(reflectivity))
    return condition_xplus(joint, x)


def condition_coherent(gamma: complex, reflectivity: float, s_anc: float, x: float) -> GaussianState:
    """Conditional output for a coherent input and squeezed-vacuum ancilla.

    ``x`` is the homodyne outcome in SNL units (x_snl = 2 x_wig).  At x = 0
    the result is the displaced squeezed state
    ``D(sqrt(T)[e^{2s'} g+ + i g-]) S(s')|0>`` with s' = s_prime(R, s_anc).
    """
    state, _ = condition_through(
        coherent_gaussian(gamma), squeezed_gaussian(s_anc), reflectivity, x
    )
    return state


def ideal_target(state: GaussianState, reflectivity: float) -> GaussianState:
    """Ideal single-mode squeezer limit applied to an arbitrary Gaussian input.

    Uses s' = -ln(T)/2: means scale by (e^{s'}, e^{-s'}) and the covariance
    by the corresponding symplectic congruence.
    """
    t = 1.0 - reflectivity
    if t <= 0:
        raise ValueError("reflectivity must be < 1 for the ideal squeezer limit")
    sp = -0.5 * np.log(t)
    m = np.diag([np.exp(sp), np.exp(-sp)])
    return GaussianState(m @ state.mean, m @ state.cov @ m.T)


def ideal_gains(reflectivity: float):
    """Mean-displacement gains of the ideal squeezer, (1/sqrt(T), sqrt(T))."""
    t = 1.0 - reflectivity
    return 1.0 / np.sqrt(t), np.sqrt(t)


@dataclass(frozen=True)
class GainReport:
    """Measured and ideal mean-displacement gains g+/- = <X_out>/<X_in>."""

    g_plus: float
    g_minus: float
    ideal_g_plus: float
    ideal_g_minus: float


def gaussian_fidelity(a: GaussianState, b: GaussianState) -> float:
    """Fidelity of two single-mode Gaussian states.

    Closed form in SNL units: with D = det(Va + Vb) and
    L = (det Va - 1)(det Vb - 1),

        F = 2 exp[-du^T (Va+Vb)^{-1} du / 2] / (sqrt(D + L) - sqrt(L)).

    For pure states (L = 0) this reduces to the pi-weighted Wigner overlap
    pi * int W_a W_b; it equals 1 for identical states, mixed or pure.
    """
    if a.n_modes != 1 or b.n_modes != 1:
        raise ValueError("gaussian_fidelity is defined for single-mode states")
    for st in (a, b):
        if np.linalg.eigvalsh(st.cov).min() <= 0:
            raise ValueError("covariance must be positive definite")
    total = a.cov + b.cov
    delta = np.linalg.det(total)
    lam = (np.linalg.det(a.cov) - 1.0) * (np.linalg.det(b.cov) - 1.0)
    lam = max(lam, 0.0)
    du = b.mean - a.mean
    expo = float(np.exp(-0.5 * du @ np.linalg.solve(total, du)))
    return 2.0 * expo / (np.sqrt(delta + lam) - np.sqrt(lam))


def purity(state: GaussianState) -> float:
    """tr(rho^2) of a Gaussian state: 1/sqrt(det V) in SNL units."""
    det = np.linalg.det(state.cov)
    if det <= 0:
        raise ValueError("covariance must be positive definite")
    return float(1.0 / np.sqrt(det))


def purity_norm(out: GaussianState, inp: GaussianState) -> float:
    """Output purity normalized to the input purity."""
    return purity(out) / purity(inp)


#: The only reflectivities with a quoted classical fidelity bound.
_CLASSICAL_LIMITS = {0.75: 0.8, 0.5: np.sqrt(8.0) / 3.0}


def classical_limit(reflectivity: float) -> float:
    """Maximum fidelity reachable without entangling resources.

    Only the two quoted operating points are supported; there is no general
    formula for other reflectivities here.
    """
    for r, value in _CLASSICAL_LIMITS.items():
        if abs(reflectivity - r) < 1e-12:
            return value
    raise ValueError(
        f"no classical fidelity bound available for reflectivity {reflectivity}; "
        "supported values: 0.5, 0.75"
    )
