"""Agreement oracles: the dense two-mode route for the pure-state joint,
and the point-by-point Wigner evaluator for the grid evaluator.

The package keeps the state after the beam splitter as a dim x dim amplitude
matrix and applies the beam splitter from a per-dim eigenbasis, one wrapped
diagonal at a time.  This module does the same physics the long way: the
beam splitter is one dense dim^2 x dim^2 unitary, read off ``fock.interfere``
on every product basis state, the joint is a dense dim^2 x dim^2 density
matrix, and every reduction is an explicit tensor contraction of that
matrix.  The unitary itself is checked against one ``expm`` of the full
two-mode generator (:func:`generator_unitary`), whose own rounding error on a
generator of norm ~dim is near 1e-12.  Meant for small dims only.

:func:`apply_squeeze` and :func:`apply_displace` exponentiate the squeeze
and displacement generators with ``expm`` on a buffered space, the route
the package used before its preparers became exact recurrences; they are
the reference for those recurrences.

:func:`wigner_values` is the Wigner evaluator that runs the Laguerre
recurrence at every point and raises the phase to each power explicitly.

:func:`bootstrap_se` is the emulator's earlier error-bar method, 200
resamples of the selected rows, kept as the reference for the grouped
jackknife.

:func:`window` and :func:`density_norm` integrate the outcome density by
composite Simpson on uniform nodes, the rule the package used before its
window became the exact matrix ``conditioner.window_matrix``.

The rest is API that only the tests call: closed-form Wigner functions, the
grid overlap and moments, single-wavefunction and Gaussian-state
shorthands, and the pure state the protocol makes from a coherent input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from cvpost import fock
from cvpost.conditioner import s_prime
from cvpost.emulator import _fidelity_purity, _stats_from_rows
from cvpost.errors import TruncationError
from cvpost.fock import FockDensity, FockVector, _checked
from cvpost.gaussian import GaussianState
from cvpost.wigner import WignerGrid


@dataclass(frozen=True)
class TwoModeDensity:
    """Joint density matrix over (transmitted, reflected) with row/column
    index ``i_t * dim + i_r``."""

    matrix: np.ndarray
    dim: int

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def as_tensor(self) -> np.ndarray:
        """View as rho[i, m, j, n] with (i, j) transmitted, (m, n) reflected."""
        d = self.dim
        return self.matrix.reshape(d, d, d, d)

    def ptrace(self, keep: int) -> FockDensity:
        """Reduced state of one mode: keep=0 transmitted, keep=1 reflected."""
        rho4 = self.as_tensor()
        red = np.einsum("imjm->ij", rho4) if keep == 0 else np.einsum("imin->mn", rho4)
        return FockDensity(red, self.dim, validate=False)


@lru_cache(maxsize=8)
def dense_unitary(dim: int, reflectivity: float) -> np.ndarray:
    """The package's beam splitter as one dim^2 x dim^2 matrix: column
    ``i * dim + m`` is ``fock.interfere`` applied to the product state |i, m>."""
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for m in range(dim):
            joint = fock.interfere(fock.fock_state(i, dim), fock.fock_state(m, dim), reflectivity)
            u[:, i * dim + m] = joint.amplitudes.ravel()
    return u


def generator_unitary(dim: int, reflectivity: float) -> np.ndarray:
    """exp[(theta/2)(a_in a_anc^dag - a_in^dag a_anc)] by one dense ``expm``."""
    theta = 2.0 * np.arcsin(np.sqrt(reflectivity))
    a = fock.annihilation(dim)
    return expm((theta / 2.0) * (np.kron(a, a.T) - np.kron(a.T, a)))


def beam_splitter(rho_in: FockDensity, rho_anc: FockDensity, reflectivity: float) -> TwoModeDensity:
    u = dense_unitary(rho_in.dim, reflectivity)
    joint = np.kron(rho_in.matrix, rho_anc.matrix)
    return TwoModeDensity(u @ joint @ u.conj().T, rho_in.dim)


def homodyne_project(joint: TwoModeDensity, x: float):
    """``<x|rho|x>_r`` as a dim x dim matrix, and its trace P1(x)."""
    psi = fock.quadrature_wavefunctions(joint.dim - 1, float(x))[:, 0]
    partial = np.tensordot(joint.as_tensor(), psi, axes=([3], [0]))  # [i, m, j]
    reduced = np.tensordot(partial, psi, axes=([1], [0]))  # [i, j]
    return reduced, float(np.real(np.trace(reduced)))


def _simpson_weights(n_nodes: int, lo: float, hi: float) -> np.ndarray:
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    h = (hi - lo) / (n_nodes - 1)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def gate_density(joint: TwoModeDensity, xs) -> np.ndarray:
    gate = np.einsum("imin->mn", joint.as_tensor())
    psis = fock.quadrature_wavefunctions(joint.dim - 1, xs)
    return np.real(np.einsum("mk,mn,nk->k", psis, gate, psis))


def density_norm(joint: TwoModeDensity, half_range: float = 6.0, n_nodes: int = 193) -> float:
    xs = np.linspace(-half_range, half_range, n_nodes)
    return float(_simpson_weights(n_nodes, -half_range, half_range) @ gate_density(joint, xs))


def window(joint: TwoModeDensity, target: np.ndarray, x0: float, n_nodes: int):
    """(F_ave, P_s, normalized averaged state) on ``n_nodes`` Simpson nodes."""
    rho4 = joint.as_tensor()
    kmat = np.einsum("i,imjn,j->mn", target.conj(), rho4, target)
    xs = np.linspace(-x0, x0, n_nodes)
    w = _simpson_weights(n_nodes, -x0, x0)
    psis = fock.quadrature_wavefunctions(joint.dim - 1, xs)
    ps = float(w @ gate_density(joint, xs))
    fave = float(w @ np.real(np.einsum("mk,mn,nk->k", psis, kmat, psis))) / ps
    avg = np.tensordot(rho4, (psis * w) @ psis.T, axes=([1, 3], [0, 1]))
    return fave, ps, avg / np.trace(avg)


def _apply_buffered(state: FockVector, generator, buffer: int) -> FockVector:
    """Exponentiate ``generator(dim + buffer)``, apply it to the padded state, crop."""
    dim = state.dim
    big = dim + buffer
    u = expm(generator(big))
    padded = np.zeros(big, dtype=complex)
    padded[:dim] = state.amplitudes
    out = (u @ padded)[:dim]
    lost = float(np.vdot(padded, padded).real) - float(np.vdot(out, out).real)
    if lost > fock.TAIL_TOLERANCE:
        raise TruncationError(
            f"operator application lost {lost:.3e} population to truncation at "
            f"dim={dim} (buffer {buffer}); increase dim",
        )
    return FockVector(out, dim)


def apply_squeeze(state: FockVector, s: float, buffer: int = 20) -> FockVector:
    """S(s) = exp[-(s/2)(a^2 - a^dag^2)] applied to a state."""

    def gen(d):
        a = fock.annihilation(d)
        aa = a @ a
        return -(s / 2.0) * (aa - aa.T)

    return _apply_buffered(state, gen, buffer)


def apply_displace(state: FockVector, gamma: complex, buffer: int = 20) -> FockVector:
    """D(gamma) = exp[gamma a^dag - gamma* a] applied to a state."""

    def gen(d):
        a = fock.annihilation(d)
        return gamma * a.T - np.conj(gamma) * a

    return _apply_buffered(state, gen, buffer)


def _kernel_matrix(dim: int, alpha: complex) -> np.ndarray:
    """K[m, n] with W(alpha) = sum_mn rho[m, n] K[m, n] for one point."""
    z = 4.0 * abs(alpha) ** 2
    unit = np.conj(alpha) / abs(alpha) if abs(alpha) > 0 else 1.0
    k = np.zeros((dim, dim), dtype=complex)
    for d in range(dim):
        if d == 0:
            t_prev, t_cur = 0.0, np.exp(-0.5 * z)
        else:
            t_prev = 0.0
            t_cur = np.exp(0.5 * d * np.log(z) - 0.5 * z - 0.5 * gammaln(d + 1)) if z > 0 else 0.0
        sign = 1.0
        for n in range(dim - d):
            val = sign * unit**d * t_cur
            k[n + d, n] = val
            if d > 0:
                k[n, n + d] = np.conj(val)
            c1 = (2 * n + 1 + d - z) / np.sqrt((n + 1) * (n + 1 + d))
            c2 = np.sqrt(n * (n + d) / ((n + 1) * (n + 1 + d))) if n > 0 else 0.0
            t_prev, t_cur = t_cur, c1 * t_cur - c2 * t_prev
            sign = -sign
    return (2.0 / np.pi) * k


def wigner_two_mode_point(joint: TwoModeDensity, alpha: complex, beta: complex) -> float:
    """Joint Wigner function W(alpha, beta) of a two-mode state at one point."""
    ka = _kernel_matrix(joint.dim, alpha)
    kb = _kernel_matrix(joint.dim, beta)
    return float(np.real(np.einsum("imjn,ij,mn->", joint.as_tensor(), ka, kb)))


def wigner_values(rho: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Sum_{mn} rho_mn W_mn point by point, the reference for
    ``cvpost.wigner._wigner_values``: every point runs its own Laguerre
    recurrence, each diagonal is weighted by an explicit ``unit**d``, and
    coefficients below an absolute 1e-16 are skipped."""
    dim = rho.shape[0]
    a = np.asarray(alphas, dtype=complex).ravel()
    z = 4.0 * np.abs(a) ** 2
    mag = np.abs(a)
    safe = np.where(mag > 0, mag, 1.0)
    unit = np.where(mag > 0, np.conj(a) / safe, 1.0)
    logz = np.log(np.where(z > 0, z, 1.0))
    acc = np.zeros(a.size, dtype=complex)
    for d in range(dim):
        coef = np.diagonal(rho, offset=-d)  # rho[n+d, n]
        n_top = dim - d
        nz = np.nonzero(np.abs(coef) > 1e-16)[0]
        if nz.size == 0:
            continue
        n_last = int(nz[-1])
        if d == 0:
            t_prev = np.zeros_like(z)
            t_cur = np.exp(-0.5 * z)
        else:
            t_prev = np.zeros_like(z)
            t_cur = np.where(z > 0, np.exp(0.5 * d * logz - 0.5 * z - 0.5 * gammaln(d + 1)), 0.0)
        part = np.zeros(a.size, dtype=complex)
        sign = 1.0
        for n in range(n_top):
            c = coef[n]
            if c != 0:
                part += (sign * c) * t_cur
            if n == n_last:
                break
            c1 = (2 * n + 1 + d - z) / np.sqrt((n + 1) * (n + 1 + d))
            c2 = np.sqrt(n * (n + d) / ((n + 1) * (n + 1 + d))) if n > 0 else 0.0
            t_prev, t_cur = t_cur, c1 * t_cur - c2 * t_prev
            sign = -sign
        acc += part if d == 0 else 2.0 * np.real(unit**d * part)
    return (2.0 / np.pi) * np.real(acc)


def bootstrap_se(rows: np.ndarray, params) -> tuple[float, float]:
    """Bootstrap standard errors of (fidelity, purity_norm): 200 resamples
    of the rows, seeded deterministically from the params."""
    n = rows.shape[0]
    resamples = 200
    rng = np.random.default_rng(np.random.SeedSequence(params.rng_seed, spawn_key=(1,)))
    fids = np.empty(resamples)
    purs = np.empty(resamples)
    for b in range(resamples):
        idx = rng.integers(0, n, size=n)
        m_b, c_b = _stats_from_rows(rows[idx], params)
        try:
            fids[b], purs[b] = _fidelity_purity(m_b, c_b, params)
        except ValueError:  # degenerate resample covariance
            fids[b], purs[b] = np.nan, np.nan
    return float(np.nanstd(fids, ddof=1)), float(np.nanstd(purs, ddof=1))


# ---------------------------------------------------------------------------
# Test-only API
# ---------------------------------------------------------------------------


def quadrature_wavefunction(n: int, x):
    """<n|x> for a single n; scalar in, scalar out."""
    if n < 0:
        raise ValueError("n must be >= 0")
    vals = fock.quadrature_wavefunctions(n, x)[n]
    return float(vals[0]) if np.isscalar(x) else vals


def displaced_squeezed_vacuum(beta: complex, s: float, dim: int) -> FockVector:
    """Displaced squeezed vacuum D(beta) S(s)|0> (H. P. Yuen, Phys. Rev. A 13, 2226 (1976)).

    The state is annihilated by ``cosh(s)(a - beta) - sinh(s)(a^dag - beta*)``,
    so its amplitudes follow the three-term recurrence
    ``sqrt(k+1) cosh(s) c_{k+1} = g c_k + sqrt(k) sinh(s) c_{k-1}`` with
    ``g = beta cosh(s) - beta* sinh(s)``, from
    ``c_0 = exp(-|beta|^2/2 + beta*^2 tanh(s)/2) / sqrt(cosh(s))``.
    """
    beta = complex(beta)
    ch, sh = math.cosh(s), math.sinh(s)
    g = beta * ch - beta.conjugate() * sh
    with np.errstate(invalid="ignore"):  # _checked reports a NaN parameter
        c0 = np.exp(-0.5 * abs(beta) ** 2 + 0.5 * beta.conjugate() ** 2 * math.tanh(s)) / math.sqrt(ch)
    prev, cur = 0.0, complex(c0)
    amps = [cur]
    for k in range(1, dim):
        prev, cur = cur, (g * cur + math.sqrt(k - 1) * sh * prev) / (math.sqrt(k) * ch)
        amps.append(cur)
    return _checked(np.array(amps, dtype=complex), f"D({beta:.4g}) S(s={s})|0>")


def conditioned_coherent_target(gamma: complex, reflectivity: float, s: float, dim: int) -> FockVector:
    """Pure state the protocol produces from a coherent input at outcome 0:
    ``D(sqrt(T)[e^{2s'} g+ + i g-]) S(s')|0>`` with s' = s_prime(R, s)."""
    sp = s_prime(reflectivity, s)
    t = 1.0 - reflectivity
    g = complex(gamma)
    shifted = np.sqrt(t) * (np.exp(2.0 * sp) * g.real + 1j * g.imag)
    return displaced_squeezed_vacuum(shifted, sp, dim)


def vacuum_state(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def gaussian_from_variances(v_plus: float, v_minus: float, mean=(0.0, 0.0)) -> GaussianState:
    """Single-mode Gaussian with independent quadrature variances (possibly mixed)."""
    return GaussianState(np.asarray(mean, dtype=float), np.diag([v_plus, v_minus]))


def squeezed_vacuum_wigner(alpha, s: float):
    """W of S(s)|0>: (2/pi) exp[-2 a+^2 e^{-2s} - 2 a-^2 e^{2s}]."""
    a = np.asarray(alpha, dtype=complex)
    return (2.0 / np.pi) * np.exp(
        -2.0 * a.real**2 * np.exp(-2.0 * s) - 2.0 * a.imag**2 * np.exp(2.0 * s)
    )


def single_photon_wigner(alpha):
    """W of |1>: (2/pi) exp(-2|a|^2) (4|a|^2 - 1)."""
    a = np.asarray(alpha, dtype=complex)
    r2 = np.abs(a) ** 2
    return (2.0 / np.pi) * np.exp(-2.0 * r2) * (4.0 * r2 - 1.0)


def overlap(w1: WignerGrid, w2: WignerGrid) -> float:
    """pi-weighted overlap pi * sum(W1 * W2) dx dp.

    Equals the Fock-basis fidelity for pure states up to grid error.
    """
    if w1.values.shape != w2.values.shape or not (
        np.array_equal(w1.x_axis, w2.x_axis) and np.array_equal(w1.p_axis, w2.p_axis)
    ):
        raise ValueError("overlap requires identical grids")
    return float(np.pi * w1.integrate(w1.values * w2.values))


def grid_moments(grid: WignerGrid):
    """Mean vector and 2x2 covariance of the grid as a quasi-distribution."""
    w = grid.values
    total = grid.riemann_sum()
    xg, pg = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    mx = grid.integrate(w * xg) / total
    mp = grid.integrate(w * pg) / total
    vxx = grid.integrate(w * (xg - mx) ** 2) / total
    vpp = grid.integrate(w * (pg - mp) ** 2) / total
    vxp = grid.integrate(w * (xg - mx) * (pg - mp)) / total
    return np.array([mx, mp]), np.array([[vxx, vxp], [vxp, vpp]])
