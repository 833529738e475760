"""Wigner functions of Fock-basis states on phase-space grids.

Units follow :mod:`cvpost.fock`: the vacuum Wigner function is
``(2/pi) exp(-2|alpha|^2)`` and a normalized state integrates to 1 over
the (a_plus, a_minus) plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockDensity, FockVector

#: Single-mode Wigner functions are bounded below by -2/pi.
WIGNER_LOWER_BOUND = -2.0 / np.pi

#: Riemann-sum defect beyond which a grid is flagged as too coarse.
NORM_DEFECT_TOLERANCE = 1e-4


@dataclass(frozen=True)
class WignerGrid:
    """Wigner function sampled on a rectangular (a_plus, a_minus) grid.

    ``values[i, j]`` is W(x_axis[i], p_axis[j]).  Integrals over the grid
    give each point the cell from halfway to its neighbours (the full step
    at the ends), so they hold on non-uniform axes too.  ``spacing`` is
    the step of each axis, or None for an axis that is not uniform.
    ``norm_defect`` is the difference between the Riemann sum and the
    state's trace; ``coarse`` flags grids whose defect exceeds the
    normalization tolerance.
    """

    values: np.ndarray
    x_axis: np.ndarray
    p_axis: np.ndarray
    spacing: tuple
    norm_defect: float

    @property
    def coarse(self) -> bool:
        return self.norm_defect > NORM_DEFECT_TOLERANCE

    def integrate(self, values: np.ndarray) -> float:
        """Riemann sum of ``values`` (same shape as the grid) over the plane."""
        return _riemann_sum(self.x_axis, self.p_axis, values)

    def riemann_sum(self) -> float:
        return self.integrate(self.values)


def _riemann_sum(x_axis: np.ndarray, p_axis: np.ndarray, values: np.ndarray) -> float:
    return float(np.gradient(x_axis) @ values @ np.gradient(p_axis))


def _grid_axis(axis, name: str) -> tuple[np.ndarray, float | None]:
    """The axis as floats, and its step if the points are evenly spaced."""
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{name} needs at least two points to span grid cells, got shape {axis.shape}")
    steps = np.diff(axis)
    if not steps.min() > 0:
        raise ValueError(f"{name} must be strictly increasing")
    uniform = steps.max() - steps.min() <= 1e-9 * steps.mean()
    return axis, float(steps.mean()) if uniform else None


def _wigner_values(rho: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Sum_{mn} rho_mn W_mn at arbitrary complex points.

    Uses the generalized-Laguerre kernels evaluated by a normalized
    recurrence, ``T_n^d(z) = sqrt(n!/(n+d)!) L_n^d(z) z^{d/2} e^{-z/2}``
    with ``z = 4|alpha|^2``, which stays bounded at large n and d where
    raw factorial ratios overflow.

    ``T_n^d`` depends on the radius only, so the recurrence runs once per
    distinct ``z`` (a symmetric grid repeats each radius up to eight
    times).  The phase enters as ``unit**d`` with ``unit = conj(a)/|a|``;
    the sum over diagonals is a Horner sum in ``unit`` taken from the
    highest ``d`` down, each radial part folded in as soon as it exists.
    Diagonals whose coefficients are all below ``1e-16`` of the largest
    ``|rho_mn|`` are skipped, so the result scales with ``rho``.
    """
    dim = rho.shape[0]
    a = np.asarray(alphas, dtype=complex).ravel()
    mag = np.abs(a)
    safe = np.where(mag > 0, mag, 1.0)
    unit = np.where(mag > 0, np.conj(a) / safe, 1.0)
    z, inv = np.unique(4.0 * mag**2, return_inverse=True)
    logz = np.log(np.where(z > 0, z, 1.0))
    cutoff = 1e-16 * np.abs(rho).max(initial=0.0)
    # After step d, horner = sum over d' >= d of part_d' * unit**(d' - d + 1).
    horner = np.zeros(a.size, dtype=complex)
    for d in range(dim - 1, 0, -1):
        part = _radial_part(rho, d, cutoff, z, logz)
        if part is not None:
            horner += part[inv]
        horner *= unit
    total = 2.0 * horner.real
    part = _radial_part(rho, 0, cutoff, z, logz)
    if part is not None:
        total += part.real[inv]
    return (2.0 / np.pi) * total


def _radial_part(rho: np.ndarray, d: int, cutoff: float, z: np.ndarray, logz: np.ndarray):
    """Sum_n (-1)^n rho[n+d, n] T_n^d(z) at the distinct radii ``z``, or None
    when no coefficient of the diagonal exceeds ``cutoff``."""
    coef = np.diagonal(rho, offset=-d)  # rho[n+d, n]
    nz = np.nonzero(np.abs(coef) > cutoff)[0]
    if nz.size == 0:
        return None
    n_last = int(nz[-1])
    t_prev = np.zeros_like(z)
    if d == 0:
        t_cur = np.exp(-0.5 * z)
    else:
        t_cur = np.where(z > 0, np.exp(0.5 * d * logz - 0.5 * z - 0.5 * math.lgamma(d + 1)), 0.0)
    part = np.zeros(z.size, dtype=complex)
    sign = 1.0
    for n in range(n_last + 1):
        c = coef[n]
        if c != 0:
            part += (sign * c) * t_cur
        if n == n_last:
            break
        c1 = (2 * n + 1 + d - z) / np.sqrt((n + 1) * (n + 1 + d))
        c2 = np.sqrt(n * (n + d) / ((n + 1) * (n + 1 + d))) if n > 0 else 0.0
        t_prev, t_cur = t_cur, c1 * t_cur - c2 * t_prev
        sign = -sign
    return part


def wigner_point(rho: FockDensity | np.ndarray, alpha) -> np.ndarray | float:
    """Wigner function of a single-mode state at arbitrary points."""
    mat = rho.matrix if isinstance(rho, FockDensity) else np.asarray(rho)
    vals = _wigner_values(mat, np.atleast_1d(alpha))
    return float(vals[0]) if np.isscalar(alpha) else vals


def wigner_from_density(
    rho: FockDensity,
    x_axis: np.ndarray | None = None,
    p_axis: np.ndarray | None = None,
) -> WignerGrid:
    """Sample the Wigner function of a state on a rectangular grid.

    Defaults to 241 x 241 points over [-6, 6]^2, which resolves cat-state
    fringes at |gamma| ~ 1.1 with >= 10 points per fringe.  Each axis needs
    at least two points, in increasing order.
    """
    default = np.linspace(-6.0, 6.0, 241)
    x_axis, dx = _grid_axis(default if x_axis is None else x_axis, "x_axis")
    p_axis, dp = _grid_axis(default.copy() if p_axis is None else p_axis, "p_axis")
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    alphas = xg + 1j * pg
    vals = _wigner_values(rho.matrix, alphas.ravel()).reshape(alphas.shape)
    defect = abs(_riemann_sum(x_axis, p_axis, vals) - rho.trace)
    return WignerGrid(vals, x_axis, p_axis, (dx, dp), defect)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def scs_wigner(alpha, gamma: complex):
    """W of the normalized even superposition |gamma> + |-gamma>.

    The two complex-exponential cross terms combine into
    ``2 exp(-2|a|^2) cos(4 Im(gamma* a))``.
    """
    a = np.asarray(alpha, dtype=complex)
    g = complex(gamma)
    n1 = 1.0 / (np.pi * (1.0 + np.exp(-2.0 * abs(g) ** 2)))
    direct = np.exp(-2.0 * np.abs(a - g) ** 2) + np.exp(-2.0 * np.abs(a + g) ** 2)
    cross = 2.0 * np.exp(-2.0 * np.abs(a) ** 2) * np.cos(4.0 * np.imag(np.conj(g) * a))
    return n1 * (direct + cross)


def state_grid(state: FockVector, **kwargs) -> WignerGrid:
    """Convenience: Wigner grid of a pure state."""
    return wigner_from_density(state.density(), **kwargs)
