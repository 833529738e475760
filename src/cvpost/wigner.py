"""Wigner functions of Fock-basis states on phase-space grids.

Units follow :mod:`cvpost.fock`: the vacuum Wigner function is
``(2/pi) exp(-2|alpha|^2)`` and a normalized state integrates to 1 over
the (a_plus, a_minus) plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Single-mode Wigner functions are bounded below by -2/pi.
WIGNER_LOWER_BOUND = -2.0 / np.pi


@dataclass(frozen=True)
class WignerGrid:
    """Wigner function sampled on a rectangular (a_plus, a_minus) grid.

    ``values[i, j]`` is W(x_axis[i], p_axis[j]).  Integrals over the grid
    give each point the cell from halfway to its neighbours (the full step
    at the ends), so they hold on non-uniform axes too.
    """

    values: np.ndarray
    x_axis: np.ndarray
    p_axis: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Riemann sum of ``values`` (same shape as the grid) over the plane."""
        # a grid whose cell areas pass the float range (steps near 1e154) sums to inf
        with np.errstate(over="ignore"):
            return float(np.gradient(self.x_axis) @ values @ np.gradient(self.p_axis))

    def riemann_sum(self) -> float:
        return self.integrate(self.values)


def _grid_axis(axis, name: str) -> np.ndarray:
    """The axis as floats, checked to have at least two points in increasing order."""
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{name} needs at least two points to span grid cells, got shape {axis.shape}")
    if not np.diff(axis).min() > 0:
        raise ValueError(f"{name} must be strictly increasing")
    return axis


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

    A real ``rho`` takes real radial parts.  Complex products are exact
    under conjugation and negation, so ``alpha`` and ``conj(alpha)`` then
    get the same bits, as do ``alpha`` and ``-conj(alpha)`` when every odd
    diagonal is zero (the photon modes' states).
    """
    dim = rho.shape[0]
    a = np.asarray(alphas, dtype=complex).ravel()
    mag = np.abs(a)
    safe = np.where(mag > 0, mag, 1.0)
    unit = np.where(mag > 0, np.conj(a) / safe, 1.0)
    # W is 0 past |alpha| = 1e150, where e^{-z/2} has underflowed; the cap keeps
    # z finite (4|alpha|^2 overflows past 1e154, and 0 * inf is NaN).
    z, inv = np.unique(4.0 * np.minimum(mag, 1e150) ** 2, return_inverse=True)
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
    part = np.zeros(z.size, dtype=coef.dtype)
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


def mirror_axis(extent: float, points: int) -> np.ndarray:
    """``0.5 * (a - a[::-1])`` for ``a = linspace(-extent, extent, points)``:
    ``axis[k] == -axis[-1 - k]`` bit for bit, within 8.9e-16 of ``a`` at
    extent 6.  Taken on a quarter of the extent, as powers of two change no
    bit, so that no finite extent overflows."""
    quarter = np.linspace(-0.25 * extent, 0.25 * extent, points)
    return 2.0 * (quarter - quarter[::-1])


def wigner_from_density(
    rho: np.ndarray,
    x_axis: np.ndarray | None = None,
    p_axis: np.ndarray | None = None,
) -> WignerGrid:
    """Sample the Wigner function of the density matrix ``rho`` on a rectangular grid.

    ``rho`` must be square, finite, Hermitian within 1e-12 and free of eigenvalues
    below -1e-10 of its scale; its trace may be anything.  The grid defaults
    to 241 x 241 points over [-6, 6]^2 (:func:`mirror_axis`), which resolves
    cat-state fringes at |gamma| ~ 1.1 with >= 10 points per fringe.  Each
    axis needs at least two points, in increasing order.
    """
    rho = np.asarray(rho, dtype=complex if np.iscomplexobj(rho) else float)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        raise ValueError(f"density matrix must be a non-empty square array, got shape {rho.shape}")
    bad = np.argwhere(~np.isfinite(rho))
    if bad.size:  # NaN fails no comparison below, and eigvalsh would not converge
        i, j = bad[0].tolist()
        raise ValueError(f"density matrix has a non-finite entry, {rho[i, j].item()} at [{i}, {j}] "
                         f"({len(bad)} in all)")
    scale = np.abs(rho).max(initial=1.0)
    if np.abs(rho - rho.conj().T).max() > 1e-12 * scale:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-10 * scale:
        raise ValueError("density matrix has negative eigenvalues")
    default = mirror_axis(6.0, 241)
    x_axis = _grid_axis(default if x_axis is None else x_axis, "x_axis")
    p_axis = _grid_axis(default.copy() if p_axis is None else p_axis, "p_axis")
    xg, pg = np.meshgrid(x_axis, p_axis, indexing="ij")
    alphas = xg + 1j * pg
    vals = _wigner_values(rho, alphas.ravel()).reshape(alphas.shape)
    return WignerGrid(vals, x_axis, p_axis)
