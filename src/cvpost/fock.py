"""States and operators of a single optical mode in a truncated number basis.

Quadrature convention
---------------------
A mode amplitude is written ``alpha = a_plus + i*a_minus`` with real
quadratures ``a_plus`` (amplitude) and ``a_minus`` (phase).  The vacuum
Wigner function is ``(2/pi) exp(-2|alpha|^2)``, so each vacuum quadrature
has variance 1/4.  These are *Wigner units*; shot-noise-limit (SNL) units
rescale variances by exactly 4 (vacuum variance 1) and outcomes by 2.

The quadrature operators are ``x = (a + a^dag)/2`` and
``p = (a - a^dag)/(2i)``.  The squeezing operator is
``S(s) = exp[-(s/2)(a^2 - a^dag^2)]``; for ``s > 0`` it squeezes the phase
quadrature, ``V(a_minus) = exp(-2s)/4``, and anti-squeezes the amplitude
quadrature, ``V(a_plus) = exp(+2s)/4``.  The displacement operator is
``D(g) = exp[g a^dag - g* a]``.

All values here are immutable after construction and all operations are
pure functions, so everything is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import TruncationError

# Unit system: Wigner-unit vacuum quadrature variance is 1/4, SNL-unit
# vacuum variance is 1.  The conversion factor is exactly 4 for variances
# and 2 for quadrature values.
WIGNER_VACUUM_VAR = 0.25
SNL_VACUUM_VAR = 1.0
VAR_SNL_PER_WIGNER = 4.0

#: Largest tail mass a preparer may silently discard.
TAIL_TOLERANCE = 1e-8


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FockVector:
    """Pure state of one mode: coefficients ``<n|psi>`` for n = 0..dim-1.

    The squared norm equals ``1 - tail_mass`` where ``tail_mass`` is the
    population the preparer discarded above the truncation.
    """

    amplitudes: np.ndarray
    dim: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def tail_mass(self) -> float:
        """Population lost to truncation, 1 - ||psi||^2."""
        return max(0.0, 1.0 - self.norm**2)

    def density(self) -> "FockDensity":
        return FockDensity(np.outer(self.amplitudes, self.amplitudes.conj()), self.dim)


@dataclass(frozen=True)
class FockDensity:
    """Hermitian, positive-semidefinite density matrix of one mode.

    The trace is 1 - tail for normalized states but conditioning returns
    unnormalized instances, so the trace itself is not constrained here.
    """

    matrix: np.ndarray
    dim: int
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} matrix, got {mat.shape}")
        if self.validate:
            scale = max(float(np.abs(mat).max()), 1e-300)
            if np.abs(mat - mat.conj().T).max() > 1e-12 * max(scale, 1.0):
                raise ValueError("density matrix is not Hermitian within 1e-12")
            evals = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
            if evals.min() < -1e-10 * max(scale, 1.0):
                raise ValueError("density matrix has negative eigenvalues")
        object.__setattr__(self, "matrix", _readonly(mat))

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def normalized(self) -> "FockDensity":
        tr = self.trace
        if tr <= 0:
            raise ValueError("cannot normalize a density matrix with trace <= 0")
        return FockDensity(self.matrix / tr, self.dim, validate=False)

    def purity(self) -> float:
        return float(np.real(np.sum(self.matrix * self.matrix.conj().T)))


@dataclass(frozen=True)
class TwoModeState:
    """Pure state over (transmitted, reflected): amplitudes ``Psi[i_t, m_r]``.

    Every state the protocol feeds into the beam splitter is pure, so the
    joint is this dim x dim matrix; its density matrix would be dim^4.
    """

    amplitudes: np.ndarray
    dim: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", _readonly(amps))


def annihilation(dim: int) -> np.ndarray:
    """Matrix of the annihilation operator, <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def quadrature_ops(dim: int):
    """Amplitude and phase quadrature matrices in Wigner units."""
    a = annihilation(dim)
    x = 0.5 * (a + a.T)
    p = (a - a.T) / 2j
    return x, p


def quadrature_moments(rho: FockDensity | np.ndarray):
    """Mean vector and 2x2 covariance of (x, p) in Wigner units."""
    mat = rho.matrix if isinstance(rho, FockDensity) else np.asarray(rho)
    dim = mat.shape[0]
    tr = np.real(np.trace(mat))
    x, p = quadrature_ops(dim)
    mean = np.array([np.real(np.trace(mat @ x)), np.real(np.trace(mat @ p))]) / tr
    xx = np.real(np.trace(mat @ x @ x)) / tr
    pp = np.real(np.trace(mat @ p @ p)) / tr
    xp = np.real(np.trace(mat @ (x @ p + p @ x))) / (2 * tr)
    cov = np.array(
        [
            [xx - mean[0] ** 2, xp - mean[0] * mean[1]],
            [xp - mean[0] * mean[1], pp - mean[1] ** 2],
        ]
    )
    return mean, cov


# ---------------------------------------------------------------------------
# State preparers
# ---------------------------------------------------------------------------


def fock_state(n: int, dim: int) -> FockVector:
    """Number state |n>.

    Parameters
    ----------
    n : int
        Photon number, 0 <= n < dim.
    dim : int
        Truncation dimension.
    """
    if not 0 <= n < dim:
        raise TruncationError(
            f"fock_state(n={n}) does not fit in dim={dim}", suggested_dim=n + 1
        )
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps, dim)


def _coherent_amplitudes(gamma: complex, dim: int) -> np.ndarray:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = np.exp(-0.5 * abs(gamma) ** 2)
    for k in range(1, dim):
        amps[k] = amps[k - 1] * gamma / np.sqrt(k)
    return amps


def _min_dim_for_coherent(gamma: complex, tol: float) -> int:
    mean = abs(gamma) ** 2
    # Poisson tail: extend until the retained mass is within tol of 1.
    term = np.exp(-mean)
    cum = term
    k = 0
    while 1.0 - cum > tol and k < 100_000:
        k += 1
        term *= mean / k
        cum += term
    return k + 1


def _checked(amps: np.ndarray, what: str, need=None) -> FockVector:
    """The state with these amplitudes, unless they are not finite or discard
    more than the tail budget; ``need()``, if given, is the smallest adequate dim."""
    if not np.all(np.isfinite(amps)):
        raise ValueError(f"{what} has non-finite amplitudes; its parameters must be finite")
    tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    if tail > TAIL_TOLERANCE:
        suggested = need() if need else None
        raise TruncationError(
            f"{what} tail mass {tail:.3e} exceeds {TAIL_TOLERANCE:.0e} at dim={amps.size}; "
            + (f"use dim >= {suggested}" if suggested else "increase dim"),
            suggested_dim=suggested,
        )
    return FockVector(amps, amps.size)


def coherent_state(gamma: complex, dim: int) -> FockVector:
    """Coherent state |gamma> with amplitudes e^{-|g|^2/2} g^n / sqrt(n!).

    Raises
    ------
    TruncationError
        If the discarded tail mass exceeds the tolerance; the error names
        the smallest adequate dimension.
    """
    need = partial(_min_dim_for_coherent, gamma, TAIL_TOLERANCE)
    return _checked(_coherent_amplitudes(gamma, dim), f"coherent_state(|gamma|={abs(gamma):.4g})", need)


def squeezed_vacuum(s: float, dim: int) -> FockVector:
    """Squeezed vacuum S(s)|0> in the number basis.

    Only even number states are populated:
    ``c_{2k} = sech(s)^{1/2} tanh(s)^k sqrt((2k)!)/(2^k k!)``.
    For ``s > 0`` the phase quadrature is squeezed, ``V(a_minus) = e^{-2s}/4``,
    matching the Wigner form ``(2/pi) exp[-2 a_plus^2 e^{-2s} - 2 a_minus^2 e^{2s}]``.
    """
    return squeezed_number_state(0, s, dim)


def squeezed_number_state(n: int, s: float, dim: int) -> FockVector:
    """Squeezed number state S(s)|n>.

    ``S(s) a^dag S(s)^dag = cosh(s) a^dag - sinh(s) a``, so
    ``S(s)|n> = (cosh(s) a^dag - sinh(s) a)^n S(s)|0> / sqrt(n!)``.  One
    application of that operator to a vector kept on L levels is exact on
    the first L - 1, so starting from the squeezed vacuum on dim + n levels
    leaves the first dim levels exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    amps = np.zeros(dim + n, dtype=complex)
    t, c = np.tanh(s), 1.0 / np.sqrt(np.cosh(s))
    for k in range(0, dim + n, 2):
        amps[k] = c
        c *= t * np.sqrt((k + 1) / (k + 2))
    ch, sh = np.cosh(s), np.sinh(s)
    for j in range(1, n + 1):
        root = np.sqrt(np.arange(1.0, amps.size))
        raised = np.zeros_like(amps)
        raised[1:] = ch * root * amps[:-1]
        raised[:-1] -= sh * root * amps[1:]
        amps = raised[:-1] / np.sqrt(j)
    return _checked(amps, f"S(s={s})|{n}>")


def scs_state(gamma: complex, parity: str, dim: int) -> FockVector:
    """Normalized superposition of coherent states |gamma> +/- |-gamma>.

    ``parity='even'`` takes the plus sign (even photon numbers only),
    ``parity='odd'`` the minus sign.  The exact squared norm of the
    unnormalized superposition is ``2 (1 +/- e^{-2|gamma|^2})``.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    sign = 1.0 if parity == "even" else -1.0
    overlap = np.exp(-2.0 * abs(gamma) ** 2)
    norm_sq = 2.0 * (1.0 + sign * overlap)
    if norm_sq < 1e-12:
        raise ValueError(f"{parity} superposition is degenerate at gamma={gamma}")
    plus = _coherent_amplitudes(gamma, dim)
    minus = _coherent_amplitudes(-gamma, dim)
    with np.errstate(invalid="ignore"):  # _checked reports a NaN parameter
        amps = (plus + sign * minus) / np.sqrt(norm_sq)
    need = partial(_min_dim_for_coherent, gamma, TAIL_TOLERANCE / 4.0)
    return _checked(amps, f"scs_state(|gamma|={abs(gamma):.4g})", need)


# ---------------------------------------------------------------------------
# Beam splitter
# ---------------------------------------------------------------------------


#: Largest estimated memory (:func:`_dim_bytes`) one truncation dimension may
#: take; the cache keeps up to four dims.  dim 401 is the largest that fits,
#: far past the dims (40 to 120) the protocol needs.
MEMORY_BUDGET = 1 << 29

# 1j**k for k mod 4, exactly.
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _dim_bytes(dim: int) -> int:
    """Estimated bytes of :func:`beam_splitter_unitary` at ``dim`` plus one joint.

    The eigenvectors take dim^3 float64 values; the eigenvalues, the two
    index arrays, the joint and the temporaries of :func:`interfere` take
    about sixteen dim^2 float64 values together.
    """
    return 8 * dim**3 + 128 * dim**2


def check_dim(dim: int) -> None:
    """Raise ValueError, before anything is allocated, if ``dim`` is over :data:`MEMORY_BUDGET`."""
    need = _dim_bytes(dim)
    if need <= MEMORY_BUDGET:
        return
    fits = int((MEMORY_BUDGET / 8) ** (1 / 3))
    while _dim_bytes(fits) > MEMORY_BUDGET:
        fits -= 1
    raise ValueError(
        f"dim={dim} needs about {need / 2**20:.0f} MiB for the beam-splitter eigenbasis and the "
        f"joint, over the {MEMORY_BUDGET >> 20} MiB budget; the largest dim that fits is {fits}"
    )


class BeamSplitterBasis(NamedTuple):
    """Eigenbasis of the beam-splitter generator at one truncation ``dim``.

    Row N = 0..dim-1 of every array belongs to the "wrapped diagonal"
    ``|i, (N - i) mod dim>``, i = 0..dim-1, which holds photon-number block N
    on ``i <= N`` and block N + dim on ``i > N``.  All arrays are read-only.
    """

    #: ``vectors[N]``: real orthogonal dim x dim, block diagonal in those two blocks.
    vectors: np.ndarray
    #: ``eigenvalues[N, k]`` of column k of ``vectors[N]``.
    eigenvalues: np.ndarray
    #: ``phases[k] = 1j**k``, the diagonal of S.
    phases: np.ndarray
    #: ``gather[N * dim + i]``: flat index into the dim x dim product matrix of
    #: wrapped diagonal N, row i; a permutation of range(dim**2).
    gather: np.ndarray


@lru_cache(maxsize=4)
def beam_splitter_unitary(dim: int) -> BeamSplitterBasis:
    """The two-mode beam-splitter unitary on the dim x dim product space, in factored form.

    Reflectivity R = sin^2(phi).  The generator conserves total photon number,
    so the unitary is block diagonal: block N (N = 0..2 dim - 2) acts on the
    states |i, N - i> that fit in dim, and is ``exp(phi A_N)``, where ``A_N``
    is real antisymmetric tridiagonal with ``A_N[i-1, i] = sqrt(i (N - i + 1))``.
    With ``S = diag(1j**k)`` and ``T_N`` the real symmetric tridiagonal matrix
    with the same off-diagonal entries, ``A_N = 1j S T_N S^-1``; so
    ``U_N(R) = S V e^{i phi Lambda} V^T S^-1`` with ``T_N = V Lambda V^T``,
    and V and Lambda depend on dim only, never on R.  Blocks N and N + dim
    share one row of the returned arrays (see :class:`BeamSplitterBasis`), so
    :func:`interfere` applies the 2 dim - 1 blocks as dim stacked dim x dim
    products.  Blocks that fit below the truncation are exact, and the
    operator is exactly unitary on the truncated space either way.

    Mode ordering is (input -> transmitted, ancilla -> reflected) with
    ``a_t = sqrt(T) a_in - sqrt(R) a_anc`` and
    ``a_r = sqrt(R) a_in + sqrt(T) a_anc``.
    """
    check_dim(dim)
    i = np.arange(dim)
    vectors = np.zeros((dim, dim, dim))
    eigenvalues = np.zeros((dim, dim))
    for n in range(dim):
        for rows, total in ((i[: n + 1], n), (i[n + 1:], n + dim)):
            if rows.size:
                block = slice(rows[0], rows[-1] + 1)
                coupling = np.sqrt(rows[1:] * (total - rows[1:] + 1.0))
                eigenvalues[n, block], vectors[n, block, block] = _block_eigh(coupling)
    return BeamSplitterBasis(
        vectors=_readonly(vectors),
        eigenvalues=_readonly(eigenvalues),
        phases=_readonly(_I_POWERS[i % 4]),
        gather=_readonly((i * dim + (i[:, None] - i) % dim).ravel()),
    )


def _block_eigh(coupling: np.ndarray):
    """Eigenvalues and eigenvectors of the symmetric tridiagonal matrix with
    zero diagonal and off-diagonal ``coupling``.

    ``coupling`` reads the same both ways (swapping the modes maps
    |i, N - i> to |N - i, i>), so the eigenvectors are mirror-even or
    mirror-odd, and each kind solves a problem of half the size.  For an
    even size the two halves differ only in the sign of one diagonal entry,
    so the odd problem is the even one negated and conjugated by (-1)^i.
    """
    k = coupling.size + 1
    if k == 1:
        return np.zeros(1), np.ones((1, 1))
    m, odd = k // 2, k % 2
    inner, mid = coupling[: m - 1], coupling[m - 1]
    if odd:  # the middle row couples to the mirror-even half only, by sqrt(2) mid
        lam_e, y_e = np.linalg.eigh(_tridiagonal(np.append(inner, math.sqrt(2.0) * mid)))
        lam_o, y_o = np.linalg.eigh(_tridiagonal(inner))
    else:
        half = _tridiagonal(inner)
        half[-1, -1] = mid
        lam_e, y_e = np.linalg.eigh(half)
        lam_o, y_o = -lam_e, y_e * (-1.0) ** np.arange(m)[:, None]
    root = math.sqrt(0.5)
    vectors = np.zeros((k, k))
    vectors[:m, : m + odd] = root * y_e[:m]
    vectors[k - m:, : m + odd] = root * y_e[m - 1::-1]
    vectors[:m, m + odd:] = root * y_o
    vectors[k - m:, m + odd:] = -root * y_o[::-1]
    if odd:
        vectors[m, : m + 1] = y_e[m]
    return np.concatenate([lam_e, lam_o]), vectors


def _tridiagonal(off: np.ndarray) -> np.ndarray:
    return np.diag(off, k=1) + np.diag(off, k=-1)


def _stacked_product(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``mats[N] @ vecs[N]`` for real ``mats`` and complex ``vecs``: one real
    (dim x dim) @ (dim x 2) product per N, small enough for OpenBLAS to run
    on the calling thread."""
    dim = vecs.shape[0]
    return np.matmul(mats, vecs.view(np.float64).reshape(dim, dim, 2)).view(complex)[..., 0]


def interfere(psi_in: FockVector, psi_anc: FockVector, reflectivity: float) -> TwoModeState:
    """Interfere a pure input mode with a pure ancilla on a beam splitter.

    Returns the joint state over (transmitted, reflected).  Applies
    ``S V e^{i phi Lambda} V^T S^-1`` of :func:`beam_splitter_unitary` to each
    wrapped diagonal of ``outer(psi_in, psi_anc)`` without building any block:
    gather, multiply by S^-1, take V^T, multiply by the phases, take V,
    multiply by S, scatter.  The orientation reproduces the Wigner
    composition ``W_in(sqrt(T) a + sqrt(R) b) * W_anc(-sqrt(R) a + sqrt(T) b)``.
    """
    if psi_in.dim != psi_anc.dim:
        raise ValueError("input and ancilla must share the truncation dimension")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError(f"reflectivity must be in [0, 1], got {reflectivity}")
    dim = psi_in.dim
    product = np.outer(psi_in.amplitudes, psi_anc.amplitudes)
    if reflectivity == 0.0:  # the identity, exactly
        return TwoModeState(product, dim)
    basis = beam_splitter_unitary(dim)
    phi = math.asin(math.sqrt(reflectivity))
    diagonals = product.ravel()[basis.gather].reshape(dim, dim) * basis.phases.conj()
    rotated = _stacked_product(basis.vectors.transpose(0, 2, 1), diagonals)
    rotated *= np.exp(1j * phi * basis.eigenvalues)
    out = np.empty(dim * dim, dtype=complex)
    out[basis.gather] = (_stacked_product(basis.vectors, rotated) * basis.phases).ravel()
    return TwoModeState(out.reshape(dim, dim), dim)


# ---------------------------------------------------------------------------
# Quadrature eigenstates
# ---------------------------------------------------------------------------


def quadrature_wavefunctions(n_max: int, x) -> np.ndarray:
    """<n|x> for all n = 0..n_max at the given points (Wigner units).

    ``<n|x> = (2/pi)^{1/4} H_n(sqrt(2) x) e^{-x^2} / sqrt(2^n n!)`` with
    H_n the physicists' Hermite polynomials; |x> is delta-normalized so
    |<x|psi>|^2 is a true probability density.  Evaluated by the
    normalized upward recurrence, which stays bounded at large n.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.sqrt(2.0) * xs
    k = np.arange(1.0, n_max + 1)
    up, down = np.outer(np.sqrt(2.0 / k), xi), np.sqrt((k - 1.0) / k).tolist()
    out = np.empty((n_max + 1, xs.size))
    out[0] = np.exp(-0.5 * xi**2)
    prev = np.zeros_like(xi)
    for n in range(n_max):
        out[n + 1] = up[n] * out[n] - down[n] * prev
        prev = out[n]
    return (2.0 / np.pi) ** 0.25 * out
