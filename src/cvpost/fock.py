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

A pure state of one mode is the read-only 1-D array of its amplitudes
``<n|psi>``, n < dim; its squared norm is 1 less the population the preparer
discarded above the truncation.  Every array here is read-only and every
operation is a pure function, so everything is safe to share across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .gaussian import SQUEEZING, checked

#: Largest tail mass a preparer may silently discard.
TAIL_TOLERANCE = 1e-8


class TruncationError(ValueError):
    """Raised when a state or operator loses more than the allowed tail mass
    to Fock-space truncation.

    ``suggested_dim``, when not None, is the smallest dimension that would
    keep the tail below the threshold.
    """

    def __init__(self, message, suggested_dim=None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def pure_dim(psi, dim: int | None = None, what: str = "state") -> int:
    """The length of the pure state ``psi``, a 1-D array of ``dim`` amplitudes (any if None), or ValueError."""
    shape = np.shape(psi)
    if len(shape) != 1 or dim not in (None, shape[0]):
        length = "" if dim is None else f" of {dim} amplitudes"
        raise ValueError(f"{what} must be a 1-D array{length}, got shape {shape}")
    return shape[0]


def quadrature_moments(psi: np.ndarray):
    """Mean vector and 2x2 covariance of (x, p) in Wigner units.

    x|psi> and p|psi> come from a|psi> and a^dag|psi>, the amplitudes shifted
    one level down and up and truncated at dim, as the operators
    ``x = (a + a^dag)/2`` and ``p = (a - a^dag)/(2i)`` are; each moment is
    then an inner product, such as <(xp + px)/2> = Re <x psi|p psi>.
    """
    root = np.sqrt(np.arange(1.0, pure_dim(psi)))
    lowered, raised = np.append(root * psi[1:], 0.0), np.append(0.0, root * psi[:-1])
    x_psi, p_psi = 0.5 * (lowered + raised), (lowered - raised) / 2j
    tr = np.vdot(psi, psi).real
    mean = np.array([np.vdot(psi, x_psi).real, np.vdot(psi, p_psi).real]) / tr
    xp = np.vdot(x_psi, p_psi).real
    second = np.array([[np.vdot(x_psi, x_psi).real, xp], [xp, np.vdot(p_psi, p_psi).real]]) / tr
    return mean, second - np.outer(mean, mean)


# ---------------------------------------------------------------------------
# State preparers
# ---------------------------------------------------------------------------


def fock_state(n: int, dim: int) -> np.ndarray:
    """Number state |n>, for an integer n in [0, MAX_DIM - 1]; a TruncationError,
    as for :func:`coherent_state`, names dim n + 1 when n >= dim."""
    n = checked(n, int, _PHOTONS, "n")
    return _checked(lambda levels: np.eye(1, levels, n)[0], dim, f"fock_state(n={n})")


def _coherent_amplitudes(gamma: complex, dim: int) -> np.ndarray:
    # c_k = c_{k-1} gamma / sqrt(k), as one running product.  c_0 is 0 from |gamma| ~ 39 on, so
    # capping |gamma| before squaring it changes no bit and keeps |gamma|^2 from overflowing.
    steps = np.empty(dim, dtype=complex)
    steps[0] = np.exp(-0.5 * min(abs(gamma), 1e150) ** 2)
    steps[1:] = gamma / np.sqrt(np.arange(1, dim))
    return np.cumprod(steps)


@np.errstate(over="ignore", invalid="ignore")  # an amplitude that overflows fails the norm test
def _checked(amplitudes, dim: int, what: str) -> np.ndarray:
    """The state ``amplitudes(dim)``, unless rounding has lifted its squared
    norm over 1 + the tail budget or made it NaN (ValueError), or it discards
    more than the budget (TruncationError).  Every preparer's state on a
    smaller dim is a prefix of its state on a larger one, bit for bit, so the
    smallest adequate dim is the shortest such prefix of ``amplitudes(MAX_DIM)``."""
    dim = check_dim(dim)
    amps = amplitudes(dim)
    tail = _tails(amps)[-1]
    if not tail >= -TAIL_TOLERANCE:  # NaN too
        raise ValueError(f"{what} has squared norm {1.0 - tail:.6g} at dim={dim}, not at most "
                         f"1 + {TAIL_TOLERANCE:.0e}: its amplitudes lost their precision to rounding")
    if tail > TAIL_TOLERANCE:
        fits = np.flatnonzero(abs(_tails(amplitudes(MAX_DIM))) <= TAIL_TOLERANCE)
        suggested = int(fits[0]) + 1 if fits.size else None
        hint = (f"use dim >= {suggested}" if suggested else
                f"no dim up to {MAX_DIM}, the largest the memory budget allows, holds it")
        raise TruncationError(
            f"{what} tail mass {tail:.3e} exceeds {TAIL_TOLERANCE:.0e} at dim={dim}; {hint}",
            suggested_dim=suggested,
        )
    return _readonly(amps)


def _tails(amps: np.ndarray) -> np.ndarray:
    """1 - the squared norm of each prefix, summed in order so that a prefix's
    tails are the first tails of the whole."""
    return 1.0 - np.cumsum(np.abs(amps) ** 2)


def coherent_state(gamma: complex, dim: int) -> np.ndarray:
    """Coherent state |gamma> with amplitudes e^{-|g|^2/2} g^n / sqrt(n!).

    Raises
    ------
    ValueError
        If ``gamma`` is no number, complex or [re, im] pair in [-1e308, 1e308].
    TruncationError
        If the discarded tail mass exceeds the tolerance; the error names
        the smallest adequate dimension, or says that no dimension the
        memory budget allows holds the state.
    """
    gamma = complex(*checked(gamma, complex, _AMPLITUDE, "gamma"))
    return _checked(partial(_coherent_amplitudes, gamma), dim, f"coherent_state(|gamma|={abs(gamma):.4g})")


def squeezed_number_state(n: int, s: float, dim: int) -> np.ndarray:
    """Squeezed number state S(s)|n>.

    The squeezed vacuum S(s)|0> populates only even number states,
    ``c_{2k} = sech(s)^{1/2} tanh(s)^k sqrt((2k)!)/(2^k k!)``.  For ``s > 0``
    the phase quadrature is squeezed, ``V(a_minus) = e^{-2s}/4``, matching the
    Wigner form ``(2/pi) exp[-2 a_plus^2 e^{-2s} - 2 a_minus^2 e^{2s}]``.

    ``S(s) a^dag S(s)^dag = cosh(s) a^dag - sinh(s) a``, so
    ``S(s)|n> = (cosh(s) a^dag - sinh(s) a)^n S(s)|0> / sqrt(n!)``.  One
    application of that operator to a vector kept on L levels loses nothing
    to truncation on the first L - 1, so starting from the squeezed vacuum on
    dim + n levels leaves the first dim levels free of it, and the state on a
    smaller dim a prefix of the state on a larger one.  Rounding grows with n
    and |s|, as each application subtracts terms larger than their
    difference: within 1e-10 of the operator route for n <= 15 and
    |s| <= 0.7, the state is 8e-9 off at n = 20 and 1e-6 at n = 25 (s = 0.7).

    Raises
    ------
    ValueError
        If ``n`` is not an integer in [0, MAX_DIM - 1] (no larger n fits any
        dim), or ``s`` not a finite number in
        :data:`~cvpost.gaussian.SQUEEZING`, |s| up to
        :data:`~cvpost.gaussian.MAX_SQUEEZING` (100 dB); the error names the
        argument and its value, and the interval the value lies outside.  Or
        if rounding has lifted the squared norm over 1 + the tolerance.
    TruncationError
        If the discarded tail mass exceeds the tolerance, as for
        :func:`coherent_state`.
    """
    n, s = checked(n, int, _PHOTONS, "n"), checked(s, float, SQUEEZING, "s")
    return _checked(partial(_squeezed_number_amplitudes, n, s), dim, f"S(s={s})|{n}>")


def _squeezed_number_amplitudes(n: int, s: float, dim: int) -> np.ndarray:
    amps = np.zeros(dim + n)
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
    return amps


def scs_state(gamma: complex, dim: int) -> np.ndarray:
    """Normalized even superposition of coherent states |gamma> + |-gamma>,
    the cat the |2> input targets (even photon numbers only).  The exact
    squared norm of the unnormalized superposition is ``2 (1 + e^{-2|gamma|^2})``.
    """
    gamma = complex(*checked(gamma, complex, _AMPLITUDE, "gamma"))
    norm_sq = 2.0 * (1.0 + np.exp(-2.0 * min(abs(gamma), 1e150) ** 2))  # capped as in _coherent_amplitudes

    def amplitudes(levels):
        return (_coherent_amplitudes(gamma, levels) + _coherent_amplitudes(-gamma, levels)) / np.sqrt(norm_sq)

    return _checked(amplitudes, dim, f"scs_state(|gamma|={abs(gamma):.4g})")


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


#: Largest dim that :func:`check_dim` allows: 401.
MAX_DIM = max(d for d in range(int((MEMORY_BUDGET / 8) ** (1 / 3)) + 1) if _dim_bytes(d) <= MEMORY_BUDGET)


# The intervals of dim; of a photon number n, as no larger n fits any dim; of n_max, as
# window_matrix takes dim + 2 levels; and of each part of gamma, so that |gamma| is a float.
_DIMS, _PHOTONS, _LEVELS = f"[1, {MAX_DIM}]", f"[0, {MAX_DIM - 1}]", f"[0, {MAX_DIM + 1}]"
_AMPLITUDE = "[-1e308, 1e308]"


def check_dim(dim: int) -> int:
    """``dim`` as an int in [1, :data:`MAX_DIM`], checked before anything is allocated, or ValueError."""
    return checked(dim, int, _DIMS, "dim")


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
    one symmetric eigensolve per block; V and Lambda depend on dim only,
    never on R, so each dim is solved once and cached.  Blocks N and N + dim
    share one row of the returned arrays (see :class:`BeamSplitterBasis`), so
    :func:`interfere` applies the 2 dim - 1 blocks as dim stacked dim x dim
    products.  Blocks that fit below the truncation are exact, and the
    operator is exactly unitary on the truncated space either way.

    Mode ordering is (input -> transmitted, ancilla -> reflected) with
    ``a_t = sqrt(T) a_in - sqrt(R) a_anc`` and
    ``a_r = sqrt(R) a_in + sqrt(T) a_anc``.
    """
    dim = check_dim(dim)
    i = np.arange(dim)
    vectors = np.zeros((dim, dim, dim))
    eigenvalues = np.zeros((dim, dim))
    for n in range(dim):
        for rows, total in ((i[: n + 1], n), (i[n + 1:], n + dim)):
            if rows.size:
                block = slice(rows[0], rows[-1] + 1)
                coupling = np.sqrt(rows[1:] * (total - rows[1:] + 1.0))
                generator = np.diag(coupling, 1) + np.diag(coupling, -1)
                eigenvalues[n, block], vectors[n, block, block] = np.linalg.eigh(generator)
    return BeamSplitterBasis(
        vectors=_readonly(vectors),
        eigenvalues=_readonly(eigenvalues),
        phases=_readonly(_I_POWERS[i % 4]),
        gather=_readonly((i * dim + (i[:, None] - i) % dim).ravel()),
    )


def _stacked_product(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``mats[N] @ vecs[N]`` for real ``mats`` and complex ``vecs``: one real
    (dim x dim) @ (dim x 2) product per N, small enough for OpenBLAS to run
    on the calling thread."""
    dim = vecs.shape[0]
    return np.matmul(mats, vecs.view(np.float64).reshape(dim, dim, 2)).view(complex)[..., 0]


def interfere(psi_in: np.ndarray, psi_anc: np.ndarray, reflectivity: float) -> np.ndarray:
    """Interfere a pure input mode with a pure ancilla on a beam splitter.

    Both are pure, so the joint over (transmitted, reflected) is the read-only
    dim x dim array ``Psi[i_t, m_r]``; its density matrix would be dim^4.  Applies
    ``S V e^{i phi Lambda} V^T S^-1`` of :func:`beam_splitter_unitary` to each
    wrapped diagonal of ``outer(psi_in, psi_anc)`` without building any block:
    gather, multiply by S^-1, take V^T, multiply by the phases, take V,
    multiply by S, scatter.  The orientation reproduces the Wigner
    composition ``W_in(sqrt(T) a + sqrt(R) b) * W_anc(-sqrt(R) a + sqrt(T) b)``.

    The map is real orthogonal, so a real product gives a float joint: the
    imaginary parts the eigenbasis leaves (up to 8e-17) are rounding.
    """
    dim = pure_dim(psi_anc, pure_dim(psi_in, what="input"), "ancilla")
    reflectivity = checked(reflectivity, float, "[0, 1]", "reflectivity")
    product = np.outer(psi_in, psi_anc)
    if not product.imag.any():  # by value: a coherent state of real gamma is complex-typed
        product = product.real
    if reflectivity == 0.0:  # the identity, exactly
        return _readonly(product)
    basis = beam_splitter_unitary(dim)
    phi = math.asin(math.sqrt(reflectivity))
    diagonals = product.ravel()[basis.gather].reshape(dim, dim) * basis.phases.conj()
    rotated = _stacked_product(basis.vectors.transpose(0, 2, 1), diagonals)
    rotated *= np.exp(1j * phi * basis.eigenvalues)
    out = np.empty(dim * dim, dtype=complex)
    out[basis.gather] = (_stacked_product(basis.vectors, rotated) * basis.phases).ravel()
    return _readonly((out if np.iscomplexobj(product) else out.real).reshape(dim, dim))


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
    n_max = checked(n_max, int, _LEVELS, "n_max")
    # <n|x> is 0 long before |x| = 1e150, so capping |x| there, as
    # _coherent_amplitudes caps |gamma|, changes no value and keeps x^2 finite.
    xs = np.atleast_1d(np.asarray(x, dtype=float)).clip(-1e150, 1e150)
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
