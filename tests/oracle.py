"""Agreement oracles: a truncation-free position-space reference for the
photon modes, and the point-by-point Wigner evaluator for the grid evaluator.

Both inputs of the protocol are pure, so the state after the beam splitter
is a product wavefunction in rotated coordinates (Wigner units),
Psi(x_t, x_r) = psi_in(sqrt(T) x_t + sqrt(R) x_r) psi_anc(-sqrt(R) x_t + sqrt(T) x_r)
(:func:`joint_wavefunction`).  Every input is a closed form in x
(:func:`wavefunction` gives the one of each ``cvpost.fock`` preparer), so the
reference uses no Fock truncation and none of the package's recurrences or
its beam-splitter eigenbasis.  Gauss-Legendre rules take from Psi its number
amplitudes Psi[i, m] (:func:`number_amplitudes`, 160^2 nodes on [-9, 9]);
the conditional amplitudes, outcome density and target overlap at
reflected outcomes (:func:`outcome_cuts`, 400 x_t nodes on [-12, 12]); and
a window's F_ave, P_s and averaged state (:func:`window_integrals`, with 80
more nodes on the window).  Doubling every node count moves these by about
3e-14.

:func:`coherent_window` is the window-level reference for a coherent input:
its P1(x) and its fidelity to the x = 0 conditional state are Gaussian in
x, so P_s and F_ave over |x| < x0 are erf terms, with no ``window_matrix``.

:func:`generator_joint` checks the beam-splitter eigenbasis on its own: it
applies the exponential of the two-mode generator, a sparse dim^2 x dim^2
matrix, to the product state by ``scipy.sparse.linalg.expm_multiply``.

:func:`apply_squeeze` and :func:`apply_displace` exponentiate the squeeze
and displacement generators with ``expm`` on a buffered space, the route
the package used before its preparers became exact recurrences; they are
the reference for those recurrences.

:func:`wigner_values` is the Wigner evaluator that runs the Laguerre
recurrence at every point and raises the phase to each power explicitly.

:func:`bootstrap_se` is the emulator's earlier error-bar method, 200
resamples of the selected rows, kept as the reference for the grouped
jackknife.

:func:`three_normal_chunk` is the emulator's earlier sampler.  It draws
every physical quadrature (input and ancilla X+ and X-, gate and homodyne
noise) and propagates them through the beam splitter and the detectors, so
it is the independent reference for the sampler that draws the gate record
from its marginal and the transmitted pair from its Gaussian conditional.
:func:`synthesize` and :func:`postselect` build the emulator's full sample
stream in memory and select from it, the route ``run_experiment`` and the
streamed sample dump must agree with.

:func:`condition_xplus` conditions the moments of any two-mode Gaussian
state on the reflected X+ by the general Schur complement, the route the
package took to ``gaussian.condition_coherent`` before that became one
closed form; with :func:`squeezed_gaussian` and ``gaussian.interfere`` it
is the reference for the closed form.

:func:`quadrature_moments` takes the moments of a density matrix through
the dim x dim matrices of the truncated quadrature operators, the route
the package took before ``fock.quadrature_moments`` read them off the
shifted amplitudes of a pure state.

The rest is API that only the tests call: closed-form Wigner functions, the
grid overlap and moments, single-wavefunction and Gaussian-state
shorthands, and the pure state the protocol makes from a coherent input.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import eval_hermite, gammaln

from cvpost import emulator, fock
from cvpost.emulator import _fidelity_purity, _references, _variance_correction
from cvpost.fock import TruncationError, _checked
from cvpost.gaussian import GaussianState, s_prime
from cvpost.wigner import WignerGrid


def annihilation(dim: int) -> np.ndarray:
    """Matrix of the annihilation operator, <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def quadrature_moments(rho: np.ndarray):
    """Mean vector and 2x2 covariance of (x, p) in Wigner units, from the
    density matrix ``rho`` and the operator matrices x = (a + a^dag)/2 and
    p = (a - a^dag)/(2i) of the truncated ``a``: the reference for
    ``fock.quadrature_moments``."""
    a = annihilation(rho.shape[0])
    x, p = 0.5 * (a + a.T), (a - a.T) / 2j
    tr = np.real(np.trace(rho))
    mean = np.array([np.real(np.trace(rho @ x)), np.real(np.trace(rho @ p))]) / tr
    xx = np.real(np.trace(rho @ x @ x)) / tr
    pp = np.real(np.trace(rho @ p @ p)) / tr
    xp = np.real(np.trace(rho @ (x @ p + p @ x))) / (2 * tr)
    cov = np.array(
        [
            [xx - mean[0] ** 2, xp - mean[0] * mean[1]],
            [xp - mean[0] * mean[1], pp - mean[1] ** 2],
        ]
    )
    return mean, cov


# ---------------------------------------------------------------------------
# Position-space reference for the photon modes
# ---------------------------------------------------------------------------


def number_wavefunction(n, x):
    """<x|n> = (2/pi)^{1/4} H_n(sqrt(2) x) e^{-x^2} / sqrt(2^n n!), by
    ``scipy.special.eval_hermite``; ``n`` and ``x`` broadcast."""
    n, x = np.asarray(n), np.asarray(x, dtype=float)
    norm = np.exp(-x * x - 0.5 * (n * math.log(2.0) + gammaln(n + 1.0)))
    return (2.0 / np.pi) ** 0.25 * eval_hermite(n, math.sqrt(2.0) * x) * norm


def squeezed_number_wavefunction(n, s, x):
    """<x|S(s)|n> = e^{-s/2} <x e^{-s}|n>, since S(s) stretches x by e^s; at
    n = 0 the squeezed vacuum (2/(pi e^{2s}))^{1/4} e^{-x^2 e^{-2s}}."""
    return math.exp(-0.5 * s) * number_wavefunction(n, np.asarray(x) * math.exp(-s))


def coherent_wavefunction(gamma, x):
    """<x|gamma> = (2/pi)^{1/4} exp[-(x - g_r)^2 + 2i g_i x - i g_r g_i]."""
    g = complex(gamma)
    return (2.0 / np.pi) ** 0.25 * np.exp(-((x - g.real) ** 2) + 2j * g.imag * x - 1j * g.real * g.imag)


def cat_wavefunction(gamma, x):
    """<x| of the normalized |gamma> + |-gamma>, the state of ``fock.scs_state``."""
    norm = math.sqrt(2.0 * (1.0 + math.exp(-2.0 * abs(gamma) ** 2)))
    return (coherent_wavefunction(gamma, x) + coherent_wavefunction(-gamma, x)) / norm


_WAVEFUNCTIONS = {
    fock.fock_state: number_wavefunction,
    fock.squeezed_number_state: squeezed_number_wavefunction,
    fock.coherent_state: coherent_wavefunction,
    fock.scs_state: cat_wavefunction,
}


def wavefunction(preparer, *args):
    """x -> <x|psi> in closed form, for the state ``preparer(*args, dim)`` of
    ``cvpost.fock`` at any dim."""
    return partial(_WAVEFUNCTIONS[preparer], *args)


def joint_wavefunction(psi_in, psi_anc, reflectivity: float):
    """Psi(x_t, x_r) of the wavefunctions ``psi_in`` and ``psi_anc`` after the
    beam splitter: the rotation of coordinates whose Wigner form is
    ``fock.interfere``'s composition."""
    st, sr = math.sqrt(1.0 - reflectivity), math.sqrt(reflectivity)
    return lambda xt, xr: psi_in(st * xt + sr * xr) * psi_anc(-sr * xt + st * xr)


def _rule(nodes: int, half_width: float):
    """Gauss-Legendre nodes and weights on [-half_width, half_width]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return half_width * x, half_width * w


def number_amplitudes(joint, dim: int, nodes: int = 160, half_width: float = 9.0) -> np.ndarray:
    """Psi[i, m] = <i, m|Psi> for i, m < dim, on a nodes^2 grid."""
    x, w = _rule(nodes, half_width)
    basis = number_wavefunction(np.arange(dim)[:, None], x) * w
    return basis @ joint(x[:, None], x) @ basis.T


def outcome_cuts(joint, target, dim: int, xs, nodes: int = 400, half_width: float = 12.0):
    """At each reflected outcome x_r of ``xs``, integrals over x_t of the cut
    Psi(., x_r): its amplitudes <i|Psi(., x_r)> for i < dim (rows), the
    outcome density P1(x_r) = integral of |Psi|^2, and <target|Psi(., x_r)>."""
    xt, wt = _rule(nodes, half_width)
    cut = joint(xt[:, None], np.asarray(xs, dtype=float))
    phi = (number_wavefunction(np.arange(dim)[:, None], xt) * wt) @ cut
    return phi, wt @ np.abs(cut) ** 2, (wt * np.conj(target(xt))) @ cut


def window_integrals(joint, target, dim: int, x0: float, nodes=(80, 400)):
    """(F_ave, P_s, normalized averaged state on dim levels) of the window
    |x_r| < x0: ``nodes[0]`` nodes on the window, :func:`outcome_cuts` on
    ``nodes[1]``."""
    xr, wr = _rule(nodes[0], x0)
    phi, p1, overlap = outcome_cuts(joint, target, dim, xr, nodes[1])
    p_s = wr @ p1
    return wr @ np.abs(overlap) ** 2 / p_s, p_s, (phi * wr) @ phi.conj().T / p_s


def generator_joint(psi_in: np.ndarray, psi_anc: np.ndarray, reflectivity: float) -> np.ndarray:
    """exp[phi (a_in a_anc^dag - a_in^dag a_anc)] psi_in x psi_anc, R = sin^2 phi,
    by ``expm_multiply`` on the sparse generator, as a dim x dim joint."""
    dim = len(psi_in)
    a = sparse.csr_array(annihilation(dim))
    generator = math.asin(math.sqrt(reflectivity)) * (sparse.kron(a, a.T) - sparse.kron(a.T, a))
    return expm_multiply(generator.tocsr(), np.kron(psi_in, psi_anc)).reshape(dim, dim)


def _apply_buffered(state: np.ndarray, generator, buffer: int) -> np.ndarray:
    """Exponentiate ``generator(dim + buffer)``, apply it to the padded state, crop."""
    dim = len(state)
    big = dim + buffer
    u = expm(generator(big))
    padded = np.zeros(big, dtype=complex)
    padded[:dim] = state
    out = (u @ padded)[:dim]
    lost = float(np.vdot(padded, padded).real) - float(np.vdot(out, out).real)
    if lost > fock.TAIL_TOLERANCE:
        raise TruncationError(
            f"operator application lost {lost:.3e} population to truncation at "
            f"dim={dim} (buffer {buffer}); increase dim",
        )
    return out


def apply_squeeze(state: np.ndarray, s: float, buffer: int = 20) -> np.ndarray:
    """S(s) = exp[-(s/2)(a^2 - a^dag^2)] applied to a state."""

    def gen(d):
        a = annihilation(d)
        aa = a @ a
        return -(s / 2.0) * (aa - aa.T)

    return _apply_buffered(state, gen, buffer)


def apply_displace(state: np.ndarray, gamma: complex, buffer: int = 20) -> np.ndarray:
    """D(gamma) = exp[gamma a^dag - gamma* a] applied to a state."""

    def gen(d):
        a = annihilation(d)
        return gamma * a.T - np.conj(gamma) * a

    return _apply_buffered(state, gen, buffer)


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


def sample_moments(rows: np.ndarray, params):
    """Mean and covariance of the transmitted records (X+_t, X-_t), less the
    emulator's variance correction, by np.cov on the rows as given."""
    sub = _variance_correction(params)
    return rows[:, :2].mean(axis=0), np.cov(rows[:, 0], rows[:, 1], bias=False) - np.diag([sub, sub])


def bootstrap_se(rows: np.ndarray, params) -> tuple[float, float]:
    """Bootstrap standard errors of (fidelity, purity_norm): 200 resamples
    of the rows, seeded deterministically from the params."""
    n = rows.shape[0]
    resamples = 200
    rng = np.random.default_rng(np.random.SeedSequence(params.rng_seed, spawn_key=(1,)))
    fids = np.empty(resamples)
    purs = np.empty(resamples)
    refs = _references(params)
    for b in range(resamples):
        idx = rng.integers(0, n, size=n)
        m_b, c_b = sample_moments(rows[idx], params)
        try:
            fids[b], purs[b] = _fidelity_purity(m_b, c_b, refs)
        except ValueError:  # degenerate resample covariance
            fids[b], purs[b] = np.nan, np.nan
    return float(np.nanstd(fids, ddof=1)), float(np.nanstd(purs, ddof=1))


def _transmitted(rng: np.random.Generator, x_in_p: np.ndarray, anc_p: np.ndarray, params) -> np.ndarray:
    """Rescaled homodyne records (X+_t, X-_t) of the rows with these X+
    values, propagated through the beam splitter, homodyne loss and
    electronic noise; draws the four normals only they use."""
    p = params
    st, sr = np.sqrt(1.0 - p.R), np.sqrt(p.R)
    z_in_m, z_anc_m, z_hom_p, z_hom_m = rng.standard_normal((4, x_in_p.size))
    x_in_m = 2.0 * p.gamma_minus + np.sqrt(p.v_in[1]) * z_in_m
    anc_m = np.sqrt(emulator._ancilla_record_cov(p)[1, 1]) * z_anc_m
    t_p = st * x_in_p - sr * anc_p
    t_m = st * x_in_m - sr * anc_m
    hom_noise = (1.0 - p.eta_hom) + emulator._db_to_var(p.hom_elec_db)
    rt_p = (np.sqrt(p.eta_hom) * t_p + np.sqrt(hom_noise) * z_hom_p) / np.sqrt(p.eta_hom)
    rt_m = (np.sqrt(p.eta_hom) * t_m + np.sqrt(hom_noise) * z_hom_m) / np.sqrt(p.eta_hom)
    return np.column_stack([rt_p, rt_m])


def three_normal_chunk(rng: np.random.Generator, m: int, params, full: bool) -> np.ndarray:
    """Records (X+_t, X-_t, gate) of m draws, propagated quadrature by
    quadrature: three normals for every row (input X+, ancilla X+, gate
    noise) form the gate record, then :func:`_transmitted` the transmitted
    records of the rows inside the window, and when ``full`` of the other
    rows after them."""
    p = params
    st, sr = np.sqrt(1.0 - p.R), np.sqrt(p.R)
    x_in_p, anc_p, gate = rng.standard_normal((3, m))
    x_in_p *= np.sqrt(p.v_in[0])
    x_in_p += 2.0 * p.gamma_plus
    anc_p *= np.sqrt(emulator._ancilla_record_cov(p)[0, 0])
    gate *= np.sqrt((1.0 - p.eta_det) + emulator._db_to_var(p.gate_elec_db))
    gate += np.sqrt(p.eta_det) * (sr * x_in_p + st * anc_p)
    inside = np.abs(gate) < p.x0
    kept = _transmitted(rng, x_in_p[inside], anc_p[inside], p)
    if not full:
        return np.column_stack([kept, gate[inside]])
    out = np.empty((m, 3))
    out[:, 2] = gate
    out[inside, :2] = kept
    out[~inside, :2] = _transmitted(rng, x_in_p[~inside], anc_p[~inside], p)
    return out


def three_normal_selected(params, full: bool = False) -> np.ndarray:
    """The rows :func:`three_normal_chunk` keeps, over the chunks and
    chunk seeds ``emulator.run_experiment`` uses; every row when ``full``."""
    n_chunks = (params.n_samples + emulator._CHUNK - 1) // emulator._CHUNK
    seeds = np.random.SeedSequence(params.rng_seed).spawn(n_chunks)
    chunks, remaining = [], params.n_samples
    for seed in seeds:
        m = min(emulator._CHUNK, remaining)
        remaining -= m
        chunks.append(three_normal_chunk(np.random.default_rng(seed), m, params, full))
    return np.concatenate(chunks, axis=0)


def synthesize(params) -> np.ndarray:
    """The emulator's full sample stream of (X+_t, X-_t, X+_r) record
    triples, shape (n, 3), built in memory."""
    return np.concatenate(list(emulator._iter_chunks(params, full=True)), axis=0)


def postselect(stream: np.ndarray, x0: float):
    """Keep samples whose gate record satisfies |X+_r| < x0.

    Returns (selected samples, success probability).
    """
    if x0 <= 0:
        raise ValueError("x0 must be > 0")
    stream = np.asarray(stream)
    mask = np.abs(stream[:, 2]) < x0
    kept = int(mask.sum())
    if kept == 0:
        raise ValueError(
            f"post-selection window |x| < {x0} kept no samples out of {stream.shape[0]}; "
            "raise x0 or n_samples"
        )
    return stream[mask], kept / stream.shape[0]


# ---------------------------------------------------------------------------
# Test-only API
# ---------------------------------------------------------------------------


def quadrature_wavefunction(n: int, x):
    """<n|x> for a single n; scalar in, scalar out."""
    if n < 0:
        raise ValueError("n must be >= 0")
    vals = fock.quadrature_wavefunctions(n, x)[n]
    return float(vals[0]) if np.isscalar(x) else vals


def displaced_squeezed_vacuum(beta: complex, s: float, dim: int) -> np.ndarray:
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

    def amplitudes(levels):
        prev, cur = 0.0, complex(c0)
        amps = [cur]
        for k in range(1, levels):
            prev, cur = cur, (g * cur + math.sqrt(k - 1) * sh * prev) / (math.sqrt(k) * ch)
            amps.append(cur)
        return np.array(amps, dtype=complex)

    return _checked(amplitudes, dim, f"D({beta:.4g}) S(s={s})|0>")


def coherent_window(gamma: complex, reflectivity: float, s: float, x0: float, dim: int):
    """(F_ave, P_s, target) of the window |x| < x0 (Wigner units) for the
    coherent input |gamma> and the ancilla S(s)|0>, in closed form; the
    target is the conditional state at x = 0, on dim levels.

    The reflected x_r = sqrt(R) x_in + sqrt(T) x_anc is normal, mean
    m = sqrt(R) Re(gamma) and variance v = R/4 + T e^{2s}/4.  At outcome x
    the transmitted state is pure Gaussian with a covariance that does not
    depend on x, diag(V_x, V_p) with V_x = T/4 + R e^{2s}/4 - c^2/v and
    c = sqrt(RT)(1 - e^{2s})/4 = Cov(x_t, x_r), and its x_t mean moves by
    kappa x, kappa = c/v.  Two pure states of one covariance a distance d
    apart overlap as exp(-d^T V^-1 d / 4), so the fidelity to the x = 0
    state is exp(-lam x^2 / 2), lam = kappa^2 / (2 V_x).  P1(x) F(x) is then
    a normal of variance 1/(1/v + lam) times exp(-m^2 lam / (2 (1 + lam v)))
    sqrt(1/(1 + lam v)), and each window integral is a difference of erf.
    """
    g, t = complex(gamma), 1.0 - reflectivity
    anc_x, anc_p = math.exp(2.0 * s) / 4.0, math.exp(-2.0 * s) / 4.0
    m, v = math.sqrt(reflectivity) * g.real, reflectivity / 4.0 + t * anc_x
    c = math.sqrt(reflectivity * t) * (0.25 - anc_x)
    v_x, v_p = t / 4.0 + reflectivity * anc_x - c * c / v, t / 4.0 + reflectivity * anc_p
    kappa = c / v
    lam = kappa**2 / (2.0 * v_x)

    def mass(mean, var):  # of a normal over |x| < x0
        w = math.sqrt(2.0 * var)
        return 0.5 * (math.erf((x0 - mean) / w) + math.erf((x0 + mean) / w))

    p_s = mass(m, v)
    var = 1.0 / (1.0 / v + lam)
    both = math.sqrt(var / v) * math.exp(-m * m * lam / (2.0 * (1.0 + lam * v))) * mass(var * m / v, var)
    beta = complex(math.sqrt(t) * g.real - kappa * m, math.sqrt(t) * g.imag)
    assert abs(16.0 * v_x * v_p - 1.0) < 1e-12  # the conditional state is pure
    return both / p_s, p_s, displaced_squeezed_vacuum(beta, 0.5 * math.log(4.0 * v_x), dim)


def conditioned_coherent_target(gamma: complex, reflectivity: float, s: float, dim: int) -> np.ndarray:
    """Pure state the protocol produces from a coherent input at outcome 0:
    ``D(sqrt(T)[e^{2s'} g+ + i g-]) S(s')|0>`` with s' = s_prime(R, s)."""
    sp = s_prime(reflectivity, s)
    t = 1.0 - reflectivity
    g = complex(gamma)
    shifted = np.sqrt(t) * (np.exp(2.0 * sp) * g.real + 1j * g.imag)
    return displaced_squeezed_vacuum(shifted, sp, dim)


def squeezed_gaussian(s: float) -> GaussianState:
    """S(s)|0>: V(X+) = e^{2s}, V(X-) = e^{-2s} (phase squeezed for s > 0)."""
    return GaussianState(np.zeros(2), np.diag([np.exp(2.0 * s), np.exp(-2.0 * s)]))


def condition_xplus(joint, x: float):
    """Measure X+ of the reflected mode of a two-mode state, given as the
    moments (mean, cov) that ``gaussian.interfere`` returns, at outcome x;
    Schur-complement update (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).

    Returns the conditional state of the transmitted mode and the Gaussian
    outcome density evaluated at x (probability per SNL unit).  The
    conditional covariance does not depend on the outcome.
    """
    mean, cov = (np.asarray(m, dtype=float) for m in joint)
    if mean.shape != (4,) or cov.shape != (4, 4):
        raise ValueError("conditioning requires a two-mode state")
    v_meas = cov[2, 2]
    if v_meas <= 0:
        raise ValueError("measured quadrature has non-positive variance")
    cross = cov[:2, 2]
    mean_c = mean[:2] + cross * (x - mean[2]) / v_meas
    cov_c = cov[:2, :2] - np.outer(cross, cross) / v_meas
    cov_c = 0.5 * (cov_c + cov_c.T)
    density = float(
        np.exp(-0.5 * (x - mean[2]) ** 2 / v_meas) / np.sqrt(2.0 * np.pi * v_meas)
    )
    return GaussianState(mean_c, cov_c), density


def vacuum_state() -> GaussianState:
    return GaussianState(np.zeros(2), np.eye(2))


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
