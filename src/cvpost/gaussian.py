"""Closed-form engine for Gaussian states in shot-noise-limit units.

A state is one mode: a mean (X+, X-) and a symmetric 2 x 2 covariance with
the vacuum normalized to the identity (SNL units).  Relative to the Wigner
units of :mod:`cvpost.fock`, variances scale by exactly 4 and quadrature
values by 2: ``x_snl = 2 x_wig``.  A coherent amplitude ``gamma``
contributes an SNL-unit mean of ``2 gamma`` to (X+, X-).

The one two-mode object is the joint after the beam splitter, which
:func:`interfere` returns as bare moments ordered (X+_t, X-_t, X+_r, X-_r).
The output for a coherent input is one closed form, and :func:`s_prime` is
the one definition of its squeezing s', which the photon target S(s')|1>
uses too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The one limit the engines check: the highest dB level a noise, ancilla or
# squeezing variance may take, and the same limit on a squeezing parameter,
# 10 log10(e^{2|s|}) <= MAX_DB, which the closed form and the Fock preparers
# enforce.  The emulator's gate conditional is a Schur complement, a
# difference of terms as large as the largest record variance, so its
# rounding error is about eps times that variance: 2e-6 SNL at 100 dB, the
# whole conditional variance by 160 dB.  The coherent closed form is exact up
# to the limit, but its (T + R e^{-2s})^2 overflows below about s = -178, and
# the Fock preparers' cosh(s) past |s| = 710.
MAX_DB = 100.0
MAX_SQUEEZING = MAX_DB * math.log(10.0) / 20.0


#: A squeezing parameter's interval, |s| <= MAX_SQUEEZING, as :func:`checked` takes it.
SQUEEZING = f"[-{MAX_SQUEEZING!r}, {MAX_SQUEEZING!r}]"

# What a value of each kind must be, as the errors say it.  No kind is coerced:
# bool is an int subclass but no number, an int kind takes no 2.0, and NaN, an
# infinity or an int too large for a float is no finite number.
_KINDS = {str: "a string", bool: "true or false", dict: "a JSON object", int: "an integer", float: "a finite number",
          tuple: "a pair of finite numbers", complex: "a finite number or [re, im] pair"}
_INTEGERS, _NUMBERS, _COMPLEX = (int, np.integer), (int, float, np.integer, np.floating), (complex, np.complexfloating)
_SEQUENCES = (list, tuple, np.ndarray)
_INTERVALS = {}  # each interval's (lo, hi), parsed on its first use: a memo of a pure parse


def checked(val, kind, bounds=None, name=None):
    """``val`` as ``kind``: a numpy integer or floating scalar as a Python
    number, a pair as a tuple, a complex as [re, im] (a real as [val, 0]).
    It, or each part, must lie in ``bounds``: None, or an interval written as
    the README writes it, such as "[0, 1)".  Else ValueError with the reason,
    such as "expected a finite number, got True" or "1.5 is outside [0, 1]",
    after "name: " if ``name`` is given."""
    try:
        if kind is bool or kind is str or kind is dict:
            if isinstance(val, kind):
                return val
            raise TypeError
        numbers = _INTEGERS if kind is int else _NUMBERS
        pair = kind is not int and kind is not float and isinstance(val, _SEQUENCES) and len(val) == 2
        if kind is tuple and not pair:
            raise TypeError
        parts = []
        whole = ([val.real, val.imag] if isinstance(val, _COMPLEX) else [val, 0.0]) if kind is complex else [val]
        for part in val if pair else whole:
            if isinstance(part, bool) or not isinstance(part, numbers) or not math.isfinite(part):
                raise TypeError
            parts.append(int(part) if kind is int else float(part))
    except (TypeError, OverflowError):  # OverflowError: an int too large for a float
        raise ValueError(f"{'' if name is None else name + ': '}expected {_KINDS[kind]}, got {val!r}") from None
    if bounds is not None:
        lo, hi = _INTERVALS.get(bounds) or _INTERVALS.setdefault(bounds, tuple(map(float, bounds[1:-1].split(","))))
        for part in parts:
            if not ((lo <= part if bounds[0] == "[" else lo < part)
                    and (part <= hi if bounds[-1] == "]" else part < hi)):
                raise ValueError(f"{'' if name is None else name + ': '}{part!r} is outside {bounds}")
    return parts[0] if kind is float or kind is int else tuple(parts) if kind is tuple else parts


#: The 32-node Gauss-Legendre rule on [-1, 1], with which both engines take
#: narrow windows: the emulator's truncated-normal moments and the Fock
#: engine's window matrix.
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class GaussianState:
    """Mean (X+, X-) and 2 x 2 covariance of one mode in SNL units (vacuum = identity)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError(f"a state is one mode: mean (2,) and cov (2, 2), got {mean.shape} and {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):  # NaN would fail none of the checks below
            raise ValueError(f"a state's mean and covariance must be finite, got {mean.tolist()} and {cov.tolist()}")
        scale = max(1.0, float(np.abs(cov).max()))
        if abs(cov[0, 1] - cov[1, 0]) > 1e-10 * scale:
            raise ValueError("covariance matrix must be symmetric")
        # V + iJ >= 0 (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)) by the
        # smaller eigenvalue of that 2 x 2, whose roundoff at strong squeezing
        # is of order eps * |cov|, so the tolerance scales with the matrix norm
        c00, c11 = cov[0, 0], cov[1, 1]
        if (c00 + c11) / 2.0 - math.hypot((c00 - c11) / 2.0, cov[0, 1], 1.0) < -1e-9 * scale:
            raise ValueError("covariance violates the uncertainty relation")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def coherent_gaussian(gamma: complex) -> GaussianState:
    g = complex(gamma)
    return GaussianState(np.array([2.0 * g.real, 2.0 * g.imag]), np.eye(2))


def interfere(inp: GaussianState, anc: GaussianState, reflectivity: float):
    """Moments (mean, cov) of the two-mode state (t, r), ordered
    (X+_t, X-_t, X+_r, X-_r), after the beam splitter on single-mode inputs
    (in, anc): t = sqrt(T) in - sqrt(R) anc, r = sqrt(R) in + sqrt(T) anc."""
    reflectivity = checked(reflectivity, float, "[0, 1]", "reflectivity")
    st = np.sqrt(1.0 - reflectivity)
    sr = np.sqrt(reflectivity)
    i2 = np.eye(2)
    m = np.block([[st * i2, -sr * i2], [sr * i2, st * i2]])
    cov = np.block([[inp.cov, np.zeros((2, 2))], [np.zeros((2, 2)), anc.cov]])
    return m @ np.concatenate([inp.mean, anc.mean]), m @ cov @ m.T


def s_prime(reflectivity: float, s: float) -> float:
    """Output squeezing ``s' = -ln[(T + e^{-2s} R)^2] / 4`` (T = 1 - R) of the
    zero-outcome conditional state, so e^{-2s'} is :func:`condition_coherent`'s
    v.  Monotone in s for fixed R; s' -> s as R -> 1, -ln(T)/2 as s -> infinity."""
    return float(-np.log(_conditional_variance(reflectivity, s) ** 2) / 4.0)


def _conditional_variance(reflectivity: float, s: float) -> float:
    # T + e^{-2s} R lies between 1 and e^{-2s}, so it is positive for every checked pair
    reflectivity = checked(reflectivity, float, "[0, 1]", "reflectivity")
    return 1.0 - reflectivity + np.exp(-2.0 * checked(s, float, SQUEEZING, "s")) * reflectivity


def condition_coherent(gamma: complex, reflectivity: float, s_anc: float, x: float) -> GaussianState:
    """Transmitted state for a coherent input and ancilla S(s_anc)|0> (X+
    variance e^{2 s_anc}) at reflected-X+ outcome ``x`` (SNL units, 2 x_wig).

    With s = s_anc, v = T + R e^{-2s} = e^{-2s'} and beta = sqrt(TR) (e^{-2s} - 1) / v:
    covariance diag(1/v, v), mean (2 sqrt(T) g+ + beta (x - 2 sqrt(R) g+),
    2 sqrt(T) g-).  This is the Schur complement of the joint from
    :func:`interfere` (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)) with
    its cancelling e^{4s} terms summed by hand, so every term is positive and
    no precision is lost at large |s|.  At x = 0 it is D(sqrt(T)[e^{2s'} g+ +
    i g-]) S(s')|0>.
    """
    v = _conditional_variance(reflectivity, s_anc)
    st, sr, g = np.sqrt(1.0 - reflectivity), np.sqrt(reflectivity), complex(gamma)
    beta = st * sr * (np.exp(-2.0 * s_anc) - 1.0) / v
    mean = [st * (2.0 * g.real) + beta * (x - sr * (2.0 * g.real)), st * (2.0 * g.imag)]
    return GaussianState(np.array(mean), np.diag([1.0 / v, v]))


def ideal_target(state: GaussianState, reflectivity: float) -> GaussianState:
    """Ideal single-mode squeezer limit applied to an arbitrary Gaussian input.

    Uses s' = -ln(T)/2: means scale by (e^{s'}, e^{-s'}) and the covariance
    by the corresponding symplectic congruence.
    """
    sp = -0.5 * np.log(1.0 - checked(reflectivity, float, "[0, 1)", "reflectivity"))
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


def gains(out_mean, in_mean, reflectivity: float) -> GainReport:
    """Gains of the (X+, X-) means, NaN where the input mean is 0 and inf past
    the float range (both null in result.json), beside the ideal ones."""
    with np.errstate(over="ignore"):
        measured = [float(o / i) if i != 0 else float("nan") for o, i in zip(out_mean, in_mean)]
    return GainReport(*measured, *map(float, ideal_gains(reflectivity)))


def _det(cov) -> np.ndarray:
    """Determinants of a stack of 2 x 2 covariances, after checking that each
    is positive definite (c00 > 0 and det > 0, the test for a symmetric 2 x 2)."""
    if cov.shape[-2:] != (2, 2):
        raise ValueError("covariances must be (..., 2, 2): single-mode states")
    det = cov[..., 0, 0] * cov[..., 1, 1] - cov[..., 0, 1] * cov[..., 1, 0]
    if not np.all((cov[..., 0, 0] > 0) & (det > 0)):
        raise ValueError("covariance must be positive definite")
    return det


def gaussian_fidelity(mean_a, cov_a, mean_b, cov_b):
    """Fidelity of single-mode Gaussian states with these moments: means
    (..., 2) and covariances (..., 2, 2), broadcast over the leading axes.

    Closed form in SNL units (Weedbrook et al., Rev. Mod. Phys. 84, 621
    (2012)): with D = det(Va + Vb) and L = (det Va - 1)(det Vb - 1),

        F = 2 exp[-du^T (Va+Vb)^{-1} du / 2] / (sqrt(D + L) - sqrt(L)).

    For pure states (L = 0) this reduces to the pi-weighted Wigner overlap
    pi * int W_a W_b; it equals 1 for identical states, mixed or pure.
    """
    cov_a, cov_b = np.asarray(cov_a, dtype=float), np.asarray(cov_b, dtype=float)
    lam = np.maximum((_det(cov_a) - 1.0) * (_det(cov_b) - 1.0), 0.0)
    t = cov_a + cov_b
    delta = t[..., 0, 0] * t[..., 1, 1] - t[..., 0, 1] * t[..., 1, 0]
    du = np.asarray(mean_b, dtype=float) - np.asarray(mean_a, dtype=float)
    dx, dy = du[..., 0], du[..., 1]
    # du^T (Va+Vb)^{-1} du through the adjugate of the 2 x 2 sum; inf past |du| ~ 1e154, where F is 0
    with np.errstate(over="ignore"):
        quad = (t[..., 1, 1] * dx * dx - (t[..., 0, 1] + t[..., 1, 0]) * dx * dy + t[..., 0, 0] * dy * dy) / delta
    return 2.0 * np.exp(-0.5 * quad) / (np.sqrt(delta + lam) - np.sqrt(lam))


def purity(cov):
    """tr(rho^2) of single-mode Gaussian states with covariances (..., 2, 2):
    1/sqrt(det V) in SNL units."""
    return 1.0 / np.sqrt(_det(np.asarray(cov, dtype=float)))


def classical_limit(reflectivity: float) -> float:
    """Largest fidelity a classical state reaches with the ideal target of a
    coherent input, ``2 sqrt(T) / (1 + T) = sech(s')`` with s' = -ln(T)/2.

    Fidelity with a pure target is linear in the state, and a classical state
    is a mixture of coherent states, so the best classical state is a
    coherent state.  The best coherent state sits at the target's mean, where
    :func:`gaussian_fidelity` gives 2 / sqrt(det(I + diag(1/T, T))).  This is
    0.8 at R = 0.75 and sqrt(8)/3 at R = 0.5.
    """
    t = 1.0 - checked(reflectivity, float, "[0, 1)", "reflectivity")
    return 2.0 * math.sqrt(t) / (1.0 + t)
