"""Monte Carlo emulation of the bench experiment.

Synthesizes demodulated quadrature sample triples (X+_t, X-_t, X+_r) in SNL
units, applies interference, losses, and electronic noise, post-selects a
posteriori on the gate record, and estimates the output statistics.

Model choices
-------------
* A coherent amplitude ``gamma`` contributes an SNL-unit mean of
  ``2 gamma`` to the quadratures; gain formulas are ratios, so the factor
  cancels there.
* ``anc_sqz_db`` is the level of the ancilla quadrature conjugate to the
  gate (X-), the one whose squeezing survives in the transmitted output;
  ``anc_antisqz_db`` is the gated quadrature (X+).  The anti-squeezing
  level is not an independently measured quantity and is echoed in the
  result notes.
* Fringe visibility acts as a loss of 1 - eta_vis^2 on the ancilla arm
  before interference.
* Detector losses are vacuum admixtures; electronic noise is added to the
  detected records.  The transmitted records are rescaled by
  1/sqrt(eta_hom) so the homodyne inefficiency is inferred out of them;
  variance estimates always remove the resulting vacuum penalty, and
  remove the electronic-noise contribution only when
  ``subtract_electronic`` is set.
* ``x0`` is interpreted in SNL units of the gate record as written.
* The RF chain is not modelled; samples are drawn directly as white
  Gaussian quadrature records.

Synthesis is chunked with sub-generators spawned deterministically from
``rng_seed`` and reduced in fixed order, so results are bit-stable.  The
record triple is jointly Gaussian, and one gate model, built from
:func:`predict_records` alone, serves both the sampler and
:func:`predict_stats`: the gate's moments, the window's mass P_s, and the
Schur complement of the transmitted pair given the gate.  A chunk of m rows
keeps K ~ Binomial(m, P_s) of them and draws only those: each gate from the
gate marginal restricted to the window, by rejection, then its transmitted
pair from the conditional on the gate (two normals), the one
:func:`predict_stats` integrates over the window.  No rejected row is
drawn.  The full stream (:func:`dump_samples`) goes on from there: it puts
the kept rows at K random positions, in order, and draws the other rows
from the window's complement, so the dump and :func:`run_experiment` share
every kept row, to the bit.  :func:`estimate` takes the estimates and their
jackknife errors from one pass of per-group sums over the kept rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gaussian
from .gaussian import GL_NODES, GL_WEIGHTS, MAX_DB, GainReport, GaussianState, checked

_CHUNK = 1 << 20
# run_experiment holds each kept row until the estimate, 48 bytes a row, and
# refuses before any draw a run expected (P_s n_samples) to keep more than
# 512 MiB of them, the Fock engine's budget too: about 11.2M rows.
_KEPT_ROW_BYTES, _KEPT_BYTES = 48, 1 << 29
_JACKKNIFE_GROUPS = 64
_SQRT_2PI = np.sqrt(2.0 * np.pi)

SAMPLE_COLUMNS = ("x_t_plus", "x_t_minus", "x_r_plus")


def _db_to_var(db: float) -> float:
    return float(10.0 ** (db / 10.0))


# The config key, kind and interval of each ExperimentParams field, in field
# order; cvpost.cli reads its emulate keys from here.  The interval, written
# as the README and the errors write it, holds the value or each part of a
# pair.  Why each interval ends where it does:
# * reflectivity: the ideal squeezer target needs T > 0.
# * variances and dB levels, up to MAX_DB (gaussian explains it): conditioning
#   on the gate would lose a larger variance to rounding.
# * gamma_plus, gamma_minus: the records carry the mean 2 gamma, so their
#   deviations from the sample mean are at least its rounding error, about
#   n eps |2 gamma| over n rows, and the sample moments square and sum them:
#   below 1e100 that overflows for no n that fits in memory.
# * x0, a window half-width, as the photon modes' x0_wig takes too: both
#   engines square a window edge (the emulator in gate z-units); no state has
#   weight past |x| ~ 40, and the square overflows past 1.3e154.
# * n_samples: a run spawns one chunk seed per 2^20 rows before its first
#   draw; 1e9 is 954 seeds, 37 times the largest run a test or demo makes.
_DB = f"(-inf, {MAX_DB:g}]"
_EFFICIENCY = "(0, 1]"
PARAMS = {
    "R": ("reflectivity", float, "[0, 1)"),
    "v_in": ("v_in_snl", tuple, f"(0, {10 ** (MAX_DB / 10):g}]"),
    "anc_sqz_db": ("anc_sqz_db", float, _DB),
    "anc_antisqz_db": ("anc_antisqz_db", float, _DB),
    "eta_vis": ("eta_vis", float, _EFFICIENCY),
    "eta_det": ("eta_det", float, _EFFICIENCY),
    "eta_hom": ("eta_hom", float, _EFFICIENCY),
    "gate_elec_db": ("gate_elec_db", float, _DB),
    "hom_elec_db": ("hom_elec_db", float, _DB),
    "gamma_plus": ("gamma_plus", float, "[-1e100, 1e100]"),
    "gamma_minus": ("gamma_minus", float, "[-1e100, 1e100]"),
    "x0": ("x0_snl", float, "(0, 1e150]"),
    "n_samples": ("n_samples", int, "[1, 1e9]"),
    "rng_seed": ("rng_seed", int, "[0, inf)"),
    "subtract_electronic": ("subtract_electronic", bool, None),
}


@dataclass(frozen=True)
class ExperimentParams:
    """Bench parameters, whose defaults are the bench run; all variances and
    dB levels are relative to SNL.  Each field must be of its kind and lie in
    its interval of :data:`PARAMS`, and is kept as :func:`~cvpost.gaussian.checked`
    converts it: a numpy scalar as a Python number, a pair as a tuple."""

    R: float = 0.75
    v_in: tuple = (1.13, 1.05)
    anc_sqz_db: float = -4.5
    anc_antisqz_db: float = 8.5
    eta_vis: float = 0.96
    eta_det: float = 0.92
    eta_hom: float = 0.89
    gate_elec_db: float = -6.5
    hom_elec_db: float = -8.5
    gamma_plus: float = 0.18
    gamma_minus: float = 0.5  # nonzero so the phase gain is estimable; the bench value is not quoted
    x0: float = 0.01
    n_samples: int = 4_000_000
    rng_seed: int = 2006
    subtract_electronic: bool = True

    def __post_init__(self):
        for name, (key, kind, bounds) in PARAMS.items():
            try:
                object.__setattr__(self, name, checked(getattr(self, name), kind, bounds, name))
            except ValueError as exc:
                raise ValueError(f"{exc} ({key} in a config)") from None
        # The slack of 1e-9 absorbs the rounding of exactly conjugate levels
        # (-30 and +30 dB); GaussianState would reject these states later
        # without naming a field.
        if self.v_in[0] * self.v_in[1] < 1.0 - 1e-9:
            raise ValueError(f"v_in={tuple(self.v_in)} violates the uncertainty relation: "
                             "v_in[0] * v_in[1] must be >= 1 (v_in_snl in a config)")
        v_plus, v_minus = np.diag(_ancilla_record_cov(self))
        if v_plus * v_minus < 1.0 - 1e-9:
            raise ValueError(
                f"anc_sqz_db={self.anc_sqz_db} and anc_antisqz_db={self.anc_antisqz_db} at "
                f"eta_vis={self.eta_vis} give ancilla record variances whose product "
                f"{v_plus * v_minus:.6g} is below 1, violating the uncertainty relation"
            )

    @cached_property
    def _model(self):
        """:func:`_gate_model` of these parameters, built on first use and
        kept, so that checking, drawing and predicting share one build."""
        return _gate_model(self)


@dataclass(frozen=True)
class EnsembleStats:
    """Estimated output statistics of a post-selected ensemble."""

    v_out: tuple
    gains: GainReport
    fidelity_est: float
    fidelity_se: float
    purity_norm: float
    purity_norm_se: float
    success_prob: float | None
    n_selected: int
    notes: tuple


def _ancilla_record_cov(params: ExperimentParams) -> np.ndarray:
    v_anc = np.diag([_db_to_var(params.anc_antisqz_db), _db_to_var(params.anc_sqz_db)])
    vis2 = params.eta_vis**2
    return vis2 * v_anc + (1.0 - vis2) * np.eye(2)


def _hom_extra_var(params: ExperimentParams) -> float:
    """Variance added to a rescaled transmitted record on top of the true one."""
    return ((1.0 - params.eta_hom) + _db_to_var(params.hom_elec_db)) / params.eta_hom


def _variance_correction(params: ExperimentParams) -> float:
    """What the estimator subtracts from transmitted record variances."""
    sub = (1.0 - params.eta_hom) / params.eta_hom
    if params.subtract_electronic:
        sub += _db_to_var(params.hom_elec_db) / params.eta_hom
    return sub


def _draw_gates(rng: np.random.Generator, n: int, model, x0: float, inside: bool) -> np.ndarray:
    """n gate records from the gate marginal of ``model`` (:func:`_gate_model`)
    restricted to the window |gate| < x0 (``inside``) or to its complement,
    by rejection in z-units (Devroye 1986, ch. II).  Inside, the proposal is
    uniform on [lo, hi], accepted with probability exp(-(z^2 - z*^2)/2) for
    z* the window point nearest 0, when that envelope's mass
    (hi - lo) phi(z*) is below 1, and else a standard normal: a proposal is
    accepted with probability at least P_s either way.  The complement takes
    normal proposals.  The test is made on the gate record itself, so
    rounding at the edges cannot put a row on the wrong side."""
    if n == 0:  # as when P_s, or 1 - P_s, is 0 and the rate below is too
        return np.empty(0)
    mean, cov, (lo, hi), (p_s, _, _), _, _ = model
    m_g, sd_g = mean[2], np.sqrt(cov[2, 2])
    z_near = min(max(lo, 0.0), hi)
    envelope = (hi - lo) * math.exp(-0.5 * z_near * z_near) / _SQRT_2PI
    uniform = inside and envelope < 1.0
    rate = p_s / envelope if uniform else p_s if inside else 1.0 - p_s
    parts, got = [], 0
    while got < n:
        # proposals for the rows still needed plus three binomial sigma, so
        # one batch nearly always suffices; capped to bound the memory
        need = n - got
        size = math.ceil(min(_CHUNK, (need + 3.0 * math.sqrt(need) + 1.0) / rate))
        if uniform:
            z = rng.uniform(lo, hi, size)
            z = z[rng.random(size) < np.exp(0.5 * (z_near - z) * (z_near + z))]
        else:
            z = rng.standard_normal(size)
        gate = z * sd_g + m_g
        parts.append(gate[(np.abs(gate) < x0) == inside])
        got += parts[-1].size
    return np.concatenate(parts)[:n]


def _draw_chunk(rng: np.random.Generator, m: int, model, x0: float, full: bool) -> np.ndarray:
    """Records (X+_t, X-_t, gate) of m draws: every row when ``full``, else
    only the rows inside the window |gate| < x0, in draw order.  ``model`` is
    :func:`_gate_model`: K ~ Binomial(m, P_s) gates come from its windowed
    gate marginal, then each one's transmitted pair from its conditional on
    the gate.  The full stream goes on after the kept rows, so it holds them
    to the bit, at K random positions in order."""
    mean, _, _, (p_s, _, _), beta, cond_cov = model
    # Cholesky factor of the conditional covariance
    l00 = np.sqrt(cond_cov[0, 0])
    l10 = cond_cov[1, 0] / l00
    l11 = np.sqrt(cond_cov[1, 1] - l10 * l10)

    def pair(g):  # transmitted records given these gate records, two normals each
        n1, n2 = rng.standard_normal((2, g.size))
        dev = g - mean[2]
        # elementwise, not a 2 x 2 matmul, so no BLAS call runs per chunk
        return mean[0] + beta[0] * dev + l00 * n1, mean[1] + beta[1] * dev + l10 * n1 + l11 * n2

    k = int(rng.binomial(m, p_s))
    gate = _draw_gates(rng, k, model, x0, inside=True)
    kept = np.column_stack([*pair(gate), gate])
    if not full:
        return kept
    out = np.empty((m, 3))
    rest = np.ones(m, dtype=bool)
    rows = np.sort(rng.choice(m, k, replace=False))
    out[rows] = kept
    rest[rows] = False
    gate = _draw_gates(rng, m - k, model, x0, inside=False)
    out[rest, 2] = gate
    out[rest, 0], out[rest, 1] = pair(gate)
    return out


def _iter_chunks(params: ExperimentParams, full: bool):
    p = params
    model = p._model
    n_chunks = (p.n_samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(p.rng_seed).spawn(n_chunks)
    remaining = p.n_samples
    for seed in seeds:
        m = min(_CHUNK, remaining)
        remaining -= m
        yield _draw_chunk(np.random.default_rng(seed), m, model, p.x0, full)


MIN_SELECTED = 10_000


def _input_state(params: ExperimentParams) -> GaussianState:
    return GaussianState(
        np.array([2.0 * params.gamma_plus, 2.0 * params.gamma_minus]), np.diag(list(params.v_in))
    )


def _references(params: ExperimentParams):
    """The input state and the ideal squeezed transform of it, the states
    the output estimates are compared with."""
    inp = _input_state(params)
    return inp, gaussian.ideal_target(inp, params.R)


def _fidelity_purity(mean, cov, refs):
    """Fidelity to the target and normalised purity of outputs with these
    moments, (..., 2) and (..., 2, 2); ``refs`` is :func:`_references`."""
    inp, target = refs
    fid = gaussian.gaussian_fidelity(mean, cov, target.mean, target.cov)
    return fid, gaussian.purity(cov) / gaussian.purity(inp.cov)


def _moments(rows: np.ndarray, params: ExperimentParams):
    """Means (G + 1, 2) and covariances (G + 1, 2, 2), less the variance
    correction, of the transmitted records: row 0 of all the rows, row k of
    all but the k-th of G = 64 contiguous groups, for the delete-one-group
    jackknife (Efron 1982).  One pass of per-group sums of the records,
    centred on their mean, gives them all."""
    n, g = rows.shape[0], _JACKKNIFE_GROUPS
    # first rows of the groups arange(n) * g // n
    starts = -(-np.arange(g) * n // g)
    mean = rows[:, :2].mean(axis=0)
    dx, dy = rows[:, 0] - mean[0], rows[:, 1] - mean[1]
    # group sums of each n-length product in turn: one temporary at a time
    sums = (np.diff(starts, append=n), np.add.reduceat(dx, starts), np.add.reduceat(dy, starts),
            np.add.reduceat(dx * dx, starts), np.add.reduceat(dx * dy, starts), np.add.reduceat(dy * dy, starts))
    cnt, sx, sy, sxx, sxy, syy = (np.concatenate([[s.sum()], s.sum() - s]) for s in sums)
    means = mean + np.column_stack([sx, sy]) / cnt[:, None]
    outer = np.column_stack([sxx - sx * sx / cnt, sxy - sx * sy / cnt, sxy - sx * sy / cnt, syy - sy * sy / cnt])
    return means, (outer / (cnt - 1)[:, None]).reshape(g + 1, 2, 2) - _variance_correction(params) * np.eye(2)


def estimate(selected: np.ndarray, params: ExperimentParams, success_prob: float | None = None) -> EnsembleStats:
    """Sample means/variances, gains, Gaussian fidelity against the ideal
    squeezed transform of the input, and normalized purity.

    The estimates and their standard errors come from one pass of
    :func:`_moments`: the errors from a delete-one-group jackknife over 64
    contiguous groups of the selected samples, so they depend only on the
    rows and their order.  A group whose removal leaves a covariance that
    is not positive definite is skipped.
    """
    rows = np.asarray(selected, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("selected must be an (n, 3) sample array")
    n = rows.shape[0]
    if n < MIN_SELECTED:
        raise ValueError(
            f"too few selected samples for variance estimates: {n} < {MIN_SELECTED}; "
            "raise x0 or n_samples (x0_snl and n_samples in a config)"
        )
    means, covs = _moments(rows, params)
    if min(covs[0, 0, 0], covs[0, 1, 1]) <= 0:
        raise ValueError(
            "variance correction exceeded the estimated record variance; "
            "check the electronic-noise and efficiency settings"
        )
    c00 = covs[:, 0, 0]
    usable = (c00 > 0) & (c00 * covs[:, 1, 1] - covs[:, 0, 1] * covs[:, 1, 0] > 0)
    usable[0] = True  # all the rows: the fidelity raises if this one is degenerate
    refs = _references(params)  # refs[0].mean is the input's SNL mean, 2 gamma
    fid, pnorm = _fidelity_purity(means[usable], covs[usable], refs)
    # sqrt((G-1)/G * sum (v - mean v)^2) over the usable leave-one-out estimates v[1:]
    fid_se, pur_se = (float(np.sqrt((v.size - 2) * np.var(v[1:]))) for v in (fid, pnorm))

    notes = (
        f"anc_antisqz_db={params.anc_antisqz_db:+.1f} dB is an assumed device "
        "figure, not a measured one",
        "x0 interpreted in SNL units of the gate record",
        f"electronic noise {'subtracted' if params.subtract_electronic else 'not subtracted'} "
        "from variance estimates",
    )
    return EnsembleStats(
        v_out=(float(covs[0, 0, 0]), float(covs[0, 1, 1])),
        gains=gaussian.gains(means[0], refs[0].mean, params.R),
        fidelity_est=float(fid[0]),
        fidelity_se=fid_se,
        purity_norm=float(pnorm[0]),
        purity_norm_se=pur_se,
        success_prob=success_prob,
        n_selected=n,
        notes=notes,
    )


# Records are rounded to floats about their mean.  Past a float spacing there
# of 1e-3 of a transmitted record's standard deviation, rounding adds over 1e-7
# of its variance (spacing^2 / 12), more than the sampling error of any run
# that fits in memory.
_ROUNDING = 1e-3


def check_run(params: ExperimentParams) -> None:
    """Raise the ValueError :func:`run_experiment` raises before any draw:
    when the rows the window is expected to keep would take more memory than
    the kept-row budget, or when the transmitted records' noise would be
    lost to the rounding of their mean.  Draws nothing, so a sweep checks
    every point before it runs the first."""
    mean, cov, _, (p_s, _, _), _, _ = params._model
    if p_s * params.n_samples * _KEPT_ROW_BYTES > _KEPT_BYTES:
        raise ValueError(
            f"n_samples: {params.n_samples} would keep about {p_s * params.n_samples:.3g} rows (P_s {p_s:.3g}), "
            f"{_KEPT_ROW_BYTES} bytes each, over the {_KEPT_BYTES >> 20} MiB budget; the largest n_samples that "
            f"fits is {math.floor(_KEPT_BYTES / (_KEPT_ROW_BYTES * p_s))} (n_samples in a config)"
        )
    sd, spacing = np.sqrt(np.diag(cov)[:2]), np.spacing(np.abs(mean[:2]))
    if np.any(spacing > _ROUNDING * sd):
        raise ValueError(
            f"the transmitted records' noise (sd {sd.min():.3g} SNL) would be lost to the rounding of "
            f"their means {mean[0]:.3g} and {mean[1]:.3g} (float spacing {spacing.max():.3g}, over "
            f"{_ROUNDING:g} of the sd); lower |gamma_plus| or |gamma_minus| "
            "(gamma_plus and gamma_minus in a config)"
        )


def run_experiment(params: ExperimentParams) -> EnsembleStats:
    """Synthesize, post-select, and estimate in one streamed pass.

    Only the rows inside the window are drawn; they are the rows inside the
    window of the stream :func:`dump_samples` writes.  Raises ValueError,
    before any draw, as :func:`check_run` does.
    """
    check_run(params)
    selected = np.concatenate(list(_iter_chunks(params, full=False)), axis=0)
    return estimate(selected, params, success_prob=selected.shape[0] / params.n_samples)


# ---------------------------------------------------------------------------
# Closed-form prediction of the same loss model (oracle for the sampler)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictedStats:
    """Gaussian-propagation prediction of the record model."""

    selected_mean: np.ndarray
    selected_cov: np.ndarray
    success_prob: float
    fidelity: float
    purity_norm: float


def predict_records(params: ExperimentParams):
    """Mean and covariance of the (X+_t, X-_t, gate) record triple."""
    p = params
    anc = GaussianState(np.zeros(2), _ancilla_record_cov(p))
    joint_mean, joint_cov = gaussian.interfere(_input_state(p), anc, p.R)
    # detected records: (t+, t-) rescaled homodyne, gate from r+
    sel = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, np.sqrt(p.eta_det), 0.0],
        ]
    )
    mean = sel @ joint_mean
    cov = sel @ joint_cov @ sel.T
    cov[0, 0] += _hom_extra_var(p)
    cov[1, 1] += _hom_extra_var(p)
    cov[2, 2] += (1.0 - p.eta_det) + _db_to_var(p.gate_elec_db)
    return mean, cov


def _gate_model(params: ExperimentParams):
    """(mean, cov, (lo, hi), (P_s, mu, var), beta, cond_cov): the record
    moments (:func:`predict_records`); the window |gate| < x0 as [lo, hi]
    in z-units of the gate, with its mass P_s and the z-mean and variance
    of the gate inside it (:func:`_truncated_normal`); and the regression
    vector and covariance of the transmitted pair given the gate record,
    the Schur complement (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).
    The sampler draws from it and :func:`predict_stats` integrates it, so
    the two share one P_s."""
    mean, cov = predict_records(params)
    m_g, v_g = mean[2], cov[2, 2]
    sd_g = np.sqrt(v_g)
    lo, hi = (-params.x0 - m_g) / sd_g, (params.x0 - m_g) / sd_g
    beta = cov[:2, 2] / v_g
    cond_cov = cov[:2, :2] - np.outer(cov[:2, 2], cov[:2, 2]) / v_g
    return mean, cov, (lo, hi), _truncated_normal(lo, hi), beta, cond_cov


# Windows of half-width h up to this many standard deviations take their
# moments by Gauss-Legendre quadrature about the window centre: the closed
# form gets a variance near h^2/3 as 1 minus a term near 1, losing about
# log10(3/h^2) digits (9 at the bench's x0 = 1e-4, 5 at x0 = 0.01).
_NARROW_HALF_WIDTH = 2.0


def _ndtr(x: float) -> float:  # standard normal CDF
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _truncated_normal(a: float, b: float):
    """Mass, mean and variance of a standard normal truncated to [a, b]."""
    # Both ends above the mean: difference the upper tails, which are small,
    # rather than two CDF values near 1.
    mass = _ndtr(-a) - _ndtr(-b) if a > 0 else _ndtr(b) - _ndtr(a)
    if mass == 0.0:  # the window is too far out for its mass to be a float: the limit, the nearer edge
        return 0.0, float(a if a > 0 else b), 0.0
    half = 0.5 * (b - a)
    if half <= _NARROW_HALF_WIDTH:
        centre = 0.5 * (a + b)
        v = half * GL_NODES
        dens = GL_WEIGHTS * np.exp(-centre * v - 0.5 * v * v)
        shift = float(dens @ v / dens.sum())
        return mass, centre + shift, float(dens @ (v - shift) ** 2 / dens.sum())
    with np.errstate(over="ignore"):  # a far end's square overflows, and its density is 0
        pa, pb = np.exp(-0.5 * a * a) / _SQRT_2PI, np.exp(-0.5 * b * b) / _SQRT_2PI
    mean = (pa - pb) / mass
    # an infinite or far end has zero density and contributes nothing
    edge_a = (a - mean) * pa if pa > 0 else 0.0
    edge_b = (b - mean) * pb if pb > 0 else 0.0
    return mass, float(mean), float(1.0 + (edge_a - edge_b) / mass)


def predict_stats(params: ExperimentParams) -> PredictedStats:
    """Closed-form post-selected statistics for the emulator's loss model.

    The gate record inside the window follows a truncated normal, whose mass
    is P_s; the selected transmitted moments follow from the Schur
    conditional plus the within-window gate spread.
    """
    mean, cov, _, (p_s, mu, var), beta, cond_cov = params._model
    v_g = cov[2, 2]
    sel_mean = mean[:2] + beta * (np.sqrt(v_g) * mu)
    sel_cov = cond_cov + np.outer(beta, beta) * (v_g * var)

    sub = _variance_correction(params)
    est_cov = sel_cov - np.diag([sub, sub])
    fid, pnorm = _fidelity_purity(sel_mean, est_cov, _references(params))
    return PredictedStats(
        selected_mean=sel_mean,
        selected_cov=est_cov,
        success_prob=p_s,
        fidelity=float(fid),
        purity_norm=float(pnorm),
    )


def dump_samples(params: ExperimentParams, path) -> None:
    """Write the raw sample stream of ``params``: CSV with header
    x_t_plus,x_t_minus,x_r_plus, one chunk of rows at a time."""
    with open(path, "w") as fh:
        fh.write(",".join(SAMPLE_COLUMNS) + "\n")
        for chunk in _iter_chunks(params, full=True):
            # %.17g round-trips every double exactly, in fewer bytes than
            # %.18e.  One format call per block of rows, where np.savetxt
            # makes one per row; the bytes are savetxt's.
            for start in range(0, chunk.shape[0], 1 << 16):
                block = chunk[start:start + (1 << 16)]
                fh.write(("%.17g,%.17g,%.17g\n" * block.shape[0]) % tuple(block.ravel().tolist()))
