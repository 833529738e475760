import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm, truncnorm

import cvpost
from cvpost import emulator
from cvpost.emulator import (
    ExperimentParams,
    dump_samples,
    estimate,
    predict_records,
    predict_stats,
    run_experiment,
)

import oracle
from oracle import postselect, synthesize

# The bench's two window classes: the narrow one keeps about 0.5% of 4e6
# draws, the wide one about 15% of 1e6.
BENCH_WINDOWS = {"narrow": dict(x0=0.01, n_samples=4_000_000), "wide": dict(x0=0.3, n_samples=1_000_000)}


def quiet_params(**overrides):
    """All efficiencies 1, no electronic noise, vacuum-like everything."""
    base = dict(
        R=0.75,
        v_in=(1.0, 1.0),
        anc_sqz_db=0.0,
        anc_antisqz_db=0.0,
        eta_vis=1.0,
        eta_det=1.0,
        eta_hom=1.0,
        gate_elec_db=-300.0,
        hom_elec_db=-300.0,
        gamma_plus=0.0,
        gamma_minus=0.0,
        x0=0.01,
        n_samples=200_000,
        rng_seed=11,
    )
    base.update(overrides)
    return ExperimentParams(**base)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def test_vacuum_in_vacuum_out():
    stream = synthesize(quiet_params())
    n = stream.shape[0]
    sigma_var = np.sqrt(2.0 / n)  # sampling error of a unit-variance estimate
    for col in range(3):
        assert abs(stream[:, col].var(ddof=1) - 1.0) < 3 * sigma_var
        assert abs(stream[:, col].mean()) < 3 / np.sqrt(n)


def test_stream_is_seeded_and_deterministic():
    params = ExperimentParams(n_samples=50_000)
    np.testing.assert_array_equal(synthesize(params), synthesize(params))
    other = ExperimentParams(n_samples=50_000, rng_seed=params.rng_seed + 1)
    assert not np.array_equal(synthesize(other), synthesize(params))


@pytest.mark.parametrize(
    "sampler",
    [synthesize, lambda params: oracle.three_normal_selected(params, full=True)],
    ids=["emulator", "three-normal"],
)
def test_gate_record_matches_closed_form_moments(sampler):
    # oracle: Gaussian propagation of the same loss model.  The emulator
    # samples from that model's conditional, so only its sampling is tested
    # here; the three-normal stream propagates each quadrature on its own.
    params = ExperimentParams(n_samples=400_000)
    mean_pred, cov_pred = predict_records(params)
    stream = sampler(params)
    n = stream.shape[0]
    for col in range(3):
        v = cov_pred[col, col]
        assert abs(stream[:, col].mean() - mean_pred[col]) < 4 * np.sqrt(v / n)
        assert abs(stream[:, col].var(ddof=1) - v) < 4 * v * np.sqrt(2.0 / n)
    # cross covariance between the transmitted and gate records
    c = np.cov(stream[:, 0], stream[:, 2])[0, 1]
    se = np.sqrt((cov_pred[0, 0] * cov_pred[2, 2] + cov_pred[0, 2] ** 2) / n)
    assert abs(c - cov_pred[0, 2]) < 4 * se


@pytest.mark.parametrize(
    "overrides",
    [{}, {"R": 0.0}, {"R": np.nextafter(1.0, 0.0)}, {"gate_elec_db": -4000.0}],
    ids=["quiet", "R=0", "R-below-1", "zero-gate-noise"],
)
def test_noiseless_gate_draws_finite_rows(overrides):
    # eta_det = 1 and no gate noise (-4000 dB is exactly 0): the gate is an
    # exact linear combination of input and ancilla X+, and at R = 0 of the
    # ancilla alone, at the largest R below 1 nearly of the input alone; the
    # transmitted pair given it keeps a full-rank covariance.  Any RuntimeWarning fails the test; the stream keeps its
    # moments.
    params = quiet_params(x0=0.5, n_samples=100_000, **overrides)
    stream = synthesize(params)
    assert np.isfinite(stream).all()
    mean_pred, cov_pred = predict_records(params)
    n = stream.shape[0]
    cov = np.cov(stream.T)
    for i in range(3):
        assert abs(stream[:, i].mean() - mean_pred[i]) < 5 * np.sqrt(cov_pred[i, i] / n)
        for j in range(i, 3):
            se = np.sqrt((cov_pred[i, i] * cov_pred[j, j] + cov_pred[i, j] ** 2) / n)
            assert abs(cov[i, j] - cov_pred[i, j]) < 5 * se, (i, j)


def _kept_row_stats(rows, n_samples):
    """Means, the six covariance entries and P_s of one run's kept rows."""
    cov = np.cov(rows.T)
    return np.concatenate([rows.mean(axis=0), cov[np.triu_indices(3)], [rows.shape[0] / n_samples]])


def test_marginal_sampler_matches_three_normal_sampler():
    # The gate drawn from its marginal, then input and ancilla X+ from their
    # conditional, must keep rows distributed as the three-normal sampler's.
    # Each statistic's spread over 40 seeds gives its standard error.
    seeds, n = range(40), 100_000
    new, old = [], []
    for seed in seeds:
        params = ExperimentParams(x0=0.3, n_samples=n, rng_seed=seed)
        new.append(_kept_row_stats(np.concatenate(list(emulator._iter_chunks(params, full=False))), n))
        old.append(_kept_row_stats(oracle.three_normal_selected(params), n))
    new, old = np.array(new), np.array(old)
    gap = new[:, :-1].mean(axis=0) - old[:, :-1].mean(axis=0)
    se = np.sqrt((new[:, :-1].var(axis=0, ddof=1) + old[:, :-1].var(axis=0, ddof=1)) / len(seeds))
    assert np.all(np.abs(gap) < 5 * se), gap / se
    # P_s of the pooled draws, in binomial sigma of the prediction
    p_s = predict_stats(ExperimentParams(x0=0.3)).success_prob
    sigma = np.sqrt(2 * p_s * (1 - p_s) / (n * len(seeds)))
    assert abs(new[:, -1].mean() - old[:, -1].mean()) < 5 * sigma


class _ProposalCounter:
    """A generator that counts the window proposals drawn through it."""

    def __init__(self, rng):
        self.rng, self.proposals = rng, 0

    def uniform(self, lo, hi, size):
        self.proposals += size
        return self.rng.uniform(lo, hi, size)

    def standard_normal(self, size):
        self.proposals += size
        return self.rng.standard_normal(size)

    def random(self, size):  # acceptance tests, not proposals
        return self.rng.random(size)


@pytest.mark.parametrize("gamma_plus", [-2.03, 0.0, 0.18, 2.03])
@pytest.mark.parametrize("x0", [1e-4, 0.01, 0.3, 1.0, 5.0])
def test_windowed_gate_draw_matches_closed_form(x0, gamma_plus):
    # The kept gates follow the gate marginal truncated to the window, and
    # the proposal is picked so that no window takes more proposals per kept
    # row than 1/P_s, the one normal per row of drawing every row.  Batches
    # carry a margin of three binomial sigma, within the slack allowed.
    model = emulator._gate_model(ExperimentParams(gamma_plus=gamma_plus, x0=x0))
    mean, cov, _, (p_s, mu, var), _, _ = model
    rng, n = _ProposalCounter(np.random.default_rng(5)), 20_000
    gate = emulator._draw_gates(rng, n, model, x0, inside=True)
    assert gate.shape == (n,) and np.all(np.abs(gate) < x0)
    assert rng.proposals / n <= (1.0 + 5.0 / np.sqrt(n)) / p_s
    z = (gate - mean[2]) / np.sqrt(cov[2, 2])
    assert abs(z.mean() - mu) < 5 * np.sqrt(var / n)
    fourth = np.mean((z - z.mean()) ** 4)
    assert abs(z.var(ddof=1) - var) < 5 * np.sqrt((fourth - var**2) / n)


@pytest.mark.parametrize("x0", [1e-4, 0.01, 0.3, 1.0])
def test_sampler_keeps_rows_with_the_predicted_success_probability(x0, monkeypatch):
    # The Binomial count of kept rows is drawn with P_s from the one gate
    # model predict_stats integrates, to the bit.
    masses = []

    class Recorder:
        def __init__(self, rng):
            self.rng = rng

        def binomial(self, n, p):
            masses.append(p)
            return self.rng.binomial(n, p)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: Recorder(default_rng(seed)))
    gammas = np.linspace(-2.0, 2.0, 21)
    for gamma_plus in gammas:
        next(emulator._iter_chunks(ExperimentParams(gamma_plus=gamma_plus, x0=x0, n_samples=1000), full=False))
    monkeypatch.undo()
    assert masses == [predict_stats(ExperimentParams(gamma_plus=g, x0=x0)).success_prob for g in gammas]


def test_infinite_window_draws_every_row():
    # the largest window, whose ends are as good as infinite
    params = quiet_params(x0=1e150, n_samples=10_000)
    kept = np.concatenate(list(emulator._iter_chunks(params, full=False)))
    assert kept.shape == (10_000, 3)
    np.testing.assert_array_equal(synthesize(params), kept)


def test_window_with_almost_all_mass_splits_a_full_chunk():
    # 1 - P_s is about 1e-6: the few rejected rows of a full chunk come from
    # the window's complement, and the rows inside the window are exactly
    # the kept rows, in order
    params = ExperimentParams(x0=8.0, n_samples=emulator._CHUNK)
    assert 1e-7 < 1.0 - predict_stats(params).success_prob < 1e-5
    stream = synthesize(params)
    assert stream.shape == (emulator._CHUNK, 3)
    kept = np.concatenate(list(emulator._iter_chunks(params, full=False)))
    np.testing.assert_array_equal(stream[np.abs(stream[:, 2]) < params.x0], kept)


@pytest.mark.parametrize("gamma_plus", [5.0, 50.0])
def test_window_far_in_the_tail_selects_nothing(gamma_plus):
    # P_s about 1e-10, or 0 with a proposal envelope of mass 0: the
    # Binomial count is 0 and the run asks for a wider window or more samples
    with pytest.raises(ValueError, match=r"0 < 10000; raise x0 or n_samples \(x0_snl and n_samples in a config\)"):
        run_experiment(ExperimentParams(gamma_plus=gamma_plus, x0=1e-4))


def test_parameter_validation():
    with pytest.raises(ValueError):
        ExperimentParams(R=1.2)
    with pytest.raises(ValueError):
        ExperimentParams(eta_det=0.0)
    with pytest.raises(ValueError):
        ExperimentParams(n_samples=0)
    for x0 in (0.0, -0.01, float("nan")):
        with pytest.raises(ValueError):
            ExperimentParams(x0=x0)
    with pytest.raises(ValueError):
        ExperimentParams(v_in=(1.0, -0.5))


@pytest.mark.parametrize(
    "field, value",
    [("rng_seed", -1), ("rng_seed", 2.5), ("rng_seed", True), ("n_samples", True), ("n_samples", 2.0e4),
     ("R", 1.0), ("gamma_plus", np.nan), ("gamma_minus", np.inf),
     ("v_in", (np.inf, 1.0)), ("v_in", (1.0, np.nan)), ("v_in", (0.5, 1.0)),
     ("anc_sqz_db", 4000.0), ("anc_antisqz_db", 4000.0), ("gate_elec_db", 4000.0), ("hom_elec_db", 4000.0),
     ("anc_antisqz_db", 200.0), ("gate_elec_db", 200.0), ("anc_antisqz_db", 3000.0), ("hom_elec_db", 3000.0),
     ("subtract_electronic", "no"), ("eta_vis", True), ("eta_det", True), ("gamma_plus", False), ("R", "0.5")],
    ids=["rng_seed", "rng_seed-float", "rng_seed-bool", "n_samples-bool", "n_samples-float", "R-1",
         "gamma_plus-nan", "gamma_minus-inf", "v_in-inf", "v_in-nan", "v_in-unphysical",
         "anc_sqz_db-overflow", "anc_antisqz_db-overflow", "gate_elec_db-overflow", "hom_elec_db-overflow",
         "anc_antisqz_db-200dB", "gate_elec_db-200dB", "anc_antisqz_db-3000dB", "hom_elec_db-3000dB",
         "subtract_electronic-str", "eta_vis-bool", "eta_det-bool", "gamma_plus-bool", "R-str"],
)
def test_bad_parameter_is_named(field, value):
    # unchecked, a NaN gamma_plus ends in an empty selection, an infinite
    # v_in in a LinAlgError and a 4000 dB level in an OverflowError, none
    # naming the field.  Above MAX_DB the gate conditional is lost to
    # rounding: at 200 dB predict_stats reports an output variance near
    # 8192 and a fidelity of 0.03, at 3000 dB the run keeps no samples.
    # A seed of 2.5 ends in a SeedSequence TypeError, n_samples=True in an
    # empty selection, and R = 1 only after every row is drawn, when the
    # ideal target is built; each is rejected here, at construction.  The
    # string "no" subtracted the electronic noise as a truthy value, the
    # booleans ran as 1 and 0, and R = "0.5" ended in an unnamed TypeError.
    with pytest.raises(ValueError, match=field):
        ExperimentParams(**{field: value})


def _past_each_end():
    """(field, value) just past each finite end of every emulator.PARAMS
    interval, and each open finite end itself; a pair gets each part in turn."""
    bench = ExperimentParams()
    for field, (key, kind, bounds) in emulator.PARAMS.items():
        if bounds is None:
            continue
        ends = [float(end) for end in bounds[1:-1].split(", ")]
        for end, out, is_open in zip(ends, (-math.inf, math.inf), (bounds[0] == "(", bounds[-1] == ")")):
            if not math.isfinite(end):
                continue
            past = int(end) + (1 if out > 0 else -1) if kind is int else math.nextafter(end, out)
            for val in [past, end] if is_open else [past]:
                for value in [(val, bench.v_in[1]), (bench.v_in[0], val)] if kind is tuple else [val]:
                    yield pytest.param(field, key, bounds, value, val, id=f"{field}={value}")


@pytest.mark.parametrize("field, key, bounds, value, part", list(_past_each_end()))
def test_every_field_rejects_just_past_its_interval(field, key, bounds, value, part):
    # the library holds each field to the interval the CLI holds its key to;
    # gamma_plus and gamma_minus past 1e100 and x0 past 1e150 ran unchecked
    with pytest.raises(ValueError) as info:
        ExperimentParams(**{field: value})
    assert str(info.value) == f"{field}: {part!r} is outside {bounds} ({key} in a config)"


def test_the_field_walk_reaches_every_interval():
    walked = {param.values[0] for param in _past_each_end()}
    assert walked == {field for field, (_, _, bounds) in emulator.PARAMS.items() if bounds}
    assert {"gamma_plus", "gamma_minus", "x0", "v_in", "n_samples"} <= walked


@pytest.mark.parametrize("v_in", [(1e20, 1.0), (1.0, 1e20), (1e300, 1.0)],
                         ids=["1e20-plus", "1e20-minus", "1e300-plus"])
def test_input_variance_above_the_db_limit_is_named(v_in):
    # unchecked, (1e20, 1) ended in predict_stats' unnamed "covariance must be
    # positive definite" and (1e300, 1) in an overflow
    part = re.escape(repr(max(v_in)))
    with pytest.raises(ValueError, match=rf"^v_in: {part} is outside \(0, 1e\+10\] \(v_in_snl in a config\)$"):
        ExperimentParams(v_in=v_in)
    ExperimentParams(v_in=(1e10, 1.0))  # the bound itself, as the CLI's interval has it


def test_unit_reflectivity_names_its_config_key():
    with pytest.raises(ValueError, match=r"^R: 1.0 is outside \[0, 1\) \(reflectivity in a config\)$"):
        ExperimentParams(R=1.0, x0=5.0, n_samples=20_000)


def test_numpy_scalars_are_kept_as_python_numbers():
    # a float32 x0 was compared with the 1e150 bound as a float32, which
    # overflowed in the cast: a RuntimeWarning, an error under pyproject's filter
    params = ExperimentParams(x0=np.float32(0.3), n_samples=np.int64(20_000), v_in=np.array([1.13, 1.05]))
    assert type(params.x0) is float and params.x0 == float(np.float32(0.3))
    assert type(params.n_samples) is int and params.v_in == (1.13, 1.05)
    with pytest.raises(ValueError, match=r"^x0: 1e\+200 is outside \(0, 1e150\] \(x0_snl in a config\)$"):
        ExperimentParams(x0=np.float64(1e200))


def test_amplitude_lost_to_rounding_is_rejected_before_any_draw(monkeypatch):
    # at R = 0 a wide window keeps every row, but records about a mean of
    # 2e100 are rounded to multiples of 4e84, far above their unit noise
    params = ExperimentParams(R=0.0, gamma_plus=1e100, gamma_minus=-1e100, x0=1e150, n_samples=20_000)
    # a float spacing under 1e-3 of the record sd (2.4e-4 at 2e12) still runs
    run_experiment(dataclasses.replace(params, gamma_plus=1e12, gamma_minus=0.0, x0=5.0))

    def draw(*args):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(emulator, "_draw_chunk", draw)
    with pytest.raises(ValueError, match=r"lost to the rounding .*\(gamma_plus and gamma_minus in a config\)"):
        run_experiment(params)


# ---------------------------------------------------------------------------
# Post-selection
# ---------------------------------------------------------------------------


def test_infinite_threshold_keeps_all():
    stream = synthesize(quiet_params(n_samples=10_000))
    kept, prob = postselect(stream, np.inf)
    assert kept.shape == stream.shape
    assert prob == 1.0


def test_selected_gate_mean_is_centred():
    stream = synthesize(quiet_params(n_samples=500_000, x0=0.5))
    kept, _ = postselect(stream, 0.5)
    assert abs(kept[:, 2].mean()) < 3 * 0.5 / np.sqrt(kept.shape[0])


def test_success_probability_matches_gaussian_tail():
    params = ExperimentParams(n_samples=4_000_000)
    stream = synthesize(params)
    _, prob = postselect(stream, params.x0)
    predicted = predict_stats(params).success_prob
    assert abs(prob - predicted) / predicted < 0.05


@pytest.mark.parametrize("window", sorted(BENCH_WINDOWS))
def test_streamed_run_matches_full_stream(window):
    # run_experiment draws the transmitted records of kept rows only, before
    # those of the rejected rows; the rows it keeps must be the ones the full
    # stream keeps, to the bit, so every estimate is the same
    params = ExperimentParams(rng_seed=7, **BENCH_WINDOWS[window])
    selected, prob = postselect(synthesize(params), params.x0)
    streamed = run_experiment(params)
    dumped = estimate(selected, params, success_prob=prob)
    for field in dataclasses.fields(emulator.EnsembleStats):
        assert getattr(streamed, field.name) == getattr(dumped, field.name), field.name


def test_empty_selection_raises():
    stream = synthesize(quiet_params(n_samples=100))
    with pytest.raises(ValueError, match="kept no samples"):
        postselect(stream, 1e-9)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


def test_estimate_requires_enough_samples():
    stream = synthesize(quiet_params(n_samples=5_000))
    with pytest.raises(ValueError):
        estimate(stream, quiet_params(n_samples=5_000))


def test_estimate_requires_three_record_columns():
    with pytest.raises(ValueError, match=r"^selected must be an \(n, 3\) sample array$"):
        estimate(np.zeros((20_000, 2)), ExperimentParams())


def test_estimate_refuses_a_correction_over_the_record_variance():
    # at eta_hom 1e-6 the inferred-out loss, (1 - eta)/eta, is nearly all of a
    # rescaled record's variance, and this sample's variance falls below it
    params = ExperimentParams(eta_hom=1e-6, x0=100.0, gamma_plus=0.0, gamma_minus=0.0, n_samples=20_000)
    with pytest.raises(ValueError, match="^variance correction exceeded the estimated record variance; "):
        run_experiment(params)


def test_run_refuses_kept_rows_over_the_budget_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the kept-row budget was checked")

    monkeypatch.setattr(emulator, "_iter_chunks", no_draw)
    # unchecked, a window that keeps every one of 1e9 rows would hold about 48 GB
    with pytest.raises(ValueError, match=r"^n_samples: 1000000000 would keep about 1e\+09 rows \(P_s 1\), "
                                         r"48 bytes each, over the 512 MiB budget; the largest n_samples that fits "
                                         r"is 11184810 \(n_samples in a config\)$"):
        run_experiment(ExperimentParams(x0=100.0, n_samples=10**9))
    # at a window that keeps a fraction of the rows, the named n_samples passes the check and one more does not
    params = ExperimentParams(x0=2.0, n_samples=10**9)
    with pytest.raises(ValueError, match="the largest n_samples that fits is") as err:
        run_experiment(params)
    fits = int(re.search(r"fits is (\d+)", str(err.value)).group(1))
    with pytest.raises(AssertionError, match="drew before"):
        run_experiment(dataclasses.replace(params, n_samples=fits))
    with pytest.raises(ValueError, match=f"^n_samples: {fits + 1} would keep"):
        run_experiment(dataclasses.replace(params, n_samples=fits + 1))


def test_paper_configuration_bands():
    params = ExperimentParams(n_samples=3_000_000)
    stats = run_experiment(params)
    assert 0.85 <= stats.fidelity_est <= 0.95
    assert stats.fidelity_est > 0.8
    assert 0.45 <= stats.gains.g_minus <= 0.55
    assert 0.70 <= stats.purity_norm <= 0.90
    assert stats.n_selected >= emulator.MIN_SELECTED
    assert stats.gains.ideal_g_plus == pytest.approx(2.0)
    assert stats.gains.ideal_g_minus == pytest.approx(0.5)
    assert any("antisqz" in note for note in stats.notes)
    assert any("SNL units" in note for note in stats.notes)


def test_ideal_limit_gains():
    # lossless, strongly squeezed ancilla: mean gains approach (2, 1/2)
    params = quiet_params(
        anc_sqz_db=-30.0,
        anc_antisqz_db=30.0,
        gamma_plus=0.5,
        gamma_minus=0.5,
        x0=1.0,
        n_samples=1_000_000,
    )
    stats = run_experiment(params)
    assert abs(stats.gains.g_plus - 2.0) < 0.05
    assert abs(stats.gains.g_minus - 0.5) < 0.02


def test_gain_is_nan_without_input_displacement():
    params = quiet_params(x0=1.0, n_samples=100_000)
    stats = run_experiment(params)
    assert np.isnan(stats.gains.g_plus)
    assert np.isnan(stats.gains.g_minus)


@pytest.mark.parametrize("window", sorted(BENCH_WINDOWS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_jackknife_agrees_with_bootstrap(seed, window):
    params = ExperimentParams(rng_seed=seed, **BENCH_WINDOWS[window])
    selected, prob = postselect(synthesize(params), params.x0)
    stats = estimate(selected, params, success_prob=prob)
    fid_se, pur_se = oracle.bootstrap_se(selected, params)
    assert 0.75 <= stats.fidelity_se / fid_se <= 1.25
    assert 0.75 <= stats.purity_norm_se / pur_se <= 1.25


def test_jackknife_leaves_out_a_degenerate_group():
    # groups 1-63 spread less than the variance correction subtracts, so the
    # covariance left without group 0 is not positive definite and every
    # other leave-one-out covariance is
    params = ExperimentParams()
    n, g = 12_837, emulator._JACKKNIFE_GROUPS
    group = np.arange(n) * g // n
    rows = np.zeros((n, 3))
    rows[:, :2] = np.random.default_rng(5).standard_normal((n, 2)) * np.where(group == 0, 10.0, 0.2)[:, None]
    assert 0.2**2 < emulator._variance_correction(params)
    refs = emulator._references(params)
    estimates = []
    for k in range(g):
        mean_k, cov_k = oracle.sample_moments(rows[group != k], params)
        assert (np.linalg.eigvalsh(cov_k).min() > 0) == (k != 0)
        if k != 0:
            estimates.append(emulator._fidelity_purity(mean_k, cov_k, refs))
    expected = [np.sqrt((g - 2) * np.var(v)) for v in np.transpose(estimates)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stats = estimate(rows, params)
    np.testing.assert_allclose((stats.fidelity_se, stats.purity_norm_se), expected, rtol=1e-9)


@pytest.mark.parametrize("window", sorted(BENCH_WINDOWS))
def test_estimate_matches_sample_moments(window):
    # the one moment pass against np.cov on the same rows
    params = ExperimentParams(**BENCH_WINDOWS[window])
    rows = np.concatenate(list(emulator._iter_chunks(params, full=False)))
    stats = estimate(rows, params)
    mean, cov = oracle.sample_moments(rows, params)
    np.testing.assert_allclose(stats.v_out, np.diag(cov), rtol=1e-13, atol=0)
    in_mean = (2.0 * params.gamma_plus, 2.0 * params.gamma_minus)
    np.testing.assert_allclose(dataclasses.astuple(stats.gains),
                               dataclasses.astuple(cvpost.gaussian.gains(mean, in_mean, params.R)), rtol=1e-13, atol=0)
    fid, pnorm = emulator._fidelity_purity(mean, cov, emulator._references(params))
    np.testing.assert_allclose((stats.fidelity_est, stats.purity_norm), (fid, pnorm), rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# Closed-form prediction
# ---------------------------------------------------------------------------


def _window_moments_by_quadrature(a, b):
    """Mean and variance of a standard normal on [a, b], by adaptive
    quadrature of the moments about the window centre."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)

    def moment(f, epsabs=0.0):
        return quad(lambda v: f(v) * np.exp(-0.5 * (c + v) ** 2), -h, h, epsabs=epsabs, epsrel=1e-12)[0]

    m0 = moment(lambda v: 1.0)
    # the first moment is ~h^3 or exactly 0: ask for it to 1e-13 of h
    shift = moment(lambda v: v, epsabs=1e-13 * h * m0) / m0
    return c + shift, moment(lambda v: (v - shift) ** 2) / m0


@pytest.mark.parametrize("gamma_plus", [-2.03, 0.0, 0.18, 2.03])
@pytest.mark.parametrize("x0", [1e-4, 1e-3, 0.01, 0.3, 1.0, 5.0])
def test_truncated_normal_matches_oracles(x0, gamma_plus):
    params = ExperimentParams(gamma_plus=gamma_plus, x0=x0)
    mean, cov = predict_records(params)
    m_g, sig = mean[2], np.sqrt(cov[2, 2])
    a, b = (-x0 - m_g) / sig, (x0 - m_g) / sig
    mass, mu, var = emulator._truncated_normal(a, b)
    # both ends above the mean: the upper tails do not cancel
    want_mass = norm.sf(a) - norm.sf(b) if a > 0 else norm.cdf(b) - norm.cdf(a)
    assert abs(mass - want_mass) <= 1e-10 * want_mass
    assert predict_stats(params).success_prob == mass
    # Moments are measured against the window's half-width: the mean is ~0
    # when the gate mean is 0.  truncnorm computes its variance as 1 minus a
    # term near 1, so on narrow windows it is itself off (1e-2 relative at
    # x0 = 1e-4, 2e-8 at the bench's 0.01); it is the oracle only where
    # that loss is below 1e-12.
    half = 0.5 * (b - a)
    want_mu, want_var = _window_moments_by_quadrature(a, b)
    assert abs(mu - want_mu) <= 1e-10 * max(abs(want_mu), half)
    assert abs(var - want_var) <= 1e-10 * want_var
    if x0 >= 0.3:
        tn = truncnorm(a, b)
        assert abs(mu - tn.mean()) <= 1e-10 * max(abs(tn.mean()), half)
        assert abs(var - tn.var()) <= 1e-10 * tn.var()


@pytest.mark.parametrize("a, b, edge", [(40.0, 60.0, 40.0), (-60.0, -40.0, -40.0), (400.0, 401.0, 400.0),
                                        (-2e300, -1e300, -1e300)])
def test_window_without_float_mass_is_its_nearer_edge(a, b, edge):
    # wider and narrower than 2 sd; unchecked, the first divided by the
    # zero mass and the narrow rule's weights overflowed
    assert emulator._truncated_normal(a, b) == (0.0, edge, 0.0)


def test_window_with_far_ends_is_the_whole_normal():
    # numpy scalars, as _gate_model gives: the ends' squares overflow, and their densities are 0
    assert emulator._truncated_normal(np.float64(-1e200), np.float64(1e200)) == (1.0, 0.0, 1.0)


def test_infinite_window_selects_everything():
    # the largest window's ends, at 1e150 gate sd, have zero density; the
    # prediction is the unconditioned record model
    params = ExperimentParams(x0=1e150)
    pred = predict_stats(params)
    assert pred.success_prob == 1.0
    record_mean, record_cov = predict_records(params)
    np.testing.assert_allclose(pred.selected_mean, record_mean[:2], rtol=0, atol=1e-15)
    unconditioned = record_cov[:2, :2] - emulator._variance_correction(params) * np.eye(2)
    np.testing.assert_allclose(pred.selected_cov, unconditioned, rtol=1e-14)


def test_importing_the_cli_leaves_out_scipy_stats():
    # nor any other scipy module: the package needs numpy only
    src = os.path.dirname(os.path.dirname(cvpost.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, cvpost.cli; "
        "sys.exit(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or None)"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_lossless_run_converges_to_closed_form():
    # efficiencies 1, no electronic noise: the sampler must converge to the
    # Gaussian-engine conditional predictions
    params = quiet_params(
        anc_sqz_db=-4.0,
        anc_antisqz_db=4.0,
        gamma_plus=0.3,
        gamma_minus=0.2,
        x0=0.1,
        n_samples=1_000_000,
    )
    pred = predict_stats(params)
    stats = run_experiment(params)
    n = stats.n_selected
    for got, want in zip(stats.v_out, np.diag(pred.selected_cov)):
        assert abs(got - want) < 4 * want * np.sqrt(2.0 / n)
    assert abs(stats.fidelity_est - pred.fidelity) < 3 * stats.fidelity_se
    assert abs(stats.purity_norm - pred.purity_norm) < 3 * stats.purity_norm_se


def test_postselection_purifies():
    params = ExperimentParams(n_samples=1_000_000, x0=0.025)
    stream = synthesize(params)
    selected, prob = postselect(stream, params.x0)
    sel_stats = estimate(selected, params, success_prob=prob)
    all_stats = estimate(stream, params)
    assert sel_stats.purity_norm >= all_stats.purity_norm


def test_fidelity_monotone_in_threshold():
    # tightening the window over a decade never hurts the fidelity
    fid, se = [], []
    for x0 in (1.0, 0.5, 0.2, 0.1):
        stats = run_experiment(ExperimentParams(gamma_plus=1.07, x0=x0, n_samples=1_000_000))
        fid.append(stats.fidelity_est)
        se.append(stats.fidelity_se)
    for tight, loose, s_t, s_l in zip(fid[1:], fid[:-1], se[1:], se[:-1]):
        assert tight >= loose - 3 * np.hypot(s_t, s_l)


def test_run_experiment_is_deterministic():
    params = ExperimentParams(n_samples=300_000, x0=0.1)
    a = run_experiment(params)
    b = run_experiment(params)
    assert a.fidelity_est == b.fidelity_est
    assert a.v_out == b.v_out
    assert a.gains == b.gains
    assert a.purity_norm == b.purity_norm
    assert a.success_prob == b.success_prob
    assert a.n_selected == b.n_selected


# ---------------------------------------------------------------------------
# Raw sample dump
# ---------------------------------------------------------------------------


def test_sample_dump_round_trip(tmp_path):
    params = quiet_params(n_samples=500)
    path = tmp_path / "samples.csv"
    dump_samples(params, path)
    header = path.read_text().splitlines()[0]
    assert header == "x_t_plus,x_t_minus,x_r_plus"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(back, synthesize(params), rtol=1e-6)


def test_sample_dump_is_exact(tmp_path):
    params = quiet_params(n_samples=2000)
    stream = synthesize(params)
    path = tmp_path / "samples.csv"
    dump_samples(params, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == stream.shape
    assert np.array_equal(back.view(np.uint64), np.ascontiguousarray(stream, dtype=float).view(np.uint64))


def test_streamed_dump_matches_whole_stream_bytes(tmp_path, monkeypatch):
    # Three chunks, the last one short: the streamed file is byte for byte
    # the in-memory stream written by one savetxt call with its header.
    monkeypatch.setattr(emulator, "_CHUNK", 1000)
    params = ExperimentParams(n_samples=2500, x0=0.3)
    dump_samples(params, tmp_path / "streamed.csv")
    np.savetxt(tmp_path / "whole.csv", synthesize(params), fmt="%.17g", delimiter=",",
               header="x_t_plus,x_t_minus,x_r_plus", comments="")
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
