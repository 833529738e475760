import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from cvpost import cli, conditioner, emulator, fock, wigner


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, *extra):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code = cli.main(["--out", str(out), *extra, "run", cfg])
    return code, out


def read_result(out_dir):
    return json.loads((out_dir / "result.json").read_text())


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def test_single_photon_mode(tmp_path):
    code, out = run_cli(tmp_path, {"mode": "single-photon", "dim": 40})
    assert code == 0
    payload = read_result(out)
    assert payload["tool"]["name"] == "cvpost"
    res = payload["results"]
    assert abs(res["s_prime"] - 0.670) < 1e-3
    assert abs(res["f_ave"] - 0.99) < 0.005
    assert abs(res["p_s"] - 0.003) / 0.003 < 0.3
    assert res["fidelity_at_zero"] > 1 - 1e-6
    # echoed config reruns to bit-identical scalars
    cfg2 = write_config(tmp_path, payload["config"], name="echo.json")
    out2 = tmp_path / "out2"
    assert cli.main(["--out", str(out2), "run", cfg2]) == 0
    assert read_result(out2)["results"] == res


def test_two_photon_mode(tmp_path):
    code, out = run_cli(tmp_path, {"mode": "two-photon"})
    assert code == 0
    res = read_result(out)["results"]
    assert abs(res["f_ave"] - 0.99) < 0.005
    assert abs(res["p_s"] - 0.052) / 0.052 < 0.2


def test_coherent_mode(tmp_path):
    code, out = run_cli(tmp_path, {"mode": "coherent", "gamma": [0.18, 0.1]})
    assert code == 0
    res = read_result(out)["results"]
    assert res["classical_limit"] == 0.8
    assert abs(res["g_minus"] - 0.5) < 1e-9
    assert res["purity"] == pytest.approx(1.0)
    # no phase displacement: the phase gain is undefined, exported as null
    code2, out2 = run_cli(tmp_path, {"mode": "coherent", "gamma": [0.18, 0.0]})
    assert code2 == 0
    assert read_result(out2)["results"]["g_minus"] is None


def test_coherent_classical_limit_away_from_the_quoted_points(tmp_path):
    # 2 sqrt(T) / (1 + T) at R = 0.6, in the run and in every row of a sweep's curve
    code, out = run_cli(tmp_path, {"mode": "coherent", "reflectivity": 0.6})
    assert code == 0
    assert read_result(out)["results"]["classical_limit"] == 0.9035079029052513
    payload = {"mode": "sweep", "axis": "gamma_plus", "start": 0.1, "stop": 2.0, "count": 3,
               "base": {"mode": "coherent", "reflectivity": 0.6}}
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    with open(out / "curve.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [row[header.index("classical_limit")] for row in rows] == ["0.9035079029052513"] * 3


def test_emulate_mode_deterministic(tmp_path):
    cfg = {"mode": "emulate", "n_samples": 3_000_000}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    payload = read_result(out)
    res = payload["results"]
    assert 0.85 <= res["fidelity_est"] <= 0.95
    assert 0.45 <= res["g_minus"] <= 0.55
    cfg2 = write_config(tmp_path, payload["config"], name="echo.json")
    out2 = tmp_path / "out2"
    assert cli.main(["--out", str(out2), "run", cfg2]) == 0
    assert read_result(out2)["results"] == res


def test_seed_flag_overrides(tmp_path):
    base = {"mode": "emulate", "n_samples": 1_000_000, "x0_snl": 0.1}
    _, out_a = run_cli(tmp_path, base)
    res_a = read_result(out_a)["results"]
    cfg = write_config(tmp_path, base, name="b.json")
    out_b = tmp_path / "out_b"
    assert cli.main(["--out", str(out_b), "--seed", "77", "run", cfg]) == 0
    res_b = read_result(out_b)["results"]
    assert res_a["fidelity_est"] != res_b["fidelity_est"]
    assert read_result(out_b)["config"]["rng_seed"] == 77


# ---------------------------------------------------------------------------
# Sweeps and file formats
# ---------------------------------------------------------------------------


def test_sweep_writes_rectangular_curve(tmp_path):
    payload = {
        "mode": "sweep",
        "axis": "x0_wig",
        "start": 1e-3,
        "stop": 1e-1,
        "count": 7,
        "log": True,
        "base": {"mode": "single-photon", "dim": 40},
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    with open(out / "curve.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "x0_wig"
    assert "f_ave" in rows[0] and "p_s" in rows[0]
    assert len(rows) == 8
    assert all(len(r) == len(rows[0]) for r in rows)
    x0s = np.array([float(r[0]) for r in rows[1:]])
    faves = [float(r[rows[0].index("f_ave")]) for r in rows[1:]]
    ps = [float(r[rows[0].index("p_s")]) for r in rows[1:]]
    assert list(x0s) == sorted(x0s)
    assert ps == sorted(ps)  # success probability grows with the window
    assert faves == sorted(faves, reverse=True)  # fidelity falls with it
    # the row nearest the reference threshold sits at the quoted fidelity
    nearest = int(np.argmin(np.abs(x0s - 0.025)))
    assert abs(faves[nearest] - 0.99) < 0.01


def test_sweep_success_prob_axis(tmp_path):
    # the window is solved on the same exact P_s that the row reports
    for mode, start, stop in (("single-photon", 0.002, 0.02), ("two-photon", 0.02, 0.08)):
        payload = {"mode": "sweep", "axis": "success_prob", "start": start, "stop": stop, "count": 3,
                   "base": {"mode": mode, "dim": 40}}
        out = tmp_path / mode
        assert cli.main(["--out", str(out), "run", write_config(tmp_path, payload)]) == 0
        with open(out / "curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        got = [float(r[rows[0].index("p_s")]) for r in rows[1:]]
        np.testing.assert_allclose(got, [start, (start + stop) / 2, stop], rtol=1e-10)


def _prepared(base):
    """What a sweep over ``base`` prepares once: its joint state, or its ExperimentParams."""
    resolved = cli._resolve(base, cli._KEYS)
    if base["mode"] == "emulate":
        return cli._experiment_params(resolved)
    return cli._photon_setup(resolved)[0]


@pytest.mark.parametrize(
    "base, targets",
    [
        ({"mode": "single-photon", "dim": 40}, [0.002, 0.011, 0.02]),
        ({"mode": "two-photon", "dim": 40}, [0.02, 0.05, 0.08, 0.5]),
        ({"mode": "emulate"}, [0.004, 0.006, 0.3]),
    ],
    ids=["single-photon", "two-photon", "emulate"],
)
def test_success_prob_roots_match_brentq(base, targets):
    # the P_s(x0) and bracket the mode runners solve with, against scipy's brentq
    # on P_s written out here
    prepared = _prepared(base)
    if base["mode"] == "emulate":

        def ps_of(x0):
            return emulator.predict_stats(dataclasses.replace(prepared, x0=float(x0))).success_prob

        lo, hi = 1e-6, 50.0
    else:

        def ps_of(x0):
            return conditioner.density_norm(prepared, x0)

        lo, hi = 1e-6, 6.0
    for target in targets:
        got = cli._x0_for_success_prob(*cli._ps_of(base["mode"], prepared), target)
        want = brentq(lambda x0: ps_of(x0) - target, lo, hi, xtol=2e-12)
        assert abs(got - want) <= 4e-12, (target, got, want)


@pytest.mark.parametrize(
    "base, axis, start, stop",
    [
        ({"mode": "single-photon", "dim": 40}, "x0_wig", 0.01, 0.05),
        ({"mode": "two-photon", "dim": 40, "scs_gamma": [0.2, 1.0]}, "x0_wig", 0.03, 0.15),
        ({"mode": "coherent", "gamma": [0.18, 0.3]}, "gamma_plus", 0.1, 2.0),
        ({"mode": "emulate", "n_samples": 200_000}, "x0_snl", 0.2, 0.6),
        ({"mode": "emulate", "n_samples": 200_000, "x0_snl": 0.2}, "gamma_plus", 0.1, 0.9),
        ({"mode": "single-photon", "dim": 40}, "success_prob", 0.002, 0.02),
        ({"mode": "two-photon", "dim": 40}, "success_prob", 0.02, 0.08),
        ({"mode": "emulate", "n_samples": 200_000}, "success_prob", 0.1, 0.3),
    ],
    ids=["single-photon-x0_wig", "two-photon-x0_wig", "coherent-gamma_plus", "emulate-x0_snl",
         "emulate-gamma_plus", "single-photon-success_prob", "two-photon-success_prob",
         "emulate-success_prob"],
)
def test_sweep_row_is_the_single_run_at_its_point(tmp_path, base, axis, start, stop):
    # a sweep prepares its base once; each row must still be that point's own run
    payload = {"mode": "sweep", "axis": axis, "start": start, "stop": stop, "count": 3, "base": base}
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    with open(out / "curve.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == 3
    for k, row in enumerate(rows):
        value = float(row[0])
        if axis == "success_prob":  # the single run at the window the sweep solved for
            x0 = cli._x0_for_success_prob(*cli._ps_of(base["mode"], _prepared(base)), value)
            point = dict(base, **{"x0_snl" if base["mode"] == "emulate" else "x0_wig": x0})
        elif base["mode"] == "coherent":
            point = dict(base, gamma=[value, base["gamma"][1]])
        else:
            point = dict(base, **{axis: value})
        single = tmp_path / f"single{k}"
        assert cli.main(["--out", str(single), "run", write_config(tmp_path, point, f"point{k}.json")]) == 0
        results = read_result(single)["results"]
        assert [float(x) for x in row[1:]] == [results[key] for key in header[1:]], (k, row)


def test_sweep_threads_agree(tmp_path):
    payload = {
        "mode": "sweep",
        "axis": "gamma_plus",
        "start": 0.1,
        "stop": 2.0,
        "count": 4,
        "base": {"mode": "coherent"},
    }
    _, out1 = run_cli(tmp_path, payload)
    cfg = write_config(tmp_path, payload, name="t.json")
    out2 = tmp_path / "out_threads"
    assert cli.main(["--out", str(out2), "--threads", "4", "run", cfg]) == 0
    assert (out1 / "curve.csv").read_text() == (out2 / "curve.csv").read_text()


def test_single_photon_at_dim_120(tmp_path):
    # the dense two-mode density matrix would need 3.3 GB here
    code, out = run_cli(tmp_path, {"mode": "single-photon", "dim": 120})
    assert code == 0
    res = read_result(out)["results"]
    assert res["fidelity_at_zero"] >= 1 - 1e-6
    assert abs(res["density_norm"] - 1.0) <= 1e-6


def test_wigner_export(tmp_path):
    payload = {
        "mode": "single-photon",
        "dim": 40,
        "wigner_export": {"points": 41, "extent": 4.0},
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    with open(out / "wigner.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 42
    assert all(len(r) == 42 for r in rows)
    assert rows[0][0] == "alpha_plus\\alpha_minus"
    np.testing.assert_allclose(float(rows[0][1]), -4.0)
    np.testing.assert_allclose(float(rows[1][0]), -4.0)


def test_wigner_export_far_from_the_origin_has_no_nan(tmp_path):
    # 4|alpha|^2 overflows on this grid; W there is 0, not NaN
    payload = {"mode": "two-photon", "dim": 40, "wigner_export": {"points": 241, "extent": 1e300}}
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    values = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1)[:, 1:]
    assert values.shape == (241, 241) and np.all(np.isfinite(values))
    assert np.count_nonzero(values) == 1  # the origin alone


def _write_wigner_with_csv_module(path, grid):
    """wigner.csv as csv.writer writes it: the format _write_wigner must keep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha_plus\\alpha_minus"] + [repr(float(p)) for p in grid.p_axis])
        for i, x in enumerate(grid.x_axis):
            writer.writerow([repr(float(x))] + [repr(float(v)) for v in grid.values[i]])


def test_wigner_csv_bytes_match_csv_writer(tmp_path):
    x_axis = np.array([-1.5, 0.0, 0.1 + 0.2, 2.5])
    p_axis = np.array([-2.0, -0.0, 1e-20, 2.0 / 3.0])
    values = np.array([
        [0.0, -0.0, 1e-20, -1e-20],
        [-2.0 / np.pi, 0.12345678901234568, -6.366197723675813e-21, 1.0],
        [np.pi, -1.2345678901234567e-05, 5e-324, -0.30000000000000004],
        [-0.0, 0.0, -2.0 / np.pi, -0.0],  # repeats, with -0.0 and 0.0 kept apart
    ])
    grid = wigner.WignerGrid(values, x_axis, p_axis)
    cli._write_wigner(tmp_path / "new.csv", grid)
    _write_wigner_with_csv_module(tmp_path / "old.csv", grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _symmetric_grid_with_signed_zeros():
    # a photon-mode grid's structure: W(x, p) = W(x, -p) = W(-x, p), here
    # with -0.0 in one quadrant's cells and 0.0 at their mirrors
    axis = wigner.mirror_axis(2.0, 9)
    quadrant = np.random.default_rng(5).normal(size=(5, 5))
    quadrant[1, 2] = quadrant[3, 0] = -0.0
    half = np.vstack([quadrant, quadrant[-2::-1]])
    values = np.hstack([half, half[:, -2::-1]])
    values[-2, 2] = values[-4, -1] = 0.0
    assert values[1, 2] == values[-2, 2] and np.signbit(values[1, 2]) != np.signbit(values[-2, 2])
    return wigner.WignerGrid(values, axis, axis.copy())


def _random_grid():
    rng = np.random.default_rng(6)
    axis = np.sort(rng.uniform(-6.0, 6.0, 241))
    return wigner.WignerGrid(rng.normal(scale=0.3, size=(241, 241)), axis, axis.copy())


@pytest.mark.parametrize("make", [_symmetric_grid_with_signed_zeros, _random_grid], ids=["symmetric", "random"])
def test_wigner_csv_bytes_match_csv_writer_on_whole_grids(tmp_path, make):
    grid = make()
    cli._write_wigner(tmp_path / "new.csv", grid)
    _write_wigner_with_csv_module(tmp_path / "old.csv", grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("mode, dim", [("single-photon", 40), ("single-photon", 60), ("single-photon", 80),
                                       ("two-photon", 40), ("two-photon", 80)])
def test_photon_wigner_export_is_mirror_symmetric_bit_for_bit(tmp_path, mode, dim):
    # real states with only even diagonals: W(x, p) = W(x, -p) = W(-x, p),
    # written field for field, so the grid holds one quadrant's values
    payload = {"mode": mode, "dim": dim, "wigner_export": {"points": 241, "extent": 6.0}}
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    with open(out / "wigner.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    p_axis, x_axis = header[1:], [row[0] for row in rows]
    assert x_axis == p_axis
    assert all(float(p_axis[k]) == -float(p_axis[-1 - k]) for k in range(len(p_axis)))
    body = [row[1:] for row in rows]
    assert all(body[i] == body[-1 - i] for i in range(len(body)))
    assert all(row == row[::-1] for row in body)
    assert len({field for row in body for field in row}) == 121 ** 2


def test_wigner_export_at_the_largest_extent_runs(tmp_path):
    # the axis is built on a quarter of the extent, so even the largest float does not overflow
    payload = {"mode": "two-photon", "dim": 20, "wigner_export": {"points": 9, "extent": 1.7976931348623157e308}}
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    with open(out / "wigner.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert float(header[1]) == -1.7976931348623157e308 and float(header[-1]) == 1.7976931348623157e308


# ---------------------------------------------------------------------------
# Validation and exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("points", [cli.MAX_WIGNER_POINTS + 1, 20_000])
def test_oversized_wigner_export_exits_2_before_running(tmp_path, capsys, monkeypatch, points):
    def must_not_run(resolved, axis=None, values=(None,)):
        raise AssertionError("the mode ran before wigner_export was checked")

    monkeypatch.setitem(cli._MODE_RUNNERS, "single-photon", must_not_run)
    code, out = run_cli(tmp_path, {"mode": "single-photon", "wigner_export": {"points": points}})
    assert code == 2
    err = capsys.readouterr().err
    assert "'wigner_export.points'" in err and str(cli.MAX_WIGNER_POINTS) in err
    assert not (out / "result.json").exists()


_OVER_BUDGET = 10_000  # its eigenbasis alone would take 7.5 TiB


@pytest.mark.parametrize("payload, extra", [
    ({"mode": "single-photon", "dim": _OVER_BUDGET}, []),
    ({"mode": "two-photon"}, ["--dim", str(_OVER_BUDGET)]),
    ({"mode": "sweep", "axis": "x0_wig", "start": 0.02, "stop": 0.03, "count": 2,
      "base": {"mode": "single-photon", "dim": _OVER_BUDGET}}, []),
    ({"mode": "sweep", "axis": "success_prob", "start": 0.02, "stop": 0.03, "count": 2,
      "base": {"mode": "two-photon", "dim": 402}}, []),  # the smallest dim over budget
    ({"mode": "single-photon", "dim": _OVER_BUDGET}, ["--dim", "40"]),  # checked though overridden
])
def test_dim_over_the_memory_budget_exits_2_at_once(tmp_path, capsys, payload, extra):
    start = time.perf_counter()
    code, out = run_cli(tmp_path, payload, *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    # 'dim', 'base.dim' or '--dim', and the largest dim that fits, 401
    assert "dim': " in err and "is outside [2, 401]" in err
    assert not (out / "result.json").exists()


def test_selfcheck_dim_over_the_memory_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert cli.main(["--dim", str(_OVER_BUDGET), "selfcheck"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and f"flag '--dim': {_OVER_BUDGET} is outside [2, 401]" in captured.err


def test_selfcheck_dim_below_2_exits_2(capsys):
    assert cli.main(["--dim", "1", "selfcheck"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "flag '--dim': 1 is outside [2, 401]" in captured.err


def test_unknown_mode_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"mode": "three-photon"})
    assert code == 2
    assert "mode" in capsys.readouterr().err


@pytest.mark.parametrize("payload, field", [
    ({"mode": ["single-photon"]}, "mode"),
    ({"mode": "sweep", "axis": "x0_wig", "start": 0.01, "stop": 0.02, "count": 2, "base": {"mode": {}}}, "base.mode"),
], ids=["list", "sweep-base-object"])
def test_non_string_mode_exits_2_naming_it(tmp_path, capsys, payload, field):
    # a list or object mode ended in "config validation failed: unhashable type"
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config field '{field}': must be one of [")
    assert not (out / "result.json").exists()


def test_empty_sweep_exits_2(tmp_path, capsys):
    payload = {
        "mode": "sweep", "axis": "x0_wig", "start": 0.2, "stop": 0.1, "count": 3,
        "base": {"mode": "single-photon"},
    }
    code, _ = run_cli(tmp_path, payload)
    assert code == 2
    assert "range" in capsys.readouterr().err


def test_bad_field_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"mode": "single-photon", "reflectivity": 1.7})
    assert code == 2
    assert "reflectivity" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", [[1e150, 0.0], [1e160, 0.0], [1e160, -1e160]])
def test_coherent_far_displacement_runs(tmp_path, gamma):
    # the fidelity's exponent overflows from |gamma| ~ 1e154; no RuntimeWarning, and F is 0
    code, out = run_cli(tmp_path, {"mode": "coherent", "gamma": gamma})
    assert code == 0
    res = read_result(out)["results"]
    assert res["fidelity_to_ideal_target"] == 0.0 and abs(res["purity"] - 1.0) <= 1e-15
    assert np.all(np.isfinite(res["mean_out_snl"]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_coherent_squeezing_at_the_limit_runs(tmp_path, sign):
    code, out = run_cli(tmp_path, {"mode": "coherent", "squeezing": sign * cli.MAX_SQUEEZING})
    assert code == 0
    res = read_result(out)["results"]
    assert abs(res["purity"] - 1.0) <= 1e-15
    assert res["fidelity_to_ideal_target"] <= 1.0


@pytest.mark.parametrize(
    "payload, message",
    [({"mode": "emulate", "n_samples": 20_000, "dump_samples_csv": True}, "too few selected samples"),
     ({"mode": "emulate", "n_samples": 20_000, "x0_snl": 0.1, "reflectivity": 1.0, "dump_samples_csv": True},
      "'reflectivity'")],
    ids=["too-few-selected", "reflectivity-1"],
)
def test_failed_emulate_run_leaves_no_sample_dump(tmp_path, capsys, payload, message):
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "samples.csv").exists() and not (out / "result.json").exists()


@pytest.mark.parametrize(
    "payload, extra, name",
    [({"mode": "emulate", "rng_seed": -1}, [], "rng_seed"), ({"mode": "emulate"}, ["--seed", "-5"], "--seed"),
     # 10^(4000/10) overflows a float; unchecked, the run ends in a traceback
     ({"mode": "emulate", "anc_antisqz_db": 4000.0}, [], "anc_antisqz_db"),
     # unchecked, 10^300 swamps the gate conditional and the run keeps no samples
     ({"mode": "emulate", "anc_antisqz_db": 3000.0, "n_samples": 20_000}, [], "anc_antisqz_db"),
     # past the 100 dB limit the coherent mode shares with the emulator's dB
     # keys; far past it (-200, 1e3) the moments overflow
     ({"mode": "coherent", "squeezing": 12.0}, [], "'squeezing'"),
     ({"mode": "coherent", "squeezing": -200.0}, [], "'squeezing'"),
     ({"mode": "coherent", "squeezing": 1e3}, [], "'squeezing'"),
     # the photon modes share that limit; unchecked, s = 1000 overflows cosh(s)
     # and both it and s = 30 end in a truncation error that names no key
     ({"mode": "single-photon", "squeezing": 1000.0, "dim": 40}, [], "'squeezing'"),
     ({"mode": "single-photon", "squeezing": 30.0}, [], "'squeezing'"),
     ({"mode": "two-photon", "squeezing": -30.0}, [], "'squeezing'"),
     # S(4)|0> fits in no dim the memory budget allows, and the error says so;
     # the ancilla fails before the largest dim's beam-splitter eigenbasis is built
     ({"mode": "single-photon", "squeezing": 4.0, "dim": fock.MAX_DIM}, [],
      f"no dim up to {fock.MAX_DIM},"),
     # each flag is checked as the config key it overrides
     ({"mode": "two-photon"}, ["--dim", "1"], "flag '--dim': 1 is outside [2, 401]"),
     ({"mode": "two-photon", "dim": 1}, [], "config field 'dim': 1 is outside [2, 401]"),
     ({"mode": "emulate"}, ["--seed", "-1"], "flag '--seed'"),
     # |gamma|^2 overflows a float; the cat state fits in no dim
     ({"mode": "two-photon", "scs_gamma": [1e200, 0]}, [], "config field 'scs_gamma'"),
     ({"mode": "two-photon", "scs_gamma": [0, 20]}, [], "config field 'scs_gamma'"),
     # unbounded, it spawned 1e14 chunk seeds and grew past 1.1 GB before any draw
     ({"mode": "emulate", "n_samples": 10**20}, [],
      "config field 'n_samples': 100000000000000000000 is outside [1, 1e9]")],
    ids=["rng_seed", "--seed", "anc_antisqz_db-overflow", "anc_antisqz_db-3000dB",
         "squeezing-12", "squeezing--200", "squeezing-1e3", "single-photon-squeezing-1e3",
         "single-photon-squeezing-30", "two-photon-squeezing--30", "single-photon-squeezing-4-largest-dim",
         "--dim-1", "dim-1", "--seed--1", "scs_gamma-1e200", "scs_gamma-20j", "n_samples-1e20"],
)
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, payload, extra, name):
    code, out = run_cli(tmp_path, payload, *extra)
    assert code == 2
    assert name in capsys.readouterr().err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("payload, message", [
    ({"mode": "sweep", "axis": "gamma_plus", "start": -1.0, "stop": 1.0, "count": 2, "log": True,
      "base": {"mode": "coherent"}}, "config field 'start': log sweeps need start > 0"),
    ({"mode": "sweep", "axis": "dim", "start": 40, "stop": 60, "count": 2, "base": {"mode": "single-photon"}},
     "config field 'axis': mode single-photon supports axes ['success_prob', 'x0_wig']"),
    ({"mode": "emulate", "v_in_snl": [1, 2, 3]},
     "config field 'v_in_snl': expected a pair of finite numbers, got [1, 2, 3]"),
    # once "fock_state(n=2) does not fit in dim=2", naming no dim that fits
    ({"mode": "two-photon", "dim": 2},
     "config validation failed: fock_state(n=2) tail mass 1.000e+00 exceeds 1e-08 at dim=2; use dim >= 3"),
    # unchecked, a window that keeps all of 1e9 rows would hold about 48 GB until the estimate
    ({"mode": "emulate", "x0_snl": 100, "n_samples": 10**9},
     "config validation failed: n_samples: 1000000000 would keep about 1e+09 rows (P_s 1), 48 bytes each, "
     "over the 512 MiB budget; the largest n_samples that fits is 11184810 (n_samples in a config)"),
], ids=["log-start", "axis", "v_in_snl-triple", "two-photon-dim-2", "kept-rows-1e9"])
def test_rejection_exits_2_at_once_with_its_reason(tmp_path, capsys, monkeypatch, payload, message):
    def no_draw(*args, **kwargs):  # so that a check that comes too late fails here, not in 48 GB of rows
        raise AssertionError("the emulator drew before the run was refused")

    monkeypatch.setattr(emulator, "_iter_chunks", no_draw)
    start = time.perf_counter()
    code, out = run_cli(tmp_path, payload)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and capsys.readouterr().err == message + "\n"
    assert not (out / "result.json").exists()


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"mode": "emulate", "n_samples": 20_000, "subtract_electronic": "false"}, "subtract_electronic"),
        ({"mode": "emulate", "n_samples": 20_000, "dump_samples_csv": 1}, "dump_samples_csv"),
        ({"mode": "sweep", "axis": "gamma_plus", "start": 0.1, "stop": 1.0, "count": 2,
          "log": "false", "base": {"mode": "coherent"}}, "log"),
    ],
    ids=["subtract_electronic", "dump_samples_csv", "log"],
)
def test_booleans_must_be_json_booleans(tmp_path, capsys, payload, field):
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "true or false" in err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"mode": "single-photon", "dim": 40.7}, "dim"),
        ({"mode": "emulate", "n_samples": 50_000.9}, "n_samples"),
        ({"mode": "two-photon", "reflectivity": "0.95"}, "reflectivity"),
        ({"mode": "coherent", "squeezing": True}, "squeezing"),
        ({"mode": "emulate", "n_samples": 20_000, "v_in_snl": [1.13, "1.05"]}, "v_in_snl"),
        ({"mode": "two-photon", "scs_gamma": [0.0, True]}, "scs_gamma"),
        ({"mode": "single-photon", "squeezing": float("nan"), "dim": 40}, "squeezing"),
        ({"mode": "coherent", "x_snl": float("inf")}, "x_snl"),
        ({"mode": "sweep", "axis": "x0_wig", "start": 0.01, "stop": float("nan"), "count": 2,
          "base": {"mode": "single-photon", "dim": 40}}, "stop"),
        ({"mode": "two-photon", "scs_gamma": [float("nan"), 1.1]}, "scs_gamma"),
        ({"mode": "coherent", "squeezing": 10**400}, "squeezing"),
        ({"mode": "single-photon", "dim": 10**400}, "dim"),
    ],
    ids=["float-int", "fractional-int", "string-float", "bool-float", "string-pair", "bool-complex",
         "nan-float", "infinite-float", "nan-sweep-stop", "nan-complex", "huge-float", "huge-int"],
)
def test_numbers_must_be_json_numbers(tmp_path, capsys, payload, field):
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "expected" in err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize(
    "payload, names",
    [({"mode": "emulate", "anc_sqz_db": -4.5, "anc_antisqz_db": 2.0}, ("anc_sqz_db", "anc_antisqz_db", "eta_vis")),
     ({"mode": "emulate", "v_in_snl": [0.5, 1.0]}, ("v_in",))],
    ids=["ancilla", "input"],
)
def test_unphysical_emulator_state_exits_2_naming_it(tmp_path, capsys, payload, names):
    # below the uncertainty relation; unchecked, GaussianState rejects the
    # state deep inside the run without naming a key
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "uncertainty relation" in err
    assert not (out / "result.json").exists()


def test_uncertainty_relation_error_names_the_config_key(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"mode": "emulate", "v_in_snl": [0.5, 1.0]})
    assert code == 2
    assert "(v_in_snl in a config)" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [{"mode": "coherent", "gamma": [1e-320, 0], "x_snl": 1},
                                     {"mode": "emulate", "gamma_plus": 1e-320, "gamma_minus": 1e-320}],
                         ids=["coherent", "emulate"])
def test_gain_past_the_float_range_is_null(tmp_path, payload):
    # a subnormal input mean: the gain overflows, with no RuntimeWarning, and reads null
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    res = read_result(out)["results"]
    assert res["g_plus"] is None and res["g_minus"] is None


def test_empty_emulator_selection_exits_2(tmp_path, capsys):
    code, out = run_cli(tmp_path, {"mode": "emulate", "n_samples": 1000, "x0_snl": 1e-7})
    assert code == 2
    err = capsys.readouterr().err
    assert "0 < 10000" in err and "raise x0 or n_samples (x0_snl and n_samples in a config)" in err
    assert not (out / "result.json").exists()


# A window wider than 2 gate sd and tens of sd from the gate mean: its mass is
# 0 as a float.  Unchecked, the truncated normal's moments divided by it.
@pytest.mark.parametrize("payload, message", [
    ({"mode": "emulate", "gamma_plus": 100, "x0_snl": 10, "n_samples": 20_000},
     "0 < 10000; raise x0 or n_samples (x0_snl and n_samples in a config)"),
    ({"mode": "sweep", "axis": "success_prob", "start": 0.1, "stop": 0.5, "count": 2,
      "base": {"mode": "emulate", "gamma_plus": 100}},
     "'success_prob': 0.1 cannot be reached: x0 in [1e-06, 50.0] gives P_s in [0, 0]"),
], ids=["run", "success_prob-sweep"])
def test_window_without_float_mass_exits_2(tmp_path, capsys, payload, message):
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (out / "result.json").exists()


# Location inputs past their intervals would overflow a closed form: the ideal
# target (1e300 at R = 1 - 2^-53), the conditional mean (x_snl) or 2 gamma.
@pytest.mark.parametrize("payload, field, bounds", [
    ({"mode": "coherent", "gamma": [1e308, 1e308]}, "gamma", "[-1e299, 1e299]"),
    ({"mode": "coherent", "gamma": [1e300, 0], "reflectivity": 0.9999999999999999}, "gamma", "[-1e299, 1e299]"),
    ({"mode": "coherent", "x_snl": 1e305, "reflectivity": 1e-10, "squeezing": -11.5}, "x_snl", "[-1e299, 1e299]"),
    ({"mode": "sweep", "axis": "gamma_plus", "start": 0.0, "stop": 1e300, "count": 2, "base": {"mode": "coherent"}},
     "gamma_plus", "[-1e299, 1e299]"),
    ({"mode": "emulate", "gamma_plus": 1e308}, "gamma_plus", "[-1e100, 1e100]"),
    ({"mode": "two-photon", "x0_wig": 1e200}, "x0_wig", "(0, 1e150]"),
    ({"mode": "emulate", "x0_snl": 1e160}, "x0_snl", "(0, 1e150]"),
], ids=["gamma-1e308", "gamma-1e300-R-1", "x_snl-1e305", "gamma_plus-sweep", "emulate-gamma_plus-1e308",
        "x0_wig-1e200", "x0_snl-1e160"])
def test_location_past_its_interval_exits_2(tmp_path, capsys, payload, field, bounds):
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{field}': " in err and f"is outside {bounds}" in err
    assert not (out / "result.json").exists()


_EDGE = 1.0 - 2.0**-53  # the largest reflectivity below 1


@pytest.mark.parametrize("payload", [
    {"mode": "coherent", "gamma": [1e299, 1e299], "reflectivity": _EDGE},
    {"mode": "coherent", "gamma": [-1e299, 1e299], "x_snl": 1e299, "reflectivity": _EDGE, "squeezing": cli.MAX_SQUEEZING},
    {"mode": "coherent", "gamma": [1e299, -1e299], "x_snl": -1e299, "reflectivity": 1e-10,
     "squeezing": -cli.MAX_SQUEEZING},
    {"mode": "two-photon", "x0_wig": 1e150},
], ids=["gamma", "x_snl-squeezed", "x_snl-antisqueezed", "x0_wig"])
def test_locations_at_their_bounds_run(tmp_path, payload):
    # no RuntimeWarning (the suite makes them errors), and every result is finite or null
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    res = read_result(out)["results"]
    assert all(v is None or np.all(np.isfinite(v)) for v in res.values())


def test_emulate_amplitudes_at_their_bounds_exit_2_without_overflow(tmp_path, capsys):
    # the records' noise is lost to the rounding of their means, so either
    # window is refused before any draw, naming the amplitudes
    for k, extra in enumerate([{}, {"reflectivity": 0.0, "x0_snl": 1e150}]):
        payload = {"mode": "emulate", "gamma_plus": 1e100, "gamma_minus": -1e100, "n_samples": 20_000, **extra}
        assert cli.main(["--out", str(tmp_path / f"o{k}"), "run", write_config(tmp_path, payload)]) == 2
        err = capsys.readouterr().err
        assert "config validation failed" in err
        assert "lost to the rounding" in err and "(gamma_plus and gamma_minus in a config)" in err


def test_widest_window_on_the_narrowest_gate_keeps_every_row(tmp_path):
    # a gate sd of 1e-5 puts the 1e150 window's ends 1e155 sd out
    payload = {"mode": "emulate", "reflectivity": 0.0, "eta_vis": 1.0, "anc_antisqz_db": -100.0,
               "anc_sqz_db": 100.0, "eta_det": 1.0, "gate_elec_db": -1000.0, "x0_snl": 1e150, "n_samples": 20_000}
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    assert read_result(out)["results"]["n_selected"] == 20_000


def test_sweep_without_start_exits_2(tmp_path, capsys):
    payload = {"mode": "sweep", "axis": "x0_wig", "stop": 0.1, "count": 3,
               "base": {"mode": "single-photon"}}
    code, _ = run_cli(tmp_path, payload)
    assert code == 2
    err = capsys.readouterr().err
    assert "'start'" in err and "required" in err


def test_unreachable_success_prob_exits_2(tmp_path, capsys):
    # P_s of a two-photon window is at most 1; an emulator window
    # of 1e-6 SNL already passes more than 1e-9 of the shots.
    cases = [
        ({"mode": "two-photon", "dim": 40}, 0.5, 1.5),
        ({"mode": "emulate", "n_samples": 20_000}, 1e-9, 1e-3),
    ]
    for k, (base, start, stop) in enumerate(cases):
        payload = {"mode": "sweep", "axis": "success_prob", "start": start, "stop": stop,
                   "count": 2, "base": base}
        code = cli.main(["--out", str(tmp_path / f"o{k}"), "run", write_config(tmp_path, payload)])
        assert code == 2, base
        err = capsys.readouterr().err
        assert "'success_prob'" in err and "cannot be reached" in err, err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"mode": "single-photon", "reflectivty": 0.5}, "reflectivty"),
        ({"mode": "coherent", "dim": 40}, "dim"),
        ({"mode": "coherent", "wigner_export": {"points": 41}}, "wigner_export"),
        ({"mode": "sweep", "axis": "gamma_plus", "start": 0.1, "stop": 1.0, "count": 2,
          "base": {"mode": "coherent", "x0_wig": 0.1}}, "base.x0_wig"),
        ({"mode": "single-photon", "wigner_export": {"points": 41, "extnet": 4.0}},
         "wigner_export.extnet"),
        ({"mode": "sweep", "axis": "x0_snl", "start": 0.1, "stop": 0.3, "count": 3,
          "base": {"mode": "emulate", "dump_samples_csv": True}}, "base.dump_samples_csv"),
        ({"mode": "two-photon", "nodes": 65}, "nodes"),
    ],
    ids=["top-level", "other-mode", "wigner-export-mode", "sweep-base", "wigner-export",
         "sweep-base-dump", "nodes"],
)
def test_unknown_keys_exit_2(tmp_path, capsys, payload, field):
    code, out = run_cli(tmp_path, payload)
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "allowed keys" in err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize(
    "payload, field",
    [([1, 2], "mode"), ({"mode": "single-photon", "wigner_export": [41, 4.0]}, "wigner_export")],
    ids=["config", "wigner-export"],
)
def test_non_object_sections_exit_2(tmp_path, capsys, payload, field):
    code, _ = run_cli(tmp_path, payload)
    assert code == 2
    assert f"'{field}'" in capsys.readouterr().err


def test_every_documented_key_is_accepted(tmp_path):
    configs = [
        {"mode": "single-photon", "dim": 40, "reflectivity": 0.98, "squeezing": 0.7,
         "x0_wig": 0.025, "wigner_export": {"points": 9, "extent": 4.0}},
        {"mode": "two-photon", "dim": 40, "reflectivity": 0.5, "squeezing": -0.37,
         "x0_wig": 0.084, "scs_gamma": [0.0, 1.1]},
        {"mode": "coherent", "reflectivity": 0.75, "squeezing": 0.52, "gamma": [0.18, 0.1],
         "x_snl": 0.0},
        {"mode": "emulate", "reflectivity": 0.75, "v_in_snl": [1.13, 1.05], "anc_sqz_db": -4.5,
         "anc_antisqz_db": 8.5, "eta_vis": 0.96, "eta_det": 0.92, "eta_hom": 0.89,
         "gate_elec_db": -6.5, "hom_elec_db": -8.5, "gamma_plus": 0.18, "gamma_minus": 0.5,
         "x0_snl": 1.0, "n_samples": 50_000, "rng_seed": 3, "subtract_electronic": False,
         "dump_samples_csv": False},
        {"mode": "sweep", "axis": "x0_snl", "start": 0.5, "stop": 1.0, "count": 2, "log": True,
         "base": {"mode": "emulate", "n_samples": 50_000, "rng_seed": 3}},
        # one point: linspace ends on start, and the echo must keep the stop given
        {"mode": "sweep", "axis": "x0_wig", "start": 0.01, "stop": 0.05, "count": 1,
         "base": {"mode": "single-photon", "dim": 40}},
    ]
    for k, payload in enumerate(configs):
        out = tmp_path / f"out{k}"
        assert cli.main(["--out", str(out), "run", write_config(tmp_path, payload)]) == 0, payload
        resolved = read_result(out)["config"]
        assert resolved["mode"] == payload["mode"]
        if "subtract_electronic" in payload:
            assert resolved["subtract_electronic"] is False
        # the echoed config is the config as given, and reruns to bit-identical results
        assert {key: resolved[key] for key in payload if key != "base"} == {
            key: val for key, val in payload.items() if key != "base"}
        echo = tmp_path / f"echo{k}"
        assert cli.main(["--out", str(echo), "run", write_config(tmp_path, resolved)]) == 0
        assert read_result(echo)["results"] == read_result(out)["results"]


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["--out", str(tmp_path / "o"), "run", str(tmp_path / "nope.json")]) == 2


def test_unparsable_integer_exits_2(tmp_path, capsys):
    # Python's int() refuses a literal of more than 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"mode": "coherent", "squeezing": 1' + "0" * 5000 + "}")
    assert cli.main(["--out", str(tmp_path / "o"), "run", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_oversized_sweep_exits_2_at_once(tmp_path, capsys):
    payload = {"mode": "sweep", "axis": "gamma_plus", "start": 0.1, "stop": 1.0, "count": 10**12,
               "base": {"mode": "coherent"}}
    t0 = time.perf_counter()
    code, out = run_cli(tmp_path, payload)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "'count'" in err and str(cli.MAX_SWEEP_POINTS) in err
    assert not (out / "result.json").exists()


def _bounded_keys():
    """(mode, field, kind, default, bounds) of every key of cli._KEYS with an
    interval, wigner_export's included."""
    for mode, table in cli._KEYS.items():
        for key, (default, kind, bounds) in table.items():
            if isinstance(kind, dict):
                yield from ((mode, f"{key}.{sub}", sub_kind, sub_default, sub_bounds)
                            for sub, (sub_default, sub_kind, sub_bounds) in kind.items() if sub_bounds)
            elif bounds:
                yield mode, key, kind, default, bounds


def _outside(kind, bounds):
    """The values just past each finite end of ``bounds``, and each open end itself."""
    ends = [float(end) for end in bounds[1:-1].split(", ")]
    for end, out, is_open in zip(ends, (-math.inf, math.inf), (bounds[0] == "(", bounds[-1] == ")")):
        if math.isfinite(end):
            yield int(end) + (1 if out > 0 else -1) if kind is int else math.nextafter(end, out)
            if is_open:
                yield end


_SWEEP = {"mode": "sweep", "axis": "x0_wig", "start": 0.01, "stop": 0.02, "count": 2,
          "base": {"mode": "single-photon"}}


def _rejections():
    """A run with one key or flag just outside its interval: (flags, config, field, bounds)."""
    for mode, field, kind, default, bounds in _bounded_keys():
        for end in _outside(kind, bounds):
            # a pair is checked part by part
            pairs = [[end, default[1]], [default[0], end]] if kind in (complex, tuple) else [end]
            for val in pairs:
                payload = {**_SWEEP} if mode == "sweep" else {"mode": mode}
                section, _, key = field.rpartition(".")
                (payload.setdefault(section, {}) if section else payload)[key] = val
                yield pytest.param([], payload, field, bounds, id=f"{mode}-{field}={val}")
    for flag, mode, bounds in (("--dim", "two-photon", cli._KEYS["two-photon"]["dim"][2]),
                               ("--seed", "emulate", cli._KEYS["emulate"]["rng_seed"][2]),
                               ("--threads", "emulate", "[1, inf)")):
        for val in _outside(int, bounds):
            yield pytest.param([flag, str(val)], {"mode": mode}, flag, bounds, id=f"{flag}={val}")


@pytest.mark.parametrize("extra, payload, field, bounds", list(_rejections()))
def test_every_bound_rejects_just_past_it_before_running(tmp_path, capsys, monkeypatch, extra, payload, field, bounds):
    def must_not_run(resolved, axis=None, values=(None,)):
        raise AssertionError(f"the mode ran before {field} was checked")

    for mode in cli._MODE_RUNNERS:
        monkeypatch.setitem(cli._MODE_RUNNERS, mode, must_not_run)
    code, out = run_cli(tmp_path, payload, *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{field}': " in err and f" is outside {bounds}\n" in err, err
    assert not (out / "result.json").exists()


def test_the_walk_reaches_sections_and_pairs():
    walked = {(mode, field) for mode, field, *_ in _bounded_keys()}
    assert {("sweep", "count"), ("single-photon", "wigner_export.points"), ("two-photon", "wigner_export.extent"),
            ("coherent", "gamma"), ("emulate", "v_in_snl")} <= walked


def _readme_intervals():
    """{name: {interval: modes}} from the README's list of intervals: each
    interval goes to the key and flag names before it in its bullet, and to
    the modes named beside it (an empty set where it names none)."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("Each bounded key and flag must lie in its interval", 1)[1].split("Modes and their", 1)[0]
    names = {field for _, field, *_ in _bounded_keys()} | {"--dim", "--seed", "--threads"}
    listed = {}
    for bullet in re.split(r"\n\* ", block)[1:]:
        last = []
        for segment in bullet.split(";"):
            tokens = re.findall(r"`([^`]+)`", segment)
            last = [t for t in tokens if t in names] or last
            modes = {t for t in tokens if t in cli._KEYS}
            for interval in (t for t in tokens if re.fullmatch(r"[\[(][^,]+, [^,]+[\])]", t)):
                for name in last:
                    listed.setdefault(name, {})[interval] = modes
    return listed


def test_readme_lists_every_interval_of_the_keys_and_flags():
    # the README quotes each interval as the errors do, so the two must not drift
    want = {}
    for mode, field, _, _, bounds in _bounded_keys():
        want.setdefault(field, {}).setdefault(bounds, set()).add(mode)
    for flag, bounds in (("--dim", cli._KEYS["two-photon"]["dim"][2]),
                         ("--seed", cli._KEYS["emulate"]["rng_seed"][2]), ("--threads", "[1, inf)")):
        want[flag] = {bounds: set()}
    listed = _readme_intervals()
    assert {name: set(intervals) for name, intervals in listed.items()} == \
        {name: set(intervals) for name, intervals in want.items()}
    # where the README names the modes an interval holds in, they are those of cli._KEYS
    for name, intervals in listed.items():
        for interval, modes in intervals.items():
            assert not modes or modes == want[name][interval], (name, interval, modes)
    assert listed["reflectivity"]["[0, 1)"] == {"coherent", "emulate"}
    assert want["reflectivity"]["[0, 1]"] == {"single-photon", "two-photon"}


# ---------------------------------------------------------------------------
# Selfcheck
# ---------------------------------------------------------------------------


def test_selfcheck_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_selfcheck_fails_at_tiny_dimension(capsys):
    assert cli.main(["--dim", "6", "selfcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "squeezed-photon-exactness" in out
    assert "dim" in out  # truncation diagnostic mentions the dimension


def test_main_builds_its_parser_on_the_first_call_only(capsys):
    # not at import, which a console run pays for anyway; then once per process
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "import sys, cvpost.cli as c; sys.exit(c._parser.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), timeout=60).returncode == 0
    cli._parser.cache_clear()
    assert cli.main(["--dim", "1", "selfcheck"]) == 2
    parser = cli._parser()
    assert cli.main(["--seed", "-1", "run", "config.json"]) == 2
    assert cli._parser() is parser and cli._parser.cache_info().misses == 1
    capsys.readouterr()


def test_selfcheck_deterministic(capsys):
    cli.main(["selfcheck"])
    first = capsys.readouterr().out
    cli.main(["selfcheck"])
    second = capsys.readouterr().out
    assert first == second


def test_emulate_sample_dump(tmp_path):
    payload = {
        "mode": "emulate", "n_samples": 100_000, "x0_snl": 1.0,
        "dump_samples_csv": True,
    }
    code, out = run_cli(tmp_path, payload)
    assert code == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "x_t_plus,x_t_minus,x_r_plus"
    assert len(lines) == 100_001
    assert read_result(out)["config"]["dump_samples_csv"] is True


def test_emulate_sample_dump_leaves_results_unchanged(tmp_path):
    # with the dump the full stream is drawn and post-selected; without it
    # only the kept rows get transmitted records; the results are the same
    results = []
    for dump in (True, False):
        payload = {"mode": "emulate", "n_samples": 300_000, "x0_snl": 0.1, "dump_samples_csv": dump}
        out = tmp_path / f"dump-{dump}"
        assert cli.main(["--out", str(out), "run", write_config(tmp_path, payload)]) == 0
        results.append(read_result(out)["results"])
    assert results[0] == results[1]
