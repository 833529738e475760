import csv
import dataclasses
import json
import time

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
    grid = wigner.WignerGrid(values, x_axis, p_axis, (0.1, 0.1), 0.0)
    cli._write_wigner(tmp_path / "new.csv", grid)
    _write_wigner_with_csv_module(tmp_path / "old.csv", grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
    assert f"{fock.MEMORY_BUDGET >> 20} MiB budget" in err and "the largest dim that fits is 401" in err
    assert not (out / "result.json").exists()


def test_selfcheck_dim_over_the_memory_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert cli.main(["--dim", str(_OVER_BUDGET), "selfcheck"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "the largest dim that fits is 401" in captured.err


def test_unknown_mode_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"mode": "three-photon"})
    assert code == 2
    assert "mode" in capsys.readouterr().err


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


def test_empty_emulator_selection_exits_2(tmp_path, capsys):
    code, out = run_cli(tmp_path, {"mode": "emulate", "n_samples": 1000, "x0_snl": 1e-7})
    assert code == 2
    assert "raise x0 or n_samples" in capsys.readouterr().err
    assert not (out / "result.json").exists()


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
