"""Per-op output checks.

An op passes when ``cvpost run`` returns 0, writes its outputs and every
check for its mode holds.  :func:`check_op` lists what failed; an empty
list is a pass.
"""

from __future__ import annotations

import csv
import json
import math

PHOTON_MODES = ("single-photon", "two-photon")
#: Slack on quantities bounded by 1 (rounding in the quadrature ratios).
UNIT_SLACK = 1e-9
#: Single-photon zero-outcome fidelity and outcome-density normalisation.
EXACT_TOL = 1e-6
#: Relative gap allowed between a success_prob sweep target and the P_s the
#: converged window integrator then reports.
TARGET_RTOL = 1e-3
#: Emulator estimates must sit within this many standard errors.
SIGMAS = 5.0
#: Photon scalars against the values recorded at the seed commit.
REFERENCE_RTOL = 1e-9
#: Largest |W| of any state in Wigner units.
WIGNER_BOUND = 2.0 / math.pi


def check_op(op: dict, out_dir, rc, reference: dict | None = None) -> list:
    """Problems found in one op's outputs; ``reference`` maps op ids to the
    ``results`` block recorded for them."""
    if rc != 0:
        return [f"cvpost run returned {rc!r}"]
    try:
        payload = json.loads((out_dir / "result.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"result.json unreadable: {exc}"]
    spec = op["config"]
    mode = spec["mode"]
    try:
        if mode == "sweep":
            problems = _check_sweep(spec, payload["config"], out_dir)
        elif mode in PHOTON_MODES:
            problems = _check_photon(mode, payload["results"])
        elif mode == "emulate":
            problems = _check_emulate(payload["config"], payload["results"])
        else:
            problems = [f"no checks for mode {mode!r}"]
        if "wigner_export" in spec:
            problems += _check_wigner(spec["wigner_export"]["points"], out_dir / "wigner.csv")
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    if reference and op["id"] in reference:
        problems += _compare(reference[op["id"]], payload["results"], "results")
    return problems


def _check_photon(mode, r) -> list:
    problems = []
    if not 0.0 < r["p_s"] <= 1.0:
        problems.append(f"p_s={r['p_s']} outside (0, 1]")
    for key in ("f_ave", "purity_avg_state"):
        if not r[key] <= 1.0 + UNIT_SLACK:
            problems.append(f"{key}={r[key]} exceeds 1")
    if mode == "single-photon":
        if not r["fidelity_at_zero"] >= 1.0 - EXACT_TOL:
            problems.append(f"fidelity_at_zero={r['fidelity_at_zero']} below 1 - {EXACT_TOL}")
        if not abs(r["density_norm"] - 1.0) <= EXACT_TOL:
            problems.append(f"density_norm={r['density_norm']} not within {EXACT_TOL} of 1")
    return problems


def _emulator_params(c):
    from cvpost import emulator

    return emulator.ExperimentParams(
        R=c["reflectivity"], v_in=tuple(c["v_in_snl"]),
        anc_sqz_db=c["anc_sqz_db"], anc_antisqz_db=c["anc_antisqz_db"],
        eta_vis=c["eta_vis"], eta_det=c["eta_det"], eta_hom=c["eta_hom"],
        gate_elec_db=c["gate_elec_db"], hom_elec_db=c["hom_elec_db"],
        gamma_plus=c["gamma_plus"], gamma_minus=c["gamma_minus"],
        x0=c["x0_snl"], n_samples=c["n_samples"], rng_seed=c["rng_seed"],
        subtract_electronic=c["subtract_electronic"],
    )


def _binomial_gap(measured, p, n) -> float:
    """|measured - p| in binomial standard deviations of n draws."""
    return abs(measured - p) / math.sqrt(p * (1.0 - p) / n)


def _check_emulate(config, r) -> list:
    from cvpost import emulator

    pred = emulator.predict_stats(_emulator_params(config))
    problems = []
    if not abs(r["fidelity_est"] - pred.fidelity) <= SIGMAS * r["fidelity_se"]:
        problems.append(
            f"fidelity_est={r['fidelity_est']} is more than {SIGMAS} x se={r['fidelity_se']} "
            f"from the prediction {pred.fidelity}"
        )
    gap = _binomial_gap(r["success_prob"], pred.success_prob, config["n_samples"])
    if not gap <= SIGMAS:
        problems.append(f"success_prob={r['success_prob']} is {gap:.1f} sigma from {pred.success_prob}")
    return problems


def _read_curve(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    # The axis is column 0; an axis may repeat a scalar name (success_prob).
    return [(float(row[0]), dict(zip(header[1:], map(float, row[1:])))) for row in rows]


def _check_sweep(spec, resolved, out_dir) -> list:
    curve = _read_curve(out_dir / "curve.csv")
    if len(curve) != spec["count"]:
        return [f"curve.csv has {len(curve)} rows, expected {spec['count']}"]
    axis = [value for value, _ in curve]
    if axis != sorted(axis):
        return ["curve.csv axis is not increasing"]
    base_mode = spec["base"]["mode"]
    problems = []
    for value, row in curve:
        if base_mode in PHOTON_MODES:
            problems += _check_photon(base_mode, row)
            if spec["axis"] == "success_prob" and abs(row["p_s"] - value) > TARGET_RTOL * value:
                problems.append(f"p_s={row['p_s']} misses the target {value}")
        elif base_mode == "emulate":
            gap = _binomial_gap(row["success_prob"], value, resolved["base"]["n_samples"])
            if not gap <= SIGMAS:
                problems.append(f"success_prob={row['success_prob']} is {gap:.1f} sigma from target {value}")
            if not row["fidelity_se"] > 0.0:
                problems.append(f"fidelity_se={row['fidelity_se']} is not positive")
        elif base_mode == "coherent":
            if not row["purity"] <= 1.0 + UNIT_SLACK:
                problems.append(f"purity={row['purity']} exceeds 1")
            if not 0.0 <= row["fidelity_to_ideal_target"] <= 1.0 + UNIT_SLACK:
                problems.append(f"fidelity_to_ideal_target={row['fidelity_to_ideal_target']} outside [0, 1]")
    if base_mode in PHOTON_MODES:
        p_s = [row["p_s"] for _, row in curve]
        if any(b < a for a, b in zip(p_s, p_s[1:])):
            problems.append(f"p_s decreases as x0_wig grows: {p_s}")
    return problems


def _check_wigner(points, path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != points + 1 or any(len(row) != points + 1 for row in rows):
        return [f"wigner.csv is not a {points}x{points} grid with axes"]
    peak = max(abs(float(v)) for row in rows[1:] for v in row[1:])
    if not peak <= WIGNER_BOUND * (1.0 + UNIT_SLACK):
        return [f"|W| reaches {peak}, above 2/pi"]
    return []


def _compare(expected, actual, where) -> list:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys differ from the reference"]
        return [p for key in expected for p in _compare(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [p for k, (e, a) in enumerate(zip(expected, actual)) for p in _compare(e, a, f"{where}[{k}]")]
    numbers = (int, float)
    if isinstance(expected, numbers) and isinstance(actual, numbers) and not isinstance(expected, bool):
        if abs(actual - expected) <= REFERENCE_RTOL * max(abs(expected), abs(actual)):
            return []
    elif expected == actual:
        return []
    return [f"{where}={actual!r} differs from the reference {expected!r}"]
