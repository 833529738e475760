"""Scenario runner: read a JSON config, dispatch to the engines, write
result.json / curve.csv / wigner.csv.

Config keys carry explicit unit suffixes (_wig, _snl, _db) so the two unit
systems cannot be confused.  Every mode's defaults are a complete working
scenario, so ``{"mode": "single-photon"}`` is a valid config.

Exit codes: 0 success, 2 config validation failure, 3 engine convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, conditioner, emulator, fock, gaussian, wigner
from .errors import ConvergenceError


class ConfigError(Exception):
    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def _is_number(val):
    # bool is an int subclass, but JSON true/false is not a number.
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _get(cfg, key, default, kind, check=None):
    """Read a JSON number: ``int`` keys take integers only, ``float`` keys any number."""
    val = cfg.get(key, default)
    if not _is_number(val) or (kind is int and not isinstance(val, int)):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(key, f"expected {expected}, got {val!r}")
    val = kind(val)
    if check is not None and not check(val):
        raise ConfigError(key, f"invalid value {val!r}")
    return val


def _check_dim(dim):
    """Reject a ``dim`` whose beam-splitter eigenbasis and joint would be over the memory budget."""
    try:
        fock.check_dim(dim)
    except ValueError as exc:
        raise ConfigError("dim", str(exc)) from None


def _get_bool(cfg, key, default):
    val = cfg.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(key, f"expected true or false, got {val!r}")
    return val


def _check_keys(cfg, allowed, where=""):
    """Reject keys the mode does not read instead of silently ignoring them."""
    if not isinstance(cfg, dict):
        raise ConfigError(where.rstrip("."), f"expected a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(where + unknown[0], f"unknown key; allowed keys are {sorted(allowed)}")


def _get_pair(cfg, key, default):
    raw = cfg.get(key, default)
    if not (isinstance(raw, list) and len(raw) == 2 and all(map(_is_number, raw))):
        raise ConfigError(key, f"expected a pair of numbers, got {raw!r}")
    return tuple(raw)


def _get_complex(cfg, key, default):
    raw = cfg.get(key, default)
    parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0.0]
    if not all(map(_is_number, parts)):
        raise ConfigError(key, f"expected a number or [re, im] pair, got {raw!r}")
    return complex(float(parts[0]), float(parts[1]))


# ---------------------------------------------------------------------------
# Mode runners: each returns (resolved_config, scalars_dict, window_or_None)
# ---------------------------------------------------------------------------


# The two Fock-input modes run the same protocol; they differ only in the
# input photon number, the target and these defaults.
_PHOTON_DEFAULTS = {
    "single-photon": {"n": 1, "reflectivity": 0.98, "squeezing": 0.7, "x0_wig": 0.025, "dim": 60},
    "two-photon": {"n": 2, "reflectivity": 0.5, "squeezing": -0.37, "x0_wig": 0.084, "dim": 40},
}


def _photon_config(cfg, overrides):
    """ProtocolConfig and resolved keys of a single- or two-photon config."""
    mode = cfg["mode"]
    defaults = _PHOTON_DEFAULTS[mode]
    dim = overrides.get("dim") or _get(cfg, "dim", defaults["dim"], int, lambda v: v >= 2)
    _check_dim(dim)
    r = _get(cfg, "reflectivity", defaults["reflectivity"], float, lambda v: 0 <= v <= 1)
    s = _get(cfg, "squeezing", defaults["squeezing"], float)
    x0 = _get(cfg, "x0_wig", defaults["x0_wig"], float, lambda v: v > 0)
    nodes = _get(cfg, "nodes", 65, int, lambda v: v >= 33 and v % 2 == 1)
    resolved = {
        "mode": mode, "reflectivity": r, "squeezing": s,
        "x0_wig": x0, "dim": dim, "nodes": nodes,
    }
    if mode == "single-photon":
        target = conditioner.SqueezedFockTarget(n=1)
    else:
        gamma = _get_complex(cfg, "scs_gamma", [0.0, 1.1])
        target = conditioner.ScsTarget(gamma=gamma, parity="even")
        resolved["scs_gamma"] = [gamma.real, gamma.imag]
    config = conditioner.ProtocolConfig(
        reflectivity=r, squeezing=s, x0=x0,
        input_spec=conditioner.FockInput(defaults["n"]),
        target_spec=target,
        dim=dim,
    )
    return config, resolved


def _run_photon(cfg, overrides):
    config, resolved = _photon_config(cfg, overrides)
    joint, target = conditioner.build_joint(config), conditioner.resolve_target(config)
    win = conditioner.run_window(joint, target, config.x0, resolved["nodes"])
    zero = conditioner.postselect_map(joint, target, [0.0])[0]
    scalars = {
        "f_ave": win.avg_fidelity,
        "p_s": win.success_prob,
        "fidelity_at_zero": zero.fidelity,
        "purity_avg_state": win.avg_state.purity(),
    }
    if resolved["mode"] == "single-photon":
        # s' leads and the density check trails, as curve.csv's columns expect.
        scalars = {
            "s_prime": conditioner.s_prime(config.reflectivity, config.squeezing),
            **scalars,
            "density_norm": conditioner.density_norm(joint, n_nodes=769),
        }
    return resolved, scalars, win


def _run_coherent(cfg, overrides):
    r = _get(cfg, "reflectivity", 0.75, float, lambda v: 0 <= v < 1)
    s = _get(cfg, "squeezing", 0.52, float)
    gamma = _get_complex(cfg, "gamma", [0.18, 0.0])
    x_snl = _get(cfg, "x_snl", 0.0, float)
    out = gaussian.condition_coherent(gamma, r, s, x_snl)
    inp = gaussian.coherent_gaussian(gamma)
    target = gaussian.ideal_target(inp, r)
    sp = conditioner.s_prime(r, s)
    ig_p, ig_m = gaussian.ideal_gains(r)
    g_p = out.mean[0] / inp.mean[0] if inp.mean[0] != 0 else float("nan")
    g_m = out.mean[1] / inp.mean[1] if inp.mean[1] != 0 else float("nan")
    try:
        clim = gaussian.classical_limit(r)
    except ValueError:
        clim = None
    resolved = {
        "mode": "coherent", "reflectivity": r, "squeezing": s,
        "gamma": [gamma.real, gamma.imag], "x_snl": x_snl,
    }
    scalars = {
        "s_prime": sp,
        "mean_out_snl": [float(out.mean[0]), float(out.mean[1])],
        "v_out_snl": [float(out.cov[0, 0]), float(out.cov[1, 1])],
        "g_plus": float(g_p),
        "g_minus": float(g_m),
        "ideal_g_plus": float(ig_p),
        "ideal_g_minus": float(ig_m),
        "purity": gaussian.purity(out),
        "fidelity_to_ideal_target": gaussian.gaussian_fidelity(out, target),
        "classical_limit": clim,
    }
    return resolved, scalars, None


def _emulate_params(cfg, overrides):
    seed = overrides.get("seed")
    kwargs = dict(
        R=_get(cfg, "reflectivity", 0.75, float, lambda v: 0 <= v <= 1),
        v_in=_get_pair(cfg, "v_in_snl", [1.13, 1.05]),
        anc_sqz_db=_get(cfg, "anc_sqz_db", -4.5, float),
        anc_antisqz_db=_get(cfg, "anc_antisqz_db", 8.5, float),
        eta_vis=_get(cfg, "eta_vis", 0.96, float, lambda v: 0 < v <= 1),
        eta_det=_get(cfg, "eta_det", 0.92, float, lambda v: 0 < v <= 1),
        eta_hom=_get(cfg, "eta_hom", 0.89, float, lambda v: 0 < v <= 1),
        gate_elec_db=_get(cfg, "gate_elec_db", -6.5, float),
        hom_elec_db=_get(cfg, "hom_elec_db", -8.5, float),
        gamma_plus=_get(cfg, "gamma_plus", 0.18, float),
        gamma_minus=_get(cfg, "gamma_minus", 0.5, float),
        x0=_get(cfg, "x0_snl", 0.01, float, lambda v: v > 0),
        n_samples=_get(cfg, "n_samples", 4_000_000, int, lambda v: v >= 1),
        rng_seed=int(seed) if seed is not None else _get(cfg, "rng_seed", 2006, int),
        subtract_electronic=_get_bool(cfg, "subtract_electronic", True),
    )
    return emulator.ExperimentParams(**kwargs)


def _run_emulate(cfg, overrides):
    params = _emulate_params(cfg, overrides)
    dump_to = _get_bool(cfg, "dump_samples_csv", False)
    if dump_to:
        stream = emulator.synthesize(params)
        emulator.dump_samples(stream, overrides["out_dir"] / "samples.csv")
        selected, prob = emulator.postselect(stream, params.x0)
        stats = emulator.estimate(selected, params, success_prob=prob)
    else:
        stats = emulator.run_experiment(params)
    resolved = {
        "mode": "emulate", "reflectivity": params.R, "v_in_snl": list(params.v_in),
        "anc_sqz_db": params.anc_sqz_db, "anc_antisqz_db": params.anc_antisqz_db,
        "eta_vis": params.eta_vis, "eta_det": params.eta_det, "eta_hom": params.eta_hom,
        "gate_elec_db": params.gate_elec_db, "hom_elec_db": params.hom_elec_db,
        "gamma_plus": params.gamma_plus, "gamma_minus": params.gamma_minus,
        "x0_snl": params.x0, "n_samples": params.n_samples,
        "rng_seed": params.rng_seed, "subtract_electronic": params.subtract_electronic,
        "dump_samples_csv": dump_to,
    }
    scalars = {
        "v_out_snl": list(stats.v_out),
        "g_plus": stats.gains.g_plus,
        "g_minus": stats.gains.g_minus,
        "ideal_g_plus": stats.gains.ideal_g_plus,
        "ideal_g_minus": stats.gains.ideal_g_minus,
        "fidelity_est": stats.fidelity_est,
        "fidelity_se": stats.fidelity_se,
        "purity_norm": stats.purity_norm,
        "purity_norm_se": stats.purity_norm_se,
        "success_prob": stats.success_prob,
        "n_selected": stats.n_selected,
        "notes": list(stats.notes),
    }
    return resolved, scalars, None


_MODE_RUNNERS = {
    "single-photon": _run_photon,
    "two-photon": _run_photon,
    "coherent": _run_coherent,
    "emulate": _run_emulate,
}

# Keys each mode reads; anything else in a config is an error.
_PHOTON_KEYS = {"mode", "dim", "reflectivity", "squeezing", "x0_wig", "nodes", "wigner_export"}
_MODE_KEYS = {
    "single-photon": _PHOTON_KEYS,
    "two-photon": _PHOTON_KEYS | {"scs_gamma"},
    "coherent": {"mode", "reflectivity", "squeezing", "gamma", "x_snl"},
    "emulate": {
        "mode", "reflectivity", "v_in_snl", "anc_sqz_db", "anc_antisqz_db", "eta_vis",
        "eta_det", "eta_hom", "gate_elec_db", "hom_elec_db", "gamma_plus", "gamma_minus",
        "x0_snl", "n_samples", "rng_seed", "subtract_electronic", "dump_samples_csv",
    },
    "sweep": {"mode", "axis", "start", "stop", "count", "log", "base"},
}
_WIGNER_KEYS = {"points", "extent"}

#: Largest ``wigner_export.points``.  The grid evaluator holds several
#: points²-sized arrays: at this size a two-photon dim-40 run with the export
#: peaks about 110 MB above the same run without it.
MAX_WIGNER_POINTS = 1001


def _wigner_export(cfg):
    """The validated ``wigner_export`` section, or None; checked before any work."""
    wig_cfg = cfg.get("wigner_export")
    if wig_cfg is None:
        return None
    _check_keys(wig_cfg, _WIGNER_KEYS, "wigner_export.")
    points = _get(wig_cfg, "points", 241, int, lambda v: v >= 9)
    if points > MAX_WIGNER_POINTS:
        raise ConfigError(
            "wigner_export.points",
            f"{points} points per axis is too large; the largest allowed is {MAX_WIGNER_POINTS}",
        )
    extent = _get(wig_cfg, "extent", 6.0, float, lambda v: v > 0)
    return {"points": points, "extent": extent}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _axis_values(cfg):
    for key in ("start", "stop", "count"):
        if key not in cfg:
            raise ConfigError(key, "start, stop and count are required")
    start = _get(cfg, "start", None, float)
    stop = _get(cfg, "stop", None, float)
    count = _get(cfg, "count", None, int, lambda v: v >= 1)
    log = _get_bool(cfg, "log", False)
    if start >= stop:
        raise ConfigError("sweep", "range must be non-empty and ordered (start < stop)")
    if log:
        if start <= 0:
            raise ConfigError("start", "log sweeps need start > 0")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _x0_for_success_prob(base_cfg, base_mode, target_ps, overrides):
    """Invert the success probability to a window half-width."""
    if base_mode == "emulate":
        params = _emulate_params(base_cfg, overrides)

        def ps_of(x0):
            return emulator.predict_stats(dataclasses.replace(params, x0=float(x0))).success_prob

        lo, hi = 1e-6, 50.0
    else:
        joint = conditioner.build_joint(_photon_config(base_cfg, overrides)[0])

        def ps_of(x0):
            return conditioner.density_norm(joint, x0, 65)

        lo, hi = 1e-6, 6.0
    ps_lo, ps_hi = ps_of(lo), ps_of(hi)
    if not ps_lo <= target_ps <= ps_hi:
        raise ConfigError(
            "success_prob",
            f"{target_ps!r} cannot be reached: x0 in [{lo}, {hi}] gives "
            f"P_s in [{ps_lo:.12g}, {ps_hi:.12g}]",
        )
    return _increasing_root(lambda x0: ps_of(x0) - target_ps, lo, hi, ps_lo - target_ps, ps_hi - target_ps)


def _increasing_root(f, lo, hi, f_lo, f_hi, xtol=2e-12):
    """Root of f in [lo, hi], where f(lo) = f_lo <= 0 <= f_hi = f(hi), by false
    position with the Illinois step: the value kept at an end that stays put
    twice in a row is halved, so both ends close in."""
    x, stayed = lo, 0
    while hi - lo > xtol:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        fx = f(x)
        if fx == 0.0:
            break
        if fx < 0.0:
            lo, f_lo, f_hi = x, fx, f_hi * 0.5 if stayed == 1 else f_hi
            stayed = 1
        else:
            hi, f_hi, f_lo = x, fx, f_lo * 0.5 if stayed == -1 else f_lo
            stayed = -1
    return float(x)


def _run_sweep(cfg, overrides):
    base = cfg.get("base", {})
    base_mode = base.get("mode") if isinstance(base, dict) else None
    if base_mode not in _MODE_RUNNERS:
        raise ConfigError("base.mode", f"must be one of {sorted(_MODE_RUNNERS)}")
    _check_keys(base, _MODE_KEYS[base_mode] - {"wigner_export"}, "base.")
    axis = cfg.get("axis")
    allowed = {
        "single-photon": {"x0_wig", "success_prob"},
        "two-photon": {"x0_wig", "success_prob"},
        "coherent": {"gamma_plus"},
        "emulate": {"x0_snl", "gamma_plus", "success_prob"},
    }[base_mode]
    if axis not in allowed:
        raise ConfigError("axis", f"mode {base_mode} supports axes {sorted(allowed)}")
    values = _axis_values(cfg)

    def point(value):
        point_cfg = dict(base)
        if axis == "success_prob":
            x0 = _x0_for_success_prob(base, base_mode, float(value), overrides)
            key = "x0_snl" if base_mode == "emulate" else "x0_wig"
            point_cfg[key] = x0
        elif axis == "gamma_plus" and base_mode == "coherent":
            gamma = _get_complex(base, "gamma", [0.18, 0.0])
            point_cfg["gamma"] = [float(value), gamma.imag]
        else:
            point_cfg[axis] = float(value)
        _, scalars, _ = _MODE_RUNNERS[base_mode](point_cfg, overrides)
        return scalars

    rows = [point(v) for v in values]
    resolved = {"mode": "sweep", "axis": axis, "base": base,
                "start": float(values[0]), "stop": float(values[-1]),
                "count": len(values), "log": cfg.get("log", False)}
    return resolved, values, rows


def _write_curve(path, axis, values, rows):
    scalar_keys = [k for k, v in rows[0].items() if isinstance(v, (int, float)) and v is not None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis] + scalar_keys)
        for value, row in zip(values, rows):
            writer.writerow([repr(float(value))] + [repr(float(row[k])) for k in scalar_keys])


def _write_wigner(path, grid: wigner.WignerGrid):
    # The bytes csv.writer would write (repr fields, "\r\n" line ends), one
    # string per row; no field needs quoting.  Each distinct bit pattern is
    # formatted once, so -0.0 and 0.0 keep their own repr.
    values = np.ascontiguousarray(grid.values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    rows = text[inverse.reshape(values.shape)].tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["alpha_plus\\alpha_minus", *map(repr, grid.p_axis.tolist())]) + "\r\n")
        for x, row in zip(grid.x_axis.tolist(), rows):
            fh.write(repr(x) + "," + ",".join(row) + "\r\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    overrides = {"dim": args.dim, "seed": args.seed, "out_dir": out_dir}
    try:
        mode = cfg.get("mode") if isinstance(cfg, dict) else None
        if mode not in _MODE_KEYS:
            raise ConfigError("mode", f"must be one of {sorted(_MODE_KEYS)}")
        _check_keys(cfg, _MODE_KEYS[mode])
        export = _wigner_export(cfg)
        if mode == "sweep":
            resolved, values, rows = _run_sweep(cfg, overrides)
            _write_curve(out_dir / "curve.csv", resolved["axis"], values, rows)
            scalars = {"points": len(values), "first": rows[0], "last": rows[-1]}
        else:
            resolved, scalars, window = _MODE_RUNNERS[mode](cfg, overrides)
        if export is not None:
            axis = np.linspace(-export["extent"], export["extent"], export["points"])
            grid = wigner.wigner_from_density(window.avg_state, axis, axis.copy())
            _write_wigner(out_dir / "wigner.csv", grid)
            resolved["wigner_export"] = export
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"config validation failed: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"engine did not converge: {exc}", file=sys.stderr)
        return 3

    payload = {
        "tool": {"name": "cvpost", "version": __version__},
        "config": resolved,
        "results": _sanitize(scalars),
    }
    (out_dir / "result.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / 'result.json'}")
    return 0


def _sanitize(obj):
    """Replace non-finite floats with null so the JSON stays standard."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _selfcheck_checks(dim: int):
    def quad_convention():
        xs = np.linspace(-8, 8, 1601)
        w = conditioner._simpson_weights(1601, -8, 8)
        psi0 = fock.quadrature_wavefunctions(0, xs)[0]
        norm = float(w @ psi0**2)
        var = float(w @ (xs**2 * psi0**2))
        ok = abs(norm - 1) < 1e-9 and abs(var - 0.25) < 1e-9
        return ok, f"norm={norm:.12f} var={var:.12f}"

    # The single-photon joint is built once, on first use, for the two checks that read it.
    single_photon = conditioner.ProtocolConfig(0.98, 0.7, 0.025, dim=dim)
    single_photon_joint = functools.cache(lambda: conditioner.build_joint(single_photon))

    def density_normalization():
        val = conditioner.density_norm(single_photon_joint(), n_nodes=769)
        ok = abs(val - 1.0) < 1e-6
        return ok, f"integral={val:.9f}"

    def squeezed_photon_exactness():
        target = conditioner.resolve_target(single_photon)
        fid = conditioner.postselect_map(single_photon_joint(), target, [0.0])[0].fidelity
        ok = fid >= 1.0 - 1e-6
        hint = "" if ok else " (truncation: increase --dim)"
        return ok, f"fidelity deficit={1.0 - fid:.3e}{hint}"

    def cross_engine_agreement():
        gamma, r, s, x_snl = 0.5 + 0.3j, 0.75, 0.52, 0.1
        g_state = gaussian.condition_coherent(gamma, r, s, x_snl)
        config = conditioner.ProtocolConfig(
            r, s, 0.1, input_spec=conditioner.CoherentInput(gamma), dim=dim
        )
        joint = conditioner.build_joint(config)
        rho, p1 = conditioner.homodyne_project(joint, x_snl / 2.0)
        mean_w, cov_w = fock.quadrature_moments(rho.normalized())
        dmean = np.max(np.abs(2.0 * mean_w - g_state.mean))
        dcov = np.max(np.abs(4.0 * cov_w - g_state.cov))
        ok = max(dmean, dcov) < 1e-6
        return ok, f"max mean diff={dmean:.2e}, max cov diff={dcov:.2e}"

    def wigner_normalization():
        ok = True
        details = []
        for name, state in (("vacuum", fock.fock_state(0, dim)), ("one-photon", fock.fock_state(1, dim))):
            grid = wigner.state_grid(state)
            total = grid.riemann_sum()
            bound_ok = grid.values.min() >= wigner.WIGNER_LOWER_BOUND - 1e-9
            ok = ok and abs(total - 1) < 1e-4 and bound_ok
            details.append(f"{name}: sum={total:.6f}")
        return ok, "; ".join(details)

    return [
        ("quadrature-convention", quad_convention),
        ("outcome-density-normalization", density_normalization),
        ("squeezed-photon-exactness", squeezed_photon_exactness),
        ("cross-engine-agreement", cross_engine_agreement),
        ("wigner-normalization", wigner_normalization),
    ]


def _cmd_selfcheck(args) -> int:
    dim = args.dim or 60
    all_ok = True
    for name, check in _selfcheck_checks(dim):
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cvpost", description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the emulator RNG seed")
    parser.add_argument("--dim", type=int, default=None, help="override the Fock truncation")
    parser.add_argument("--threads", type=int, default=1, help="accepted; sweeps run serially")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario from a JSON config")
    run_p.add_argument("config", help="path to the config file")
    sub.add_parser("selfcheck", help="run the fast invariant suite")
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("--threads must be >= 1", file=sys.stderr)
        return 2
    if args.dim is not None and args.dim < 2:
        print("--dim must be >= 2", file=sys.stderr)
        return 2
    if args.dim is not None:
        try:
            fock.check_dim(args.dim)
        except ValueError as exc:
            print(f"--dim: {exc}", file=sys.stderr)
            return 2
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_selfcheck(args)


if __name__ == "__main__":
    raise SystemExit(main())
