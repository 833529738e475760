"""Scenario runner: read a JSON config, dispatch to the engines, write
result.json / curve.csv / wigner.csv / samples.csv.

Each mode's keys form one table, key -> (default, kind, bounds), and every
key of a config is checked against it before any work; an unknown key is an
error.  Keys carry unit suffixes (_wig, _snl, _db) so the two unit systems
cannot be confused, and each mode's defaults are a complete working scenario,
so ``{"mode": "single-photon"}`` is a valid config.  Every run is a sweep of
one or more points: the mode's runner prepares once what the swept key leaves
alone.  A sweep base takes no output keys, as each point would overwrite them.

Exit codes: 0 success, 2 config validation failure.
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
from .gaussian import MAX_SQUEEZING, SQUEEZING, checked


class ConfigError(Exception):
    def __init__(self, field, message):
        super().__init__(f"{'flag' if field.startswith('-') else 'config field'} '{field}': {message}")
        self.field = field


# A config key is (default, kind, bounds): what a JSON value of it must be,
# and None or the interval that the value, or each of its parts, must lie in,
# as gaussian.checked takes them.
_REQUIRED = object()  # the default of a key that has none


def _value(field, val, kind, bounds):
    """``val`` checked and converted by :func:`cvpost.gaussian.checked`, its reason a ConfigError naming ``field``."""
    try:
        return checked(val, kind, bounds)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from None


def _read(cfg, table, where=""):
    """The resolved config: every key of ``cfg`` checked against ``table`` and
    every default filled in, before any work.  A key whose kind is itself a
    table is an optional section, read the same way and left out if absent."""
    if not isinstance(cfg, dict):
        raise ConfigError(where.rstrip("."), f"expected a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(where + unknown[0], f"unknown key; allowed keys are {sorted(table)}")
    resolved = {}
    for key, (default, kind, bounds) in table.items():
        val = cfg.get(key, default)
        if val is _REQUIRED:
            raise ConfigError(where + key, "this key is required")
        if not isinstance(kind, dict):
            resolved[key] = _value(where + key, val, kind, bounds)
        elif val is not None:
            resolved[key] = _read(val, kind, f"{where}{key}.")
    return resolved


def _resolve(cfg, tables, where="", dim=None, seed=None):
    """Read a config of one of the modes in ``tables``.  ``--dim`` and
    ``--seed`` replace ``dim`` and ``rng_seed`` once the config's own are checked."""
    mode = cfg.get("mode") if isinstance(cfg, dict) else None
    if not isinstance(mode, str) or mode not in tables:
        raise ConfigError(where + "mode", f"must be one of {sorted(tables)}")
    resolved = _read(cfg, tables[mode], where)
    for key, val in (("dim", dim), ("rng_seed", seed)):
        if val is not None and key in resolved:
            resolved[key] = val
    return resolved


#: Largest ``wigner_export.points``.  The grid evaluator holds several
#: points²-sized arrays: at this size a two-photon dim-40 run with the export
#: peaks about 110 MB above the same run without it.
MAX_WIGNER_POINTS = 1001


#: Largest sweep ``count``.  A sweep holds one row of scalars per point (about
#: 1 KB) until it writes curve.csv, and a photon point takes about a
#: millisecond, an emulate point up to a second: at this size a sweep holds
#: about 10 MB and a photon sweep ends in seconds.  A curve needs far fewer.
MAX_SWEEP_POINTS = 10_000

# Each part of the coherent mode's gamma, and its outcome x_snl, so that no
# closed form overflows.  The ideal target scales the SNL mean 2 gamma by
# 1/sqrt(T) <= 2^26.5, as T >= 2^-53 for a double R < 1: 2e299 * 2^26.5 is
# 1.9e307, a tenth of the largest float.  The conditional mean adds
# beta (x - 2 sqrt(R) gamma_plus), where |beta| <= sinh|s| < 5e4 for
# |s| <= MAX_SQUEEZING (bound T + R e^{-2s} below by AM-GM), so it stays below 2e304.
_LOCATION = "[-1e299, 1e299]"


def _photon_keys(reflectivity, squeezing, x0_wig, dim, **extra):
    """Keys of a Fock-input mode; the two run one protocol and differ in these defaults."""
    return {
        "mode": (_REQUIRED, str, None),
        "dim": (dim, int, f"[2, {fock.MAX_DIM}]"),
        "reflectivity": (reflectivity, float, "[0, 1]"),
        "squeezing": (squeezing, float, SQUEEZING),
        "x0_wig": (x0_wig, float, emulator.PARAMS["x0"][2]),  # a window half-width, as the emulator's
        **extra,
        "wigner_export": (None, {"points": (241, int, f"[9, {MAX_WIGNER_POINTS}]"),
                                 "extent": (6.0, float, "(0, inf)")}, None),
    }


# The emulate keys are emulator.PARAMS's, with the bench run's defaults.
_BENCH = emulator.ExperimentParams()

# Keys each mode reads; anything else in a config is an error.
_KEYS = {
    "single-photon": _photon_keys(0.98, 0.7, 0.025, 60),
    "two-photon": _photon_keys(0.5, -0.37, 0.084, 40, scs_gamma=([0.0, 1.1], complex, None)),
    "coherent": {
        "mode": (_REQUIRED, str, None),
        "reflectivity": (0.75, float, "[0, 1)"),
        "squeezing": (0.52, float, SQUEEZING),
        "gamma": ([0.18, 0.0], complex, _LOCATION),
        "x_snl": (0.0, float, _LOCATION),
    },
    "emulate": {
        "mode": (_REQUIRED, str, None),
        **{key: (getattr(_BENCH, field), kind, bounds) for field, (key, kind, bounds) in emulator.PARAMS.items()},
        "dump_samples_csv": (False, bool, None),
    },
    "sweep": {
        "mode": (_REQUIRED, str, None),
        "axis": (_REQUIRED, str, None),
        "start": (_REQUIRED, float, None), "stop": (_REQUIRED, float, None),
        "count": (_REQUIRED, int, f"[1, {MAX_SWEEP_POINTS}]"),
        "log": (False, bool, None),
        "base": ({}, dict, None),
    },
}
# A sweep base runs at every point, so it takes no output keys.
_BASE_KEYS = {
    mode: {key: spec for key, spec in table.items() if key not in ("wigner_export", "dump_samples_csv")}
    for mode, table in _KEYS.items() if mode != "sweep"
}
_AXES = {
    "single-photon": ("success_prob", "x0_wig"),
    "two-photon": ("success_prob", "x0_wig"),
    "coherent": ("gamma_plus",),
    "emulate": ("gamma_plus", "success_prob", "x0_snl"),
}


# ---------------------------------------------------------------------------
# Mode runners: each takes a resolved config and, for a sweep, its axis and values,
# and yields one (scalars, window or None) row per value, so a sweep drops each
# window once it has the scalars.  A run is one point.
# ---------------------------------------------------------------------------


def _photon_setup(resolved):
    """The joint state and the target of a resolved photon config."""
    dim, r, s = resolved["dim"], resolved["reflectivity"], resolved["squeezing"]
    n = 1 if resolved["mode"] == "single-photon" else 2
    joint = conditioner.build_joint(fock.fock_state(n, dim), r, s)
    if n == 1:
        return joint, fock.squeezed_number_state(1, gaussian.s_prime(r, s), dim)
    try:  # a cat state too large for dim names its key
        return joint, fock.scs_state(complex(*resolved["scs_gamma"]), dim)
    except fock.TruncationError as exc:
        raise ConfigError("scs_gamma", str(exc)) from None


def _run_photon(resolved, axis=None, values=(None,)):
    joint, target = _photon_setup(resolved)
    zero = conditioner.fidelity(conditioner.homodyne_project(joint, 0.0)[0], target)
    head, tail = {}, {}
    if resolved["mode"] == "single-photon":
        # s' leads and the density check trails, as curve.csv's columns expect.
        head = {"s_prime": gaussian.s_prime(resolved["reflectivity"], resolved["squeezing"])}
        tail = {"density_norm": conditioner.density_norm(joint)}
    ps_of = _ps_of(resolved["mode"], joint)
    for value in values:
        x0 = resolved["x0_wig"] if axis is None else value
        if axis == "success_prob":
            x0 = _x0_for_success_prob(*ps_of, value)
        win = conditioner.run_window(joint, target, x0)
        scalars = {
            "f_ave": win.avg_fidelity,
            "p_s": win.success_prob,
            "fidelity_at_zero": zero,
            "purity_avg_state": float(np.real(np.sum(win.avg_state * win.avg_state.conj().T))),
        }
        yield {**head, **scalars, **tail}, win


def _run_coherent(resolved, axis=None, values=(None,)):
    r, s, x_snl = resolved["reflectivity"], resolved["squeezing"], resolved["x_snl"]
    gamma = complex(*resolved["gamma"])
    sp, clim = gaussian.s_prime(r, s), gaussian.classical_limit(r)
    for value in values:
        if axis == "gamma_plus":
            gamma = complex(value, gamma.imag)
        out = gaussian.condition_coherent(gamma, r, s, x_snl)
        inp = gaussian.coherent_gaussian(gamma)
        target = gaussian.ideal_target(inp, r)
        scalars = {
            "s_prime": sp,
            "mean_out_snl": [float(out.mean[0]), float(out.mean[1])],
            "v_out_snl": [float(out.cov[0, 0]), float(out.cov[1, 1])],
            **dataclasses.asdict(gaussian.gains(out.mean, inp.mean, r)),
            "purity": gaussian.purity(out.cov),
            "fidelity_to_ideal_target": gaussian.gaussian_fidelity(out.mean, out.cov, target.mean, target.cov),
            "classical_limit": clim,
        }
        yield scalars, None


def _experiment_params(resolved):
    return emulator.ExperimentParams(**{field: resolved[key] for field, (key, _, _) in emulator.PARAMS.items()})


def _run_emulate(resolved, axis=None, values=(None,)):
    params = _experiment_params(resolved)
    ps_of = _ps_of("emulate", params)
    for value in values:
        point = params
        if axis == "success_prob":
            point = dataclasses.replace(params, x0=_x0_for_success_prob(*ps_of, value))
        elif axis is not None:
            point = _experiment_params({**resolved, axis: value})
        # The results are the EnsembleStats fields in order, with the gains inlined.
        stats = dataclasses.asdict(emulator.run_experiment(point))
        yield {"v_out_snl": stats.pop("v_out"), **stats.pop("gains"), **stats}, None


_MODE_RUNNERS = {
    "single-photon": _run_photon,
    "two-photon": _run_photon,
    "coherent": _run_coherent,
    "emulate": _run_emulate,
}


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _axis_values(sweep):
    start, stop = sweep["start"], sweep["stop"]
    if start >= stop:
        raise ConfigError("sweep", "range must be non-empty and ordered (start < stop)")
    if sweep["log"]:
        if start <= 0:
            raise ConfigError("start", "log sweeps need start > 0")
        return np.geomspace(start, stop, sweep["count"])
    return np.linspace(start, stop, sweep["count"])


def _ps_of(mode, prepared):
    """P_s(x0) of a photon joint or emulate ExperimentParams, and the x0 bracket's top.
    P_s is memoized, so a sweep evaluates the bracket's ends once."""
    if mode == "emulate":
        ps_of, hi = (lambda x0: emulator.predict_stats(dataclasses.replace(prepared, x0=float(x0))).success_prob), 50.0
    else:
        ps_of, hi = (lambda x0: conditioner.density_norm(prepared, x0)), 6.0
    return functools.cache(ps_of), hi


def _x0_for_success_prob(ps_of, hi, target_ps):
    """The window half-width in [lo, hi] at which ``ps_of`` reaches ``target_ps``."""
    lo = 1e-6
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


def _run_sweep(sweep, dim, seed):
    """Axis values and scalar rows of a resolved sweep, its base read and prepared once."""
    base = _resolve(sweep["base"], _BASE_KEYS, "base.", dim, seed)
    axis, mode = sweep["axis"], base["mode"]
    if axis not in _AXES[mode]:
        raise ConfigError("axis", f"mode {mode} supports axes {sorted(_AXES[mode])}")
    values = _axis_values(sweep)
    # every point is checked as the key it sets would be; a coherent point sets gamma's real part
    key = "gamma" if mode == "coherent" else axis
    if key in _KEYS[mode]:
        for value in values:
            _value(axis, float(value), *_KEYS[mode][key][1:])
    rows = _MODE_RUNNERS[mode](base, axis, [float(v) for v in values])
    return values, [scalars for scalars, _ in rows]


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
    # formatted once (so -0.0 and 0.0 keep their own reprs): a photon-mode
    # grid is symmetric in both axes and holds a quarter as many.
    bits, cells = np.unique(grid.values.view(np.int64), return_inverse=True)
    table = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["alpha_plus\\alpha_minus", *map(repr, grid.p_axis.tolist())]) + "\r\n")
        for x, row in zip(grid.x_axis.tolist(), table[cells.reshape(grid.values.shape)].tolist()):
            fh.write(",".join([repr(x), *row]) + "\r\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # not JSON, or an integer literal too long to parse
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        resolved = _resolve(cfg, _KEYS, dim=args.dim, seed=args.seed)
        if resolved["mode"] == "sweep":
            values, rows = _run_sweep(resolved, args.dim, args.seed)
            _write_curve(out_dir / "curve.csv", resolved["axis"], values, rows)
            scalars = {"points": len(values), "first": rows[0], "last": rows[-1]}
        else:
            [(scalars, window)] = _MODE_RUNNERS[resolved["mode"]](resolved)
            # after the run, so a run that fails leaves no dump
            if resolved.get("dump_samples_csv"):
                emulator.dump_samples(_experiment_params(resolved), out_dir / "samples.csv")
        export = resolved.get("wigner_export")
        if export is not None:
            axis = wigner.mirror_axis(export["extent"], export["points"])
            grid = wigner.wigner_from_density(window.avg_state, axis, axis.copy())
            _write_wigner(out_dir / "wigner.csv", grid)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config validation failed: {exc}", file=sys.stderr)
        return 2

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
        psi0 = fock.quadrature_wavefunctions(0, xs)[0]
        norm = float(np.trapezoid(psi0**2, xs))
        var = float(np.trapezoid(xs**2 * psi0**2, xs))
        ok = abs(norm - 1) < 1e-9 and abs(var - 0.25) < 1e-9
        return ok, f"norm={norm:.12f} var={var:.12f}"

    # The default single-photon joint and target are built once, on first use.
    single_photon = functools.cache(lambda: _photon_setup(_resolve({"mode": "single-photon"}, _KEYS, dim=dim)))

    def density_normalization():
        val = conditioner.density_norm(single_photon()[0])
        ok = abs(val - 1.0) < 1e-6
        return ok, f"integral={val:.9f}"

    def squeezed_photon_exactness():
        joint, target = single_photon()
        fid = conditioner.fidelity(conditioner.homodyne_project(joint, 0.0)[0], target)
        ok = fid >= 1.0 - 1e-6
        hint = "" if ok else " (truncation: increase --dim)"
        return ok, f"fidelity deficit={1.0 - fid:.3e}{hint}"

    def cross_engine_agreement():
        gamma, r, s, x_snl = 0.5 + 0.3j, 0.75, 0.52, 0.1
        g_state = gaussian.condition_coherent(gamma, r, s, x_snl)
        joint = conditioner.build_joint(fock.coherent_state(gamma, dim), r, s)
        state, _ = conditioner.homodyne_project(joint, x_snl / 2.0)
        mean_w, cov_w = fock.quadrature_moments(state)
        dmean = np.max(np.abs(2.0 * mean_w - g_state.mean))
        dcov = np.max(np.abs(4.0 * cov_w - g_state.cov))
        ok = max(dmean, dcov) < 1e-6
        return ok, f"max mean diff={dmean:.2e}, max cov diff={dcov:.2e}"

    def wigner_normalization():
        ok = True
        details = []
        for name, state in (("vacuum", fock.fock_state(0, dim)), ("one-photon", fock.fock_state(1, dim))):
            grid = wigner.wigner_from_density(np.outer(state, state.conj()))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of :func:`main`
    rather than at import, and reused by later calls in the process."""
    parser = argparse.ArgumentParser(prog="cvpost", description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the emulator RNG seed")
    parser.add_argument("--dim", type=int, default=None, help="override the Fock truncation")
    parser.add_argument("--threads", type=int, default=1, help="accepted; sweeps run serially")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario from a JSON config")
    run_p.add_argument("config", help="path to the config file")
    sub.add_parser("selfcheck", help="run the fast invariant suite")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:  # --dim and --seed take the bounds of the config key they override
        for flag, val, (_, kind, bounds) in (("--dim", args.dim, _KEYS["two-photon"]["dim"]),
                                             ("--seed", args.seed, _KEYS["emulate"]["rng_seed"]),
                                             ("--threads", args.threads, (1, int, "[1, inf)"))):
            if val is not None:
                _value(flag, val, kind, bounds)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_selfcheck(args)


if __name__ == "__main__":
    raise SystemExit(main())
