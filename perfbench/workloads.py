"""Seeded op generators for the benchmark workloads.

An op is one ``cvpost run`` invocation: a JSON config plus the global CLI
flags placed before ``run``.  Each workload repeats a fixed schedule of op
classes (mode, dim, window class, Wigner export); the seed draws every
continuous input of every op (R, s, x0, emulator ``rng_seed``, sweep
ranges).  Keeping the class order fixed gives every seed the same mix in
the same order, so a run of whole cycles covers the same kind of work
whatever the seed, and the run-to-run spread stays small.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 1

#: Schedule repeats written before the clock starts.  A run that outlasts
#: them wraps around to the first op.
CYCLES = 50

WORKLOADS = ("photon-scan", "photon-sweep", "emulate")

# Input ranges on which every op converges and passes its checks at the
# smallest dim used (40): above s ~ 0.7 the squeezed target S(s')|1> loses
# more than the tail tolerance at dim 40.
SINGLE_PHOTON = {"reflectivity": (0.9, 0.99), "squeezing": (0.4, 0.7), "x0_wig": (0.01, 0.06)}
TWO_PHOTON = {"reflectivity": (0.35, 0.65), "squeezing": (-0.6, -0.2), "x0_wig": (0.03, 0.15)}
WIGNER_EXPORT = {"points": 241, "extent": 6.0}

# photon-scan: (mode, dim, wigner export).  dim 40:60:80 = 9:2:1 and a
# third of the ops export a Wigner grid.  Single-photon dim-40 ops are half
# of the schedule, so the median op sits inside that class; the dim-80 op
# reaches the 2 GB peak in every cycle.
SCAN_SCHEDULE = (
    ("two-photon", 40, True),
    ("single-photon", 40, False),
    ("two-photon", 80, True),
    ("single-photon", 40, False),
    ("two-photon", 40, False),
    ("single-photon", 60, True),
    ("single-photon", 40, False),
    ("two-photon", 60, True),
    ("single-photon", 40, False),
    ("two-photon", 40, False),
    ("single-photon", 40, False),
    ("single-photon", 40, False),
)

# photon-sweep bases: the CLI's reference R and s for each mode, so every
# sweep over a base reuses one beam-splitter unitary.
SWEEP_BASES = {
    "sp40": {"mode": "single-photon", "dim": 40, "reflectivity": 0.98, "squeezing": 0.7},
    "tp40": {"mode": "two-photon", "dim": 40, "reflectivity": 0.5, "squeezing": -0.37},
}
# (start range, stop range) per (mode, axis).
SWEEP_RANGES = {
    ("single-photon", "x0_wig"): ((0.01, 0.02), (0.04, 0.06)),
    ("two-photon", "x0_wig"): ((0.03, 0.05), (0.10, 0.15)),
    ("two-photon", "success_prob"): ((0.02, 0.03), (0.05, 0.08)),
}
# With --threads 2 the peak RSS of a run depends on how the two workers'
# joint builds overlap.  Points of an x0_wig sweep cost the same and run in
# step, so the peak repeats; single-photon success_prob points do not (each
# root-find takes its own number of steps) and moved the peak by up to 20%
# between runs, so the success_prob axis runs on the two-photon base only,
# and dim stays at 40.  Op times: two-photon x0_wig ~0.6 s, two-photon
# success_prob ~1.0 s, single-photon x0_wig ~1.1 s; five single-photon
# sweeps in eight put the median and the 90th percentile in that class.
SWEEP_SCHEDULE = (
    ("tp40", "x0_wig"),
    ("sp40", "x0_wig"),
    ("sp40", "x0_wig"),
    ("tp40", "success_prob"),
    ("sp40", "x0_wig"),
    ("tp40", "x0_wig"),
    ("sp40", "x0_wig"),
    ("sp40", "x0_wig"),
)
SWEEP_POINTS = 4
SWEEP_FLAGS = ("--threads", "2")

# emulate: narrow windows are bound by synthesis, wide ones by the
# bootstrap; 6 narrow to 2 wide puts the median in the narrow class and the
# tail in the wide class.
EMULATE_WINDOWS = {"narrow": (0.01, 4_000_000), "wide": (0.3, 1_000_000)}
EMULATE_SCHEDULE = (
    "narrow", "narrow", "wide", "narrow", "coherent-sweep",
    "narrow", "wide", "narrow", "emulate-sweep", "narrow",
)
COHERENT_SWEEP_POINTS = 8
EMULATE_SWEEP = {"n_samples": 4_000_000, "start": (0.004, 0.0045), "stop": (0.0055, 0.006), "count": 2}


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _photon_op(rng, mode, dim, wigner):
    ranges = SINGLE_PHOTON if mode == "single-photon" else TWO_PHOTON
    config = {"mode": mode, "dim": dim}
    config.update({key: _draw(rng, *bounds) for key, bounds in ranges.items()})
    if wigner:
        config["wigner_export"] = dict(WIGNER_EXPORT)
    return config, ()


def _sweep_op(rng, base_name, axis):
    base = SWEEP_BASES[base_name]
    start, stop = SWEEP_RANGES[(base["mode"], axis)]
    config = {
        "mode": "sweep", "base": dict(base), "axis": axis,
        "start": _draw(rng, *start), "stop": _draw(rng, *stop), "count": SWEEP_POINTS,
    }
    return config, SWEEP_FLAGS


def _emulate_op(rng, kind):
    if kind == "coherent-sweep":
        base = {"mode": "coherent", "reflectivity": _draw(rng, 0.6, 0.9), "squeezing": _draw(rng, 0.3, 0.7)}
        config = {
            "mode": "sweep", "base": base, "axis": "gamma_plus",
            "start": _draw(rng, 0.0, 0.2), "stop": _draw(rng, 0.8, 1.2), "count": COHERENT_SWEEP_POINTS,
        }
    elif kind == "emulate-sweep":
        base = {"mode": "emulate", "n_samples": EMULATE_SWEEP["n_samples"], "rng_seed": rng.randrange(2**31)}
        config = {
            "mode": "sweep", "base": base, "axis": "success_prob",
            "start": _draw(rng, *EMULATE_SWEEP["start"]), "stop": _draw(rng, *EMULATE_SWEEP["stop"]),
            "count": EMULATE_SWEEP["count"],
        }
    else:
        x0, n_samples = EMULATE_WINDOWS[kind]
        config = {"mode": "emulate", "x0_snl": x0, "n_samples": n_samples, "rng_seed": rng.randrange(2**31)}
    return config, ()


def _schedule(workload):
    if workload == "photon-scan":
        return [(_photon_op, cls) for cls in SCAN_SCHEDULE]
    if workload == "photon-sweep":
        return [(_sweep_op, cls) for cls in SWEEP_SCHEDULE]
    if workload == "emulate":
        return [(_emulate_op, (kind,)) for kind in EMULATE_SCHEDULE]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def cycle_length(workload: str) -> int:
    return len(_schedule(workload))


def generate(workload: str, seed: int, cycles: int = CYCLES) -> list:
    """The op stream of a run: ``cycles`` repeats of the schedule."""
    rng = random.Random(f"{workload}/{seed}")
    schedule = _schedule(workload)
    ops = []
    for c in range(cycles):
        for k, (make, cls) in enumerate(schedule):
            config, flags = make(rng, *cls)
            ops.append({"id": f"c{c:03d}-{k:02d}", "config": config, "flags": list(flags)})
    return ops


def warmup(workload: str) -> list:
    """Untimed ops that load lazy imports and size the allocator first."""
    if workload == "emulate":
        configs = [{"mode": "emulate", "x0_snl": x0, "n_samples": n, "rng_seed": 7}
                   for x0, n in EMULATE_WINDOWS.values()]
    else:
        configs = [{"mode": "single-photon", "dim": 40},
                   {"mode": "two-photon", "dim": 40, "wigner_export": dict(WIGNER_EXPORT)}]
    return [{"id": f"warmup-{k}", "config": cfg, "flags": []} for k, cfg in enumerate(configs)]


def write_configs(ops: list, directory: Path) -> None:
    """Write each op's config to ``<directory>/<id>.json`` and record the path."""
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        path = directory / f"{op['id']}.json"
        path.write_text(json.dumps(op["config"], indent=1, sort_keys=True) + "\n")
        op["path"] = path
