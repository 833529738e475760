"""cvpost benchmark: one command, closed-loop workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload photon-scan --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for the op schedules and input ranges):

* ``photon-scan``   independent single-photon and two-photon runs, a fresh
  (dim, R) per op, a third with a 241x241 Wigner export: the cold Fock path.
* ``photon-sweep``  4-point ``x0_wig`` and ``success_prob`` sweeps over two
  fixed dim-40 bases with ``--threads 2``: joint rebuilds and cache hits.
* ``emulate``       bench emulation, narrow and wide windows, plus coherent
  and emulate sweeps: no Fock work at all.

One process serves one run.  It writes every op's config before the clock
starts, runs a few untimed warm-up ops, then drives ``cvpost.cli.main`` in
process, one op at a time (one closed-loop client), and checks every op's
outputs with the clock stopped.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``      median over 3 fresh interpreters of the time until
  ``import cvpost.cli`` returns.
* ``ops_per_s``    checked ops per second of op time.  The loop runs whole
  schedule cycles until at least ``--seconds`` of op time have passed, so
  every run holds the same mix of op classes.
* ``op_s_p50``     median wall time of a checked op.
* ``op_s_tail``    90th percentile of the same.  A run holds 20 to 24 ops,
  so about 2 lie beyond it, not the 10 a tail estimate wants.
* ``peak_rss_mb``  ``ru_maxrss`` of this process at the end of the run.
* ``pass_frac``    ops that passed their checks over ops attempted, that is
  1 - fail_frac.

``--trace 1`` runs the first cycle of the schedule twice, untraced and then
traced (see ``tracing.py``), each from an empty beam-splitter cache.  It
prints the per-layer totals of the traced pass, fails any op whose traced
outputs differ from its untraced ones by a single byte, and writes every
span to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Ops on the default seed are also
compared with ``reference.json``, recorded at the seed commit by
``record_reference.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

SETUP_LAUNCHES = 3
TAIL_QUANTILE = 0.9
LAYERS = ("cli", "conditioner", "fock", "wigner", "gaussian", "emulator")


def _import_cvpost():
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"cvpost.{name}") for name in LAYERS}


def measure_setup(launches: int = SETUP_LAUNCHES) -> float:
    """Median time from spawning a fresh interpreter until ``import cvpost.cli`` returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import cvpost.cli; print('ready', flush=True)"
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              cwd=ROOT, env=env, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"fresh interpreter could not import cvpost.cli (exit {rc})")
        samples.append(elapsed)
    return statistics.median(samples)


def run_op(cli, op: dict, out_dir: Path):
    """Run one op in process; returns (wall seconds, exit code or error text)."""
    argv = ["--out", str(out_dir), *op["flags"], "run", str(op["path"])]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception as exc:  # a crashed op is a failed op; the loop goes on
        rc = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if rc != 0 and sink.getvalue():
        rc = f"{rc}: {sink.getvalue().strip()[-300:]}"
    return elapsed, rc


def _fingerprint(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Runs ops, checks them and keeps the tally."""

    def __init__(self, modules, work: Path, reference: dict):
        self.modules = modules
        self.out_root = work / "out"
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def execute(self, op: dict, tracer: Tracer | None = None):
        """Run and check one op; returns (wall seconds, passed, output fingerprint)."""
        out_dir = self.out_root / op["id"]
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.begin_op(op["id"])
            tracer.install()
        try:
            elapsed, rc = run_op(self.modules["cli"], op, out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = checks.check_op(op, out_dir, rc, self.reference)
        fingerprint = _fingerprint(out_dir) if not problems else None
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {op['id']}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed, not problems, fingerprint

    def clear_cache(self) -> int:
        """Empty the beam-splitter cache; returns the misses it had counted."""
        unitary = self.modules["fock"].beam_splitter_unitary
        misses = unitary.cache_info().misses
        unitary.cache_clear()
        return misses


def _tail(times):
    if len(times) < 2:
        return times[0] if times else 0.0
    return statistics.quantiles(times, n=100, method="inclusive")[round(TAIL_QUANTILE * 100) - 1]


def timed_run(runner: Runner, ops: list, cycle: int, seconds: float, setup_s: float) -> dict:
    """Closed loop over whole schedule cycles until ``seconds`` of op time have passed."""
    runner.clear_cache()
    times, clock, k = [], 0.0, 0
    while clock < seconds or k % cycle:
        elapsed, passed, _ = runner.execute(ops[k % len(ops)])
        k += 1
        clock += elapsed
        if passed:
            times.append(elapsed)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / clock, "op/s"),
        "op_s_p50": (statistics.median(times) if times else 0.0, "s"),
        "op_s_tail": (_tail(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": ((runner.attempted - runner.failed) / runner.attempted, "1"),
    }


LAYER_UNITS = (
    ("fock.beam_splitter_pure.self_s", "s"),
    ("fock.beam_splitter_pure.calls", "count"),
    ("fock.joint_bytes", "B"),
    ("fock.beam_splitter_unitary.self_s", "s"),
    ("fock.beam_splitter_unitary.calls", "count"),
    ("fock.beam_splitter_unitary.misses", "count"),
    ("fock.prepare.self_s", "s"),
    ("fock.quadrature_wavefunctions.self_s", "s"),
    ("conditioner.build_joint.calls", "count"),
    ("conditioner.build_joint.per_op", "calls/op"),
    ("conditioner.run_window.self_s", "s"),
    ("conditioner.postselect_map.self_s", "s"),
    ("conditioner.gate_density.self_s", "s"),
    ("conditioner.errors", "count"),
    ("wigner.wigner_from_density.self_s", "s"),
    ("wigner.points", "count"),
    ("emulator.run_experiment.self_s", "s"),
    ("emulator.samples_drawn", "count"),
    ("emulator.rows_kept", "count"),
    ("emulator.kept_frac", "1"),
    ("emulator.estimate.self_s", "s"),
    ("emulator.predict_stats.self_s", "s"),
    ("gaussian.self_s", "s"),
    ("gaussian.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_frac", "1"),
    ("trace.ops", "count"),
)


def traced_run(runner: Runner, ops: list, trace_path: Path, extra: dict) -> dict:
    """One cycle untraced, then the same cycle traced; per-layer totals."""
    plain_times, prints = [], {}
    runner.clear_cache()
    for op in ops:
        elapsed, _, prints[op["id"]] = runner.execute(op)
        plain_times.append(elapsed)
    runner.clear_cache()
    tracer = Tracer(runner.modules[name] for name in LAYERS)
    traced_times = []
    for op in ops:
        elapsed, passed, fingerprint = runner.execute(op, tracer)
        traced_times.append(elapsed)
        if passed and fingerprint != prints[op["id"]]:
            runner.failed += 1
            print(f"FAIL {op['id']}: traced outputs differ from untraced ones", file=sys.stderr)
    misses = runner.clear_cache()
    metrics = tracer.layer_metrics(len(ops), misses)
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    tracer.dump(trace_path, dict(extra, metrics=metrics))
    return {name: (metrics[name], unit) for name, unit in LAYER_UNITS}


def environment() -> dict:
    """Machine and library facts recorded next to every trace."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meminfo = Path("/proc/meminfo")
    mem_kb = next((int(line.split()[1]) for line in meminfo.read_text().splitlines()
                   if line.startswith("MemTotal:")), None) if meminfo.exists() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    maps = Path("/proc/self/maps")
    libs = {line.split()[-1] for line in maps.read_text().splitlines()
            if "openblas" in line.lower() and ".so" in line} if maps.exists() else set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvpost" / "cli.py").is_file():
        print(f"no cvpost sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    modules = _import_cvpost()

    reference = {}
    if args.seed == workloads.DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        ops = workloads.generate(args.workload, args.seed)
        warm = workloads.warmup(args.workload)
        cycle = workloads.cycle_length(args.workload)
        workloads.write_configs(warm + ops, work / "configs")
        setup_s = None if args.trace else measure_setup()
        runner = Runner(modules, work, reference)
        for op in warm:
            runner.execute(op)
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            extra = {"workload": args.workload, "seed": args.seed, "environment": environment()}
            metrics = traced_run(runner, ops[:cycle], trace_path, extra)
        else:
            metrics = timed_run(runner, ops, cycle, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
