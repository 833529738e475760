"""Per-layer tracing from outside the package.

:class:`Tracer` replaces every public function of the given cvpost modules
with a wrapper that records a span (name, start, end, parent span, op id,
thread) and the counts below.  Call sites inside the package look these
functions up through module globals or module attributes, so they reach the
wrappers; ``fock.beam_splitter_unitary`` keeps its ``lru_cache`` underneath
the wrapper.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import collections
import inspect
import itertools
import json
import threading
import time
from pathlib import Path

Span = collections.namedtuple("Span", "id name start end parent op thread")

# Per-layer self-time metrics and the spans each one sums.
SELF_TIME = {
    "fock.beam_splitter_pure.self_s": ("fock.beam_splitter_pure",),
    "fock.beam_splitter_unitary.self_s": ("fock.beam_splitter_unitary",),
    "fock.prepare.self_s": (
        "fock.fock_state", "fock.coherent_state", "fock.squeezed_vacuum", "fock.scs_state",
        "fock.apply_squeeze", "fock.apply_displace",
    ),
    "fock.quadrature_wavefunctions.self_s": ("fock.quadrature_wavefunctions",),
    "conditioner.run_window.self_s": ("conditioner.run_window",),
    "conditioner.postselect_map.self_s": ("conditioner.postselect_map",),
    "conditioner.gate_density.self_s": ("conditioner.gate_density", "conditioner.density_norm"),
    "wigner.wigner_from_density.self_s": ("wigner.wigner_from_density",),
    "emulator.run_experiment.self_s": ("emulator.run_experiment",),
    "emulator.estimate.self_s": ("emulator.estimate",),
    "emulator.predict_stats.self_s": ("emulator.predict_stats",),
    "cli.main.self_s": ("cli.main",),
}
CALLS = {
    "fock.beam_splitter_pure.calls": "fock.beam_splitter_pure",
    "fock.beam_splitter_unitary.calls": "fock.beam_splitter_unitary",
    "conditioner.build_joint.calls": "conditioner.build_joint",
}


def _joint_bytes(tracer, args, result):
    tracer.add("fock.joint_bytes", 16 * result.dim**4)


def _wigner_points(tracer, args, result):
    tracer.add("wigner.points", result.values.size)


def _emulated(tracer, args, result):
    tracer.add("emulator.samples_drawn", args[0].n_samples)
    tracer.add("emulator.rows_kept", result.n_selected)


def _bytes_written(tracer, args, result):
    argv = args[0]
    out_dir = Path(argv[argv.index("--out") + 1])
    tracer.add("cli.bytes_written", sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()))


# Counts taken from a wrapped call's arguments and result.
COUNT_HOOKS = {
    "fock.beam_splitter_pure": _joint_bytes,
    "fock.beam_splitter": _joint_bytes,
    "wigner.wigner_from_density": _wigner_points,
    "emulator.run_experiment": _emulated,
    "cli.main": _bytes_written,
}


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        target = inspect.unwrap(obj) if callable(obj) else obj
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            yield name, obj


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans.

    Children may overlap (they can run on other threads); the covered part
    is the union of their intervals, clipped to the parent's.
    """
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.id, ())):
            lo, hi = max(start, reach), min(end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans = []
        self.counts = collections.Counter()
        self.op = None
        self._root = None
        self._names = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._saved = []

    def begin_op(self, op_id) -> None:
        self.op, self._root = op_id, None

    def add(self, counter: str, amount) -> None:
        with self._lock:
            self.counts[counter] += amount

    def install(self) -> None:
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in list(public_functions(module)):
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            # A span opened on a sweep worker thread hangs off the op's root.
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if parent is None:
                self._root = sid
            self._names[sid] = name
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent is None or not self._names[parent].startswith(layer + "."):
                    self.add(f"{layer}.errors", 1)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.op, threading.get_ident()))
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, n_ops: int, unitary_misses: int) -> dict:
        """Per-layer totals over the traced ops (see BENCHMARK.json)."""
        own = self_times(self.spans)
        self_by_name = collections.defaultdict(float)
        calls = collections.Counter()
        for span in self.spans:
            self_by_name[span.name] += own[span.id]
            calls[span.name] += 1
        metrics = {key: sum(self_by_name[n] for n in names) for key, names in SELF_TIME.items()}
        metrics.update({key: calls[name] for key, name in CALLS.items()})
        metrics["gaussian.self_s"] = sum((v for n, v in self_by_name.items() if n.startswith("gaussian.")), 0.0)
        metrics["gaussian.calls"] = sum(v for n, v in calls.items() if n.startswith("gaussian."))
        metrics["fock.beam_splitter_unitary.misses"] = unitary_misses
        metrics["conditioner.build_joint.per_op"] = calls["conditioner.build_joint"] / n_ops
        for counter in ("fock.joint_bytes", "wigner.points", "emulator.samples_drawn",
                        "emulator.rows_kept", "cli.bytes_written", "conditioner.errors"):
            metrics[counter] = self.counts[counter]
        drawn = self.counts["emulator.samples_drawn"]
        metrics["emulator.kept_frac"] = self.counts["emulator.rows_kept"] / drawn if drawn else 0.0
        metrics["trace.ops"] = n_ops
        return metrics

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span, every count and ``extra`` as one JSON file."""
        own = self_times(self.spans)
        payload = dict(extra)
        payload["counts"] = dict(self.counts)
        payload["spans"] = [dict(s._asdict(), self_s=own[s.id]) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
