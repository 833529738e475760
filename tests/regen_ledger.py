"""Rewrite tests/ledger.json, the recorded outputs of a fixed list of CLI runs,
and report what moved since the ledger was last written.

Run from the repository root:

    PYTHONPATH=src python tests/regen_ledger.py

Each config of :data:`CONFIGS` runs through ``cli.main`` in process.  The
ledger stores, as ``float.hex``, every ``results`` scalar, every
``curve.csv`` cell, the cells of ``wigner.csv`` on every 12th row and column,
and the first and last rows of ``samples.csv``; a note of ``results`` is kept
as its text.  From ``selfcheck`` it stores each check's PASS or FAIL and
name, not the printed digits, which are rounding-level.  The report starts
with the machine it ran on (platform, Python, numpy and the BLAS numpy was
built with), prints every value that moved with its old value, its new
value and its relative change, and names the configs whose values all
stayed bit-identical.  ``tests/test_ledger.py`` holds a fresh run to the ledger
within tolerances, since the bits depend on the BLAS kernels of the machine.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from cvpost import cli

LEDGER = Path(__file__).with_name("ledger.json")

_EXPORT = {"points": 241, "extent": 6.0}

#: name -> config: the four mode defaults, the configs CI re-runs from their
#: result.json (x0 to tp80), and single-photon exports at dims 40 and 80
#: (tp80 is the two-photon dim-80 export).
CONFIGS = {
    "single-photon": {"mode": "single-photon"},
    "two-photon": {"mode": "two-photon"},
    "coherent": {"mode": "coherent"},
    "emulate": {"mode": "emulate"},
    "x0": {"mode": "sweep", "axis": "x0_wig", "start": 0.01, "stop": 0.05, "count": 1,
           "base": {"mode": "single-photon", "dim": 40}},
    "ps": {"mode": "sweep", "axis": "success_prob", "start": 0.02, "stop": 0.08, "count": 4,
           "base": {"mode": "two-photon", "dim": 40}},
    "em": {"mode": "emulate", "n_samples": 400000, "x0_snl": 0.1, "dump_samples_csv": True},
    "gp": {"mode": "sweep", "axis": "gamma_plus", "start": -1.0, "stop": 1.0, "count": 5,
           "base": {"mode": "coherent"}},
    "eps": {"mode": "sweep", "axis": "success_prob", "start": 0.004, "stop": 0.006, "count": 2,
            "base": {"mode": "emulate", "n_samples": 4000000}},
    "tp80": {"mode": "two-photon", "dim": 80, "wigner_export": _EXPORT},
    "sp40": {"mode": "single-photon", "dim": 40, "wigner_export": _EXPORT},
    "sp80": {"mode": "single-photon", "dim": 80, "wigner_export": _EXPORT},
}

#: Every WIGNER_STRIDE-th row and column of an export is recorded.
WIGNER_STRIDE = 12


def _flatten(obj, prefix, out):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{prefix}.{key}", out)
    elif isinstance(obj, list):
        for k, val in enumerate(obj):
            _flatten(val, f"{prefix}[{k}]", out)
    else:  # a note is kept as its text
        out[prefix] = obj if obj is None or isinstance(obj, str) else float(obj).hex()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_config(config, out_dir: Path) -> dict:
    """The recorded values of one run: key -> float.hex, None for a null
    result, or the text of a note."""
    path = out_dir / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out", str(out_dir), "run", str(path)])
    if code != 0:
        raise RuntimeError(f"cvpost run {config} exited {code}")
    values = {}
    _flatten(json.loads((out_dir / "result.json").read_text())["results"], "results", values)
    if (out_dir / "curve.csv").exists():
        header, *rows = _read_csv(out_dir / "curve.csv")
        for k, row in enumerate(rows):
            values.update({f"curve[{k}].{col}": float(cell).hex() for col, cell in zip(header, row)})
    if (out_dir / "wigner.csv").exists():
        _, *rows = _read_csv(out_dir / "wigner.csv")
        for i in range(0, len(rows), WIGNER_STRIDE):
            for j in range(0, len(rows), WIGNER_STRIDE):
                values[f"wigner[{i},{j}]"] = float(rows[i][j + 1]).hex()
    if (out_dir / "samples.csv").exists():
        header, first, *_, last = _read_csv(out_dir / "samples.csv")
        for which, row in (("first", first), ("last", last)):
            values.update({f"samples.{which}.{col}": float(cell).hex() for col, cell in zip(header, row)})
    return values


def selfcheck_outcomes() -> list:
    """[PASS or FAIL, check name] for each line of ``cvpost selfcheck``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["selfcheck"])
    return [line.split(":", 1)[0].split(" ", 1) for line in out.getvalue().splitlines()]


def collect() -> dict:
    """A fresh ledger of every config."""
    values = {}
    with tempfile.TemporaryDirectory(prefix="ledger-") as tmp:
        for name in CONFIGS:
            out_dir = Path(tmp) / name
            out_dir.mkdir()
            values[name] = run_config(CONFIGS[name], out_dir)
    return {"configs": CONFIGS, "values": values, "selfcheck": selfcheck_outcomes()}


def number(recorded):
    """The float a recorded value holds, or None for a null result or a note."""
    try:
        return float.fromhex(recorded)
    except (TypeError, ValueError):
        return None


def report(old: dict, new: dict) -> list:
    """Lines naming every moved value, and the configs that stayed bit-identical."""
    lines, same = [], []
    for name, values in new["values"].items():
        before = old["values"].get(name, {})
        if set(before) != set(values):
            lines.append(f"{name}: recorded keys changed: added {sorted(set(values) - set(before))}, "
                         f"removed {sorted(set(before) - set(values))}")
        moved = [key for key in values if key in before and before[key] != values[key]]
        kept = sum(key in before for key in values) - len(moved)
        if not moved and set(before) == set(values):
            same.append(f"{name} ({len(values)})")
            continue
        head = len(lines)
        largest = {"relative": 0.0, "Wigner absolute": 0.0}
        for key in moved:
            a, b = number(before[key]), number(values[key])
            if a is None or b is None:
                lines.append(f"  {key}: {before[key]!r} -> {values[key]!r}")
                continue
            rel = abs(b - a) / abs(a) if a else float("inf")
            lines.append(f"  {key}: {a!r} -> {b!r} (relative {rel:.2e}, absolute {abs(b - a):.2e})")
            kind = "Wigner absolute" if key.startswith("wigner") else "relative"
            largest[kind] = max(largest[kind], abs(b - a) if key.startswith("wigner") else rel)
        lines.insert(head, f"{name}: {len(moved)} of {kept + len(moved)} values moved, {kept} bit-identical; "
                           + ", ".join(f"largest {kind} change {val:.2e}" for kind, val in largest.items()))
    if old["selfcheck"] != new["selfcheck"]:
        lines.append(f"selfcheck: {old['selfcheck']} -> {new['selfcheck']}")
    else:
        same.append("selfcheck outcomes")
    lines.append("bit-identical: " + (", ".join(same) if same else "none"))
    return lines


def machine() -> str:
    """The platform, Python, numpy and BLAS of this run; the ledger's bits depend on them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: {platform.platform()}, Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}")


def main() -> int:
    print(machine())
    new = collect()
    if LEDGER.exists():
        print("\n".join(report(json.loads(LEDGER.read_text()), new)))
    LEDGER.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
