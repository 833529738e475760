"""Record the photon results of the default seed into ``reference.json``.

Run from the repository root, at the commit whose numbers later commits
must reproduce::

    python3 perfbench/record_reference.py

It runs the first schedule cycle of each photon workload, checks every op
and stores each op's ``results`` block under its id.
"""

from __future__ import annotations

import json
import shutil

import checks
import run
import workloads


def main() -> int:
    modules = run._import_cvpost()
    work = run.WORK / "record-reference"
    reference = {}
    try:
        for workload in ("photon-scan", "photon-sweep"):
            ops = workloads.generate(workload, workloads.DEFAULT_SEED, cycles=1)
            workloads.write_configs(ops, work / workload)
            reference[workload] = {}
            for op in ops:
                out_dir = work / "out" / workload / op["id"]
                _, rc = run.run_op(modules["cli"], op, out_dir)
                problems = checks.check_op(op, out_dir, rc)
                if problems:
                    raise SystemExit(f"{workload} {op['id']}: {'; '.join(problems)}")
                reference[workload][op["id"]] = json.loads((out_dir / "result.json").read_text())["results"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
