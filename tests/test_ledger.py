"""A fresh run of each config of the results ledger against ``tests/ledger.json``.

``results``, ``curve.csv`` and ``samples.csv`` values must stay within 1e-12
relative and the sampled ``wigner.csv`` cells within 2e-15 absolute; a note
and each selfcheck outcome must stay as recorded.  ``tests/regen_ledger.py``
rewrites the ledger and reports every value that moved.
"""

import json
import math

import pytest

import regen_ledger

LEDGER = json.loads(regen_ledger.LEDGER.read_text())
RTOL = 1e-12
WIGNER_ATOL = 2e-15


def _close(key, old, new):
    a, b = regen_ledger.number(old), regen_ledger.number(new)
    if a is None or b is None:
        return old == new
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if key.startswith("wigner"):
        return abs(b - a) <= WIGNER_ATOL
    return a == b or abs(b - a) <= RTOL * abs(a)


def test_ledger_records_the_configs_the_script_runs():
    assert LEDGER["configs"] == regen_ledger.CONFIGS
    assert sorted(LEDGER["values"]) == sorted(regen_ledger.CONFIGS)


@pytest.mark.parametrize("name", list(regen_ledger.CONFIGS))
def test_run_matches_the_ledger(tmp_path, name):
    recorded = LEDGER["values"][name]
    fresh = regen_ledger.run_config(regen_ledger.CONFIGS[name], tmp_path)
    assert sorted(fresh) == sorted(recorded)
    moved = [f"{key}: {recorded[key]} -> {fresh[key]}" for key in recorded
             if not _close(key, recorded[key], fresh[key])]
    assert not moved, "\n".join(moved)


def test_selfcheck_outcomes_match_the_ledger():
    assert regen_ledger.selfcheck_outcomes() == LEDGER["selfcheck"]
