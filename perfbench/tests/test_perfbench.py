"""Tests of the benchmark's own arithmetic, generator and checks.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json

import pytest

import checks
import workloads
from tracing import Span, self_times


def test_self_times_subtract_the_union_of_children():
    spans = [
        Span(1, "cli.main", 0.0, 10.0, None, "op", 1),
        Span(2, "conditioner.run_window", 1.0, 4.0, 1, "op", 1),
        Span(3, "fock.beam_splitter_pure", 2.0, 3.0, 2, "op", 1),
        # Overlaps span 2, as a second sweep thread would.
        Span(4, "conditioner.run_window", 3.0, 6.0, 1, "op", 2),
        # Runs past its parent's end; only the part inside counts.
        Span(5, "conditioner.postselect_map", 5.0, 12.0, 1, "op", 2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 1.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 7.0})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_byte_identical_configs(tmp_path, workload):
    def written(seed, name):
        ops = workloads.generate(workload, seed, cycles=2)
        workloads.write_configs(ops, tmp_path / name)
        return {op["id"]: op["path"].read_bytes() for op in ops}

    first, again, other = written(5, "a"), written(5, "b"), written(6, "c")
    assert first == again
    assert first != other


def _two_photon_op(tmp_path, **results):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    good = {"f_ave": 0.97, "p_s": 0.05, "fidelity_at_zero": 0.98, "purity_avg_state": 0.99}
    good.update(results)
    payload = {"config": {"mode": "two-photon"}, "results": good}
    (out_dir / "result.json").write_text(json.dumps(payload))
    op = {"id": "c000-00", "config": {"mode": "two-photon", "dim": 40}, "flags": []}
    return op, out_dir


def test_a_valid_result_passes(tmp_path):
    op, out_dir = _two_photon_op(tmp_path)
    assert checks.check_op(op, out_dir, 0) == []


@pytest.mark.parametrize("corruption", [{"f_ave": 1.5}, {"p_s": 0.0}, {"purity_avg_state": None}])
def test_a_corrupted_result_fails(tmp_path, corruption):
    op, out_dir = _two_photon_op(tmp_path, **corruption)
    assert checks.check_op(op, out_dir, 0)


def test_a_result_off_the_reference_fails(tmp_path):
    op, out_dir = _two_photon_op(tmp_path)
    reference = {"c000-00": {"f_ave": 0.97 * (1 + 1e-8), "p_s": 0.05, "fidelity_at_zero": 0.98,
                             "purity_avg_state": 0.99}}
    assert checks.check_op(op, out_dir, 0, reference)
