"""The benchmark's correctness gate and the contracts its tracer reads, run in the unit suite.

A change that makes ``bench/run.py`` report wrong outputs, or that stops a
traced layer from being seen, fails here before the benchmark is run.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_full_size_operation_passes_the_gate(name):
    wl = WORKLOADS[name]
    checks = wl.check(wl.op(wl.inputs("full", SEED)), EXPECTED["full"][name], SEED)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages[:5]


def _traced(name: str) -> dict:
    wl = WORKLOADS[name]
    inputs = wl.inputs("tiny", SEED)
    with Tracer("gate") as tracer:
        tracer.root(wl.op, inputs)
    return tracer.layer_metrics()


def test_traced_range_sees_one_q_form_call_per_pair():
    metrics = _traced("extremal-range")
    assert metrics["census.verify_pairs.pairs"] == metrics["linking.q_form.calls"] > 0


def test_traced_crosscheck_counts_sequence_comparisons():
    assert _traced("census-crosscheck")["words.compare.calls"] > 0


def test_traced_crosscheck_sees_every_census_layer():
    metrics = _traced("census-crosscheck")
    triples = WORKLOADS["census-crosscheck"].inputs("tiny", SEED)[0]
    assert metrics["census.lyndon_words.calls"] == len(triples)
    for name in (
        "census.enumerate_admissible",
        "kneading.satisfies_block_constraints",
        "kneading.is_admissible",
    ):
        assert metrics[f"{name}.calls"] > 0, name
