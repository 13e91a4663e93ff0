"""The benchmark's own tests: every workload end to end at a tiny size, and its gate.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.pin_threads()
run.import_templink()

from tracer import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import Checks, WORKLOADS  # noqa: E402

# The package re-exports a function named ``kneading``, so take the modules from sys.modules.
census, crossing, kneading = (sys.modules[f"templink.{m}"] for m in ("census", "crossing", "kneading"))

SPEC = run.load_spec()
SEED = 3


def _expected(name: str) -> dict:
    return json.loads((run.BENCH / "expected.json").read_text())["tiny"][name]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_end_to_end_tiny(name, trace):
    result, lines = run.measure(name, SEED, 0, trace, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("failed_frac 0 " in line for line in lines)


def test_traced_range_reports_fanout():
    result, _ = run.measure("extremal-range", SEED, 0, True, size="tiny")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fanout.busy_s"] > 0 and 0 < metrics["fanout.efficiency"] <= 1
    assert metrics["census.verify_pairs.pairs"] == metrics["linking.q_form.calls"] > 0


def test_worst_pair_with_crossing_number_off_by_two_is_counted():
    # lk = -cr/2 + Q/delta, so a crossing number off by 2 moves lk by 1.
    wl = WORKLOADS["extremal-range"]
    summary = wl.op(wl.inputs("tiny", SEED))
    first, *rest = summary.triples
    bad = dataclasses.replace(first, worst=first.worst - 1)
    corrupted = dataclasses.replace(summary, triples=(bad, *rest))
    assert wl.check(summary, _expected("extremal-range"), SEED).failed == 0
    assert wl.check(corrupted, _expected("extremal-range"), SEED).failed >= 2


def test_dropped_cutless_word_is_counted():
    wl = WORKLOADS["census-crosscheck"]
    rows, candidates = wl.op(wl.inputs("tiny", SEED))
    t, family, independent = next(row for row in rows if row[2])
    corrupted = [(t, family, independent[1:]) if row[0] == t else row for row in rows]
    assert wl.check((corrupted, candidates), _expected("census-crosscheck"), SEED).failed == 1


def test_raising_check_counts_as_failed():
    checks = Checks()
    checks.check("ok", lambda: True)
    checks.check("boom", lambda: 1 / 0)
    assert (checks.attempted, checks.failed) == (2, 1)


def test_jobs_never_exceed_processors(monkeypatch):
    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(SystemExit, match="needs 2 processors"):
        run.measure("extremal-range", SEED, 0, True, size="tiny")


def test_tracer_patches_every_caller_name_and_accounts_self_time():
    wl = WORKLOADS["census-crosscheck"]
    inputs = wl.inputs("tiny", SEED)
    original = kneading.is_admissible
    with Tracer("test") as tracer:
        assert census.is_admissible is crossing.is_admissible is kneading.is_admissible
        assert kneading.is_admissible is not original
        tracer.root(wl.op, inputs)
    assert census.is_admissible is crossing.is_admissible is kneading.is_admissible is original
    calls, self_s = tracer.calls(), tracer.self_times()
    assert calls["kneading.is_admissible"] > 0 and calls["words.compare"] > 0
    root = tracer.name.index(tracer.names.index(ROOT_SPAN))
    root_s = (tracer.end[root] - tracer.start[root]) / 1e9
    assert sum(self_s.values()) == pytest.approx(root_s, rel=1e-9)


def test_describe_reports_tail_only_with_ten_samples_beyond():
    assert run.describe([1.0, 2.0, 3.0])[1:] == ("-", 3)
    assert run.describe([float(i) for i in range(20)])[1] == "p50=9"
    assert run.describe([float(i) for i in range(100)])[1] == "p90=89"


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "census-crosscheck", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
