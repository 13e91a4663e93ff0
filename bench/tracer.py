"""Span tracer installed around templink's public functions from outside the package.

Each traced function is replaced by a wrapper under every module attribute
that holds it, so calls are caught under the name the caller actually looks
up (``is_admissible`` is imported into ``census`` and ``crossing`` as well as
defined in ``kneading``).  Spans stay in memory as columns (name, start, end,
parent span, run id) and are written out once, when the traced operation is
over.  A span's self time is its duration minus the time its child spans
cover; children never overlap because one thread makes every call.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np


# (function, counter name, counter) for every function that gets spans.  The
# counter tallies an outcome where a layer can waste work; a ``*_ratio``
# counter is reported over the number of calls.
SPANNED = (
    ("census.verify_range", None, None),
    ("census.verify_triple", None, None),
    ("census.extremal_orbits", None, None),
    ("census.verify_pairs", "pairs", len),
    ("linking.q_form", None, None),
    ("census.extremality_crosscheck", None, None),
    ("census.enumerate_admissible", None, None),
    ("census.lyndon_words", None, None),
    ("kneading.satisfies_block_constraints", "pass_ratio", bool),
    ("kneading.is_admissible", "true_ratio", bool),
    ("crossing.enumerate_cuts", "cuts_out", len),
    ("crossing.is_admissible_cut", "true_ratio", bool),
)
# Called too often for a span each: only calls are counted.
COUNTED = ("words.compare",)

ROOT = "bench.op"


class Tracer:
    """Records spans for one traced operation; use as a context manager."""

    def __init__(self, run_id: str) -> None:
        self.run_ids = [run_id]
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tallies: dict[str, list[int]] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # The root span: the benchmark calls ``tracer.root(fn, *args)``.
        self.root = self._spanned(ROOT, lambda fn, *args: fn(*args), None)

    def _spanned(self, name: str, fn, counter):
        nid = len(self.names)
        self.names.append(name)
        tally = self.tallies.setdefault(name, [0])
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                tally[0] += counter(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tally = self.tallies.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = {
            name.removeprefix("templink."): mod
            for name, mod in sys.modules.items()
            if name == "templink" or name.startswith("templink.")
        }
        plan = [(qualname, counter, False) for qualname, _, counter in SPANNED]
        plan += [(qualname, None, True) for qualname in COUNTED]
        for qualname, counter, count_only in plan:
            module, attr = qualname.split(".")
            original = getattr(modules[module], attr)
            if count_only:
                wrapper = self._counted(qualname, original)
            else:
                wrapper = self._spanned(qualname, original, counter)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, summed over all spans of that name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        return {n: float(own[i]) / 1e9 for i, n in enumerate(self.names)}

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.{calls,self_s}`` plus each counter, by metric name."""
        self_s, calls = self.self_times(), self.calls()
        out: dict[str, float] = {f"{ROOT}.self_s": self_s[ROOT]}
        for qualname, counter, _ in SPANNED:
            out[f"{qualname}.calls"] = calls[qualname]
            out[f"{qualname}.self_s"] = self_s[qualname]
            if counter:
                tally = self.tallies[qualname][0]
                if counter.endswith("_ratio"):
                    tally = tally / calls[qualname] if calls[qualname] else 0.0
                out[f"{qualname}.{counter}"] = tally
        for qualname in COUNTED:
            out[f"{qualname}.calls"] = calls[qualname]
        return out

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.name, dtype=np.int32), minlength=len(self.names))
        out = {n: int(counts[i]) for i, n in enumerate(self.names)}
        out.update({n: self.tallies[n][0] for n in COUNTED})
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            run_ids=np.array(self.run_ids),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )
