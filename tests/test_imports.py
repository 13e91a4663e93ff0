"""Imports: the census side of the package loads neither numpy nor a process
pool, the verifiers' clocks start after numpy is loaded, a range's pool forks
with numpy loaded, every name the benchmark looks up in the package exists,
and the package root binds its modules and re-exports nothing."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"

# Runs in a fresh interpreter, so modules loaded by the test session cannot leak in.
SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout

sys.path.insert(0, sys.argv[1])
HEAVY = ("numpy", "multiprocessing", "concurrent.futures")
loaded = {}

def stage(name):
    loaded[name] = [m for m in HEAVY if m in sys.modules]

import templink, templink.cli
stage("import")
from templink.census import extremality_crosscheck, verify_range, verify_triple
from templink.kneading import Triple
TRIPLE = ["--p", "3", "--q", "3", "--r", "4"]
COMMANDS = {
    "enumerate": ["enumerate", *TRIPLE, "--max-len", "8"],
    "cuts": ["cuts", "aabb"],
    "lk": ["lk", *TRIPLE, "ab", "aabb"],
    "cr": ["cr", "ab", "aabb"],
    "admissible": ["admissible", *TRIPLE, "ab", "aabb"],
    "table": ["table", *TRIPLE],
    "homology": ["homology", "3", "3", "4"],
    "extremal": ["extremal", *TRIPLE],
}
with redirect_stdout(io.StringIO()):
    for name, argv in COMMANDS.items():
        assert templink.cli.run(argv) == 0, name
        stage(name)
extremality_crosscheck(Triple(3, 3, 4), 8)
stage("crosscheck")
verify_triple(Triple(3, 3, 4))
stage("verify")
verify_range(3, 3, 5, jobs=1)
stage("range")
print(json.dumps(loaded))
"""
CENSUS_SIDE = "import enumerate cuts lk cr admissible table homology extremal crosscheck".split()


def test_census_side_never_loads_numpy_or_a_process_pool():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = json.loads(out)
    for name in CENSUS_SIDE:
        assert loaded[name] == [], name
    # the pair kernel does load numpy, so the check above can fail; one job starts no pool
    assert loaded["verify"] == loaded["range"] == ["numpy"]


def _bench_lookups() -> set[tuple[str, str]]:
    """(module, name) pairs the benchmark reads from templink, found by parsing its sources.

    Covers the tracer's ``SPANNED``/``COUNTED`` qualnames, ``from templink.m
    import name`` and ``census.<name>``-style attributes of templink modules.
    """
    tree = ast.parse((BENCH / "tracer.py").read_text())
    qualnames = []
    for node in tree.body:
        target = getattr(node, "targets", [None])[0]
        if getattr(target, "id", None) in ("SPANNED", "COUNTED"):
            for elt in node.value.elts:
                qualnames.append(elt.elts[0].value if isinstance(elt, ast.Tuple) else elt.value)
    found = {tuple(q.split(".")) for q in qualnames}
    modules = {path.stem for path in (SRC / "templink").glob("*.py")} - {"__init__"}
    for source in ("workloads.py", "test_bench.py", "run.py"):
        for node in ast.walk(ast.parse((BENCH / source).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("templink."):
                found |= {(node.module.removeprefix("templink."), a.name) for a in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                found.add((node.value.id, node.attr))
    return found


def test_every_name_the_benchmark_looks_up_exists():
    found = _bench_lookups()
    # the tracer's layers and the workloads' calls are both covered
    assert ("kneading", "satisfies_block_constraints") in found
    assert ("words", "compare") in found and ("census", "verify_range") in found
    missing = [
        f"{module}.{name}"
        for module, name in sorted(found)
        if not hasattr(importlib.import_module(f"templink.{module}"), name)
    ]
    assert missing == []


MODULES = ("census", "cli", "crossing", "kneading", "linking", "words")
# `import templink.m as x` reads the attribute m of the package, so a name the
# root binds can hide a module; a fresh interpreter, so no earlier import binds it.
ROOT_SCRIPT = "\n".join(
    [
        "import inspect, json, sys",
        "sys.path.insert(0, sys.argv[1])",
        "import templink",
        "root = [n for n, v in vars(templink).items() if inspect.isclass(v) or inspect.isroutine(v)]",
        *(f"import templink.{m} as {m}" for m in MODULES),
        f"kinds = {{m: type(globals()[m]).__name__ for m in {MODULES!r}}}",
        "print(json.dumps([root, kinds]))",
    ]
)


def test_package_root_binds_its_modules_and_re_exports_nothing():
    assert set(MODULES) == {path.stem for path in (SRC / "templink").glob("*.py")} - {"__init__"}
    out = subprocess.run(
        [sys.executable, "-c", ROOT_SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    root, kinds = json.loads(out)
    assert kinds == {m: "module" for m in MODULES}
    assert root == []


# Records, at each clock read, whether numpy is loaded; a fresh interpreter per
# call, so numpy starts unloaded.
CLOCK_SCRIPT = """
import io, json, sys, time
from contextlib import redirect_stdout

sys.path.insert(0, sys.argv[1])
from templink import census, cli
from templink.kneading import Triple

assert "numpy" not in sys.modules
clock, reads = time.perf_counter, []

def read():
    reads.append("numpy" in sys.modules)
    return clock()

time.perf_counter = read
with redirect_stdout(io.StringIO()):
    {call}
print(json.dumps(reads))
"""


@pytest.mark.parametrize(
    "call",
    ["census.verify_triple(Triple(3, 3, 4))", "cli.run(['verify', '--p', '3', '--q', '3', '--r', '4'])"],
    ids=["verify_triple", "cli-verify"],
)
def test_elapsed_clock_starts_after_numpy_is_loaded(call):
    out = subprocess.run(
        [sys.executable, "-c", CLOCK_SCRIPT.format(call=call), str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    reads = json.loads(out)
    assert reads and reads[0], reads


# Records, as each process pool starts, whether numpy is loaded; a fresh
# interpreter, so numpy starts unloaded, and two processors, so the pool starts.
POOL_SCRIPT = """
import concurrent.futures, json, os, sys

sys.path.insert(0, sys.argv[1])
from templink.census import verify_range

pool, seen = concurrent.futures.ProcessPoolExecutor, []
init = pool.__init__

def recording_init(self, *args, **kwargs):
    seen.append("numpy" in sys.modules)
    init(self, *args, **kwargs)

pool.__init__ = recording_init
os.sched_getaffinity = lambda pid: {0, 1}
assert verify_range(3, 4, 5, jobs=2).ok
print(json.dumps(seen))
"""


def test_range_pool_forks_with_numpy_loaded():
    # each worker that forks without numpy imports it again, about 0.2 s apiece
    out = subprocess.run(
        [sys.executable, "-c", POOL_SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == [True]
