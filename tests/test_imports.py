"""Cold start: the census side of the package loads neither numpy nor a process pool."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
from templink.census import extremality_crosscheck, verify_triple
from templink.kneading import Triple
with redirect_stdout(io.StringIO()):
    templink.cli.run(["enumerate", "--p", "3", "--q", "3", "--r", "4", "--max-len", "8"])
    stage("enumerate")
    templink.cli.run(["cuts", "aabb"])
    stage("cuts")
extremality_crosscheck(Triple(3, 3, 4), 8)
stage("crosscheck")
verify_triple(Triple(3, 3, 4))
stage("verify")
print(json.dumps(loaded))
"""


def test_census_side_never_loads_numpy_or_a_process_pool():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = json.loads(out)
    for name in ("import", "enumerate", "cuts", "crosscheck"):
        assert loaded[name] == [], name
    # the pair kernel does load numpy, so the check above can fail
    assert "numpy" in loaded["verify"]
