"""Write ``expected.json``: the outputs the benchmark's correctness gate compares with.

    python3 bench/pin.py

The pins are the program's outputs at the commit that defined the benchmark,
including the criterion-10 discrepancy as it stands.  Re-pinning replaces the
reference every later run is checked against, so do it only in a change whose
purpose is to alter those outputs, and say which outputs moved.
"""

from __future__ import annotations

import json

from run import BENCH, import_templink, pin_threads


def main() -> None:
    pin_threads()
    import_templink()
    from workloads import WORKLOADS

    pins = {
        size: {name: wl.digest(wl.op(wl.inputs(size, 0))) for name, wl in WORKLOADS.items()}
        for size in ("full", "tiny")
    }
    (BENCH / "expected.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
