"""Record ``reference.json``: every pool input's output at this commit.

    python3 perfbench/make_reference.py

Run it only when the benchmark's inputs change, or when a change to the
library is meant to change results; the diff of ``reference.json`` then
shows which outputs moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    clearers = workloads.cache_clearers()
    ops = {}
    for name in run.WORKLOADS:
        for op in workloads.build(name).pool:
            for clear in clearers:
                clear()
            ops[op.key] = op.observe(op.run())
            print(op.key, ops[op.key].get("verdict", ""), flush=True)
    doc = {"u_points": list(gate.U_POINTS), "ops": ops}
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
