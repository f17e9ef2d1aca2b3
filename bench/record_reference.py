"""Write bench/reference.json: the default-seed results the benchmark's
correctness gate compares against.

    python3 bench/record_reference.py

Run it once, on the commit whose results are the reference (the seed
commit of the benchmark), never on a commit under test: the gate exists
to show that later code reproduces these verdicts and slacks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as w  # noqa: E402
from run import environment  # noqa: E402


def main() -> int:
    seed = w.REFERENCE_SEED
    acceptance = w.acceptance_sweep()
    sweep = w.SweepAccept(seed)
    sweep.finish()
    streams = [
        {"seed": sweep.input(k).seed,
         "passed": "".join("1" if c.passed(w.TOL) else "0" for c in stream),
         "gap_slacks": [c.gap_slack for c in stream]}
        for k, stream in enumerate(sweep.checks)
    ]
    query = w.QueryWide(seed)
    query.finish()
    reference = {
        "env": environment(),
        "sweep_accept": {
            "seed": seed, "mag_range": list(w.SWEEP_MAGS), "bits": w.SWEEP_BITS, "tol": w.TOL,
            # summary and digest of every verdict and slack; run.py --self-test recomputes them
            "acceptance": acceptance,
            "streams": streams,
        },
        "query_wide": {
            "seed": seed, "items": w.QUERY_CHECKED, "mag_range": list(w.QUERY_MAGS),
            "bits": w.QUERY_BITS, "tol": w.TOL,
            "min_slack": min(query.slacks),
            "passed": "".join("1" if p else "0" for p in query.passed),
            "slacks": list(query.slacks),
        },
    }
    with open(w.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"sweep-accept: {acceptance['fail_count']}/{acceptance['samples']} fail, worst index "
          f"{acceptance['worst_index']} slack {acceptance['worst_slack']!r}")
    print(f"query-wide: {query.passed.count(False)}/{w.QUERY_CHECKED} fail, min slack {min(query.slacks)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
