"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/spread.py [--workloads sweep-accept,query-wide,oracles]
                            [--seeds 1,2,...,10] [--seconds 30] [--out FILE]

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
and writes them with the environment to FILE (default
bench/out/spread.json).  It does the same for the raw timings and the
probe figures of the `detail` line (RAW_DETAIL), so that the effect of
the speed probe can be judged from the file: compare the spread of
`raw_throughput_cps` with that of `throughput_cps`, and read
`probe_fit_slope` where `probe_block_range` is well above 1.
bench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RAW_DETAIL = ("raw_throughput_cps", "raw_latency_p50_ms", "raw_latency_p99_ms", "latency_p99_ms",
              "raw_setup_s", "probe_median_ms", "probe_fit_slope", "probe_block_range")


def _summary(vals: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": vals}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep-accept,query-wide,oracles")
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", default=str(BENCH / "out" / "spread.json"))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    summary: dict = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds)],
                cwd=BENCH.parent, capture_output=True, text=True, timeout=200,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            summary.setdefault("env", json.loads(lines[0].split(" ", 1)[1]))
            ok &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
            for name in RAW_DETAIL:
                if detail.get(name) is not None:
                    raw.setdefault(name, []).append(detail[name])
        rows = {name: _summary(vals) for name, vals in values.items()}
        for name, row in rows.items():
            print(f"{workload:13s} {name:20s} median {row['median']:12.5g}  spread {row['spread']:.3f}")
        rows["detail"] = {name: _summary(vals) for name, vals in raw.items() if len(vals) >= 2}
        for name, row in rows["detail"].items():
            print(f"{workload:13s} {name:20s} median {row['median']:12.5g}  spread {row['spread']:.3f}  (detail)")
        summary["workloads"][workload] = rows
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
