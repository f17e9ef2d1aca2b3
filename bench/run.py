"""Certification benchmark for icci.

    python3 bench/run.py --workload {sweep-accept,query-wide,oracles}
                         [--seed N] [--seconds S] [--trace {0,1}]
    python3 bench/run.py --self-test

Run from the repository root.  Each run measures icci from its source
tree (src/icci) in fresh single-threaded processes: setup_s is the
median over several fresh interpreters of import plus the warm-up item;
the measurement itself runs in one more fresh process.  The last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  The lines before it record the environment and the
correctness gate.  Every result is also written, with the environment,
to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sweep-accept", "query-wide", "oracles")
DEFAULT_SEED = 42
SETUP_PROBES = 7          # fresh interpreters timed for setup_s
BUDGET_S = 170.0          # the whole run, children included, ends within this


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ICCI_THREADS", None)   # the package default: one worker
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(args: list[str], deadline: float) -> str:
    """Run worker.py with args; return its stdout, or raise BenchError."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:3]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(workload: str, seed: int, deadline: float) -> tuple[list[float], list[float]]:
    """Fresh interpreter through import icci and the warm-up item, raw and
    at reference speed.  After each setup process, a probe process of its
    own (probe.py) times the machine's speed.  The first setup process,
    which may compile bytecode, is not counted."""
    from probe import Probe

    raw, scaled = [], []
    with Probe(env=_child_env()) as probe:
        for n in range(SETUP_PROBES + 1):
            t0 = time.monotonic()
            elapsed = float(_run_child(["setup", workload, str(seed), repr(t0)], deadline))
            if n:
                raw.append(elapsed)
                scaled.append(elapsed * probe.speed())
    return raw, scaled


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    from importlib import metadata

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "icci").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "ICCI_THREADS": os.environ.get("ICCI_THREADS"),
        "icci_threads_used": 1,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest()[:16],
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + BUDGET_S
    # one CPU for this process and every process it starts, so the speed
    # probe times the CPU the measured code runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    setup = None if trace else setup_seconds(workload, seed, deadline)
    result = json.loads(
        _run_child(["measure", workload, str(seed), str(seconds), str(trace), str(OUT)], deadline)
        .strip().splitlines()[-1]
    )
    if setup is not None:
        raw, scaled = setup
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        result["detail"]["raw_setup_s"] = statistics.median(raw)
        result["detail"]["setup_samples_s"] = raw
    return result


def self_test(seconds: int) -> int:
    """The 10000-channel acceptance sweep against its reference; then each
    workload at the default seed: the gate holds, and a second traced run
    repeats every exact count and the verdict digest.  (Each traced run
    already checks its digest against an untraced pass over the same
    items.)"""
    from tracer import EXACT_COUNTS

    with open(BENCH / "reference.json", encoding="utf-8") as handle:
        expected = json.load(handle)["sweep_accept"]["acceptance"]
    got = json.loads(_run_child(["acceptance"], time.monotonic() + 600))
    ok = got == expected
    print(f"acceptance sweep: {'ok' if ok else f'FAIL {got} != {expected}'}")
    for workload in WORKLOADS:
        plain = run(workload, DEFAULT_SEED, seconds, 0)
        first, second = (run(workload, DEFAULT_SEED, seconds, 1) for _ in range(2))
        problems = [f"gate: {r['gate']}" for r in (plain, first, second) if not r["correct"]]
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{name} {a} != {b}")
        if first["digest"] != second["digest"]:
            problems.append("traced verdict digests differ between runs")
        if plain["failed"] or first["failed"] or second["failed"]:
            problems.append("items raised")
        print(f"{workload}: {'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
        ok &= not problems
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "icci" / "__init__.py").is_file():
        print(f"bench: no icci source tree at {SRC / 'icci'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.self_test:
            return self_test(args.seconds)
        if args.workload is None:
            parser.error("--workload is required")
        env = environment()
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(env))
    print("gate " + json.dumps({"digest": result["digest"], **result["gate"]}))
    print("detail " + json.dumps(result["detail"]))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
