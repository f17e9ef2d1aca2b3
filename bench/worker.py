"""One benchmark process: set up, measure one workload, check its outputs.

Started by run.py in a fresh interpreter with icci's source directory on
PYTHONPATH.  Modes:

    worker.py setup   WORKLOAD SEED T0
        import icci and run the workload's warm-up item (filling
        lru_cache); print the seconds since T0 (time.monotonic() read by
        the parent just before it started this process).
    worker.py measure WORKLOAD SEED SECONDS TRACE OUTDIR
        untraced (TRACE 0): closed loop, one caller, for SECONDS; prints
        the end-to-end metrics.  traced (TRACE 1): a fixed item count
        run traced, in chunks that alternate with untraced chunks of
        other items, for exact counts, per-layer times and the tracing
        overhead; then the traced items again untraced, to compare
        verdicts.  Either way the outputs are then checked and one JSON
        line is printed.
    worker.py acceptance
        the 10000-channel acceptance sweep, channel by channel; prints
        its summary and digest as one JSON line.

Item k of a run gets input k of the workload; the warm-up item has an
input of its own, so no timed item repeats an input.
"""

from __future__ import annotations

import bisect
from array import array
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

PROBE_EVERY_S = 0.1       # workload time between speed probes
PROBE_WINDOW = 9          # probes around an item that set its speed: about 1 s
BLOCKS = 10               # consecutive blocks of a run for the throughput median
TRACE_CHUNKS = 8          # traced and untraced chunks alternate in the traced run


def _setup(workload: str, seed: int, t0: float) -> None:
    import workloads

    workloads.WORKLOADS[workload](seed).warm()
    print(repr(time.monotonic() - t0))


def _run_items(wl, first: int, count: int | None, seconds: float | None, probe=None, record: bool = True):
    """Closed loop over items first, first + 1, ...: either `count` items
    or until `seconds` have passed.  Each input is built before its timer
    starts; with `record`, each result is kept for the checks.  Returns
    the time and start of each item, the number of items that raised,
    the loop's wall time and, with a probe, the time of each probe."""
    clock = time.perf_counter
    # compact arrays, so that the bookkeeping of a long run does not show in peak_rss_mb
    latencies = array("d")
    starts = array("d")
    probe_at = array("d")
    errors = 0
    begin = clock()
    deadline = begin + seconds if seconds is not None else None
    next_probe = begin
    k = first
    while True:
        if probe is not None and clock() >= next_probe:
            probe_at.append(clock())
            probe.measure()
            next_probe = clock() + PROBE_EVERY_S
        x = wl.input(k)
        start = clock()
        try:
            result = wl.item(x)
        except Exception:
            result = None
            errors += 1
            if errors == 1:
                traceback.print_exc()
        end = clock()
        latencies.append(end - start)
        starts.append(start)
        if record and result is not None:
            wl.record(k, x, result)
        k += 1
        if (count is not None and k - first >= count) or (deadline is not None and end >= deadline):
            break
    wall = end - begin
    if probe is not None:
        probe_at.append(clock())
        probe.measure()
    return latencies, starts, errors, wall, probe_at


def _scaled(latencies, starts, probe_at, probe_times) -> array:
    """Each item at the speed of the PROBE_WINDOW probes around it."""
    from probe import PROBE_REF_S, window_time

    before = (PROBE_WINDOW + 1) // 2
    scaled = array("d")
    for start, latency in zip(starts, latencies):
        after = bisect.bisect(probe_at, start)
        window = probe_times[max(0, after - before):after + PROBE_WINDOW - before]
        scaled.append(latency * PROBE_REF_S / window_time(window))
    return scaled


def _blocks(n: int) -> list[slice]:
    """About BLOCKS consecutive blocks of items; a trailing partial block is dropped."""
    size = max(1, n // BLOCKS)
    return [slice(i * size, (i + 1) * size) for i in range(max(1, n // size))]


def _block_rate(latencies, weight: int) -> float:
    """Work per second of item time, the median over blocks, so a burst
    of load on the shared machine moves one block and not the result."""
    return statistics.median((b.stop - b.start) * weight / sum(latencies[b])
                             for b in _blocks(len(latencies)))


def _probe_fit(latencies, starts, probe_at, probe_times) -> dict:
    """How raw item time followed the probe within this run: the slope of
    log(mean item time) against log(window probe time) over the blocks,
    and how far the block probe medians ranged (max / min).  The slope
    means little when the range is near 1."""
    import numpy as np
    from probe import window_time

    item_s, probe_s = [], []
    for b in _blocks(len(latencies)):
        lo = bisect.bisect(probe_at, starts[b.start]) - 1
        hi = bisect.bisect(probe_at, starts[b.stop - 1]) + 1
        item_s.append(sum(latencies[b]) / (b.stop - b.start))
        probe_s.append(window_time(probe_times[max(0, lo):hi]))
    if len(item_s) < 3 or max(probe_s) == min(probe_s):
        return {"probe_fit_slope": None, "probe_block_range": 1.0}
    slope = float(np.polyfit(np.log(probe_s), np.log(item_s), 1)[0])
    return {"probe_fit_slope": slope, "probe_block_range": max(probe_s) / min(probe_s)}


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _check(wl) -> tuple[dict, bool, str]:
    try:
        wl.finish()
        gate = wl.verify()
        return gate.as_dict(), gate.correct, wl.digest()
    except Exception as exc:
        traceback.print_exc()
        return {"problems": [f"verification raised {exc!r}"]}, False, ""


def _measure_plain(cls, seed: int, seconds: float) -> dict:
    from probe import Probe

    wl = cls(seed)
    wl.warm()
    with Probe() as probe:
        latencies, starts, errors, wall, probe_at = _run_items(wl, 0, None, seconds, probe)
        probe_times = probe.times
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = _scaled(latencies, starts, probe_at, probe_times)
    gate, correct, digest = _check(wl)
    metrics = {
        "throughput_cps": (_block_rate(scaled, cls.weight), "1/s"),
        "latency_p50_ms": (_percentile(scaled, 50) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # the tail is reported, not gated: its spread over seeds was
    # 0.06-0.36 on a shared 2-vCPU host, above the largest bound allowed
    detail = {
        "items": len(latencies), "wall_s": wall, "latency_samples": len(latencies),
        "latency_p99_ms": _percentile(scaled, 99) * 1e3,
        "raw_throughput_cps": _block_rate(latencies, cls.weight),
        "raw_latency_p50_ms": _percentile(latencies, 50) * 1e3,
        "raw_latency_p99_ms": _percentile(latencies, 99) * 1e3,
        "probe_median_ms": statistics.median(probe_times) * 1e3,
        "probes": len(probe_times),
        **_probe_fit(latencies, starts, probe_at, probe_times),
    }
    return {"metrics": metrics, "detail": detail, "gate": gate, "correct": correct,
            "digest": digest, "items": len(latencies), "errors": errors}


def _measure_traced(cls, seed: int, outdir: Path, workload: str) -> dict:
    from tracer import SpanRecorder

    n = cls.trace_items
    size = max(1, n // TRACE_CHUNKS)
    cls(seed).warm()
    _, _, errors, _, _ = _run_items(cls(seed), 2 * n, size, None, record=False)   # not counted
    # untraced chunks of items n..2n-1 alternate with traced chunks of items
    # 0..n-1, so drift of the machine's speed falls on both alike, and no
    # traced item repeats an input the process has seen
    plain, traced = cls(seed), cls(seed, checked=n)
    recorder = SpanRecorder()
    plain_wall = traced_wall = 0.0
    for first in range(0, n, size):
        count = min(size, n - first)
        _, _, e_plain, wall, _ = _run_items(plain, n + first, count, None, record=False)
        plain_wall += wall
        recorder.install()
        try:
            _, _, e_traced, wall, _ = _run_items(traced, first, count, None)
        finally:
            recorder.uninstall()
        traced_wall += wall
        errors += e_plain + e_traced
    # items 0..n-1 again untraced, only to compare verdicts with the traced pass
    again = cls(seed, checked=n)
    _, _, e_again, again_wall, _ = _run_items(again, 0, n, None)
    errors += e_again
    gate, correct, digest = _check(again)
    _, traced_correct, traced_digest = _check(traced)
    if traced_digest != digest or not traced_correct:
        correct = False
        gate.setdefault("problems", []).append(
            f"traced verdict digest {traced_digest} differs from untraced {digest}")
    metrics = recorder.layer_metrics(traced_wall)
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    spans_path = outdir / f"spans-{workload}-seed{seed}.jsonl"
    recorder.write(spans_path)
    items = 3 * n + size
    detail = {"items": items, "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "repeat_wall_s": again_wall, "spans": len(recorder.spans),
              "spans_file": spans_path.name}
    return {"metrics": metrics, "detail": detail, "gate": gate, "correct": correct,
            "digest": digest, "items": items, "errors": errors}


def _measure(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    import workloads

    cls = workloads.WORKLOADS[workload]
    if trace:
        run = _measure_traced(cls, seed, outdir, workload)
    else:
        run = _measure_plain(cls, seed, seconds)
    run["gate"]["error_rate"] = run["errors"] / run["items"]
    return {
        "correct": run["correct"],
        "attempted": run["items"] * cls.weight,
        "failed": run["errors"] * cls.weight,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
        "gate": run["gate"],
        "digest": run["digest"],
        "detail": run["detail"],
    }


def main(argv: list[str]) -> int:
    import json

    mode = argv[0]
    if mode == "acceptance":
        import workloads

        print(json.dumps(workloads.acceptance_sweep()))
        return 0
    workload, seed = argv[1], int(argv[2])
    if mode == "setup":
        _setup(workload, seed, float(argv[3]))
    else:
        seconds, trace, outdir = float(argv[3]), argv[4] == "1", Path(argv[5])
        print(json.dumps(_measure(workload, seed, seconds, trace, outdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
