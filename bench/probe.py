"""Speed probe: follows how fast this shared machine runs now.

It times a fixed kernel shaped like icci's hot path (a Python loop of
small numpy calls).  On a shared host the speed drifts by 20-45% within
minutes, and it moves this kernel and icci's code together.  Timings
are reported at the reference speed: raw time * PROBE_REF_S / probe time.

The kernel runs in a process of its own, never in the process being
measured, so nothing a change under test does to that process (its heap,
its garbage collector, its numpy state) slows the probe and is divided
out of the change's own figures.  The measured process asks for a probe
and waits for the answer, so the two never run at the same time.

    python3 bench/probe.py     # serve: one probe per input line, prints its seconds
"""

from __future__ import annotations

import subprocess
import sys
import time

PROBE_REF_S = 0.006       # probe time that defines the reference machine speed
WARM_PROBES = 5           # run and dropped when the probe process starts


def _kernel_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return np, rng.uniform(size=(300, 3)), rng.uniform(size=(13, 3))


def _kernel(np, points, planes) -> int:
    kept: list = []
    for p in points:
        if not kept or np.max(np.abs(np.array(kept) - p), axis=1).min() > 0.2:
            kept.append(p)
    return int((points @ planes.T <= 1.0).all(axis=1).sum()) + len(kept)


def window_time(times) -> float:
    """Probe time of a window of probes: the mean without the fastest and
    the slowest probe.  The machine flips between a fast and a slow state
    within tens of milliseconds, so a mean follows the share of time
    spent in each; a median would jump between the two."""
    times = sorted(times)
    if len(times) > 2:
        times = times[1:-1]
    return sum(times) / len(times)


def serve() -> int:
    inputs = _kernel_inputs()
    for _ in sys.stdin:
        start = time.perf_counter()
        _kernel(*inputs)
        print(repr(time.perf_counter() - start), flush=True)
    return 0


class Probe:
    """A probe process of its own, started warm; ``measure`` runs one probe."""

    def __init__(self, env: dict | None = None) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1, env=env,
        )
        self.times: list[float] = []
        for _ in range(WARM_PROBES):
            self.measure()
        self.times.clear()

    def measure(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process ended with {self._proc.wait()}")
        seconds = float(line)
        self.times.append(seconds)
        return seconds

    def speed(self, repeats: int = 5) -> float:
        """Factor from raw seconds to reference-speed seconds, from
        `repeats` fresh probes."""
        return PROBE_REF_S / window_time([self.measure() for _ in range(repeats)])

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(serve())
