"""The benchmark's three workloads.

Each workload turns a seed into inputs, one input per item index k, so
no item of a run repeats an input of another item or of the warm-up.
``input(k)`` builds item k's input outside the timed region; ``item``
does one unit of work on it, always through the public ``icci`` names,
looked up at call time so a traced run sees them.  The workload keeps
what it needs to judge the outputs and checks them afterwards against
the seed-commit reference (``reference.json``, default seed only) and
against oracles that hold for every seed.

- ``sweep-accept``: one ``run_gap_sweep`` call per item with the
  acceptance-gate config (log-uniform gains in [1e-3, 1e3], 1 bit) over
  ``SWEEP_SAMPLES`` channels; item k is sweep seed
  seed + k * SWEEP_STREAM_STRIDE.  The batch use; vertex enumeration
  dominates it.
- ``query-wide``: one single-channel query per item, in the form the
  ``gap`` and ``region`` commands use; item k's gains are row k of a
  Philox stream over the whole accepted envelope [1e-6, 1e6], at 2 bits.
  The N=1 use of the region layer, including the vertex display path.
- ``oracles``: per item, the MI oracle on channel k of the seed plus the
  DoF enumeration against the closed forms at an alpha in [0, 3) that
  no other item uses.  Never touches ``region.vertices``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from array import array
from pathlib import Path

import numpy as np

import icci

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 42          # the acceptance gate's seed; reference.json holds its results

TOL = 1e-9                   # membership tolerance the certificates use
SLACK_DEV_TOL = 1e-9         # allowed |slack - reference slack| at the default seed
LP_TOL = 1e-7                # LP oracle slacks agree to this (to 9e-9 on the seed commit)
LP_CHECKS = 8                # channels per run re-certified by the LP oracle

SWEEP_SAMPLES = 50           # channels per run_gap_sweep call
SWEEP_CHECKED = 16           # streams checked channel by channel and digested
SWEEP_STREAM_STRIDE = 1 << 20
SWEEP_WARM_STREAM = 1 << 20  # stream of the warm-up call, beyond every item's
SWEEP_MAGS = (1e-3, 1e3)
SWEEP_BITS = 1.0

ACCEPTANCE_SAMPLES = 10_000  # the acceptance gate's channel count (stream 0 of seed 42)

QUERY_CHECKED = 4000         # items compared with the reference and digested
QUERY_TRACE_ITEMS = 1000
QUERY_MAGS = (1e-6, 1e6)
QUERY_BITS = 2.0
QUERY_STREAM = 0x51          # Philox key word separating query gains from sweep streams
QUERY_WARM_STREAM = 0x52     # key word of the warm-up query

ORACLE_MAGS = (1e-2, 1e2)
ORACLE_ALPHA_MAX = 3.0       # alpha range [0, 3) of criterion 4
ORACLE_WARM_INDEX = 1 << 62  # sample_gains index of the warm-up item
ORACLE_DIGEST_ITEMS = 1000
ORACLE_TRACE_ITEMS = 3000

_SUBSETS = [s for r in (1, 2, 3) for s in itertools.combinations(range(3), r)]


def lp_gap_slack(cover, target, bits: float) -> float:
    """Clipped-shift gap slack of target against cover, by linear programs.

    For c >= 0, c . max(v - b, 0) = max over coordinate subsets S of
    sum_{i in S} c_i (v_i - b), so the worst case over the target
    polytope is a maximum of linear objectives: one LP per distinct
    restricted objective.  Shares no code with region.vertices.
    """
    from scipy.optimize import linprog

    a = target.coefficient_matrix()
    b = target.rhs_vector()
    optimum: dict[tuple, float] = {}

    def lp_max(w: np.ndarray) -> float:
        key = tuple(w)
        if key not in optimum:
            res = linprog(-w, A_ub=a, b_ub=b, bounds=[(0, None)] * 3, method="highs",
                          options={"primal_feasibility_tolerance": 1e-10,
                                   "dual_feasibility_tolerance": 1e-10})
            if res.status != 0:
                raise RuntimeError(f"LP oracle failed: {res.message}")
            optimum[key] = -res.fun
        return optimum[key]

    worst = math.inf
    for c, rhs in zip(cover.coefficient_matrix(), cover.rhs_vector()):
        reach = 0.0
        for subset in _SUBSETS:
            w = np.zeros(3)
            w[list(subset)] = c[list(subset)]
            if w.any():
                reach = max(reach, lp_max(w) - bits * w.sum())
        worst = min(worst, rhs - reach)
    return float(worst)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def digest(verdicts, slacks=None) -> str:
    """Short hash of the verdicts, and of the slacks at 1e-6 absolute, in
    input order: two commits agree on a seed when their digests match."""
    parts = ["1" if v else "0" for v in verdicts]
    if slacks is not None:
        parts = [f"{v}:{s:.6f}" for v, s in zip(parts, slacks)]
    return hashlib.sha256(",".join(parts).encode()).hexdigest()[:16]


def _spread_indices(n: int, k: int) -> list[int]:
    return sorted({(j * n) // k for j in range(k)})


def _vertices_feasible(region_dict: dict) -> bool:
    """Every displayed vertex satisfies every displayed half-space."""
    pts = np.asarray(region_dict["vertices"], dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        return False
    c = np.array([hs["c"] for hs in region_dict["halfspaces"]], dtype=float)
    r = np.array([hs["rhs"] for hs in region_dict["halfspaces"]], dtype=float)
    return bool((pts >= -TOL).all() and (pts @ c.T <= r + TOL).all())


class Gate:
    """What the checks found; ``correct`` only if every check held."""

    def __init__(self) -> None:
        self.verdict_mismatches = 0
        self.max_slack_dev = 0.0
        self.problems: list[str] = []
        self.extra: dict = {}

    def fail(self, message: str) -> None:
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems

    def as_dict(self) -> dict:
        return {
            "verdict_mismatches": self.verdict_mismatches,
            "max_slack_dev": self.max_slack_dev,
            **self.extra,
            "problems": self.problems[:10],
        }


def sweep_config(seed: int, stream: int, samples: int = SWEEP_SAMPLES):
    """Stream k of a seed: the acceptance-gate config at sweep seed
    seed + k * SWEEP_STREAM_STRIDE, so stream 0 of the default seed is
    the acceptance data itself."""
    return icci.SweepConfig(
        samples=samples, seed=seed + stream * SWEEP_STREAM_STRIDE,
        mag_min=SWEEP_MAGS[0], mag_max=SWEEP_MAGS[1], bits=SWEEP_BITS, tol=TOL,
    )


def sweep_checks(sweep_seed: int, samples: int) -> list:
    """check_channel on each channel of one sweep stream, the way
    run_gap_sweep samples them."""
    lo, hi = SWEEP_MAGS
    return [icci.check_channel(i, icci.sample_gains(sweep_seed, i, lo, hi), bits=SWEEP_BITS, tol=TOL)
            for i in range(samples)]


class SweepAccept:
    name = "sweep-accept"
    weight = SWEEP_SAMPLES   # channels per item
    trace_items = SWEEP_CHECKED

    def __init__(self, seed: int, checked: int = SWEEP_CHECKED) -> None:
        self.seed = seed
        self.checked = checked
        self.reports: dict[int, tuple] = {}   # k -> (failed indices, worst index, worst slack)

    def input(self, k: int):
        return sweep_config(self.seed, k)

    def warm(self) -> None:
        icci.run_gap_sweep(sweep_config(self.seed, SWEEP_WARM_STREAM, samples=1))

    def item(self, config):
        return icci.run_gap_sweep(config)

    @staticmethod
    def _summary(report) -> tuple:
        return tuple(report.failed_indices), report.worst_index, report.worst_slack

    def record(self, k: int, config, report) -> None:
        self.reports[k] = self._summary(report)

    def finish(self) -> None:
        """Per-channel results of the checked streams, outside the timed
        region: a report carries only the failed set and the worst channel."""
        for k in range(self.checked):
            if k not in self.reports:
                self.record(k, None, self.item(self.input(k)))
        self.checks = [sweep_checks(self.input(k).seed, SWEEP_SAMPLES) for k in range(self.checked)]
        self.passed = [c.passed(TOL) for stream in self.checks for c in stream]
        self.slacks = [c.gap_slack for stream in self.checks for c in stream]

    def digest(self) -> str:
        return digest(self.passed, self.slacks)

    def verify(self) -> Gate:
        gate = Gate()
        for k, stream in enumerate(self.checks):
            failed, worst_index, worst_slack = self.reports[k]
            worst = min(stream, key=lambda c: c.gap_slack)
            if (list(failed) != [c.index for c in stream if not c.passed(TOL)]
                    or (worst_index, worst_slack) != (worst.index, worst.gap_slack)):
                gate.fail(f"run_gap_sweep report of stream {k} disagrees with check_channel")
        # the later streams: spot checks of each report, one channel per claim
        lo, hi = SWEEP_MAGS
        for k in sorted(self.reports):
            if k < self.checked:
                continue
            failed, worst_index, worst_slack = self.reports[k]
            sweep_seed = self.input(k).seed
            first_passing = next((i for i in range(SWEEP_SAMPLES) if i not in failed), None)
            spot = {i for i in (worst_index, *failed[:1], first_passing) if i is not None}
            for i in sorted(spot):
                check = icci.check_channel(i, icci.sample_gains(sweep_seed, i, lo, hi), bits=SWEEP_BITS, tol=TOL)
                if (check.passed(TOL) == (i in failed)
                        or (i == worst_index and check.gap_slack != worst_slack)):
                    gate.fail(f"run_gap_sweep report of stream {k} disagrees with check_channel at {i}")
        # determinism, after the timed loop: the first and the last stream again
        for k in {0, max(self.reports)}:
            if self._summary(self.item(self.input(k))) != self.reports[k]:
                gate.fail(f"sweep stream {k} gave a different report when repeated")
        gate.extra["streams"] = len(self.reports)
        gate.extra["fail_count"] = sum(len(r[0]) for r in self.reports.values())
        gate.extra["worst_slack"] = min(r[2] for r in self.reports.values())
        if self.seed == REFERENCE_SEED:
            streams = load_reference()["sweep_accept"]["streams"]
            ref_pass = [ch == "1" for stream in streams for ch in stream["passed"]]
            ref_slacks = [x for stream in streams for x in stream["gap_slacks"]]
            gate.verdict_mismatches = sum(a != b for a, b in zip(self.passed, ref_pass))
            gate.max_slack_dev = max(abs(a - b) for a, b in zip(self.slacks, ref_slacks))
        # the LP oracle on the worst channel of streams spread over the run
        streams = sorted(self.reports)
        lp_cases = []
        for n in _spread_indices(len(streams), LP_CHECKS):
            k = streams[n]
            _, worst_index, worst_slack = self.reports[k]
            lp_cases.append((icci.sample_gains(self.input(k).seed, worst_index, lo, hi), worst_slack))
        _judge(gate, lp_cases, SWEEP_BITS)
        return gate


def query_gains(seed: int, k: int):
    """Item k's channel: row k of a Philox stream keyed by (seed,
    QUERY_STREAM), log-uniform over QUERY_MAGS.  Philox4x64 gives one
    counter block per row of four doubles, so row k is read directly."""
    return _log_uniform_gains([seed, QUERY_STREAM], k)


def _log_uniform_gains(key_words, counter: int):
    key = np.array(key_words, dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=np.array([counter, 0, 0, 0], dtype=np.uint64))
    u = np.random.Generator(bitgen).uniform(size=4)
    lo, hi = QUERY_MAGS
    return icci.ChannelGains(*(float(m) for m in lo * (hi / lo) ** u))


class QueryWide:
    name = "query-wide"
    weight = 1
    trace_items = QUERY_TRACE_ITEMS

    def __init__(self, seed: int, checked: int = QUERY_CHECKED) -> None:
        self.seed = seed
        self.checked = checked
        self.slacks = array("d")       # item k's 2-bit slack at index k
        self.hidden: list[int] = []    # items whose displayed vertices failed the check

    def input(self, k: int):
        return query_gains(self.seed, k)

    @staticmethod
    def item(gains):
        inner = icci.build_inner(icci.inner_coeffs(gains))
        outer = icci.build_outer(icci.outer_coeffs(gains))
        cert = icci.within_bits_slack(cover=inner, target=outer, bits=QUERY_BITS)
        return cert, icci.region_as_dict(inner), icci.region_as_dict(outer)

    def warm(self) -> None:
        self.item(_log_uniform_gains([self.seed, QUERY_WARM_STREAM], 0))

    def record(self, k: int, gains, result) -> None:
        # a query that raised has no slack: NaN, which fails every check
        self.slacks.extend([math.nan] * (k - len(self.slacks)))
        cert, inner_d, outer_d = result
        self.slacks.append(cert.slack)
        if not (_vertices_feasible(inner_d) and _vertices_feasible(outer_d)):
            self.hidden.append(k)

    def finish(self) -> None:
        for k in range(len(self.slacks), self.checked):
            gains = self.input(k)
            self.record(k, gains, self.item(gains))
        self.passed = [s >= -TOL for s in self.slacks[:self.checked]]

    def digest(self) -> str:
        return digest(self.passed, self.slacks[:self.checked])

    def verify(self) -> Gate:
        gate = Gate()
        if self.hidden:
            gate.fail(f"{len(self.hidden)} queries display an infeasible or empty vertex list, first {self.hidden[0]}")
        gate.extra["queries"] = len(self.slacks)
        gate.extra["fail_count"] = sum(s < -TOL for s in self.slacks)
        gate.extra["min_slack"] = min(self.slacks)
        if self.seed == REFERENCE_SEED:
            ref = load_reference()["query_wide"]
            ref_pass = [ch == "1" for ch in ref["passed"]]
            gate.verdict_mismatches = sum(a != b for a, b in zip(self.passed, ref_pass))
            gate.max_slack_dev = max(abs(a - b) for a, b in zip(self.slacks, ref["slacks"]))
        lp_cases = []
        for k in _spread_indices(len(self.slacks), LP_CHECKS):
            gains = self.input(k)
            # determinism, after the timed loop: the same query again
            if self.item(gains)[0].slack != self.slacks[k]:
                gate.fail(f"query {k} gave a different certificate when repeated")
            lp_cases.append((gains, self.slacks[k]))
        _judge(gate, lp_cases, QUERY_BITS)
        return gate


def oracle_alpha(seed: int, k: int) -> float:
    """Item k's alpha in [0, ORACLE_ALPHA_MAX): a golden-ratio rotation
    from a seed-dependent start, so items spread evenly and never meet."""
    return ORACLE_ALPHA_MAX * ((seed * 0.7548776662466927 + k * 0.6180339887498949) % 1.0)


class Oracles:
    name = "oracles"
    weight = 1
    trace_items = ORACLE_TRACE_ITEMS

    def __init__(self, seed: int, checked: int = ORACLE_DIGEST_ITEMS) -> None:
        self.seed = seed
        self.checked = checked
        self.verdicts: list[bool] = []   # of the first `checked` items
        self.failures = 0
        self.max_mi = 0.0
        self.max_lp = 0.0

    def input(self, k: int):
        return k, oracle_alpha(self.seed, k)

    def warm(self) -> None:
        self.item((ORACLE_WARM_INDEX, oracle_alpha(self.seed, -1)))

    def item(self, x):
        k, alpha = x
        mi = icci.mi_discrepancy(icci.sample_gains(self.seed, k, *ORACLE_MAGS))
        lp = max(abs(icci.dof_icci_lp(alpha) - icci.dof_icci(alpha)),
                 abs(icci.dof_ic_lp(alpha) - icci.dof_ic(alpha)))
        return mi, lp

    def record(self, k: int, x, result) -> None:
        mi, lp = result
        ok = mi <= TOL and lp <= TOL
        if k == len(self.verdicts) and k < self.checked:
            self.verdicts.append(ok)
        self.failures += not ok
        self.max_mi = max(self.max_mi, mi)
        self.max_lp = max(self.max_lp, lp)

    def finish(self) -> None:
        for k in range(len(self.verdicts), self.checked):
            x = self.input(k)
            self.record(k, x, self.item(x))

    def digest(self) -> str:
        return digest(self.verdicts)

    def verify(self) -> Gate:
        gate = Gate()
        gate.verdict_mismatches = self.failures
        gate.extra["max_mi_discrepancy"] = self.max_mi
        gate.extra["max_lp_mismatch"] = self.max_lp
        if self.max_mi > TOL:
            gate.fail(f"MI oracle discrepancy {self.max_mi:.3e} above {TOL:g}")
        if self.max_lp > TOL:
            gate.fail(f"DoF LP mismatch {self.max_lp:.3e} above {TOL:g}")
        return gate


def _judge(gate: Gate, lp_cases: list, bits: float) -> None:
    """The checks shared by the two certificate workloads: reference
    verdicts and slacks, and (gains, slack) pairs against the LP oracle."""
    lp_dev = 0.0
    for gains, slack in lp_cases:
        inner = icci.build_inner(icci.inner_coeffs(gains))
        outer = icci.build_outer(icci.outer_coeffs(gains))
        lp_dev = max(lp_dev, abs(lp_gap_slack(inner, outer, bits) - slack))
    gate.extra["lp_max_dev"] = lp_dev
    if gate.verdict_mismatches:
        gate.fail(f"{gate.verdict_mismatches} verdicts differ from the seed-commit reference")
    if gate.max_slack_dev > SLACK_DEV_TOL:
        gate.fail(f"slack moved {gate.max_slack_dev:.3e} from the reference (limit {SLACK_DEV_TOL:g})")
    if lp_dev > LP_TOL:
        gate.fail(f"gap slack differs {lp_dev:.3e} from the LP oracle (limit {LP_TOL:g})")


def acceptance_sweep() -> dict:
    """The 10000-channel acceptance sweep (stream 0 of the default seed),
    channel by channel: its summary and a digest of every verdict and
    slack.  record_reference.py stores this; run.py --self-test recomputes
    and compares it."""
    checks = sweep_checks(REFERENCE_SEED, ACCEPTANCE_SAMPLES)
    passed = [c.passed(TOL) for c in checks]
    worst = min(checks, key=lambda c: c.gap_slack)
    return {"samples": ACCEPTANCE_SAMPLES, "fail_count": passed.count(False),
            "worst_index": worst.index, "worst_slack": worst.gap_slack,
            "digest": digest(passed, [c.gap_slack for c in checks])}


WORKLOADS = {w.name: w for w in (SweepAccept, QueryWide, Oracles)}
