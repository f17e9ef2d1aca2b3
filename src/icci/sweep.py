"""Randomized certification sweep.

Channels are drawn with log-uniform link magnitudes from keyed Philox
substreams, so sample i of a sweep depends only on (seed, i); a sweep
draws each chunk of channels in one pass, and ``sample_gains`` is the
same draw at N = 1.  Each channel is checked three ways: the
per-coefficient gap limits, containment of the achievable region in
the converse region, and the clipped-shift bit-gap
certificate.  The per-rate bit-gap certificate is computed alongside,
from the same converse maxima, and carried in each channel's result
without entering its verdict.

All of it runs in one array-first core over an (N, 4) gains array: both
coefficient families as column expressions, the (13, N) right-hand
sides, and the maxima that every certificate needs, which
``icci.region`` takes by LP duality from one table of dual multipliers
fixed at import, with no vertex enumeration.  The maxima and the row
reduction are those of ``icci.region``, whose ``within_bits_slack`` and
``within_bits_unclipped_slack`` are the same path at N = 1, so a
channel's certificates there and here are the same bits; only displayed
vertices and a certificate's witness are enumerated.  A sweep feeds the
core fixed-size chunks of channels and reduces the chunks in
sample-index order; ``check_channels`` runs the same chunks, and
``check_channel`` is the core at N = 1.  The core only computes
elementwise or within one channel, so every channel's results are
bit-identical whatever the chunk size, and a config always gives the
same report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import coeff_rows, delta_rows_within_limits
from .channel import ChannelGains, _int, _nonneg_finite, _real
from .region import MEMBERSHIP_TOL, _gap_rows, _reach, bound_rhs

__all__ = [
    "SweepConfig",
    "ChannelCheck",
    "SweepReport",
    "sample_gains",
    "check_channel",
    "check_channels",
    "run_gap_sweep",
]

MAG_LIMIT = 1e6  # validated operating envelope for link magnitudes
# Channels per pass of the core.  Its largest temporaries are the
# (232, 2 * chunk) float arrays of the dual table: 58 KiB at 16 channels,
# under glibc's default 128 KiB mmap threshold, so they are recycled from
# the heap rather than mapped and faulted in again on every pass (at 64
# channels they are not: a pass measured 0.68 ms, against 0.30 at 32).
# A pass costs a fixed ~0.12 ms of numpy calls plus ~6 us per channel
# (2-vCPU Xeon), so larger passes amortize more: on 50-channel sweeps, 32
# channels per pass gave about 25% more throughput than 16, for about
# 0.15 MB more peak RSS at equal work; 16 is kept for the lower peak RSS.
_CHUNK = 16


def _key_word(name: str, value) -> int:
    """``_int`` of value, if it fits a Philox key word, [0, 2**64)."""
    value = _int(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be an int in [0, 2**64), got {value!r}")
    return value


def _mag_range(mag_min, mag_max) -> tuple[float, float]:
    """The magnitude range as floats, if 0 < mag_min <= mag_max <= MAG_LIMIT."""
    mag_min, mag_max = _real("mag_min", mag_min), _real("mag_max", mag_max)
    if not (0 < mag_min <= mag_max <= MAG_LIMIT):
        raise ValueError(f"need 0 < mag_min <= mag_max <= {MAG_LIMIT:g}, got [{mag_min!r}, {mag_max!r}]")
    return mag_min, mag_max


@dataclass(frozen=True)
class SweepConfig:
    samples: int = 100
    seed: int = 0
    mag_min: float = 1e-3
    mag_max: float = 1e3
    bits: float = 1.0
    tol: float = MEMBERSHIP_TOL

    def __post_init__(self) -> None:
        samples = _int("samples", self.samples)
        if samples < 1:
            raise ValueError(f"samples must be a positive int, got {samples!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", _key_word("seed", self.seed))
        mag_min, mag_max = _mag_range(self.mag_min, self.mag_max)
        object.__setattr__(self, "mag_min", mag_min)
        object.__setattr__(self, "mag_max", mag_max)
        for name in ("bits", "tol"):
            object.__setattr__(self, name, _nonneg_finite(name, getattr(self, name)))

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ChannelCheck:
    """Outcome of the three checks for one sampled channel.

    gap_slack and gap_constraint are the slack and ``halfspace_index``
    of the clipped-shift certificate ``within_bits_slack`` of the outer
    region against the inner one, and per_rate_gap_slack the slack of
    the per-rate one, ``within_bits_unclipped_slack``, at the same
    budget, bit for bit: both are the same core.  gap_constraint is the
    lowest-numbered inner row attaining gap_slack.
    ``passed()`` uses the clipped slack, so the verdicts that
    ``run_gap_sweep`` and ``icci sweep`` report keep the meaning and the
    values they have always had; the per-rate slack is what acceptance
    criterion 1 certifies.
    """

    index: int
    gains: ChannelGains
    deltas_ok: bool
    containment_slack: float
    gap_slack: float
    gap_constraint: int
    per_rate_gap_slack: float

    def passed(self, tol: float = MEMBERSHIP_TOL) -> bool:
        return _passed(self.deltas_ok, self.containment_slack, self.gap_slack, _nonneg_finite("tol", tol))


def _passed(deltas_ok, containment_slack, gap_slack, tol):
    """The sweep verdict, for one channel or elementwise for arrays."""
    return deltas_ok & (containment_slack >= -tol) & (gap_slack >= -tol)


@dataclass(frozen=True)
class SweepReport:
    """Deterministic summary: counts plus the least-slack channel.

    Wall-clock time is deliberately not part of the report so that equal
    configs produce byte-identical renderings.
    """

    config: SweepConfig
    pass_count: int
    fail_count: int
    worst_index: int
    worst_gains: ChannelGains
    worst_slack: float
    worst_constraint: int
    failed_indices: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "pass": self.pass_count,
            "fail": self.fail_count,
            "worst": {
                "index": self.worst_index,
                "channel": self.worst_gains.as_dict(),
                "slack": self.worst_slack,
                "constraint": self.worst_constraint,
            },
            "failed_indices": list(self.failed_indices),
        }


def _sample_rows(seed: int, indices: Sequence[int], mag_min: float, mag_max: float) -> np.ndarray:
    """Channels ``indices`` of stream ``seed`` as an (N, 4) array of gains
    (m11, m12, m21, m22).

    Channel i is four log-uniform magnitudes drawn from the uniforms of
    ``np.random.Generator(np.random.Philox(key=[seed, i])).uniform(size=4)``:
    the first four raw outputs of Philox at that key and counter 0, each
    formed into a double as ``Generator.uniform`` forms it,
    (raw >> 11) * 2**-53.  One bit generator serves every channel and is
    rekeyed for each, which costs far less than building one.
    """
    bitgen = np.random.Philox(0)   # a fixed seed draws no system entropy; every key is set below
    state = bitgen.state   # counter 0 and an empty buffer, as a freshly keyed generator has
    key = state["state"]["key"]
    raw = np.empty((len(indices), 4), dtype=np.uint64)
    for row, index in zip(raw, indices):
        key[:] = (seed, index)
        bitgen.state = state
        row[:] = bitgen.random_raw(4)
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    return mag_min * (mag_max / mag_min) ** u


def sample_gains(seed: int, index: int, mag_min: float = 1e-3, mag_max: float = 1e3) -> ChannelGains:
    """Channel i of stream `seed`: ``_sample_rows`` at N = 1, with the seed,
    the index and the range checked as ``SweepConfig`` checks them."""
    mag_min, mag_max = _mag_range(mag_min, mag_max)
    row = _sample_rows(_key_word("seed", seed), [_key_word("index", index)], mag_min, mag_max)[0]
    return ChannelGains(*row.tolist())


def _certify(gains: np.ndarray, bits: float, tol: float) -> tuple[np.ndarray, ...]:
    """The certification core for an (N, 4) array of gains (m11, m12,
    m21, m22).

    Returns (N,) arrays: deltas_ok, containment_slack, gap_slack,
    gap_constraint and per_rate_gap_slack, as in ``ChannelCheck``.  A
    region's slack against a row is rhs - max over the region of c . v,
    the maximum taken by ``_reach``.
    """
    inner, outer = coeff_rows(gains)
    deltas_ok = delta_rows_within_limits(outer - inner, tol=tol)
    inner_rhs = bound_rhs(inner)
    outer_rhs = bound_rhs(outer)
    # both regions of every channel in one pass: inner columns first, then outer
    n = len(gains)
    reach = _reach(np.concatenate([inner_rhs, outer_rhs], axis=1))
    inner_reach, outer_reach = reach[:, :n], reach[:, n:]

    # the inner region against the outer rows, an unshifted gap; the
    # origin is an inner vertex, so the coordinate planes add exactly 0
    containment = np.minimum(_gap_rows(outer_rhs, inner_reach, 0.0, clip=False).min(axis=0), 0.0)

    # the outer region, shifted down by bits, against the inner rows
    rows = _gap_rows(inner_rhs, outer_reach, bits, clip=True)
    per_rate = _gap_rows(inner_rhs, outer_reach, bits, clip=False).min(axis=0)
    return deltas_ok, containment, rows.min(axis=0), rows.argmin(axis=0), per_rate


def _gain_rows(gains: Sequence[ChannelGains]) -> np.ndarray:
    return np.array([(g.m11, g.m12, g.m21, g.m22) for g in gains], dtype=float)


def _chunks(count: int):
    return (range(start, min(start + _CHUNK, count)) for start in range(0, count, _CHUNK))


def _check_chunk(indices, gains: Sequence[ChannelGains], bits: float, tol: float) -> list[ChannelCheck]:
    try:  # finite gains make a coefficient infinite only through an overflow
        with np.errstate(over="raise"):
            results = [r.tolist() for r in _certify(_gain_rows(gains), bits, tol)]
    except (OverflowError, FloatingPointError):
        raise ValueError("a coefficient of these gains is not finite: a gain is too large") from None
    return [ChannelCheck(*fields) for fields in zip(indices, gains, *results)]


def check_channels(
    gains: Sequence[ChannelGains], bits: float = 1.0, tol: float = MEMBERSHIP_TOL
) -> list[ChannelCheck]:
    """``check_channel`` on every channel, indexed by position, in
    batched passes of the certification core."""
    bits, tol = _nonneg_finite("bits", bits), _nonneg_finite("tol", tol)
    return [check for part in _chunks(len(gains))
            for check in _check_chunk(part, gains[part.start:part.stop], bits, tol)]


def check_channel(
    index: int, gains: ChannelGains, bits: float = 1.0, tol: float = MEMBERSHIP_TOL
) -> ChannelCheck:
    """Run all three certifications on one channel, plus the per-rate
    gap certificate: the certification core at N = 1."""
    bits, tol = _nonneg_finite("bits", bits), _nonneg_finite("tol", tol)
    return _check_chunk([index], [gains], bits, tol)[0]


def _sampled_chunks(config: SweepConfig):
    """The channels of a config, chunk by chunk: each chunk's index range
    and its (N, 4) gains, drawn in one pass."""
    for part in _chunks(config.samples):
        yield part, _sample_rows(config.seed, part, config.mag_min, config.mag_max)


def run_gap_sweep(config: SweepConfig) -> SweepReport:
    """Sample, certify chunk by chunk, and reduce in index order."""
    failed: list[int] = []
    worst = None   # (slack, index, constraint, gains row), the first channel of least slack
    for part, gains in _sampled_chunks(config):
        deltas_ok, containment, gap, constraint, _ = _certify(gains, config.bits, config.tol)
        passed = _passed(deltas_ok, containment, gap, config.tol)
        failed.extend((part.start + np.flatnonzero(~passed)).tolist())
        k = int(gap.argmin())
        if worst is None or gap[k] < worst[0]:
            worst = (float(gap[k]), part.start + k, int(constraint[k]), gains[k])
    worst_slack, worst_index, worst_constraint, worst_gains = worst
    return SweepReport(
        config=config,
        pass_count=config.samples - len(failed),
        fail_count=len(failed),
        worst_index=worst_index,
        worst_gains=ChannelGains(*worst_gains.tolist()),
        worst_slack=worst_slack,
        worst_constraint=worst_constraint,
        failed_indices=tuple(failed),
    )
