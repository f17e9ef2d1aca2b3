"""Randomized certification sweep.

Channels are drawn with log-uniform link magnitudes from keyed Philox
substreams, so sample i of a sweep depends only on (seed, i).  The
Philox4x64-10 blocks are computed here, every channel of a pass at once
in lanes of packed Python ints, with the bits of numpy's keyed
generators but without ``numpy.random`` and without shared state; a
sweep draws blocks of up to 1024 channels in one pass each, and
``sample_gains`` is the same draw at N = 1.

Each channel is checked three ways: the per-coefficient gap limits,
containment of the achievable region in the converse region, and the
clipped-shift bit-gap certificate.  The per-rate bit-gap certificate
is computed alongside, from the same converse maxima, and carried in
each channel's result without entering its verdict.

All of it runs in one array-first core over an (N, 4) gains array, in
three stages, each once over a whole sampled block.  The coefficient
stage computes both coefficient families as column expressions, the
delta limits and both regions' right-hand sides.  The reach stage takes
the maxima that every certificate needs, which ``icci.region`` takes by
LP duality from one table of dual multipliers fixed at import, with no
vertex enumeration, in column passes of its own.  The row reduction
turns the maxima into each channel's slacks and binding row.  The
maxima and the row reduction are those of ``icci.region``, whose
``within_bits_slack`` and ``within_bits_unclipped_slack`` are the same
path at N = 1, so a channel's certificates there and here are the same
bits; only displayed vertices and a certificate's witness are
enumerated.  A sweep certifies block by block and reduces the blocks in
sample-index order; ``check_channels`` runs the same blocks, and
``check_channel`` is the core at N = 1.  The core only computes
elementwise or within one channel, so every channel's results are
bit-identical whatever the block size, and a config always gives the
same report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import coeff_rows, delta_rows_within_limits, gap_deltas
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
# Channels per pass of the sampler and of the core: 32 KiB of gains.
_BLOCK = 1024


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
    lowest-numbered inner row attaining gap_slack.  ``passed(tol)`` uses
    the clipped slack, as the sweep's verdicts always have (criterion 1
    certifies the per-rate one), and re-judges only the slacks at tol;
    deltas_ok keeps the check's own tol: made at tol=0, channel 2 of seed
    42 at 2 bits fails ``passed(1e-9)`` (G2 is 3.6e-15 over budget).
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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC 2011): the round multipliers and the Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = 2**64 - 1
# Over the _BLOCK 128-bit lanes of a packed int, 1 in every lane and i in
# lane i; a pass of N lanes masks off the first N of each.
_ONES = int.from_bytes((1).to_bytes(16, "little") * _BLOCK, "little")
_RAMP = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(_BLOCK)), "little")


def _sample_rows(seed: int, start: int, count: int, mag_min: float, mag_max: float) -> np.ndarray:
    """The N = count channels start, ..., start + N - 1 of stream ``seed``
    as an (N, 4) array of gains (m11, m12, m21, m22).

    Channel i is four log-uniform magnitudes drawn from the uniforms of
    ``np.random.Generator(np.random.Philox(key=[seed, i])).uniform(size=4)``:
    the first Philox4x64-10 block at key (seed, i), whose counter is
    (1, 0, 0, 0) because numpy steps the counter before its first block,
    each word formed into a double as ``Generator.uniform`` forms it,
    (raw >> 11) * 2**-53.  The block is computed here, with no state and
    no ``numpy.random``: all N channels in one pass, each 64-bit word of
    the block packed into a 128-bit lane of one Python int per word, so
    a lane's 64 x 64-bit product fits its own lane and one int multiply
    is every lane's mulhilo.  Round 1 at that counter is (k0, 0, k1, M0).
    The power of mag_min * (mag_max / mag_min) ** u is libm's, in Python
    floats: numpy picks an SVML kernel on AVX-512 hosts at run time, which
    differs on 5.3 % of these uniforms (``coeff_rows`` says why it matters).
    The key words are one packed int too, start times the lane ones plus
    the lane-index ramp, so start + N must not exceed 2**64 (a lane's key
    word carries into its high word otherwise); a pass packs at most
    ``_BLOCK`` lanes, and a larger N is drawn in passes of that many.
    """
    if start + count > 2**64:
        raise ValueError(f"channels {start}..{start + count - 1} pass the last key word {_WORD}")
    if count > _BLOCK:
        return np.concatenate([_sample_rows(seed, first, min(_BLOCK, start + count - first), mag_min, mag_max)
                               for first in range(start, start + count, _BLOCK)])
    lanes = (1 << 128 * count) - 1
    ones = _ONES & lanes
    low = ones * _WORD   # the low word of every lane
    k1 = start * ones + (_RAMP & lanes)   # lane i holds the key word start + i
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    x0, x1, x2, x3, k0, w1 = seed * ones, 0, k1, m0 * ones, seed, w1 * ones
    # rounds 2-10: bump the key, then one round; a key word stays below
    # 2**68, inside its lane, and is cut to 64 bits with the high word
    for _ in range(9):
        k0, k1 = k0 + w0, k1 + w1
        p0, p1 = x0 * m0, x2 * m1
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0 * ones) & low, p1 & low, ((p0 >> 64) ^ x3 ^ k1) & low, p0 & low
    # words (x0, x1) then (x2, x3) of each lane, read back in (N, 4) order
    size = 16 * count
    packed = (x0 | x1 << 64).to_bytes(size, "little") + (x2 | x3 << 64).to_bytes(size, "little")
    raw = np.frombuffer(packed, dtype="<u8").reshape(2, count, 2).swapaxes(0, 1).reshape(count, 4)
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    return mag_min * ((mag_max / mag_min) ** u.astype(object)).astype(float)


def sample_gains(seed: int, index: int, mag_min: float = 1e-3, mag_max: float = 1e3) -> ChannelGains:
    """Channel i of stream `seed`: ``_sample_rows`` at N = 1, with the seed,
    the index and the range checked as ``SweepConfig`` checks them."""
    mag_min, mag_max = _mag_range(mag_min, mag_max)
    row = _sample_rows(_key_word("seed", seed), _key_word("index", index), 1, mag_min, mag_max)[0]
    return ChannelGains(*row.tolist())


def _certify(gains: np.ndarray, bits: float, tol: float) -> tuple[np.ndarray, ...]:
    """The certification core for an (N, 4) array of gains (m11, m12,
    m21, m22), N >= 1.

    Returns (N,) arrays: deltas_ok, containment_slack, gap_slack,
    gap_constraint and per_rate_gap_slack, as in ``ChannelCheck``.  Every
    stage runs once over all N channels.  A region's slack against a row
    is rhs - max over the region of c . v, the maximum taken by
    ``_reach``.
    """
    n = len(gains)
    coeffs = coeff_rows(gains)
    deltas_ok = delta_rows_within_limits(coeffs[1] - coeffs[0], tol=tol)
    # both regions of every channel as columns: the inner ones, then the outer
    rhs = bound_rhs(coeffs.swapaxes(0, 1)).reshape(-1, 2 * n)
    reach = _reach(rhs)
    inner_rhs, outer_reach = rhs[:, :n], reach[:, n:]

    # the inner region against the outer rows, an unshifted gap (the origin
    # is an inner vertex, so the coordinate planes add exactly 0)
    containment = _gap_rows(rhs[:, n:], reach[:, :n], 0.0, clip=False).min(axis=0)
    # the outer region, shifted down by bits, against the inner rows: per
    # rate and clipped
    per_rate = _gap_rows(inner_rhs, outer_reach, bits, clip=False).min(axis=0)
    rows = _gap_rows(inner_rhs, outer_reach, bits, clip=True)
    return deltas_ok, np.minimum(containment, 0.0), rows.min(axis=0), rows.argmin(axis=0), per_rate


def _gain_rows(gains: Sequence[ChannelGains]) -> np.ndarray:
    return np.array([(g.m11, g.m12, g.m21, g.m22) for g in gains], dtype=float)


def _blocks(count: int):
    """The index ranges of count channels, ``_BLOCK`` at a time."""
    return (range(start, min(start + _BLOCK, count)) for start in range(0, count, _BLOCK))


def _check_block(indices, gains: Sequence[ChannelGains], bits: float, tol: float) -> list[ChannelCheck]:
    try:  # finite gains make a coefficient infinite only through an overflow
        with np.errstate(over="raise"):
            results = [r.tolist() for r in _certify(_gain_rows(gains), bits, tol)]
    except FloatingPointError:   # refused as the scalar families refuse the first such entry
        for index, g in zip(indices, gains):
            try:
                gap_deltas(g)
            except ValueError as err:
                raise ValueError(f"channel {index}: {err}") from None
        raise
    return [ChannelCheck(*fields) for fields in zip(indices, gains, *results)]


def check_channels(
    gains: Sequence[ChannelGains], bits: float = 1.0, tol: float = MEMBERSHIP_TOL
) -> list[ChannelCheck]:
    """``check_channel`` on every channel, indexed by position, in passes
    of the certification core over blocks of up to ``_BLOCK`` channels,
    as a sweep certifies them; the first entry that overflows is refused
    by index, in the scalar families' words."""
    bits, tol = _nonneg_finite("bits", bits), _nonneg_finite("tol", tol)
    return [check for block in _blocks(len(gains))
            for check in _check_block(block, gains[block.start:block.stop], bits, tol)]


def check_channel(
    index: int, gains: ChannelGains, bits: float = 1.0, tol: float = MEMBERSHIP_TOL
) -> ChannelCheck:
    """Run all three certifications on one channel, plus the per-rate
    gap certificate: the certification core at N = 1."""
    bits, tol = _nonneg_finite("bits", bits), _nonneg_finite("tol", tol)
    return _check_block([index], [gains], bits, tol)[0]


def _sampled_blocks(config: SweepConfig):
    """The channels of a config, block by block: each block's index range
    and its (N, 4) gains, drawn in one pass of the sampler, which costs
    far less per channel at a thousand channels than at 16."""
    for block in _blocks(config.samples):
        yield block, _sample_rows(config.seed, block.start, len(block), config.mag_min, config.mag_max)


def run_gap_sweep(config: SweepConfig) -> SweepReport:
    """Sample, certify block by block, and reduce in index order."""
    failed: list[int] = []
    worst = None   # (slack, index, constraint, gains row), the first channel of least slack
    for block, gains in _sampled_blocks(config):
        deltas_ok, containment, gap, constraint, _ = _certify(gains, config.bits, config.tol)
        passed = _passed(deltas_ok, containment, gap, config.tol)
        failed.extend((block.start + np.flatnonzero(~passed)).tolist())
        k = int(gap.argmin())
        if worst is None or gap[k] < worst[0]:
            worst = (float(gap[k]), block.start + k, int(constraint[k]), gains[k])
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
