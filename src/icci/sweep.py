"""Randomized certification sweep.

Channels are drawn with log-uniform link magnitudes from keyed Philox
substreams, so sample i of a sweep depends only on (seed, i).  Each
channel is rebuilt into its two bound families and checked three ways:
the per-coefficient gap limits, containment of the achievable region's
vertices in the converse region, and the clipped-shift bit-gap
certificate.  The per-rate bit-gap certificate is computed alongside,
from the same converse vertices, and carried in each channel's result
without entering its verdict.  Channels are checked one after another in
one thread and reduced in sample-index order, so a config always gives
the same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import deltas_within_limits, gap_deltas, inner_coeffs, outer_coeffs
from .channel import ChannelGains
from .region import (
    MEMBERSHIP_TOL,
    build_inner,
    build_outer,
    containment_slack,
    vertices,
    within_bits_slack,
    within_bits_unclipped_slack,
)

__all__ = [
    "SweepConfig",
    "ChannelCheck",
    "SweepReport",
    "sample_gains",
    "check_channel",
    "run_gap_sweep",
]

MAG_LIMIT = 1e6  # validated operating envelope for link magnitudes


@dataclass(frozen=True)
class SweepConfig:
    samples: int = 100
    seed: int = 0
    mag_min: float = 1e-3
    mag_max: float = 1e3
    bits: float = 1.0
    tol: float = MEMBERSHIP_TOL

    def __post_init__(self) -> None:
        if not (isinstance(self.samples, int) and self.samples >= 1):
            raise ValueError(f"samples must be a positive int, got {self.samples!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative int, got {self.seed!r}")
        if not (0 < self.mag_min <= self.mag_max <= MAG_LIMIT):
            raise ValueError(
                f"need 0 < mag_min <= mag_max <= {MAG_LIMIT:g}, "
                f"got [{self.mag_min!r}, {self.mag_max!r}]"
            )
        if not (math.isfinite(self.bits) and self.bits >= 0):
            raise ValueError(f"bits must be finite and >= 0, got {self.bits!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "mag_min": self.mag_min,
            "mag_max": self.mag_max,
            "bits": self.bits,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class ChannelCheck:
    """Outcome of the three checks for one sampled channel.

    gap_slack and gap_constraint come from the clipped-shift certificate
    (``within_bits_slack``); per_rate_gap_slack from the per-rate one
    (``within_bits_unclipped_slack``) at the same budget.  ``passed()``
    uses the clipped slack, so the verdicts that ``run_gap_sweep`` and
    ``icci sweep`` report keep the meaning and the values they have
    always had; the per-rate slack is what acceptance criterion 1
    certifies.
    """

    index: int
    gains: ChannelGains
    deltas_ok: bool
    containment_slack: float
    gap_slack: float
    gap_constraint: int
    per_rate_gap_slack: float

    def passed(self, tol: float = MEMBERSHIP_TOL) -> bool:
        return (
            self.deltas_ok
            and self.containment_slack >= -tol
            and self.gap_slack >= -tol
        )


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


def sample_gains(seed: int, index: int, mag_min: float = 1e-3, mag_max: float = 1e3) -> ChannelGains:
    """Channel i of stream `seed`: four log-uniform magnitudes from a
    Philox generator keyed by (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.uniform(size=4)
    mags = mag_min * (mag_max / mag_min) ** u
    return ChannelGains(m11=float(mags[0]), m12=float(mags[1]),
                        m21=float(mags[2]), m22=float(mags[3]))


def check_channel(
    index: int, gains: ChannelGains, bits: float = 1.0, tol: float = MEMBERSHIP_TOL
) -> ChannelCheck:
    """Run all three certifications on one channel, plus the per-rate
    gap certificate; each region is enumerated once."""
    inner = build_inner(inner_coeffs(gains))
    outer = build_outer(outer_coeffs(gains))
    deltas_ok = deltas_within_limits(gap_deltas(gains), tol=tol)
    inner_pts = vertices(inner)
    cont_slack = float(containment_slack(outer, inner_pts).min())
    outer_pts = vertices(outer)
    cert = within_bits_slack(cover=inner, target=outer, bits=bits, target_vertices=outer_pts)
    per_rate = within_bits_unclipped_slack(cover=inner, target=outer, bits=bits, target_vertices=outer_pts)
    return ChannelCheck(
        index=index,
        gains=gains,
        deltas_ok=deltas_ok,
        containment_slack=cont_slack,
        gap_slack=cert.slack,
        gap_constraint=cert.halfspace_index,
        per_rate_gap_slack=per_rate.slack,
    )


def run_gap_sweep(config: SweepConfig) -> SweepReport:
    """Sample, check, and reduce in index order."""
    checks = [
        check_channel(i, sample_gains(config.seed, i, config.mag_min, config.mag_max),
                      bits=config.bits, tol=config.tol)
        for i in range(config.samples)
    ]

    pass_count = 0
    failed: list[int] = []
    worst: ChannelCheck | None = None
    for check in checks:
        if check.passed(config.tol):
            pass_count += 1
        else:
            failed.append(check.index)
        if worst is None or check.gap_slack < worst.gap_slack:
            worst = check
    assert worst is not None
    return SweepReport(
        config=config,
        pass_count=pass_count,
        fail_count=len(failed),
        worst_index=worst.index,
        worst_gains=worst.gains,
        worst_slack=worst.gap_slack,
        worst_constraint=worst.gap_constraint,
        failed_indices=tuple(failed),
    )
