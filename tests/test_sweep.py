import itertools
from fractions import Fraction

import numpy as np
import pytest

from icci.bounds import deltas_within_limits, gap_deltas, inner_coeffs, outer_coeffs
from icci.channel import ChannelGains
from icci.region import (
    BOUND_PATTERNS,
    _plane_solver,
    build_inner,
    build_outer,
    containment_slack,
    vertices,
    within_bits_slack,
    within_bits_unclipped_slack,
)
from icci.sweep import (
    SweepConfig,
    _certify,
    _gain_rows,
    check_channel,
    check_channels,
    run_gap_sweep,
    sample_gains,
)

from conftest import seeded_channels

# The batched core's slacks agree with the region API within this bound.
# Where they do not, the region API is off: its vertices pass a 1e-9
# feasibility filter and a 1e-8 deduplication, and on wide-range channels
# that keeps points outside the region or merges distinct vertices.  The
# core is then compared with exact rational arithmetic instead.
SLACK_BOUND = 1e-11
# channels at the edges of the accepted envelope: exact zeros, 1e+-6, and
# for the cross gains the m = 1 kink of power_split (1 and the next float)
EDGE_DIRECT = (0.0, 1e-6, 1e6)
EDGE_CROSS = (0.0, 1e-6, 1.0, float(np.nextafter(1.0, 2.0)), 1e6)
EDGE_CHANNELS = [ChannelGains(m11, m12, m21, m22)
                 for m11, m22 in itertools.product(EDGE_DIRECT, repeat=2)
                 for m12, m21 in itertools.product(EDGE_CROSS, repeat=2)]
# acceptance channels (seed 42, gains 1e-3..1e3, 1 bit) whose two lowest
# clipped-shift row slacks tie, exactly or within two ulps
TIE_CHANNELS = (290, 5448, 5647, 6493, 9514)


class TestSampling:
    def test_deterministic_per_index(self):
        assert sample_gains(42, 7) == sample_gains(42, 7)
        assert sample_gains(42, 7) != sample_gains(42, 8)
        assert sample_gains(42, 7) != sample_gains(43, 7)

    def test_range_respected(self):
        for i in range(200):
            g = sample_gains(0, i, mag_min=1e-3, mag_max=1e3)
            for v in (g.m11, g.m12, g.m21, g.m22):
                assert 1e-3 <= v <= 1e3

    def test_narrow_range(self):
        g = sample_gains(1, 0, mag_min=2.0, mag_max=2.0)
        assert g == ChannelGains(2, 2, 2, 2)


class TestCheckChannel:
    def test_zero_channel_passes(self):
        check = check_channel(0, ChannelGains(0, 0, 0, 0), bits=1.0)
        assert check.deltas_ok
        assert check.containment_slack >= -1e-9
        assert check.gap_slack >= -1e-9
        assert check.passed(1e-9)

    def test_zero_budget_fails_unit_channel(self):
        check = check_channel(0, ChannelGains(1, 1, 1, 1), bits=0.0)
        assert not check.passed(1e-9)
        assert check.gap_slack < 0
        assert 0 <= check.gap_constraint < 13


    def test_per_rate_slack_matches_region_certificate(self):
        gains = sample_gains(42, 9)
        inner = build_inner(inner_coeffs(gains))
        outer = build_outer(outer_coeffs(gains))
        check = check_channel(9, gains, bits=1.0)
        assert check.per_rate_gap_slack == within_bits_unclipped_slack(inner, outer, 1.0).slack
        assert check.gap_slack == within_bits_slack(inner, outer, 1.0).slack
        assert check.gap_slack < 0 <= check.per_rate_gap_slack
        assert not check.passed(1e-9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(samples=0)
        with pytest.raises(ValueError):
            SweepConfig(seed=-1)
        with pytest.raises(ValueError):
            SweepConfig(mag_min=2.0, mag_max=1.0)
        with pytest.raises(ValueError):
            SweepConfig(mag_min=0.0)
        with pytest.raises(ValueError):
            SweepConfig(bits=-1.0)

    def test_dict_round_trip(self):
        cfg = SweepConfig(samples=5, seed=9, bits=2.0)
        d = cfg.as_dict()
        assert d["samples"] == 5 and d["seed"] == 9 and d["bits"] == 2.0


class TestSweep:
    def test_two_bit_budget_all_pass(self):
        report = run_gap_sweep(SweepConfig(samples=50, seed=3, bits=2.0))
        assert report.pass_count == 50
        assert report.fail_count == 0
        assert report.failed_indices == ()
        assert report.pass_count + report.fail_count == report.config.samples

    def test_zero_budget_reports_failures(self):
        report = run_gap_sweep(SweepConfig(samples=20, seed=3, bits=0.0))
        assert report.fail_count > 0
        assert len(report.failed_indices) == report.fail_count
        assert report.worst_slack < 0
        assert report.worst_index in report.failed_indices
        assert isinstance(report.worst_gains, ChannelGains)


def exact_certificates(gains: ChannelGains, bits: float) -> tuple:
    """(containment, clipped gap slack, its binding row, per-rate slack) in
    exact rational arithmetic: every plane triple solved exactly and its
    solution kept only if exactly feasible, so no tolerance is involved.
    The binding row is the lowest row attaining the minimum."""
    c, triples, adj, det = _plane_solver(BOUND_PATTERNS)
    rows = [tuple(int(v) for v in row) for row in c]
    bits = Fraction(bits)

    def dot(row, v):
        return sum(ck * vk for ck, vk in zip(row, v))

    def exact_vertices(region):
        rhs = [Fraction(r) for r in region.rhs_vector()]
        offsets = rhs + [Fraction(0)] * 3
        found = set()
        for t, a, d in zip(triples, adj.astype(int), det.astype(int)):
            v = tuple(sum(int(a[k, j]) * offsets[t[j]] for j in range(3)) / int(d) for k in range(3))
            if min(v) >= 0 and all(dot(row, v) <= r for row, r in zip(rows, rhs)):
                found.add(v)
        return rhs, found

    inner_rhs, inner_v = exact_vertices(build_inner(inner_coeffs(gains)))
    outer_rhs, outer_v = exact_vertices(build_outer(outer_coeffs(gains)))
    containment = min(min(min(r - dot(row, v) for row, r in zip(rows, outer_rhs)), min(v)) for v in inner_v)
    gap, row = min((r - dot(c_h, [max(vk - bits, 0) for vk in v]), h)
                   for v in outer_v for h, (c_h, r) in enumerate(zip(rows, inner_rhs)))
    per_rate = min(r - dot(c_h, [vk - bits for vk in v]) for v in outer_v for c_h, r in zip(rows, inner_rhs))
    return float(containment), float(gap), row, float(per_rate)


def assert_core_matches_region_api(gains: list, bits: float) -> None:
    for g, check in zip(gains, check_channels(gains, bits=bits)):
        inner = build_inner(inner_coeffs(g))
        outer = build_outer(outer_coeffs(g))
        outer_pts = vertices(outer)
        cert = within_bits_slack(inner, outer, bits, target_vertices=outer_pts)
        expected = (
            float(containment_slack(outer, vertices(inner)).min()),
            cert.slack,
            within_bits_unclipped_slack(inner, outer, bits, target_vertices=outer_pts).slack,
        )
        got = (check.containment_slack, check.gap_slack, check.per_rate_gap_slack)
        assert check.deltas_ok == deltas_within_limits(gap_deltas(g)), g
        if max(abs(a - b) for a, b in zip(got, expected)) <= SLACK_BOUND:
            # the binding row is the region API's, or ties with it
            shifted = np.maximum(outer_pts - bits, 0.0)
            row_slack = (inner.rhs_vector() - shifted @ inner.coefficient_matrix().T).min(axis=0)
            assert row_slack[check.gap_constraint] - cert.slack <= SLACK_BOUND, g
        else:
            containment, gap, row, per_rate = exact_certificates(g, bits)
            assert got == pytest.approx((containment, gap, per_rate), abs=SLACK_BOUND), g
            assert check.gap_constraint == row, g


class TestCertificationCore:
    def test_bitwise_the_same_at_every_chunk_split(self):
        gains = seeded_channels(42, 40) + EDGE_CHANNELS[::23]
        rows = _gain_rows(gains)
        whole = _certify(rows, 1.0, 1e-9)
        for size in (1, 16, 50):
            parts = [_certify(rows[s:s + size], 1.0, 1e-9) for s in range(0, len(rows), size)]
            for got, want in zip(map(np.concatenate, zip(*parts)), whole):
                assert got.tobytes() == want.tobytes(), size
        singles = [check_channel(i, g, bits=1.0) for i, g in enumerate(gains)]
        for field, want in zip(("deltas_ok", "containment_slack", "gap_slack", "gap_constraint",
                                "per_rate_gap_slack"), whole):
            got = np.array([getattr(c, field) for c in singles], dtype=want.dtype)
            assert got.tobytes() == want.tobytes(), field

    def test_sweep_report_matches_the_channel_checks(self):
        config = SweepConfig(samples=50, seed=42)
        report = run_gap_sweep(config)
        checks = check_channels([sample_gains(42, i) for i in range(50)], bits=1.0)
        worst = min(checks, key=lambda c: c.gap_slack)
        assert report.failed_indices == tuple(c.index for c in checks if not c.passed())
        assert (report.worst_index, report.worst_slack, report.worst_constraint) == (
            worst.index, worst.gap_slack, worst.gap_constraint)
        assert report.worst_gains == worst.gains

    def test_matches_region_api_on_seeded_channels(self):
        assert_core_matches_region_api(seeded_channels(42, 100), bits=1.0)

    def test_matches_region_api_over_the_wide_envelope(self):
        # index 139 is a channel where the region API is off
        assert_core_matches_region_api(seeded_channels(42, 200, 1e-6, 1e6), bits=2.0)

    def test_matches_region_api_at_the_edges(self):
        assert_core_matches_region_api(EDGE_CHANNELS, bits=1.0)

    def test_binding_row_is_the_lowest_row_attaining_the_minimum(self):
        gains = [sample_gains(42, i) for i in TIE_CHANNELS]
        for g, check in zip(gains, check_channels(gains, bits=1.0)):
            inner = build_inner(inner_coeffs(g))
            shifted = np.maximum(vertices(build_outer(outer_coeffs(g))) - 1.0, 0.0)
            row_slack = (inner.rhs_vector() - shifted @ inner.coefficient_matrix().T).min(axis=0)
            least = row_slack.min()
            assert np.count_nonzero(row_slack - least <= 2 * np.spacing(abs(least))) >= 2, g
            assert check.gap_constraint == np.flatnonzero(row_slack == least)[0], g
            assert check.gap_slack == least, g

    def test_rejects_a_bad_budget(self):
        with pytest.raises(ValueError):
            check_channels([ChannelGains(1, 1, 1, 1)], bits=-1.0)
        with pytest.raises(ValueError):
            check_channel(0, ChannelGains(1, 1, 1, 1), bits=float("nan"))
