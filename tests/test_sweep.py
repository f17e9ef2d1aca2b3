import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import icci
from icci.bounds import coeff_rows, deltas_within_limits, gap_deltas, inner_coeffs, outer_coeffs
from icci.channel import ChannelGains
from icci.region import (
    _BOUND_DISTINCT,
    _CANDIDATE_RTOL,
    _DUAL_DENSE,
    _DUAL_STARTS,
    _OBJECTIVES,
    _REACH_PASS,
    BOUND_PATTERNS,
    _reach,
    bound_rhs,
    build_inner,
    build_outer,
    containment_slack,
    contains,
    vertices,
    within_bits,
    within_bits_slack,
    within_bits_unclipped_slack,
)
from icci.sweep import (
    _BLOCK,
    MAG_LIMIT,
    SweepConfig,
    _certify,
    _gain_rows,
    _sample_rows,
    _sampled_blocks,
    check_channel,
    check_channels,
    run_gap_sweep,
    sample_gains,
)

from conftest import seeded_channels
from test_bounds import PINNED_BITS

# The batched core's slacks agree with the region API, and with exact
# rational arithmetic, within this bound.
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
# acceptance channels whose per-rate slack binds at a vertex on the lesser
# of two parallel rows with different rhs: solving those patterns at any
# rhs but the least moves the slack by 0.04 to 0.14
TWIN_CHANNELS = (1489, 3839, 3848, 3911, 7655)


class TestSampling:
    @pytest.mark.parametrize("seed", [0, 42, 2**63, 2**64 - 1])
    def test_batch_is_the_keyed_generator_formula(self, seed):
        # numpy has no keyed multi-stream draw, so a generator per channel
        # is the independent reference of the packed sampler: over short
        # runs and block edges, in one pass and as a sweep draws its blocks
        uniforms = {}

        def literal(i, lo, hi):
            if i not in uniforms:
                key = np.array([seed, i], dtype=np.uint64)
                uniforms[i] = np.random.Generator(np.random.Philox(key=key)).uniform(size=4)
            return np.array([lo * (hi / lo) ** u for u in uniforms[i].tolist()])   # libm's pow

        blocks = (range(_BLOCK - 1), range(_BLOCK), range(_BLOCK + 1), range(2 * _BLOCK + 1))
        for lo, hi in ((1e-3, 1e3), (1e-6, 1e6), (2.0, 2.0)):
            for indices in (range(1), range(16), range(50), range(15, 33),
                            range(2**64 - 3, 2**64), *blocks):
                want = np.array([literal(i, lo, hi) for i in indices])
                got = _sample_rows(seed, indices.start, len(indices), lo, hi)
                assert got.tobytes() == want.tobytes(), (lo, indices)
                assert sample_gains(seed, indices[-1], lo, hi) == ChannelGains(*want[-1])
            for i in (7, 2**62, 3):
                assert sample_gains(seed, i, lo, hi) == ChannelGains(*literal(i, lo, hi)), (lo, i)
            for indices in blocks:
                config = SweepConfig(samples=len(indices), seed=seed, mag_min=lo, mag_max=hi)
                parts, rows = zip(*_sampled_blocks(config))
                assert list(parts) == [indices[s:s + _BLOCK] for s in range(0, len(indices), _BLOCK)]
                want = np.array([literal(i, lo, hi) for i in indices])
                assert np.concatenate(rows).tobytes() == want.tobytes(), (lo, indices)

    def test_threads_sampling_at_once_draw_the_serial_rows(self):
        # no state is shared: four threads draw at once, with a short
        # switch interval, in calls of a few channels each
        jobs = [(0, range(0, 600)), (42, range(5000, 5600)), (2**63, range(2**62, 2**62 + 600)),
                (2**64 - 1, range(2**64 - 600, 2**64))]
        want = [_sample_rows(seed, indices.start, len(indices), 1e-6, 1e6) for seed, indices in jobs]
        got = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def draw(k):
            seed, indices = jobs[k]
            start.wait()
            got[k] = np.concatenate([_sample_rows(seed, indices.start + s, 3, 1e-6, 1e6)
                                     for s in range(0, len(indices), 3)])

        threads = [threading.Thread(target=draw, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, (rows, serial) in enumerate(zip(got, want)):
            assert rows.tobytes() == serial.tobytes(), jobs[k]

    def test_no_state_carries_from_one_call_to_the_next(self):
        before = sample_gains(42, 7)
        run_gap_sweep(SweepConfig(samples=50, seed=3, mag_min=1e-6, mag_max=1e6))
        assert sample_gains(42, 7) == before

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

    def test_passed_judges_the_deltas_at_the_check_tol(self):
        # as the ChannelCheck docstring and the README say: the G2 delta of
        # this channel is 3.6e-15 over its budget, judged when the check is made
        gains = sample_gains(42, 2)
        assert gap_deltas(gains).g2 - 1.0 == pytest.approx(3.6e-15, rel=0.02)
        loose, strict = (check_channel(2, gains, bits=2.0, tol=tol) for tol in (1e-9, 0.0))
        assert loose.passed(1e-9) and not strict.passed(1e-9)

    @pytest.mark.parametrize("gains", [ChannelGains(1e200, 1, 1, 1), ChannelGains(1, 1e160, 1, 1),
                                       ChannelGains(1e154, 1e154, 1, 1)])
    def test_a_coefficient_past_the_float_range_is_invalid_input(self, gains):
        # as the scalar families reject these gains, so does the core, in
        # their words and naming the entry, with no overflow warning on the way
        message = f"an inner coefficient of {gains} is too large for a float"
        with pytest.raises(ValueError, match=re.escape(message)):
            inner_coeffs(gains)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"channel 7: {message}")):
                check_channel(7, gains)
            with pytest.raises(ValueError, match=re.escape(f"channel 1: {message}")):
                check_channels([ChannelGains(1, 1, 1, 1), gains, ChannelGains(1e300, 1, 1, 1)])
            # past the first chunk, and in the second block: the coefficient
            # stage runs over a whole block, and the first entry is refused
            for count, first, second in ((45, 20, 40), (_BLOCK + 76, _BLOCK + 6, _BLOCK + 66)):
                channels = seeded_channels(42, count)
                channels[first], channels[second] = gains, ChannelGains(1e300, 1, 1, 1)
                with pytest.raises(ValueError, match=re.escape(f"channel {first}: {message}")):
                    check_channels(channels)

    def test_huge_gains_with_finite_coefficients_are_checked(self):
        gains = ChannelGains(1e150, 1e150, 1e150, 1e150)
        check = check_channel(1, gains)
        assert check == check_channels([ChannelGains(1, 1, 1, 1), gains])[1]
        assert math.isfinite(check.gap_slack) and math.isfinite(check.per_rate_gap_slack)

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

    def test_seed_is_one_philox_key_word(self):
        assert SweepConfig(seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError):
            SweepConfig(seed=2**64)

    def test_a_pass_past_the_last_key_word_is_refused(self):
        # lane i's key word is start + i, which has to fit in 64 bits
        assert _sample_rows(0, 2**64 - 1, 1, 1.0, 1.0).shape == (1, 4)
        with pytest.raises(ValueError, match="last key word"):
            _sample_rows(0, 2**64 - 1, 2, 1.0, 1.0)

    def test_sample_gains_checks_its_arguments(self):
        assert sample_gains(2**64 - 1, 2**64 - 1) == ChannelGains(*_sample_rows(2**64 - 1, 2**64 - 1, 1, 1e-3, 1e3)[0])
        bad = [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (0.0, 0), (0, True),
               (0, 0, 0.0, 1.0), (0, 0, 10.0, 1.0), (0, 0, 1.0, 2 * MAG_LIMIT), (0, 0, math.nan, 1.0)]
        for args in bad:
            with pytest.raises(ValueError):
                sample_gains(*args)
                pytest.fail(repr(args))

    def test_integer_arguments_share_one_int_rule(self):
        # Python or numpy ints pass and are stored as Python ints; bools and floats do not
        want = SweepConfig(samples=5, seed=7)
        for kind in (np.int64, np.uint64, np.int32):
            cfg = SweepConfig(samples=kind(5), seed=kind(7))
            assert cfg == want and type(cfg.samples) is int and type(cfg.seed) is int
            assert cfg.as_dict() == want.as_dict()
            assert sample_gains(kind(7), kind(3)) == sample_gains(7, 3)
        assert SweepConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
        for bad in (True, np.bool_(True), 3.0, np.float64(3.0), "3", None):
            for call in (lambda b: SweepConfig(samples=b), lambda b: SweepConfig(seed=b),
                         lambda b: sample_gains(b, 0), lambda b: sample_gains(0, b)):
                with pytest.raises(ValueError, match="must be an int"):
                    call(bad)

    def test_dict_round_trip(self):
        cfg = SweepConfig(samples=5, seed=9, bits=2.0)
        d = cfg.as_dict()
        assert d["samples"] == 5 and d["seed"] == 9 and d["bits"] == 2.0
        assert list(d) == ["samples", "seed", "mag_min", "mag_max", "bits", "tol"]


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


# the 13 rows, then the coordinate planes r0 = 0, r1 = 0, r2 = 0
_PLANES = list(BOUND_PATTERNS) + [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def _dot(row, v):
    return row[0] * v[0] + row[1] * v[1] + row[2] * v[2]


def _det3(m):
    return _dot(m[0], [m[1][1] * m[2][2] - m[1][2] * m[2][1],
                       m[1][2] * m[2][0] - m[1][0] * m[2][2],
                       m[1][0] * m[2][1] - m[1][1] * m[2][0]])


def _cofactor_columns(m):
    return [[(m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
              - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]) for i in range(3)] for j in range(3)]


# every nonsingular triple of the 16 planes, with its determinant and
# cofactor columns: Cramer's rule gives v_j = b . C_j / det
_SYSTEMS = [(t, _det3(m), _cofactor_columns(m))
            for t in itertools.combinations(range(len(_PLANES)), 3)
            for m in [[_PLANES[i] for i in t]] if _det3(m)]


def exact_vertices(region) -> tuple[list, set]:
    """(rhs, vertices) of a region of the bound families' shape in exact
    rational arithmetic: every triple of its 16 planes solved by Cramer's
    rule and the solution kept only if exactly feasible, so no tolerance
    and none of the enumerator's reasoning is involved."""
    rhs = [Fraction(r) for r in region.rhs_vector()]
    # a float's denominator is a power of two, so the largest is a common
    # one and Cramer's rule runs on integers: v = num / (d * scale)
    scale = max(r.denominator for r in rhs)
    offsets = [int(r * scale) for r in rhs] + [0] * 3
    found = set()
    for t, d, cof in _SYSTEMS:
        b = [offsets[i] for i in t]
        num = [_dot(b, column) for column in cof]
        if d < 0:
            d, num = -d, [-n for n in num]
        if min(num) >= 0 and all(_dot(row, num) <= r * d for row, r in zip(BOUND_PATTERNS, offsets)):
            found.add(tuple(Fraction(n, d * scale) for n in num))
    return rhs, found


def exact_certificates(gains: ChannelGains, bits: float) -> tuple:
    """(containment, clipped gap slack, its binding row, per-rate slack) on
    the ``exact_vertices`` of both regions.  The binding row is the lowest
    row attaining the minimum."""
    bits = Fraction(bits)
    inner_rhs, inner_v = exact_vertices(build_inner(inner_coeffs(gains)))
    outer_rhs, outer_v = exact_vertices(build_outer(outer_coeffs(gains)))
    containment = min(min(min(r - _dot(row, v) for row, r in zip(BOUND_PATTERNS, outer_rhs)), min(v)) for v in inner_v)
    gap, row = min((r - _dot(c_h, [max(vk - bits, 0) for vk in v]), h)
                   for v in outer_v for h, (c_h, r) in enumerate(zip(BOUND_PATTERNS, inner_rhs)))
    per_rate = min(r - _dot(c_h, [vk - bits for vk in v]) for v in outer_v for c_h, r in zip(BOUND_PATTERNS, inner_rhs))
    return float(containment), float(gap), row, float(per_rate)


def assert_core_matches_region_api(gains: list, bits: float) -> None:
    for g, check in zip(gains, check_channels(gains, bits=bits)):
        inner = build_inner(inner_coeffs(g))
        outer = build_outer(outer_coeffs(g))
        # the reference: the displayed vertices, every shifted vertex against every inner row
        outer_pts = vertices(outer)
        rhs, c = inner.rhs_vector(), inner.coefficient_matrix()
        clipped = (rhs - np.maximum(outer_pts - bits, 0.0) @ c.T).min(axis=0)
        per_rate = (rhs - (outer_pts - bits) @ c.T).min(axis=0)
        expected = (float(containment_slack(outer, vertices(inner)).min()), clipped.min(), per_rate.min())
        got = (check.containment_slack, check.gap_slack, check.per_rate_gap_slack)
        assert check.deltas_ok == deltas_within_limits(gap_deltas(g)), g
        assert got == pytest.approx(expected, abs=SLACK_BOUND), g
        # the binding row is the reference's, or ties with it
        assert clipped[check.gap_constraint] - clipped.min() <= SLACK_BOUND, g
        # and the region API is the core at N = 1, bit for bit
        cert = within_bits_slack(inner, outer, bits)
        assert (cert.slack, cert.halfspace_index) == (check.gap_slack, check.gap_constraint), g
        assert within_bits_unclipped_slack(inner, outer, bits).slack == check.per_rate_gap_slack, g


class TestCertificationCore:
    def test_bitwise_the_same_at_every_chunk_split(self):
        # 1040 channels, past a block, the edge channels mixed in: a whole
        # _certify runs every stage once over all of them, and _reach takes
        # their 2080 columns in passes, so it is also compared with chunks
        # certified one by one, whose inner and outer columns _reach sees
        # at other offsets and in other passes
        seeded = seeded_channels(42, 1040 - len(EDGE_CHANNELS))
        gains = [g for pair in zip(seeded, EDGE_CHANNELS) for g in pair] + seeded[len(EDGE_CHANNELS):]
        rows = _gain_rows(gains)
        whole = _certify(rows, 1.0, 1e-9)
        for size in (1, _REACH_PASS // 2, _REACH_PASS // 2 + 1, 50, _BLOCK):
            parts = [_certify(rows[s:s + size], 1.0, 1e-9) for s in range(0, len(rows), size)]
            for got, want in zip(map(np.concatenate, zip(*parts)), whole):
                assert got.tobytes() == want.tobytes(), size
        singles = [check_channel(i, g, bits=1.0) for i, g in enumerate(gains)]
        for field, want in zip(("deltas_ok", "containment_slack", "gap_slack", "gap_constraint",
                                "per_rate_gap_slack"), whole):
            got = np.array([getattr(c, field) for c in singles], dtype=want.dtype)
            assert got.tobytes() == want.tobytes(), field

    def test_reach_takes_each_block_in_one_call_in_column_order(self, monkeypatch):
        # the core hands _reach each block's whole (13, 2N) rhs, inner
        # columns then outer, and _reach makes its own passes: 1041
        # channels are a block of 1024 and one of 17
        rows = _gain_rows(seeded_channels(7, 1041))
        seen = []

        def recorder(rhs):
            seen.append(rhs.copy())
            return _reach(rhs)

        monkeypatch.setattr(icci.sweep, "_reach", recorder)
        for block in (rows[:_BLOCK], rows[_BLOCK:]):
            _certify(block, 2.0, 1e-9)
        assert [part.shape for part in seen] == [(13, 2 * _BLOCK), (13, 34)]
        for part, block in zip(seen, (rows[:_BLOCK], rows[_BLOCK:])):
            assert part.tobytes() == bound_rhs(coeff_rows(block).swapaxes(0, 1)).reshape(13, -1).tobytes()

    def test_reach_passes_bound_its_temporaries(self):
        # a pass holds a few (232, _REACH_PASS) arrays however many columns
        # come in, so on a block's 2048 columns the peak, its input and
        # output included, stays under half of one (232, 2048) array
        rhs = bound_rhs(coeff_rows(_gain_rows(seeded_channels(7, _BLOCK))).swapaxes(0, 1)).reshape(13, -1)
        tracemalloc.start()
        try:
            _reach(rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 232 * rhs.shape[1] * 8 / 2, peak

    def test_sweep_report_matches_the_channel_checks(self):
        # the sweep reduces once per block: over one channel, part of a
        # block, and blocks ending in a short _reach pass or in one channel, its
        # report is what the channels checked one at a time give
        for samples in (1, 50, _BLOCK + 17, 2 * _BLOCK + 1):
            report = run_gap_sweep(SweepConfig(samples=samples, seed=42))
            checks = [check_channel(i, sample_gains(42, i), bits=1.0) for i in range(samples)]
            worst = min(checks, key=lambda c: c.gap_slack)
            assert report.failed_indices == tuple(c.index for c in checks if not c.passed()), samples
            assert (report.worst_index, report.worst_slack, report.worst_constraint) == (
                worst.index, worst.gap_slack, worst.gap_constraint), samples
            assert report.worst_gains == worst.gains, samples

    def test_matches_region_api_on_seeded_channels(self):
        assert_core_matches_region_api(seeded_channels(42, 100), bits=1.0)

    def test_matches_region_api_over_the_wide_envelope(self):
        # at index 139, filtering and deduplicating vertices at absolute
        # tolerances (1e-9, 1e-8) puts the region API's per-rate slack 2.3e-9 off
        assert_core_matches_region_api(seeded_channels(42, 200, 1e-6, 1e6), bits=2.0)

    def test_matches_region_api_where_parallel_rows_differ(self):
        assert_core_matches_region_api([sample_gains(42, i) for i in TWIN_CHANNELS], bits=1.0)

    def test_matches_exact_arithmetic_where_parallel_rows_tie(self):
        # symmetric channels: rows 5 and 6 (one pattern) have equal rhs, as
        # have rows 7 and 8, so the core's least rhs is either row's
        gains = [ChannelGains(1, 2, 2, 1), ChannelGains(3, 0.5, 0.5, 3)]
        for g, check in zip(gains, check_channels(gains, bits=1.0)):
            for region in (build_inner(inner_coeffs(g)), build_outer(outer_coeffs(g))):
                rhs = region.rhs_vector()
                assert rhs[5] == rhs[6] and rhs[7] == rhs[8], g
            containment, gap, row, per_rate = exact_certificates(g, 1.0)
            got = (check.containment_slack, check.gap_slack, check.per_rate_gap_slack)
            assert got == pytest.approx((containment, gap, per_rate), abs=SLACK_BOUND), g
            assert check.gap_constraint == row, g

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
            assert within_bits_slack(inner, build_outer(outer_coeffs(g)), 1.0).halfspace_index == check.gap_constraint, g

    def test_dual_table_is_the_exact_maximum(self):
        # every objective's table minimum is its maximum over the exact
        # rational vertices, on both regions of every channel here
        gains = (seeded_channels(42, 50) + EDGE_CHANNELS + [sample_gains(42, i) for i in TWIN_CHANNELS + TIE_CHANNELS]
                 + [ChannelGains(1, 2, 2, 1), ChannelGains(3, 0.5, 0.5, 3)])
        regions = [build(family(g)) for g in gains for build, family in ((build_inner, inner_coeffs),
                                                                          (build_outer, outer_coeffs))]
        reach = _reach(np.stack([region.rhs_vector() for region in regions], axis=1))
        assert reach.shape == (len(_OBJECTIVES), len(regions))
        for column, region in zip(reach.T, regions):
            points = exact_vertices(region)[1]
            exact = [float(max(_dot(w, v) for v in points)) for w in _OBJECTIVES]
            assert column.tolist() == pytest.approx(exact, rel=0, abs=SLACK_BOUND), region

    def test_dual_table_has_every_basic_solution(self):
        # the dual basic solutions {y >= 0 : A^T y >= w} of every objective
        # in exact arithmetic, over the 10 distinct patterns and the
        # coordinate planes: the table keeps each distinct one once, in
        # triple order, each entry the correctly rounded exact one
        planes = list(_BOUND_DISTINCT) + [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        counts = []
        for w, run in zip(_OBJECTIVES, np.split(_DUAL_DENSE, _DUAL_STARTS[1:], axis=1)):
            found = {}
            for t in itertools.combinations(range(len(planes)), 3):
                m = [planes[i] for i in t]
                d = _det3(m)
                if d == 0:
                    continue
                # y solves M^T y = w, by Cramer's rule on the transpose
                mt = [list(col) for col in zip(*m)]
                y = [Fraction(_det3([[w[i] if k == j else mt[i][k] for k in range(3)] for i in range(3)]), d)
                     for j in range(3)]
                if all(yj >= 0 if p < len(_BOUND_DISTINCT) else yj <= 0 for p, yj in zip(t, y)):
                    column = [0.0] * len(_BOUND_DISTINCT)
                    for p, yj in zip(t, y):
                        if p < len(_BOUND_DISTINCT):
                            column[p] = float(yj)
                    found[tuple(column)] = None
            counts.append(len(found))
            assert run.T.tolist() == [list(c) for c in found], w
        assert counts == np.diff(list(_DUAL_STARTS) + [232]).tolist()
        assert sum(counts) == 232 and len(_OBJECTIVES) == 15

    def test_rejects_a_bad_budget(self):
        with pytest.raises(ValueError):
            check_channels([ChannelGains(1, 1, 1, 1)], bits=-1.0)
        with pytest.raises(ValueError):
            check_channel(0, ChannelGains(1, 1, 1, 1), bits=float("nan"))


@pytest.mark.parametrize("bits", [sys.float_info.max / 4, math.nextafter(sys.float_info.max / 4, math.inf),
                                  4.5e307, 1e308, sys.float_info.max])
def test_a_finite_budget_near_the_largest_float_certifies(bits):
    # bits * sum(c) overflows to inf on the heavier rows past a quarter of
    # the largest float (sum(c) <= 4), which only lowers the shifted
    # target: every entry passes with no warning, the clipped slack is the
    # inner region's least rhs (row 3), as at any budget past every
    # vertex, and the per-rate slack rounds to bits
    g = ChannelGains(10, 3, 2, 5)
    inner, outer = build_inner(inner_coeffs(g)), build_outer(outer_coeffs(g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = check_channel(0, g, bits=bits)
        checks = check_channels([g] * 3, bits=bits)
        clipped = within_bits_slack(inner, outer, bits)
        unclipped = within_bits_unclipped_slack(inner, outer, bits)
        witnesses = clipped.vertex, unclipped.vertex
        report = run_gap_sweep(SweepConfig(samples=60, seed=3, bits=bits))
    far = check_channel(0, g, bits=1e4)
    assert check.passed() and checks == [dataclasses.replace(check, index=i) for i in range(3)]
    assert (check.gap_slack, check.gap_constraint) == (far.gap_slack, far.gap_constraint) == (3.7548875021634687, 3)
    assert check.gap_slack == inner.rhs_vector().min() == inner.rhs_vector()[3]
    assert (clipped.slack, clipped.halfspace_index) == (check.gap_slack, check.gap_constraint)
    assert unclipped.slack == check.per_rate_gap_slack == bits
    assert all(len(v) == 3 for v in witnesses)
    assert (report.pass_count, report.fail_count) == (60, 0)


@pytest.mark.parametrize("value", [math.nan, -1, math.inf, True, "1"])
def test_every_entry_rejects_a_bad_budget_or_tolerance(value):
    g = ChannelGains(1, 1, 1, 1)
    inner, outer = build_inner(inner_coeffs(g)), build_outer(outer_coeffs(g))
    failing = check_channel(0, g, bits=0.0)   # gap slack about -2.15
    calls = {
        "ChannelCheck.passed": lambda: failing.passed(value),
        "check_channel bits": lambda: check_channel(0, g, bits=value),
        "check_channel tol": lambda: check_channel(0, g, tol=value),
        "check_channels bits": lambda: check_channels([g], bits=value),
        "check_channels tol": lambda: check_channels([g], tol=value),
        "within_bits bits": lambda: within_bits(inner, outer, value),
        "within_bits tol": lambda: within_bits(inner, outer, 1.0, tol=value),
        "within_bits_slack": lambda: within_bits_slack(inner, outer, value),
        "within_bits_unclipped_slack": lambda: within_bits_unclipped_slack(inner, outer, value),
        "contains": lambda: contains(inner, (0, 0, 0), tol=value),
        "deltas_within_limits": lambda: deltas_within_limits(gap_deltas(g), tol=value),
        "SweepConfig bits": lambda: SweepConfig(bits=value),
        "SweepConfig tol": lambda: SweepConfig(tol=value),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError):
            call()
            pytest.fail(name)


def fresh_modules(code: str, **environ: str) -> str:
    """The stdout of code in a fresh interpreter that imports this icci,
    with these environment variables set."""
    src = os.path.dirname(os.path.dirname(icci.__file__))
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_certifying_leaves_numpy_ma_unimported():
    # numpy.ma costs about a megabyte resident; np.unique(..., axis=0) imports it
    code = ("import sys, icci\n"
            "icci.run_gap_sweep(icci.SweepConfig(samples=20))\n"
            "g = icci.ChannelGains(1, 2, 3, 4)\n"
            "icci.within_bits_slack(icci.build_inner(icci.inner_coeffs(g)), icci.build_outer(icci.outer_coeffs(g)), 1.0)\n"
            "print('numpy.ma' in sys.modules)\n")
    assert fresh_modules(code).strip() == "False"


def test_sampling_leaves_numpy_random_unimported():
    # the sampler computes its Philox blocks itself: numpy.random costs
    # about 5 MB resident
    if fresh_modules("import sys, numpy\nprint('numpy.random' in sys.modules)\n").strip() == "True":
        pytest.skip("this numpy imports numpy.random itself")
    code = ("import sys, icci\n"
            "icci.run_gap_sweep(icci.SweepConfig(samples=20))\n"
            "icci.sample_gains(42, 7)\n"
            "print('numpy.random' in sys.modules)\n")
    assert fresh_modules(code).strip() == "False"


PINNED_CERTIFICATES = [
    (42, 1e-3, 1e3, 1.0, "ee774d83fd517b0e"),   # the acceptance channels
    (7, 1e-6, 1e6, 2.0, "3de49a6c6a028a41"),    # the whole envelope
]


def certificate_digest(seed, mag_min, mag_max, bits) -> str:
    """The sha256 prefix of every field of every check on 10000 channels."""
    checks = check_channels(seeded_channels(seed, 10000, mag_min, mag_max), bits=bits)
    lines = [f"{c.index} {c.gains.m11.hex()} {c.gains.m12.hex()} {c.gains.m21.hex()} {c.gains.m22.hex()}"
             f" {int(c.deltas_ok)} {c.containment_slack.hex()} {c.gap_slack.hex()} {c.gap_constraint}"
             f" {c.per_rate_gap_slack.hex()}" for c in checks]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize(("seed", "mag_min", "mag_max", "bits", "digest"), PINNED_CERTIFICATES)
def test_certificates_are_pinned(seed, mag_min, mag_max, bits, digest):
    # every field of every check on 10000 channels, bit for bit, with
    # inner G' computed as G; like test_coefficient_bits_are_pinned, the
    # pin also holds libm's pow and log1p
    assert certificate_digest(seed, mag_min, mag_max, bits) == digest


def pinned_values() -> list:
    """What the two bit pins compare, as computed here: the certificate
    digests and, per pinned channel, the hex bits of both scalar families
    and of ``coeff_rows``."""
    coefficients = [[[v.hex() for v in f(ChannelGains(*mags)).values] for f in (inner_coeffs, outer_coeffs)]
                    + [[v.hex() for v in row] for row in coeff_rows(np.array([mags]))[:, :, 0].tolist()]
                    for mags in PINNED_BITS]
    return [[certificate_digest(*pin[:4]) for pin in PINNED_CERTIFICATES], coefficients]


def test_pinned_bits_do_not_depend_on_numpy_cpu_dispatch():
    # numpy picks SIMD kernels at run time; with every dispatched feature
    # this CPU has switched off, the pinned values must not move.  On a CPU
    # without AVX-512 there is no other kernel to pick, so the test passes
    # trivially there; on an AVX-512 CPU it fails as soon as the core takes
    # a transcendental from numpy (numpy's power in the sampler gave other
    # certificate digests)
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    disabled = " ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name))
    code = ("import json, sys\n"
            f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
            "import test_sweep\n"
            "print(json.dumps(test_sweep.pinned_values()))\n")
    assert json.loads(fresh_modules(code, NPY_DISABLE_CPU_FEATURES=disabled)) == pinned_values(), disabled


def assert_shows_its_exact_vertices(region) -> None:
    shown = vertices(region)
    exact = np.array(sorted(exact_vertices(region)[1]), dtype=float)
    # every exact vertex is shown and every shown point is an exact
    # vertex, to within the radius below which rounding cannot tell
    # vertices apart (the inner region has exact vertices closer than that)
    dist = np.abs(shown[:, None, :] - exact[None, :, :]).max(axis=2)
    radius = _CANDIDATE_RTOL * region.rhs_vector().max()
    assert dist.min(axis=0).max() <= radius and dist.min(axis=1).max() <= radius, region


def assert_shows_the_exact_vertices(g: ChannelGains) -> None:
    for region in (build_inner(inner_coeffs(g)), build_outer(outer_coeffs(g))):
        assert_shows_its_exact_vertices(region)


@pytest.mark.parametrize("mag", [1e-6, 1e-4, 1.0])
def test_displayed_vertices_are_the_exact_vertices(mag):
    # at gains of 1e-6 every rhs is below 1e-11, and absolute filter and
    # deduplication tolerances of 1e-9 and 1e-8 showed one outer vertex
    g = ChannelGains(mag, mag, mag, mag)
    outer = build_outer(outer_coeffs(g))
    assert len(vertices(outer)) == len(exact_vertices(outer)[1]) == 11
    assert_shows_the_exact_vertices(g)


def test_displayed_vertices_are_the_exact_vertices_over_the_envelope():
    for g in seeded_channels(8, 200, 1.0 / MAG_LIMIT, MAG_LIMIT):
        assert_shows_the_exact_vertices(g)
