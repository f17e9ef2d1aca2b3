import pytest

from icci.bounds import inner_coeffs, outer_coeffs
from icci.channel import ChannelGains
from icci.region import build_inner, build_outer, within_bits_slack, within_bits_unclipped_slack
from icci.sweep import (
    SweepConfig,
    check_channel,
    run_gap_sweep,
    sample_gains,
)


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
