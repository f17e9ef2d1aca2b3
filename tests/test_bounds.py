import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icci.bounds import (
    _FIELD_ORDER,
    BoundCoeffs,
    _inner_args,
    _outer_args,
    _powers,
    cap,
    coeff_deltas,
    coeff_rows,
    deltas_within_limits,
    gap_deltas,
    inner_coeffs,
    outer_coeffs,
    power_split,
)
from icci.channel import ChannelGains, GdofExponents
from icci.gaussian_mi import mi_discrepancy, mutual_info_terms
from icci.gdof import gdof_coeffs
from icci.sweep import sample_gains

from conftest import seeded_channels
from test_gaussian_mi import EDGES

mags = st.floats(min_value=1e-3, max_value=1e3)
gains_st = st.builds(ChannelGains, mags, mags, mags, mags)
# the accepted envelope of the sweeps, exact zeros included
envelope = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6))

LOG2_5_OVER_15 = math.log2(5) - math.log2(1.5)


def test_cap_values():
    assert cap(0.0) == 0.0
    assert cap(1.0) == 1.0
    assert cap(3.0) == 2.0
    assert cap(1e-18) == pytest.approx(1e-18 / math.log(2), rel=1e-12)
    with pytest.raises(ValueError):
        cap(-0.5)


def test_power_split_cases():
    assert power_split(ChannelGains(1, 1, math.sqrt(10), 1)) == (1.0, pytest.approx(0.1))
    assert power_split(ChannelGains(1, 0, 0, 1)) == (1.0, 1.0)
    assert power_split(ChannelGains(1, 0.5, 1, 1))[0] == 1.0  # 1/0.25 > 1 caps at 1


class TestInnerCoeffs:
    def test_worked_channel(self, worked_channel):
        c = inner_coeffs(worked_channel)
        assert c.side == "inner"
        assert c.a1 == pytest.approx(math.log2(6), abs=1e-12)
        assert c.d1 == pytest.approx(math.log2(51), abs=1e-12)
        assert c.e1 == pytest.approx(math.log2(10.5), abs=1e-12)
        assert c.g1 == pytest.approx(math.log2(55.5), abs=1e-12)
        assert c.g1p == pytest.approx(c.g1, abs=1e-12)
        # symmetric channel, symmetric coefficients
        assert (c.a2, c.d2, c.e2, c.g2, c.g2p) == (c.a1, c.d1, c.e1, c.g1, c.g1p)

    def test_all_zero(self):
        c = inner_coeffs(ChannelGains(0, 0, 0, 0))
        assert all(v == 0.0 for v in (c.a1, c.a2, c.d1, c.d2, c.e1, c.e2, c.g1, c.g2, c.g1p, c.g2p))

    def test_interference_free_collapse(self):
        c = inner_coeffs(ChannelGains(math.sqrt(3), 0, 0, math.sqrt(3)))
        assert c.a1 == c.d1 == c.e1 == c.g1 == c.g1p == pytest.approx(2.0, abs=1e-12)


class TestOuterCoeffs:
    def test_unit_channel(self, unit_channel):
        c = outer_coeffs(unit_channel)
        assert c.side == "outer"
        assert c.a1 == pytest.approx(math.log2(1.5), abs=1e-12)
        assert c.d1 == pytest.approx(1.0, abs=1e-12)
        assert c.e1 == pytest.approx(math.log2(2.5), abs=1e-12)
        assert c.g1 == pytest.approx(math.log2(3), abs=1e-12)
        assert c.g1p == pytest.approx(math.log2(5), abs=1e-12)

    def test_all_zero(self):
        c = outer_coeffs(ChannelGains(0, 0, 0, 0))
        assert all(v == 0.0 for v in c.as_dict().values() if not isinstance(v, str))

    def test_interference_free_collapse(self):
        c = outer_coeffs(ChannelGains(math.sqrt(3), 0, 0, math.sqrt(3)))
        assert c.a1 == c.d1 == c.e1 == c.g1 == c.g1p == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("gains", [ChannelGains(1e200, 1, 1, 1), ChannelGains(1, 1, 1e200, 1e-3),
                                       ChannelGains(1e154, 1e154, 1, 1)])
    def test_a_square_past_the_float_range_is_invalid_input(self, gains):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"of {gains} is too large for a float")):
                outer_coeffs(gains)


# gains whose square, or sum of squares, passes the float range: the
# inner family meets NaN at (1, 1e160, 1, 1) and inf at the others
OVERFLOWING = [ChannelGains(1, 1e160, 1, 1), ChannelGains(1e200, 1, 1, 1), ChannelGains(1e154, 1e154, 1, 1)]


@pytest.mark.parametrize("gains", OVERFLOWING)
@pytest.mark.parametrize("family", [inner_coeffs, outer_coeffs, gap_deltas, mi_discrepancy])
def test_a_gain_past_the_float_range_is_refused_by_name(family, gains):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"of {gains} is too large for a float")):
            family(gains)


class TestDeltas:
    def test_unit_channel_gprime_delta(self, unit_channel):
        d = gap_deltas(unit_channel)
        assert d.g1p == pytest.approx(LOG2_5_OVER_15, abs=1e-12)
        assert d.g1 == pytest.approx(1.0, abs=1e-12)  # attains the non-strict bound
        assert deltas_within_limits(d)

    def test_zero_channel_deltas_vanish(self):
        d = gap_deltas(ChannelGains(0, 0, 0, 0))
        assert all(v == 0.0 for v in d.as_dict().values())

    def test_delta_may_be_negative(self):
        # m12 = 0 and unit cross power toward rx 2: A1 loses nothing inside
        # but the outer A1 pays a 1 + INR2 penalty
        d = gap_deltas(ChannelGains(2.0, 0.0, 1.0, 1.0))
        assert d.a1 == pytest.approx(cap(2.0) - cap(4.0), abs=1e-12)
        assert d.a1 < 0

    def test_side_validation(self, worked_channel):
        inner = inner_coeffs(worked_channel)
        outer = outer_coeffs(worked_channel)
        with pytest.raises(ValueError):
            coeff_deltas(outer, inner)

    @given(gains_st)
    def test_delta_limits_fuzz(self, gains):
        assert deltas_within_limits(gap_deltas(gains))

    @given(st.builds(ChannelGains, envelope, envelope, envelope, envelope))
    def test_g_delta_is_the_cross_gain_closed_form(self, gains):
        # log2(1 + min(m12**2, 1)) and its mirror: one bit once the cross gain is >= 1
        d = gap_deltas(gains)
        assert abs(d.g1 - math.log2(1 + min(gains.m12 ** 2, 1))) <= 1e-13
        assert abs(d.g2 - math.log2(1 + min(gains.m21 ** 2, 1))) <= 1e-13


@given(gains_st)
def test_split_keeps_private_power_at_noise_floor(gains):
    x12, x21 = power_split(gains)
    assert 0.0 <= x12 <= 1.0 and 0.0 <= x21 <= 1.0
    assert gains.m12 ** 2 * x12 <= 1.0 + 1e-12
    assert gains.m21 ** 2 * x21 <= 1.0 + 1e-12


@given(mags, mags)
def test_symmetric_channel_symmetric_coeffs(direct, cross):
    gains = ChannelGains(direct, cross, cross, direct)
    for coeffs in (inner_coeffs(gains), outer_coeffs(gains)):
        assert coeffs.a1 == coeffs.a2
        assert coeffs.d1 == coeffs.d2
        assert coeffs.e1 == coeffs.e2
        assert coeffs.g1 == coeffs.g2
        assert coeffs.g1p == coeffs.g2p


@given(gains_st, st.floats(min_value=1.0, max_value=1e3))
def test_outer_scaling_monotone(gains, t):
    base = outer_coeffs(gains)
    scaled = outer_coeffs(ChannelGains(gains.m11 * t, gains.m12 * t, gains.m21 * t, gains.m22 * t))
    for key, value in base.as_dict().items():
        if key == "side":
            continue
        assert scaled.as_dict()[key] >= value - 1e-9


@given(gains_st)
def test_gprime_matches_g_inside(gains):
    # the primed inner coefficient is the same quantity written differently
    c = inner_coeffs(gains)
    assert c.g1p == pytest.approx(c.g1, abs=1e-12)
    assert c.g2p == pytest.approx(c.g2, abs=1e-12)


def test_coeff_dict_shape(worked_channel):
    # every family is one BoundCoeffs: the ten keyed values and a side tag
    families = (inner_coeffs(worked_channel), outer_coeffs(worked_channel), gap_deltas(worked_channel),
                mutual_info_terms(worked_channel), gdof_coeffs(GdofExponents(1, 0.6, 0.6, 1)))
    assert [c.side for c in families] == ["inner", "outer", "delta", "inner", "gdof"]
    for c in families:
        assert type(c) is BoundCoeffs
        d = c.as_dict()
        assert list(d) == ["A1", "A2", "D1", "D2", "E1", "E2", "G1", "G2", "G1p", "G2p"]
        assert list(d.values()) == list(c.values)
        assert [c.a1, c.a2, c.d1, c.d2, c.e1, c.e2, c.g1, c.g2, c.g1p, c.g2p] == list(c.values)


def test_coeff_validation_rule():
    # every value finite, and >= 0 except on the delta side
    zeros = (0.0,) * 9
    for side in ("inner", "outer", "delta", "gdof"):
        assert BoundCoeffs([0.0] * 10, side).values == (0.0,) * 10
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                BoundCoeffs(zeros + (bad,), side)
    assert BoundCoeffs((-1.0,) + zeros, "delta").a1 == -1.0
    for side in ("inner", "outer", "gdof"):
        with pytest.raises(ValueError, match="a1"):
            BoundCoeffs((-5e-324,) + zeros, side)
    for values, side in ((zeros, "inner"), (zeros + (0.0, 0.0), "inner"), (zeros + (0.0,), "bogus")):
        with pytest.raises(ValueError):
            BoundCoeffs(values, side)


# The sampled channels, of the first 10000 of each stream, on which a
# summed gain t = m_ii + m_ij has glibc's pow(t, 2) one ulp further from
# the exact square than t * t: 39 of 30000
POW_SQUARE_CHANNELS = {
    (42, 1e-3, 1e3): (1009, 1615, 2522, 4339, 4632, 4832, 5242, 5782, 6103, 7351, 8045, 8052, 8161, 8260, 9010, 9684),
    (7, 1e-6, 1e6): (443, 456, 944, 1732, 1873, 2774, 3066, 3688, 5102, 6399, 7143),
    (3, 1e-6, 1e6): (678, 1527, 1812, 2345, 3926, 4309, 4496, 4978, 5929, 7495, 9067, 9402),
}


def test_coeff_rows_are_the_scalar_families_bit_for_bit():
    # the wide envelope, the 1296 channels of the MI oracle's edge grid,
    # and the channels where a power would round the outer G' square apart
    squares = [sample_gains(seed, k, lo, hi) for (seed, lo, hi), ks in POW_SQUARE_CHANNELS.items() for k in ks]
    gains = (seeded_channels(3, 300, 1e-6, 1e6) + [ChannelGains(*m) for m in itertools.product(EDGES, repeat=4)]
             + squares)
    rows = coeff_rows(np.array([(g.m11, g.m12, g.m21, g.m22) for g in gains]))
    for n, g in enumerate(gains):
        for side, coeffs in enumerate((inner_coeffs(g), outer_coeffs(g))):
            assert rows[side, :, n].tolist() == list(coeffs.values), g
    for g in squares:
        t1, t2 = g.m11 + g.m12, g.m22 + g.m21
        c = outer_coeffs(g)
        assert (c.g1p, c.g2p) == (cap(t1 * t1), cap(t2 * t2)), g


def test_the_scalar_families_are_cap_of_their_arguments():
    # the scalar families map libm's log1p without calling cap: both are
    # one formula, bit for bit, on the 1296 channels of the MI oracle's
    # edge grid and on seeded channels over both envelopes
    gains = ([ChannelGains(*m) for m in itertools.product(EDGES, repeat=4)]
             + seeded_channels(3, 300, 1e-6, 1e6) + seeded_channels(42, 300))
    for g in gains:
        s1, s2, i1, i2 = _powers(g)
        x12, x21 = power_split(g)
        t1, t2 = g.m11 + g.m12, g.m22 + g.m21
        for family, args in ((inner_coeffs, _inner_args(s1, i1, x12, x21) + _inner_args(s2, i2, x21, x12)),
                             (outer_coeffs, _outer_args(s1, i1, i2, t1) + _outer_args(s2, i2, i1, t2))):
            assert [v.hex() for v in family(g).values] == [cap(p).hex() for p in _FIELD_ORDER(args)], g


# float.hex of the inner and the outer family, each in field order, as
# computed before the scalar and batched paths shared one copy of each
# formula, with inner G' as G: zero, unit, both ends of the envelope
# around the kink of the split at m = 1, an integer channel and the
# README channel
PINNED_BITS = {
    (0.0, 0.0, 0.0, 0.0): (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0"
        " 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0"
        " 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ),
    (1.0, 1.0, 1.0, 1.0): (
        "0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1"
        " 0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1",
        "0x1.2b803473f7ad1p-1 0x1.2b803473f7ad1p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.5269e12f346e3p+0"
        " 0x1.5269e12f346e3p+0 0x1.95c01a39fbd68p+0 0x1.95c01a39fbd68p+0 0x1.2934f0979a371p+1 0x1.2934f0979a371p+1",
    ),
    (1e6, math.nextafter(1.0, 2.0), 0.0, 1e-6): (
        "0x1.36e7b471b3c2bp+5 0x1.9615223217c74p-40 0x1.36e7b471b3c2bp+5 0x1.9615223217c77p-40 0x1.36e7b471b3c2bp+5"
        " 0x1.9615223217c74p-40 0x1.36e7b471b3c2bp+5 0x1.9615223217c77p-40 0x1.36e7b471b3c2bp+5 0x1.9615223217c77p-40",
        "0x1.3ee7b471b3b60p+5 0x1.961522321836fp-41 0x1.3ee7b471b3b60p+5 0x1.9615223217c77p-40 0x1.3ee7b471b3c2bp+5"
        " 0x1.961522321836fp-41 0x1.3ee7b471b3c2bp+5 0x1.9615223217c77p-40 0x1.3ee7b5f4f8e8ep+5 0x1.9615223217c77p-40",
    ),
    (10.0, 3.0, 3.0, 10.0): (
        "0x1.5b3a58518aaadp+1 0x1.5b3a58518aaadp+1 0x1.6b09044d313a7p+2 0x1.6b09044d313a7p+2 0x1.b330ed16a0c8ap+1"
        " 0x1.b330ed16a0c8ap+1 0x1.7201cc2c0005ap+2 0x1.7201cc2c0005ap+2 0x1.7201cc2c0005ap+2 0x1.7201cc2c0005ap+2",
        "0x1.bacea7c065d43p+1 0x1.bacea7c065d43p+1 0x1.aa20230e11520p+2 0x1.aa20230e11520p+2 0x1.149a784bcd1b9p+2"
        " 0x1.149a784bcd1b9p+2 0x1.b201cc2c0005ap+2 0x1.b201cc2c0005ap+2 0x1.da33760a7f606p+2 0x1.da33760a7f606p+2",
    ),
    (10.0, 10.0**0.5, 10.0**0.5, 10.0): (
        "0x1.4ae00d1cfdeb4p+1 0x1.4ae00d1cfdeb4p+1 0x1.6b09044d313a7p+2 0x1.6b09044d313a7p+2 0x1.b23775123e2e1p+1"
        " 0x1.b23775123e2e1p+1 0x1.72d7b5a5596bep+2 0x1.72d7b5a5596bep+2 0x1.72d7b5a5596bep+2 0x1.72d7b5a5596bep+2",
        "0x1.aae0c38a4d03cp+1 0x1.aae0c38a4d03cp+1 0x1.aa20230e11520p+2 0x1.aa20230e11520p+2 0x1.1505aafb0e6c5p+2"
        " 0x1.1505aafb0e6c5p+2 0x1.b2d7b5a5596bfp+2 0x1.b2d7b5a5596bfp+2 0x1.dc7a851fcbc5fp+2 0x1.dc7a851fcbc5fp+2",
    ),
}


@pytest.mark.parametrize("mags", list(PINNED_BITS))
def test_coefficient_bits_are_pinned(mags):
    want = [family.split() for family in PINNED_BITS[mags]]
    g = ChannelGains(*mags)
    assert [[v.hex() for v in f(g).values] for f in (inner_coeffs, outer_coeffs)] == want
    assert [[v.hex() for v in row] for row in coeff_rows(np.array([mags]))[:, :, 0].tolist()] == want
