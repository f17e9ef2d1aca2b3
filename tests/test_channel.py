import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icci.channel import ChannelGains, GdofExponents, SnrView
from icci.gaussian_mi import successive_decode_chain
from icci.gdof import dof_curve_samples, dof_icci_lp, multiplexing_gain

mags = st.floats(min_value=1e-3, max_value=1e3)
exps = st.floats(min_value=0.0, max_value=3.0)


class TestFromSnr:
    def test_worked_values(self):
        g = ChannelGains.from_snr(SnrView(snr1=100, snr2=100, inr1=10, inr2=10))
        assert g.m11 == 10 and g.m22 == 10
        assert g.m12 == pytest.approx(math.sqrt(10), abs=0) and g.m21 == g.m12

    def test_all_zero(self):
        g = ChannelGains.from_snr(SnrView(0, 0, 0, 0))
        assert g == ChannelGains(0, 0, 0, 0)

    def test_cross_assignment(self):
        # inr1 sits on the m12 link, inr2 on the m21 link
        g = ChannelGains.from_snr(SnrView(snr1=1, snr2=4, inr1=9, inr2=16))
        assert (g.m11, g.m12, g.m21, g.m22) == (1, 3, 4, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SnrView(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            SnrView(math.inf, 0, 0, 0)

    @given(mags, mags, mags, mags)
    def test_round_trip(self, m11, m12, m21, m22):
        g = ChannelGains(m11, m12, m21, m22)
        back = ChannelGains.from_snr(g.snr_view())
        for key in ("m11", "m12", "m21", "m22"):
            assert getattr(back, key) == pytest.approx(getattr(g, key), rel=1e-15)


class TestFromExponents:
    def test_symmetric_alpha06(self):
        g = ChannelGains.from_exponents(GdofExponents(1, 0.6, 0.6, 1), 100.0)
        assert g.m11 == g.m22 == pytest.approx(10.0, rel=1e-15)
        assert g.m12 == g.m21 == pytest.approx(100 ** 0.3, rel=1e-15)

    def test_unit_power(self):
        g = ChannelGains.from_exponents(GdofExponents(1, 0.7, 0.2, 1), 1.0)
        assert g == ChannelGains(1, 1, 1, 1)

    def test_zero_exponent_gives_unit_gain(self):
        g = ChannelGains.from_exponents(GdofExponents(1, 0, 0, 1), 1e6)
        assert (g.m11, g.m12, g.m21, g.m22) == (1000, 1, 1, 1000)

    def test_rejects_bad_power(self):
        e = GdofExponents(1, 1, 1, 1)
        for p in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ChannelGains.from_exponents(e, p)

    @given(exps, exps, exps, exps, st.floats(min_value=2.0, max_value=1e12))
    def test_exponent_recovery(self, a11, a12, a21, a22, p):
        g = ChannelGains.from_exponents(GdofExponents(a11, a12, a21, a22), p)
        for mag, alpha in ((g.m11, a11), (g.m12, a12), (g.m21, a21), (g.m22, a22)):
            got = math.log(mag * mag) / math.log(p)
            assert got == pytest.approx(alpha, rel=1e-12, abs=1e-12)


class TestSymmetric:
    def test_alpha06_levels(self):
        g = ChannelGains.symmetric(0.6, 1e6)
        assert g.m11 == pytest.approx(1e3, rel=1e-15)
        assert g.m12 == pytest.approx(10 ** 1.8, rel=1e-15)

    def test_trivial_cases(self):
        assert ChannelGains.symmetric(0.0, 4.0) == ChannelGains(2, 1, 1, 2)
        assert ChannelGains.symmetric(1.0, 9.0) == ChannelGains(3, 3, 3, 3)

    @given(exps, st.floats(min_value=1.001, max_value=1e9))
    def test_exact_symmetry(self, alpha, p):
        g = ChannelGains.symmetric(alpha, p)
        assert g.m11 == g.m22
        assert g.m12 == g.m21


class TestSerialization:
    def test_json_round_trip(self):
        g = ChannelGains(10.0, 3.1622776601683795, 3.1622776601683795, 10.0)
        assert ChannelGains.from_json(g.to_json()) == g

    def test_dict_key_order(self):
        keys = list(ChannelGains(1, 2, 3, 4).as_dict())
        assert keys == ["m11", "m12", "m21", "m22"]

    def test_from_dict_requires_exact_keys(self):
        with pytest.raises(ValueError):
            ChannelGains.from_dict({"m11": 1, "m12": 1, "m21": 1})
        with pytest.raises(ValueError):
            ChannelGains.from_dict({"m11": 1, "m12": 1, "m21": 1, "m22": 1, "x": 0})

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            ChannelGains.from_json("{not json")
        with pytest.raises(ValueError):
            ChannelGains.from_json(json.dumps([1, 2, 3, 4]))
        with pytest.raises(ValueError):
            ChannelGains.from_json(json.dumps({"m11": -1, "m12": 1, "m21": 1, "m22": 1}))

    def test_rejects_bool_fields(self):
        with pytest.raises(ValueError):
            ChannelGains(True, 1, 1, 1)
        with pytest.raises(ValueError):
            ChannelGains(np.bool_(True), 1, 1, 1)

    def test_numpy_scalars_are_stored_as_floats(self):
        g = ChannelGains(np.float32(0.1), np.int64(2), np.float64(3.5), 4)
        assert g == ChannelGains(float(np.float32(0.1)), 2.0, 3.5, 4.0)
        assert all(type(getattr(g, key)) is float for key in ("m11", "m12", "m21", "m22"))
        assert ChannelGains.from_json(g.to_json()) == g
        for bad in (np.float32("nan"), np.float64(-1.0), np.float16("inf")):
            with pytest.raises(ValueError):
                ChannelGains(bad, 1, 1, 1)

    @pytest.mark.parametrize("realize", [
        lambda: ChannelGains.from_exponents(GdofExponents(700, 0, 0, 0), 10.0),
        lambda: ChannelGains.symmetric(700, 10.0),
        lambda: multiplexing_gain(GdofExponents(1, 0, 700, 1), 10.0),
    ])
    def test_an_exponent_too_large_for_a_float_gain_is_invalid_input(self, realize):
        with pytest.raises(ValueError, match=r"m(11|12|21) = p\*\*\(700.0 / 2\) is too large for a float"):
            realize()

    def test_rejects_an_int_too_large_for_a_float(self):
        with pytest.raises(ValueError, match="too large"):
            ChannelGains(10**400, 1, 1, 1)
        with pytest.raises(ValueError):
            ChannelGains.from_json('{"m11": 1%s, "m12": 1, "m21": 1, "m22": 1}' % ("0" * 400))


# every scalar argument outside the dataclasses is checked by one rule:
# Python or numpy ints and floats pass, bools do not
SCALAR_CHECKS = [
    (dof_icci_lp, 0.5),
    (lambda step: dof_curve_samples(0.0, 1.0, step), 0.5),
    (lambda p: ChannelGains.from_exponents(GdofExponents(1, 0.6, 0.6, 1), p), 4.0),
    (lambda p: multiplexing_gain(GdofExponents(1, 0.6, 0.6, 1), p), 1e6),
    (lambda p: successive_decode_chain(p).as_dict(), 1e10),
]


@pytest.mark.parametrize("check, value", SCALAR_CHECKS)
def test_scalar_arguments_share_one_real_number_rule(check, value):
    for bad in (True, np.bool_(True), "1.0", None):
        with pytest.raises(ValueError):
            check(bad)
    want = check(value)
    same = [np.float32(value), np.float64(value)]
    if value.is_integer():
        same += [int(value), np.int64(value)]
    for x in same:
        assert check(x) == want
