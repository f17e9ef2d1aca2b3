import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icci.bounds import cap, inner_coeffs
from icci.channel import ChannelGains
from icci.gaussian_mi import (
    _U1,
    _U2,
    _X1,
    _X2,
    _Y1,
    _Y2,
    CovarianceError,
    _chain_variances,
    _joint_covariance,
    _receiver_variances,
    _schur,
    mi_discrepancy,
    mutual_info_terms,
    successive_decode_chain,
)

from conftest import seeded_channels

# the whole accepted envelope (sweep.MAG_LIMIT), exact zeros, and the
# kink of the noise-floor split at m = 1 with its neighbouring floats
mags = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6),
    st.sampled_from([0.0, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]),
)
gains_st = st.builds(ChannelGains, mags, mags, mags, mags)
# both ends of the envelope, exact zero and the kink of the split
EDGES = (0.0, 1e-6, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1e6)


def reference_terms(gains: ChannelGains) -> tuple[float, ...]:
    """The oracle's ten values from scratch: the covariance as A D A^T of
    the independent sources (public 1, private 1, public 2, private 2,
    Z1, Z2) with variances D, and each conditional variance by its own
    elimination of the whole conditioning set."""
    m11, m12, m21, m22 = map(Fraction, (gains.m11, gains.m12, gains.m21, gains.m22))
    x12 = 1 / (m12 * m12) if m12 * m12 > 1 else Fraction(1)
    x21 = 1 / (m21 * m21) if m21 * m21 > 1 else Fraction(1)
    d = [1 - x21, x21, 1 - x12, x12, 1, 1]
    # rows U1, U2, X1, X2, Y1, Y2 in terms of the sources
    a = [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0],
         [m11, m11, m12, m12, 1, 0], [m21, m21, m22, m22, 0, 1]]
    cov = [[sum((p * q * w for p, q, w in zip(r, c, d) if p and q), Fraction(0)) for c in a] for r in a]

    def var(y, given):
        s = [[cov[i][j] for j in (*given, y)] for i in (*given, y)]
        for t in range(len(given)):
            if s[t][t]:
                for i in range(t + 1, len(s)):
                    f = s[i][t] / s[t][t]
                    if f:
                        s[i] = [v - f * w for v, w in zip(s[i], s[t])]
        return s[-1][-1]

    def info(y, given, extra):
        return math.log2(var(y, given) / var(y, given + extra))

    u1, u2, x1, x2, y1, y2 = range(6)
    terms = {}
    for i, (y, x, u, v) in enumerate(((y1, x1, u1, u2), (y2, x2, u2, u1)), start=1):
        terms[f"a{i}"] = info(y, (u, v), (x,))
        terms[f"d{i}"] = info(y, (v,), (x,))
        terms[f"e{i}"] = info(y, (u,), (x, v))
        terms[f"g{i}"] = info(y, (), (x, v))
    return tuple(terms[key] for key in ("a1", "a2", "d1", "d2", "e1", "e2", "g1", "g2", "g1", "g2"))

STAGE_TARGETS = (0.2, 0.2, 0.2, 0.4)


class TestMiOracle:
    def test_worked_channel_matches_closed_form(self, worked_channel):
        terms = mutual_info_terms(worked_channel)
        coeffs = inner_coeffs(worked_channel)
        assert terms.a1 == pytest.approx(math.log2(6), abs=1e-9)
        for key, value in terms.as_dict().items():
            assert value == pytest.approx(coeffs.as_dict()[key], abs=1e-9)
        assert mi_discrepancy(worked_channel) <= 1e-9

    def test_point_to_point_collapse(self):
        gains = ChannelGains(7.0, 0.0, 0.0, 2.0)
        t = mutual_info_terms(gains)
        expect = cap(49.0)
        for v in (t.a1, t.d1, t.e1, t.g1, t.g1p):
            assert v == pytest.approx(expect, abs=1e-9)

    def test_zero_channel(self):
        t = mutual_info_terms(ChannelGains(0, 0, 0, 0))
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in t.as_dict().values())

    @given(gains_st)
    def test_discrepancy_fuzz(self, gains):
        assert mi_discrepancy(gains) <= 1e-13

    @pytest.mark.parametrize("mag_range", [(1e-2, 1e2), (1e-6, 1e6), None])
    def test_chained_eliminations_equal_the_reference_bitwise(self, mag_range):
        # None: the 1296 channels of the edge grid
        channels = (seeded_channels(5, 150, *mag_range) if mag_range else
                    [ChannelGains(*mags) for mags in itertools.product(EDGES, repeat=4)])
        for gains in channels:
            assert mutual_info_terms(gains).values == reference_terms(gains), gains

    def test_a_conditioner_scale_cancels(self):
        cov = _joint_covariance(ChannelGains(10.0, 3.0, 0.7, 2.5))
        order = (_U2, _X1, _U1)
        chain = [Fraction(n, d) for n, d in _chain_variances(cov, _Y1, order)]
        for c in order:
            scaled = [[v * 3 ** ((a == c) + (b == c)) for b, v in enumerate(row)] for a, row in enumerate(cov)]
            assert [Fraction(n, d) for n, d in _chain_variances(scaled, _Y1, order)] == chain

    def test_guard_trips_on_an_indefinite_covariance(self):
        # a negative pivot, then a positive pivot leaving Var(y | 0) = 1 - 4
        for cov in ([[-1, 0], [0, 1]], [[1, 2], [2, 1]]):
            with pytest.raises(CovarianceError):
                _chain_variances(cov, 1, (0,))

    def test_a_zero_variance_conditioner_is_skipped(self):
        cov = [[0, 0, 0], [0, 4, 2], [0, 2, 3]]
        assert [Fraction(n, d) for n, d in _chain_variances(cov, 2, (0, 1))] == [3, 3, 2]

    def test_one_chain_and_two_complements_are_the_two_chains_as_rationals(self):
        # the six variances of a receiver against the (v, x, u) and (u, v)
        # chains; the edge grid has every case of zero-variance publics
        channels = ([ChannelGains(*mags) for mags in itertools.product(EDGES, repeat=4)]
                    + seeded_channels(9, 300, 1e-6, 1e6))
        constant = set()
        for gains in channels:
            cov = _joint_covariance(gains)
            for y, x, u, v in ((_Y1, _X1, _U1, _U2), (_Y2, _X2, _U2, _U1)):
                variances = _receiver_variances(cov, y, x, u, v)
                var, var_v, var_vx, var_vxu, var_u, var_uv = (Fraction(*p) for p in variances)
                assert [var, var_v, var_vx, var_vxu] == [Fraction(*p) for p in _chain_variances(cov, y, (v, x, u))]
                assert [var, var_u, var_uv] == [Fraction(*p) for p in _chain_variances(cov, y, (u, v))]
                constant.add((cov[u][u] == 0, cov[v][v] == 0))
        assert constant == {(False, False), (False, True), (True, False), (True, True)}

    def test_a_complement_is_guarded_as_a_chain_is(self):
        # from a (u, y) block of prev times a covariance: a constant u
        # leaves Var(y | C), and an indefinite block trips the guard
        assert _schur(0, 0, 5, 2) == (5, 2)
        assert Fraction(*_schur(4, 2, 3, 2)) == Fraction(4 * 3 - 2 * 2, 2 * 4)
        with pytest.raises(CovarianceError, match="negative pivot"):
            _schur(-1, 0, 1, 1)
        for block in ((1, 2, 1), (1, 1, 1)):
            with pytest.raises(CovarianceError, match="not positive"):
                _schur(*block, 1)

    def test_a_ratio_past_the_float_range_is_invalid_input(self):
        with pytest.raises(ValueError, match="too large for a float"):
            mutual_info_terms(ChannelGains(1e200, 1, 1, 1))

    @given(gains_st)
    def test_conditioning_order(self, gains):
        # chain rule: wider conditioning never increases the reach
        t = mutual_info_terms(gains)
        for a, e, g, gp in ((t.a1, t.e1, t.g1, t.g1p), (t.a2, t.e2, t.g2, t.g2p)):
            assert gp >= g - 1e-12
            assert g >= e - 1e-12
            assert g >= a - 1e-12


class TestDecodeChain:
    def test_stage_ratios_near_targets(self):
        report = successive_decode_chain(1e10)
        assert report.include_common
        assert len(report.stages) == 4
        for stage, target in zip(report.stages, STAGE_TARGETS):
            assert stage.ratio == pytest.approx(target, abs=0.05)
            assert stage.rate >= 0 and stage.sinr > 0

    def test_stage_order_labels(self):
        labels = [s.label for s in successive_decode_chain(1e10).stages]
        assert labels == ["own-public", "common", "cross-public", "own-private"]

    def test_individual_rate_share(self):
        report = successive_decode_chain(1e10)
        assert report.individual_ratio == pytest.approx(0.6, abs=0.05)
        assert report.per_user_ratio == pytest.approx(0.7, abs=0.05)

    def test_without_common_layer(self):
        report = successive_decode_chain(1e10, include_common=False)
        assert report.common_ratio == 0.0
        assert report.individual_ratio == pytest.approx(0.6, abs=0.05)
        common = [s for s in report.stages if s.label == "common"]
        assert len(common) == 1
        assert common[0].rate == 0.0 and common[0].ratio == 0.0

    def test_deviation_shrinks_with_power(self):
        devs = []
        for p in (1e6, 1e8, 1e10, 1e12):
            report = successive_decode_chain(p)
            devs.append(max(abs(s.ratio - t) for s, t in zip(report.stages, STAGE_TARGETS)))
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < devs[0]

    def test_rejects_low_power(self):
        with pytest.raises(ValueError):
            successive_decode_chain(100.0)

    def test_report_dict(self):
        d = successive_decode_chain(1e6).as_dict()
        assert d["p"] == 1e6
        assert {"label", "sinr", "rate", "ratio"} <= set(d["stages"][0])
