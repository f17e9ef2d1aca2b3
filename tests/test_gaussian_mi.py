import itertools
import math
import random
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


def chain_variances(cov: list[list[int]], y: int, order: tuple[int, ...]) -> list[tuple[int, int]]:
    """Var(y | first k of order), k = 0 .. len(order), as (numerator,
    denominator) pairs of ints: the generic fraction-free (Bareiss)
    elimination of the covariance of (*order, y) along order, the
    reference for the chain that ``_receiver_variances`` writes out.  A
    zero-variance conditioner is a constant and is skipped."""
    keep = (*order, y)
    s = [[cov[a][b] for b in keep] for a in keep]
    prev = 1
    out = [(s[-1][-1], prev)]
    for t in range(len(order)):
        pivot, row = s[t][t], s[t]
        if pivot < 0:
            raise CovarianceError(f"negative pivot at conditioner {order[t]}")
        if pivot:
            # the upper triangle; every division is exact (Sylvester's identity)
            for a in range(t + 1, len(keep)):
                sa, f = s[a], row[a]
                for b in range(a, len(keep)):
                    sa[b] = (pivot * sa[b] - f * row[b]) // prev
            prev = pivot
        out.append((s[-1][-1], prev))
    if out[-1][0] <= 0:
        raise CovarianceError("the last conditional variance is not positive")
    return out


def receiver_covariance(block: list[list[int]]) -> list[list[int]]:
    """A 6x6 covariance holding a hand-built 4x4 block of (v, x, u, y) at
    receiver 1, (U2, X1, U1, Y1), and zeros elsewhere."""
    cov = [[0] * 6 for _ in range(6)]
    for i, a in enumerate((_U2, _X1, _U1, _Y1)):
        for j, b in enumerate((_U2, _X1, _U1, _Y1)):
            cov[a][b] = block[i][j]
    return cov


def dense_covariances(seed: int, count: int) -> list[list[list[int]]]:
    """Covariances B B^T of seeded small-int 6x8 B, where, unlike in
    ``_joint_covariance``, the two public parts and each public part and
    the other signal are correlated, so every entry of a chain counts.
    A row of B for U1, U2, X1 or X2 is zero at random, a constant, and
    the last two columns are Y1's and Y2's own unit noise, so every
    variance of an output is positive."""
    rng = random.Random(seed)
    covs = []
    for _ in range(count):
        b = [[rng.randint(-3, 3) for _ in range(6)] + [int(a == _Y1), int(a == _Y2)] for a in range(6)]
        for a in (_U1, _U2, _X1, _X2):
            if rng.random() < 0.2:
                b[a] = [0] * 8
        covs.append([[sum(p * q for p, q in zip(r, c)) for c in b] for r in b])
    return covs


# the receiver-1 arguments of _receiver_variances: y, x, u, v
RECEIVER_1 = (_Y1, _X1, _U1, _U2)
# (v, x, u, y) blocks that trip the guard, with its message
TRIPPING_BLOCKS = [
    # a negative pivot at v, at x and at u: at u given (v, x), and at u
    # alone, where the complement for Var(y | u) meets it first
    ([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "negative pivot -1.000e+00 at conditioner U2 of Y1"),
    ([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "negative pivot -1.000e+00 at conditioner X1 of Y1"),
    ([[1, 0, 0, 0], [0, 1, 2, 0], [0, 2, 1, 0], [0, 0, 0, 1]], "negative pivot -3.000e+00 at conditioner U1 of Y1"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, 1]], "negative pivot -2.000e+00 at conditioner U1 of Y1"),
    # the last variance, negative or zero, with every pivot positive
    ([[1, 0, 0, 0], [0, 1, 0, 2], [0, 0, 1, 0], [0, 2, 0, 1]],
     "conditional variance Var(Y1 | U2, X1, U1) = -3.000e+00 is not positive"),
    ([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 1]],
     "conditional variance Var(Y1 | U2, X1, U1) = 0.000e+00 is not positive"),
]
# (v, x, u, y) blocks with v, then x, then u of zero variance, with the six
# pairs of _receiver_variances: the step of the constant is skipped and
# prev kept, so the pair after it is the pair before it
SKIPPING_BLOCKS = [
    ([[0, 0, 0, 0], [0, 4, 0, 2], [0, 0, 1, 1], [0, 2, 1, 3]], ((3, 1), (3, 1), (8, 4), (4, 4), (2, 1), (2, 1))),
    ([[2, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 1, 3]], ((3, 1), (5, 2), (5, 2), (3, 2), (2, 1), (6, 4))),
    ([[1, 0, 0, 1], [0, 2, 0, 1], [0, 0, 0, 0], [1, 1, 0, 4]], ((4, 1), (3, 1), (5, 2), (5, 2), (4, 1), (3, 1))),
]



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
        chain = [Fraction(n, d) for n, d in chain_variances(cov, _Y1, order)]
        for c in order:
            scaled = [[v * 3 ** ((a == c) + (b == c)) for b, v in enumerate(row)] for a, row in enumerate(cov)]
            assert [Fraction(n, d) for n, d in chain_variances(scaled, _Y1, order)] == chain
            assert [Fraction(*p) for p in _receiver_variances(scaled, *RECEIVER_1)[:4]] == chain

    def test_guard_trips_on_an_indefinite_covariance(self):
        for block, message in TRIPPING_BLOCKS:
            with pytest.raises(CovarianceError) as tripped:
                _receiver_variances(receiver_covariance(block), *RECEIVER_1)
            assert str(tripped.value) == message

    def test_a_guard_names_the_receiver_output_and_its_conditioners(self):
        # receiver 2 observes Y2 with own signal X2, own public part U2 and
        # the other public part U1: a negative variance of U1 is its v
        cov = _joint_covariance(ChannelGains(10.0, 3.0, 2.0, 2.5))
        cov[_U1][_U1] = -cov[_U1][_U1]
        with pytest.raises(CovarianceError, match=r"negative pivot -\S+ at conditioner U1 of Y2$"):
            _receiver_variances(cov, _Y2, _X2, _U2, _U1)
        with pytest.raises(CovarianceError, match=r"negative pivot -\S+ at conditioner U1 of Y1$"):
            _receiver_variances(cov, *RECEIVER_1)

    def test_a_zero_variance_conditioner_is_skipped(self):
        for block, expected in SKIPPING_BLOCKS:
            assert _receiver_variances(receiver_covariance(block), *RECEIVER_1) == expected, block

    def test_one_chain_and_two_complements_are_the_two_chains_as_rationals(self):
        # the six variances of a receiver against the (v, x, u) and (u, v)
        # chains of the reference, on channels and on dense covariances; the
        # edge grid has every case of zero-variance publics
        channels = ([ChannelGains(*mags) for mags in itertools.product(EDGES, repeat=4)]
                    + seeded_channels(9, 300, 1e-6, 1e6) + seeded_channels(42, 300, 1e-2, 1e2))
        constant = set()
        for cov in [_joint_covariance(gains) for gains in channels] + dense_covariances(3, 300):
            for y, x, u, v in ((_Y1, _X1, _U1, _U2), (_Y2, _X2, _U2, _U1)):
                variances = _receiver_variances(cov, y, x, u, v)
                var, var_v, var_vx, var_vxu, var_u, var_uv = (Fraction(*p) for p in variances)
                assert variances[:4] == tuple(chain_variances(cov, y, (v, x, u)))
                assert [var, var_u, var_uv] == [Fraction(*p) for p in chain_variances(cov, y, (u, v))]
                constant.add((cov[u][u] == 0, cov[v][v] == 0))
        assert constant == {(False, False), (False, True), (True, False), (True, True)}

    def test_a_complement_is_guarded_as_a_chain_is(self):
        # from a (u, y) block of prev times a covariance: a constant u
        # leaves Var(y | C), and an indefinite block trips the guard, which
        # names u and Var(y | C, u)
        assert _schur(0, 0, 5, 2, _Y1, (_U2, _U1)) == (5, 2)
        assert Fraction(*_schur(4, 2, 3, 2, _Y1, (_U2, _U1))) == Fraction(4 * 3 - 2 * 2, 2 * 4)
        with pytest.raises(CovarianceError, match="negative pivot -1.000e[+]00 at conditioner U2 of Y2"):
            _schur(-1, 0, 1, 1, _Y2, (_U2,))
        for block in ((1, 2, 1), (1, 1, 1)):
            with pytest.raises(CovarianceError, match=r"Var\(Y2 \| U1, U2\) = \S+ is not positive"):
                _schur(*block, 1, _Y2, (_U1, _U2))

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
