import io
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

import icci.gdof
from icci.bounds import coeff_rows
from icci.channel import GdofExponents
from icci.gdof import (
    _FINITE_ALPHA,
    _MAX_CURVE_POINTS,
    _SUM_ALL,
    _SUM_INDIVIDUAL,
    CURVE_CSV_HEADER,
    _symmetric_reach,
    build_gdof_region,
    dof_curve_samples,
    dof_ic,
    dof_ic_lp,
    dof_icci,
    dof_icci_lp,
    dof_uplift,
    gdof_coeffs,
    gdof_rows,
    multiplexing_gain,
    multiplexing_targets,
    per_user_dof_optimum,
    write_curve_csv,
)
from icci.region import (
    _CANDIDATE_RTOL,
    _BOUND_DISTINCT,
    _RHS_TERMS,
    _implied,
    _least_rhs,
    _reach,
    bound_rhs,
    contains,
    vertices,
)

from conftest import seeded_channels
from test_region import REACH_SPLITS, reach_by_terms
from test_sweep import EDGE_CHANNELS, assert_shows_its_exact_vertices

exps = st.floats(min_value=0.0, max_value=3.0)
GRID = [k / 100.0 for k in range(301)]
MAX_FLOAT = sys.float_info.max
# what _reach warns of where its products and sums pass the float range
OVERFLOWS = {(RuntimeWarning, "overflow encountered in multiply"), (RuntimeWarning, "overflow encountered in add")}
# exponents at the edges of the accepted range: zero, the least and the
# largest float, and two ordinary values
EDGE_EXPONENTS = [list(q) for q in itertools.product((0.0, 5e-324, 1.0, 2.0, MAX_FLOAT), repeat=4)]


def whole_range_alphas(count=2000):
    """Log-uniform alphas from the least float up to the largest, plus
    the breakpoints of the closed forms and both ends."""
    logs = np.random.default_rng(5).uniform(math.log(5e-324), math.log(MAX_FLOAT), count)
    return np.exp(logs).tolist() + [0.0, 5e-324, 0.5, 2.0 / 3.0, 1.0, 2.0, MAX_FLOAT]


class TestGdofCoeffs:
    def test_alpha06(self):
        c = gdof_coeffs(GdofExponents(1, 0.6, 0.6, 1))
        assert (c.a1, c.d1, c.e1, c.g1) == (0.4, 1.0, 0.6, 1.0)
        assert (c.a2, c.d2, c.e2, c.g2) == (c.a1, c.d1, c.e1, c.g1)

    def test_no_interference(self):
        c = gdof_coeffs(GdofExponents(1, 0, 0, 1))
        assert c.a1 == c.d1 == c.e1 == c.g1 == 1.0

    def test_strong_interference(self):
        c = gdof_coeffs(GdofExponents(1, 2, 2, 1))
        assert c.a1 == 0.0 and c.e1 == 2.0 and c.g1 == 2.0

    def test_the_form_table_is_the_documented_maxima(self):
        # the module docstring's expressions in Python floats, bit for bit,
        # against every column of one batch and against its N = 1 call
        quads = EDGE_EXPONENTS + np.random.default_rng(3).uniform(0, 3, (500, 4)).tolist()
        rows = gdof_rows(np.array(quads))
        assert rows.shape == (10, len(quads))
        for column, (a11, a12, a21, a22) in zip(rows.T.tolist(), quads):
            g1, g2 = max(a11, a12), max(a22, a21)
            expected = [v.hex() for v in (max(a11 - a21, 0.0), max(a22 - a12, 0.0), a11, a22,
                                          max(a11 - a21, a12), max(a22 - a12, a21), g1, g2, g1, g2)]
            assert [v.hex() for v in column] == expected, (a11, a12, a21, a22)
            single = gdof_coeffs(GdofExponents(a11, a12, a21, a22)).values
            assert [v.hex() for v in single] == expected, (a11, a12, a21, a22)

    @given(exps, exps, exps, exps)
    def test_ordering(self, a11, a12, a21, a22):
        c = gdof_coeffs(GdofExponents(a11, a12, a21, a22))
        for a, d, e, g in ((c.a1, c.d1, c.e1, c.g1), (c.a2, c.d2, c.e2, c.g2)):
            assert a <= d <= g
            assert a <= e <= g


def python_rhs(column) -> bytes:
    """The 13 sums of ``region_from_coeffs`` for one family, left to right
    in Python floats (an overflow is inf), as float64 bytes."""
    v = (*column, 0.0)
    return np.array([v[i] + v[j] + v[k] for i, j, k in _RHS_TERMS]).tobytes()


def test_bound_rhs_sums_left_to_right_in_every_shape_of_the_core():
    # (10, 1) per column, (10, N), the (10, 2, N) view that the sweep's
    # core passes, and the exponent rows, whose columns hold 5e-324 and
    # the largest float, so some sums overflow
    channels = seeded_channels(3, 300, 1e-6, 1e6) + EDGE_CHANNELS
    gains = np.array([(g.m11, g.m12, g.m21, g.m22) for g in channels])
    coeffs = coeff_rows(gains)
    view = coeffs.swapaxes(0, 1)
    assert not view.flags.c_contiguous
    rhs = bound_rhs(view)
    for side in range(2):
        for k in range(len(gains)):
            assert rhs[:, side, k].tobytes() == python_rhs(coeffs[side, :, k].tolist())
    with np.errstate(over="ignore"):
        families = [coeffs[0], coeffs[1], gdof_rows(EDGE_EXPONENTS)]
        for rows in families:
            batch = bound_rhs(rows)
            for k, column in enumerate(rows.T.tolist()):
                want = python_rhs(column)
                assert batch[:, k].tobytes() == want
                assert bound_rhs(rows[:, k:k + 1]).tobytes() == want
        assert np.isinf(bound_rhs(families[-1])).any()


class TestGdofRegion:
    def test_alpha06_membership(self):
        region = build_gdof_region(gdof_coeffs(GdofExponents(1, 0.6, 0.6, 1)))
        assert region.label == "gdof"
        assert len(region.halfspaces) == 13
        assert contains(region, (0.2, 0.6, 0.6))
        assert not contains(region, (0.2 + 1e-6, 0.6, 0.6))
        pts = vertices(region)
        target = np.array([0.2, 0.6, 0.6])
        assert np.min(np.max(np.abs(pts - target), axis=1)) < 1e-9

    def test_same_vertices_as_the_nine_row_table(self):
        # the exponent region used to be its own nine rows; with G' = G
        # the 13 rate rows add only rows implied by them, so the display's
        # rule drops the planes of rows 9 and 10, which rows 11 and 12
        # dominate at the same rhs, and both give one vertex set, the
        # exact one, here on the criterion-4 grid
        twins = 1 << _BOUND_DISTINCT.index((0, 2, 1)) | 1 << _BOUND_DISTINCT.index((0, 1, 2))
        patterns = np.array([(1, 1, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1), (0, 1, 1),
                             (1, 1, 1), (1, 1, 1), (1, 2, 1), (1, 1, 2)], dtype=float)
        planes = np.vstack([patterns, np.eye(3)])
        triples = np.array([t for t in itertools.combinations(range(len(planes)), 3)
                            if np.linalg.matrix_rank(planes[list(t)]) == 3])
        for alpha in GRID:
            c = gdof_coeffs(GdofExponents(1, alpha, alpha, 1))
            rhs = np.array([c.g1, c.g2, c.d1, c.d2, c.e1 + c.e2, c.a1 + c.g2, c.a2 + c.g1,
                            c.a1 + c.g1 + c.e2, c.a2 + c.g2 + c.e1])
            offsets = np.concatenate([rhs, np.zeros(3)])
            points = np.linalg.solve(planes[triples], offsets[triples][:, :, None])[:, :, 0]
            radius = _CANDIDATE_RTOL * rhs.max()
            old = points[(points >= -radius).all(axis=1) & (points @ patterns.T <= rhs + radius).all(axis=1)]
            region = build_gdof_region(c)
            assert _implied(_least_rhs(region.rhs_vector()).tolist()) & twins == twins, alpha
            new = vertices(region)
            dist = np.abs(new[:, None, :] - old[None, :, :]).max(axis=2)
            assert dist.min(axis=0).max() <= radius and dist.min(axis=1).max() <= radius, alpha
            assert_shows_its_exact_vertices(region)

    def test_zero_coeffs_collapse(self):
        region = build_gdof_region(gdof_coeffs(GdofExponents(0, 0, 0, 0)))
        assert len(vertices(region)) == 1

    def test_private_only_slice(self):
        # with r0 pinned to zero the best symmetric point is 0.6 per user
        # at alpha = 0.6, and HiGHS agrees with dof_ic_lp on the grid
        for alpha in GRID[::10]:
            region = build_gdof_region(gdof_coeffs(GdofExponents(1, alpha, alpha, 1)))
            res = linprog(
                c=[0, -1, 0],
                A_ub=region.coefficient_matrix(),
                b_ub=region.rhs_vector(),
                A_eq=[[1, 0, 0], [0, 1, -1]],
                b_eq=[0, 0],
                bounds=[(0, None)] * 3,
                method="highs",
            )
            assert res.status == 0
            assert -res.fun == pytest.approx(dof_ic_lp(alpha), abs=1e-9), alpha
            if alpha == 0.6:
                assert -res.fun == pytest.approx(0.6, abs=1e-9)


class TestClosedForms:
    def test_spot_values(self):
        assert dof_ic(0.6) == 0.6
        assert dof_icci(0.6) == 0.7
        assert dof_uplift(0.6) == pytest.approx(0.1, abs=1e-12)
        assert dof_ic(0.0) == 1.0
        assert dof_ic(2.5) == 1.0
        assert dof_icci(0.25) == 0.875
        assert dof_icci(1.0) == 0.5 and dof_uplift(1.0) == 0.0

    def test_rejects_bad_alpha(self):
        for bad in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                dof_ic(bad)

    def test_uplift_support(self):
        for alpha in GRID:
            u = dof_uplift(alpha)
            if 2.0 / 3.0 <= alpha <= 2.0 or alpha == 0.0:
                assert u == 0.0
            else:
                assert u > 0.0

    def test_continuity_at_breakpoints(self):
        h = 0.01
        for curve in (dof_ic, dof_icci):
            for b in (0.5, 2.0 / 3.0, 1.0, 2.0):
                assert abs(curve(b) - curve(b - h)) <= 1.5 * h + 1e-9
                assert abs(curve(b + h) - curve(b)) <= 1.5 * h + 1e-9


class TestLpCrossCheck:
    def test_grid_agreement(self):
        for alpha in GRID:
            assert dof_icci_lp(alpha) == pytest.approx(dof_icci(alpha), abs=1e-9)
            assert dof_ic_lp(alpha) == pytest.approx(dof_ic(alpha), abs=1e-9)

    def test_the_whole_accepted_range(self):
        # within 2 ulp of the closed forms from the least float to the
        # largest; past about 9e307 a coefficient sum overflows to inf in
        # bound_rhs, which is never the least multiplier sum
        for alpha in whole_range_alphas():
            for optimum, closed_form in ((dof_icci_lp, dof_icci), (dof_ic_lp, dof_ic)):
                expected = closed_form(alpha)
                assert abs(optimum(alpha) - expected) <= 2 * math.ulp(expected), (alpha, optimum)

    @pytest.mark.parametrize("alpha", [8e307, 1e308, MAX_FLOAT])
    def test_the_top_of_the_float_range_warns_nothing(self, alpha):
        # its coefficient sums overflow to inf, which no optimum uses
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dof_icci_lp(alpha).hex() == (alpha / 2.0).hex()
            assert dof_ic_lp(alpha).hex() == (1.0).hex()

    def test_reach_at_the_top_of_the_float_range(self):
        # the alphas of `icci gdof-curve --alpha-min 1e300 --alpha-max 1.7e308
        # --step 1e304` and the largest float: above about 9e307 an unscaled
        # least rhs is inf, and below it some products y_j b_j overflow.
        # _reach gives the term form's bits on the finite columns and on
        # all of them, an infinite least rhs's products being inf, never
        # NaN, and it warns of the overflow in its products and sums: the
        # test asserts both warnings.
        # The scaled columns of _symmetric_reach give the unscaled term
        # form's bits with no floating-point exception.
        alphas = [1e300 + k * 1e304 for k in range(17000)] + [MAX_FLOAT]
        exponents = np.ones((len(alphas), 4))
        exponents[:, 1] = exponents[:, 2] = alphas
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = bound_rhs(gdof_rows(exponents))
            infinite = np.isinf(_least_rhs(rhs)).any(axis=0)
            assert 0 < infinite.sum() < len(alphas)
            want = reach_by_terms(_least_rhs(rhs))
        assert not np.isnan(want).any()
        for columns, expected in ((rhs[:, ~infinite], want[:, ~infinite]), (rhs, want)):
            for size in REACH_SPLITS + (columns.shape[1],):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = np.concatenate([_reach(columns[:, s:s + size]) for s in range(0, columns.shape[1], size)],
                                         axis=1)
                assert got.tobytes() == expected.tobytes(), size
                assert {(w.category, str(w.message)) for w in caught} == OVERFLOWS, size
        with np.errstate(all="raise"):
            for size in (1, 1024, len(alphas)):
                got = np.concatenate([_symmetric_reach(alphas[s:s + size]) for s in range(0, len(alphas), size)], axis=1)
                assert got.tobytes() == want.tobytes(), size

    def test_both_routes_agree_at_the_alpha_bound(self):
        # at the bound, above which a column is scaled, and one ulp either
        # side the unscaled product overflows nowhere, and it, the term form
        # and _symmetric_reach give the same bits, with no floating-point
        # exception
        assert _FINITE_ALPHA == MAX_FLOAT / 9
        for alpha in (math.nextafter(_FINITE_ALPHA, 0.0), _FINITE_ALPHA, math.nextafter(_FINITE_ALPHA, math.inf)):
            exponents = np.array([[1.0, alpha, alpha, 1.0]])
            with np.errstate(all="raise"):
                rhs = bound_rhs(gdof_rows(exponents))
                product = _reach(rhs)
                core = _symmetric_reach([alpha])
            assert product.tobytes() == reach_by_terms(_least_rhs(rhs)).tobytes(), alpha
            assert core.tobytes() == product.tobytes(), alpha

    def test_every_batched_column_is_its_scalar_call(self):
        alphas = GRID + whole_range_alphas(500)
        # the scale is per column: one for the whole pass would take 5e-324
        # below the least float, next to the largest
        with np.errstate(all="raise"):
            reach = _symmetric_reach(alphas)
        for k, alpha in enumerate(alphas):
            for row, allow_common in ((_SUM_ALL, True), (_SUM_INDIVIDUAL, False)):
                assert (reach[row, k] / 2.0).hex() == per_user_dof_optimum(alpha, allow_common).hex(), alpha
        # a curve of three passes and a part, up to the top of the range
        samples = dof_curve_samples(0.0, 1.5e308, 5e304)
        assert len(samples) == 3001
        for sample in samples:
            assert sample.d_icci_lp.hex() == dof_icci_lp(sample.alpha).hex(), sample.alpha

    def test_the_pair_at_one_alpha_solves_the_region_once(self, monkeypatch):
        calls = []

        def counted(alphas):
            calls.append(list(alphas))
            return _symmetric_reach(alphas)

        monkeypatch.setattr(icci.gdof, "_symmetric_reach", counted)
        icci.gdof._symmetric_optima.cache_clear()
        try:
            dof_icci_lp(0.6)
            dof_ic_lp(0.6)
            assert calls == [[0.6]]
            dof_ic_lp(1.5)
            dof_icci_lp(1.5)
            assert calls == [[0.6], [1.5]]
            # only the last alpha is kept
            per_user_dof_optimum(0.6, allow_common=False)
            assert calls == [[0.6], [1.5], [0.6]]
        finally:
            icci.gdof._symmetric_optima.cache_clear()

    def test_each_optimum_is_its_row_of_one_solve_in_any_order(self):
        def solved(alpha):
            with np.errstate(all="raise"):
                reach = _symmetric_reach([alpha])
            return [(reach[row, 0] / 2.0).hex() for row in (_SUM_ALL, _SUM_INDIVIDUAL)]

        alphas = GRID + [0.0, -0.0, 5e-324, 1.7e308, math.nextafter(_FINITE_ALPHA, 0.0), _FINITE_ALPHA,
                         math.nextafter(_FINITE_ALPHA, math.inf)]
        # a list, not a dict: 0.0 and -0.0 are one dict key, as they are one
        # cache key
        expected = [solved(alpha) for alpha in alphas]
        # each alpha between two calls at its neighbour, so each call of
        # (a, b, a) meets the cache holding the other alpha
        for k in range(len(alphas) - 1):
            for j in (k, k + 1, k):
                for flag, want in zip((True, False), expected[j]):
                    assert per_user_dof_optimum(alphas[j], flag).hex() == want, (alphas[j], flag)
        # the optima of 0.0 and -0.0 have the same bits, whichever is cached
        assert solved(-0.0) == solved(0.0)
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            icci.gdof._symmetric_optima.cache_clear()
            for alpha in (first, second):
                assert [per_user_dof_optimum(alpha, flag).hex() for flag in (True, False)] == solved(0.0), alpha

    def test_alpha06_optimum_point(self):
        assert per_user_dof_optimum(0.6) == pytest.approx(0.7, abs=1e-12)
        assert per_user_dof_optimum(0.6, allow_common=False) == pytest.approx(0.6, abs=1e-12)
        # the optimum face contains (0.2, 0.6, 0.6), whose per-user total is 0.7
        region = build_gdof_region(gdof_coeffs(GdofExponents(1, 0.6, 0.6, 1)))
        assert contains(region, (0.2, 0.6, 0.6))

    def test_trivial_optima(self):
        assert per_user_dof_optimum(0.0) == pytest.approx(1.0, abs=1e-12)
        assert per_user_dof_optimum(0.0, allow_common=False) == pytest.approx(1.0, abs=1e-12)
        assert dof_icci_lp(3.0) == pytest.approx(1.5, abs=1e-12)

    def test_region_module_consistency(self):
        # HiGHS on the symmetric slice of the full 3-D polytope gives the
        # closed-form curve and the dual-table optimum
        for alpha in [2.0 / 3.0] + GRID[::10]:
            region = build_gdof_region(gdof_coeffs(GdofExponents(1, alpha, alpha, 1)))
            res = linprog(
                c=[-0.5, -0.5, -0.5],  # per-user total (r0 + r1 + r2) / 2
                A_ub=region.coefficient_matrix(),
                b_ub=region.rhs_vector(),
                A_eq=[[0, 1, -1]],
                b_eq=[0],
                bounds=[(0, None)] * 3,
                method="highs",
            )
            assert res.status == 0
            assert -res.fun == pytest.approx(dof_icci(alpha), abs=1e-9)
            assert -res.fun == pytest.approx(dof_icci_lp(alpha), abs=1e-9), alpha


class TestMultiplexing:
    def test_targets_track_exponent_coeffs(self):
        t = multiplexing_targets(GdofExponents(1, 0.6, 0.6, 1))
        assert t["A1"] == 0.4 and t["D1"] == 1.0 and t["E1"] == 0.6
        assert t["G1"] == 1.0 and t["G1p"] == 1.0

    @pytest.mark.parametrize(
        "exponents",
        [GdofExponents(1, 0.6, 0.6, 1), GdofExponents(1, 0, 0, 1), GdofExponents(1, 2, 2, 1)],
    )
    def test_finite_power_convergence(self, exponents):
        targets = multiplexing_targets(exponents)
        lo = multiplexing_gain(exponents, 1e6)
        hi = multiplexing_gain(exponents, 1e12)
        dev_lo = max(abs(lo[k] - targets[k]) for k in targets)
        dev_hi = max(abs(hi[k] - targets[k]) for k in targets)
        assert dev_hi <= 0.05
        assert dev_hi < dev_lo

    def test_rejects_small_power(self):
        with pytest.raises(ValueError):
            multiplexing_gain(GdofExponents(1, 1, 1, 1), 1.0)

    def test_a_gain_whose_square_overflows_is_invalid_input(self):
        # a gain of 1e300 is a float, its square is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"ChannelGains\(m11=1e\+300, .* is too large for a float"):
                multiplexing_gain(GdofExponents(600, 0, 0, 1), 10.0)


class TestCurveCsv:
    def test_sample_grid(self):
        samples = dof_curve_samples()
        assert len(samples) == 301
        assert samples[0].alpha == 0.0
        assert samples[-1].alpha == pytest.approx(3.0, abs=1e-12)
        s = samples[60]
        assert s.alpha == pytest.approx(0.6, abs=1e-12)
        assert s.d_icci == pytest.approx(0.7, abs=1e-9)
        assert s.d_uplift == pytest.approx(s.d_icci - s.d_ic, abs=0)

    def test_an_oversized_grid_is_rejected_before_it_is_built(self, monkeypatch):
        def refuse(alphas):
            raise AssertionError("a grid point was computed")

        monkeypatch.setattr(icci.gdof, "_symmetric_reach", refuse)
        # an infinite count, an unbounded one, and one point over the limit
        for grid in ((0.0, 1e308, 0.001), (0.0, 3.0, 1e-300), (0.0, float(_MAX_CURVE_POINTS), 1.0)):
            with pytest.raises(ValueError, match=f"over {_MAX_CURVE_POINTS} points"):
                dof_curve_samples(*grid)
        # a grid of exactly the limit is accepted, so its first pass is computed
        with pytest.raises(AssertionError, match="a grid point was computed"):
            dof_curve_samples(0.0, float(_MAX_CURVE_POINTS - 1), 1.0)

    def test_csv_round_trip(self):
        buf = io.StringIO()
        count = write_curve_csv(buf, alpha_min=0.0, alpha_max=0.1, step=0.05)
        assert count == 3
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CURVE_CSV_HEADER)
        assert len(lines) == 4
        fields = lines[2].split(",")
        assert float(fields[0]) == 0.05
        assert float(fields[2]) == dof_icci(0.05)  # full precision round trip
