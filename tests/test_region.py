import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

import icci.region
from icci.bounds import BoundCoeffs, coeff_rows, gap_deltas, inner_coeffs, outer_coeffs
from icci.channel import ChannelGains, GdofExponents
from icci.cli import dispatch
from icci.gdof import build_gdof_region, gdof_coeffs
from icci.region import (
    _BOUND_DISTINCT,
    _BOUND_ROW,
    _CANDIDATE_RTOL,
    _OBJECTIVE_WEIGHT,
    BOUND_PATTERNS,
    MEMBERSHIP_TOL,
    RateRegion,
    _candidates,
    _gap_rows,
    _least_rhs,
    _plane_solver,
    _reach,
    _reach_by_terms,
    bound_rhs,
    build_inner,
    build_outer,
    containment_slack,
    contains,
    region_as_dict,
    region_from_coeffs,
    vertices,
    within_bits,
    within_bits_slack,
    within_bits_unclipped_slack,
)
from icci.sweep import _CHUNK, MAG_LIMIT, sample_gains

from conftest import seeded_channels
from test_gaussian_mi import EDGES
from test_sweep import EDGE_CHANNELS, TIE_CHANNELS, TWIN_CHANNELS, exact_vertices

EXPECTED_PATTERNS = [
    (1, 1, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1),
    (0, 1, 1), (0, 1, 1), (0, 1, 1),
    (1, 1, 1), (1, 1, 1),
    (0, 2, 1), (0, 1, 2), (1, 2, 1), (1, 1, 2),
]


def lp_max(region: RateRegion, weights) -> float:
    res = linprog(
        c=-np.asarray(weights, dtype=float),
        A_ub=region.coefficient_matrix(),
        b_ub=region.rhs_vector(),
        bounds=[(0, None)] * 3,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def test_constraint_patterns_fixed_order(worked_channel):
    region = build_inner(inner_coeffs(worked_channel))
    assert [c for c, _ in region.halfspaces] == EXPECTED_PATTERNS
    assert [rhs for _, rhs in region.halfspaces] == region.rhs_vector().tolist()
    assert list(BOUND_PATTERNS) == EXPECTED_PATTERNS
    assert region.label == "inner"


def certificates(cover: RateRegion, target: RateRegion) -> list:
    """Both gap certificates at one bit, each with its witness read."""
    certs = [within_bits_slack(cover, target, 1.0), within_bits_unclipped_slack(cover, target, 1.0)]
    return [(c.slack, c.halfspace_index, c.vertex, c.shifted) for c in certs]


def test_rhs_vector_is_a_fresh_writable_copy(worked_channel):
    inner = build_inner(inner_coeffs(worked_channel))
    outer = build_outer(outer_coeffs(worked_channel))
    want = (vertices(inner).tobytes(), vertices(outer).tobytes(), certificates(inner, outer))
    rhs = inner.rhs_vector()
    assert rhs.flags.writeable and rhs is not inner.rhs_vector()
    rhs[:] = 0.0
    outer.rhs_vector()[:] = 1e3
    assert (vertices(inner).tobytes(), vertices(outer).tobytes(), certificates(inner, outer)) == want
    assert inner.rhs_vector().tobytes() != rhs.tobytes()
    # what a certificate keeps of its target is the region's own array, read-only
    with pytest.raises(ValueError):
        inner._rhs[0] = 0.0


def test_a_rebuilt_region_is_the_built_one(worked_channel):
    gains = [worked_channel] + seeded_channels(19, 10, 1.0 / MAG_LIMIT, MAG_LIMIT)
    for g in gains:
        built = (build_inner(inner_coeffs(g)), build_outer(outer_coeffs(g)))
        rebuilt = (build_inner(inner_coeffs(g)), build_outer(outer_coeffs(g)))
        for a, b in zip(built, rebuilt):
            assert a is not b and a == b and hash(a) == hash(b)
            # the hash of the (label, halfspaces) pair a region used to be
            assert hash(a) == hash((a.label, a.halfspaces))
            assert a.rhs_vector().tobytes() == b.rhs_vector().tobytes()
            assert vertices(a).tobytes() == vertices(b).tobytes()
            assert region_as_dict(a) == region_as_dict(b)
        assert certificates(*built) == certificates(*rebuilt)
        assert certificates(*built[::-1]) == certificates(*rebuilt[::-1])
    # the label is part of a region: the same coefficients as another side
    coeffs = inner_coeffs(worked_channel)
    inner, outer = region_from_coeffs(coeffs), region_from_coeffs(BoundCoeffs(coeffs.values, "outer"))
    assert (inner.label, outer.label) == ("inner", "outer")
    assert inner.halfspaces == outer.halfspaces and inner != outer and inner != built[1]
    assert len({inner, outer, region_from_coeffs(coeffs)}) == 2


def test_build_is_bound_rhs_bit_for_bit():
    families = [f(g) for g in seeded_channels(3, 300, 1.0 / MAG_LIMIT, MAG_LIMIT) + EDGE_CHANNELS
                for f in (inner_coeffs, outer_coeffs)]
    families += [gdof_coeffs(GdofExponents(1, alpha, alpha, 1)) for alpha in (0.0, 0.3, 0.6, 1.0, 2.5)]
    want = bound_rhs(np.array([c.values for c in families]).T)
    for k, c in enumerate(families):
        region = region_from_coeffs(c)
        assert region.label == c.side and region.rhs_vector().tobytes() == want[:, k].tobytes()
    assert build_gdof_region(families[-1]).rhs_vector().tobytes() == want[:, -1].tobytes()


def test_build_rejects_an_infinite_rhs():
    # finite coefficients whose row sums overflow
    coeffs = BoundCoeffs((1e308,) * 10, "outer")
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # and with no overflow warning
        with pytest.raises(ValueError):
            build_outer(coeffs)


def test_build_rejects_wrong_side(worked_channel):
    families = {
        "inner": inner_coeffs(worked_channel),
        "outer": outer_coeffs(worked_channel),
        "gdof": gdof_coeffs(GdofExponents(1, 0.6, 0.6, 1)),
        "delta": gap_deltas(worked_channel),
    }
    builders = {"inner": build_inner, "outer": build_outer, "gdof": build_gdof_region}
    for side, build in builders.items():
        assert build(families[side]).label == side
        for other, coeffs in families.items():
            if other != side:
                with pytest.raises(ValueError, match=f"need side='{side}'"):
                    build(coeffs)
    # a delta family is no region, even with rows a region would accept
    for coeffs in (families["delta"], BoundCoeffs((0.5,) * 10, "delta")):
        with pytest.raises(ValueError, match="delta family"):
            region_from_coeffs(coeffs)


def test_degenerate_region_is_origin():
    region = build_inner(inner_coeffs(ChannelGains(0, 0, 0, 0)))
    vs = vertices(region)
    assert len(vs) == 1
    assert np.allclose(vs[0], 0.0)
    assert contains(region, (0, 0, 0))
    assert not contains(region, (0.1, 0, 0))


def test_worked_inner_r1_axis_reach(worked_channel):
    region = build_inner(inner_coeffs(worked_channel))
    d1 = math.log2(51)
    assert contains(region, (0, d1, 0))
    assert not contains(region, (0, d1 + 1e-6, 0))
    assert lp_max(region, (0, 1, 0)) == pytest.approx(d1, abs=1e-9)
    # and it is an enumerated vertex
    vs = vertices(region)
    assert np.min(np.max(np.abs(vs - np.array([0, d1, 0])), axis=1)) < 1e-9


def test_interference_free_vertices():
    gains = ChannelGains(math.sqrt(3), 0, 0, math.sqrt(3))
    vs = vertices(build_inner(inner_coeffs(gains)))
    for expected in ((0, 2, 2), (2, 0, 0)):
        assert np.min(np.max(np.abs(vs - np.array(expected, dtype=float)), axis=1)) < 1e-9


def test_unit_outer_r0_reach(unit_channel):
    region = build_outer(outer_coeffs(unit_channel))
    assert lp_max(region, (1, 0, 0)) == pytest.approx(math.log2(5), abs=1e-9)


def test_inner_vertices_inside_outer(worked_channel):
    inner = build_inner(inner_coeffs(worked_channel))
    outer = build_outer(outer_coeffs(worked_channel))
    slack = containment_slack(outer, vertices(inner))
    assert slack.min() >= -1e-9


# the solver is order-free: the reversed rows give the same 10 planes in another order
@pytest.mark.parametrize("patterns", [BOUND_PATTERNS, BOUND_PATTERNS[::-1], _BOUND_DISTINCT])
def test_solver_keeps_exactly_the_rank3_triples(patterns):
    c, row, triples, adj, det = _plane_solver(patterns)
    distinct = list(dict.fromkeys(patterns))
    assert [distinct[k] for k in row] == list(patterns)
    planes = np.vstack([np.array(distinct, dtype=float), np.eye(3)])
    combos = list(itertools.combinations(range(len(planes)), 3))
    rank3 = [t for t in combos if np.linalg.matrix_rank(planes[list(t)]) == 3]
    assert [tuple(t) for t in triples] == rank3
    assert (len(distinct), len(rank3), len(combos)) == (10, 216, 286)
    # the adjugates and determinants are exact: adj . M = det * I with no rounding
    m = planes[triples]
    assert np.array_equal(adj @ m, det[:, None, None] * np.eye(3))
    assert np.array_equal(c, np.array(patterns, dtype=float))


def merge_reference(candidates: np.ndarray, tol: float) -> np.ndarray:
    """The greedy merge of ``vertices``, one pass per kept vertex: keep the
    first candidate, drop every one within tol of it in the max norm, and
    repeat on the rest."""
    kept = []
    while len(candidates):
        kept.append(candidates[0])
        candidates = candidates[np.abs(candidates - candidates[0]).max(axis=1) > tol]
    return np.array(kept).reshape(-1, 3)


def test_least_rhs_is_each_patterns_least_row():
    # one minimum per run needs each pattern's rows to be adjacent
    assert np.all(np.diff(_BOUND_ROW) >= 0)
    rhs = np.random.default_rng(3).random((13, 5))
    want = np.full((len(_BOUND_DISTINCT), 5), np.inf)
    np.minimum.at(want, _BOUND_ROW, rhs)
    assert _least_rhs(rhs).tobytes() == want.tobytes()
    assert _least_rhs(rhs[:, 0]).tobytes() == want[:, 0].tobytes()


def test_vertices_is_the_greedy_merge():
    tiny = ChannelGains(1e-6, 1e-6, 1e-6, 1e-6)
    gains = (seeded_channels(42, 100) + seeded_channels(5, 200, 1.0 / MAG_LIMIT, MAG_LIMIT) + EDGE_CHANNELS
             + [sample_gains(42, i) for i in TWIN_CHANNELS + TIE_CHANNELS] + [tiny])
    for g in gains:
        for region in (build_inner(inner_coeffs(g)), build_outer(outer_coeffs(g))):
            want = merge_reference(*_candidates(region.rhs_vector()))
            assert vertices(region).tobytes() == want.tobytes(), (g, region.label)
    # exact vertices closer than the radius: 15 of them, shown as 8
    inner = build_inner(inner_coeffs(tiny))
    assert (len(exact_vertices(inner)[1]), len(vertices(inner))) == (15, 8)


def test_vertex_merge_keeps_both_ends_of_a_chain(monkeypatch, worked_channel):
    # a ~ b and b ~ c, a and c apart: b is dropped with a, and c, whose only
    # near neighbour is dropped, is kept
    points = np.array([[0.0, 1.0, 1.0], [0.6, 1.0, 1.0], [1.2, 1.0, 1.0]])
    monkeypatch.setattr(icci.region, "_candidates", lambda rhs: (points, 1.0))
    shown = vertices(build_inner(inner_coeffs(worked_channel)))
    assert shown.tobytes() == points[[0, 2]].tobytes() == merge_reference(points, 1.0).tobytes()


def test_vertex_set_invariants():
    for gains in seeded_channels(seed=11, count=20):
        for region in (build_inner(inner_coeffs(gains)), build_outer(outer_coeffs(gains))):
            pts = vertices(region)
            assert containment_slack(region, pts).min() >= -1e-9
            planes = np.vstack([region.coefficient_matrix(), np.eye(3)])
            offsets = np.concatenate([region.rhs_vector(), np.zeros(3)])
            for point in pts:
                tight = np.abs(planes @ point - offsets) <= 1e-9
                assert tight.sum() >= 3
                assert np.linalg.matrix_rank(planes[tight]) == 3
            if len(pts) > 1:
                diff = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
                diff[np.diag_indices(len(pts))] = np.inf
                assert diff.min() > _CANDIDATE_RTOL * region.rhs_vector().max()


def test_vertex_lp_duality():
    rng = np.random.default_rng(5)
    for gains in seeded_channels(seed=3, count=5):
        for region in (build_inner(inner_coeffs(gains)), build_outer(outer_coeffs(gains))):
            pts = vertices(region)
            for _ in range(20):
                w = rng.random(3)
                assert lp_max(region, w) == pytest.approx(float((pts @ w).max()), abs=1e-9)


def test_downward_comprehensive():
    rng = np.random.default_rng(17)
    checked = 0
    for gains in seeded_channels(seed=23, count=10):
        region = build_outer(outer_coeffs(gains))
        pts = vertices(region)
        for _ in range(100):
            lam = rng.random(len(pts))
            p = lam @ pts / lam.sum()
            q = rng.random(3) * p
            assert contains(region, q)
            checked += 1
    assert checked == 1000


def test_within_bits_identity():
    for gains in seeded_channels(seed=31, count=10):
        region = build_inner(inner_coeffs(gains))
        assert within_bits(region, region, 0.0)


def test_within_bits_zero_budget_fails_on_unit_channel(unit_channel):
    inner = build_inner(inner_coeffs(unit_channel))
    outer = build_outer(outer_coeffs(unit_channel))
    assert not within_bits(inner, outer, 0.0)
    cert = within_bits_slack(inner, outer, 0.0)
    assert cert.slack < 0
    assert 0 <= cert.halfspace_index < 13


def test_within_two_bits_universal():
    # every constraint's outer-minus-inner offset is below the number of
    # rate coordinates it involves, so a two-bit clipped shift always
    # lands inside: each row loses at least min(2 * active coords, offset)
    for gains in seeded_channels(seed=47, count=200):
        inner = build_inner(inner_coeffs(gains))
        outer = build_outer(outer_coeffs(gains))
        assert within_bits(inner, outer, 2.0)


def test_within_bits_slack_monotone_in_budget():
    rng = np.random.default_rng(9)
    for gains in seeded_channels(seed=53, count=20):
        inner = build_inner(inner_coeffs(gains))
        outer = build_outer(outer_coeffs(gains))
        b = float(rng.random() * 2)
        wider = b + float(rng.random())
        assert within_bits_slack(inner, outer, wider).slack >= within_bits_slack(inner, outer, b).slack
        if within_bits(inner, outer, b):
            assert within_bits(inner, outer, wider)


def test_within_bits_validation(worked_channel):
    region = build_inner(inner_coeffs(worked_channel))
    with pytest.raises(ValueError):
        within_bits(region, region, -1.0)
    for bits in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            within_bits_unclipped_slack(region, region, bits)


def both_regions_rhs(gains) -> np.ndarray:
    """The (13, 2N) rhs of N channels, inner columns first, as the sweep
    core takes them."""
    return bound_rhs(coeff_rows(gains).swapaxes(0, 1)).reshape(len(BOUND_PATTERNS), -1)


def assert_reach_is_the_term_form(rhs, sizes):
    want = _reach_by_terms(_least_rhs(rhs))
    assert not np.isnan(want).any()
    for size in sizes:
        got = np.concatenate([_reach(rhs[:, s:s + size]) for s in range(0, rhs.shape[1], size)], axis=1)
        assert got.tobytes() == want.tobytes(), size


def test_reach_sums_each_multiplier_in_plane_order():
    # numpy does not document einsum's order of summation, and a sum of
    # three multiplier terms (1/3, 2/3 and 3/4 among them) depends on it:
    # the dense product has to be the term form, bit for bit, in the
    # sweep's passes of 2 * _CHUNK columns, in larger ones and on a whole
    # set at once
    edges = np.array(list(itertools.product(EDGES, repeat=4)))
    assert_reach_is_the_term_form(both_regions_rhs(edges), (2 * _CHUNK, 2048, len(edges) * 2))
    wide = 10.0 ** np.random.default_rng(17).uniform(-6.0, 6.0, (20000, 4))
    assert_reach_is_the_term_form(both_regions_rhs(wide), (2 * _CHUNK, 2048, len(wide) * 2))


def test_unclipped_equals_clipped_without_clip():
    for gains in seeded_channels(seed=61, count=20):
        inner = build_inner(inner_coeffs(gains))
        outer = build_outer(outer_coeffs(gains))
        # at zero bits neither shift moves a vertex
        assert within_bits_unclipped_slack(inner, outer, 0.0) == within_bits_slack(inner, outer, 0.0)
        # every region here has the origin as a vertex, so test a target
        # whose points have every coordinate at least bits: the outer
        # region raised by bits, whose maxima are the outer ones plus
        # bits * sum(c_S).  The clipped rows take the largest difference
        # over the restrictions c_S, the per-rate rows the full pattern
        # only, so they agree up to rounding.
        reach = _reach(outer.rhs_vector()[:, None])
        for bits in (0.5, 1.0, 2.0):
            raised = reach + bits * _OBJECTIVE_WEIGHT
            rows = [_gap_rows(inner.rhs_vector()[:, None], raised, bits, clip) for clip in (True, False)]
            np.testing.assert_allclose(*rows, rtol=0, atol=1e-12)
            # the same raised target as points: the outer vertices plus bits
            points = vertices(outer) + bits
            assert points.min() >= bits
            by_points = inner.rhs_vector() - (points - bits) @ inner.coefficient_matrix().T
            np.testing.assert_allclose(rows[0][:, 0], by_points.min(axis=0), rtol=0, atol=1e-12)


def test_certificate_vertex_attains_the_slack():
    for gains in seeded_channels(seed=73, count=20):
        inner = build_inner(inner_coeffs(gains))
        outer = build_outer(outer_coeffs(gains))
        for bits in (0.0, 1.0):
            for cert, shift in ((within_bits_slack(inner, outer, bits), lambda v: np.maximum(v - bits, 0.0)),
                                (within_bits_unclipped_slack(inner, outer, bits), lambda v: v - bits)):
                v = np.array(cert.vertex)
                assert containment_slack(outer, v)[0] >= -MEMBERSHIP_TOL
                assert np.array_equal(cert.shifted, shift(v))
                # the vertex's slack on every row, lowest on the reported one
                rows = inner.rhs_vector() - inner.coefficient_matrix() @ shift(v)
                assert rows[cert.halfspace_index] == pytest.approx(cert.slack, abs=1e-12)
                assert rows.min() >= cert.slack - 1e-12


def test_a_slack_only_read_solves_no_triples(monkeypatch, capsys, worked_channel):
    inner = build_inner(inner_coeffs(worked_channel))
    outer = build_outer(outer_coeffs(worked_channel))
    want = [within_bits_slack(inner, outer, 1.0), within_bits_unclipped_slack(inner, outer, 1.0)]
    witnesses = [(c.vertex, c.shifted) for c in want]

    def refuse(rhs):
        raise AssertionError("a slack-only read solved the target's triples")

    monkeypatch.setattr(icci.region, "_candidates", refuse)
    got = [within_bits_slack(inner, outer, 1.0), within_bits_unclipped_slack(inner, outer, 1.0)]
    assert [(c.slack, c.halfspace_index) for c in got] == [(c.slack, c.halfspace_index) for c in want]
    assert within_bits(inner, outer, 2.0) and not within_bits(inner, outer, 0.0)
    assert dispatch(["gap", "--m11", "5", "--m12", "1", "--m21", "1", "--m22", "5"]) in (0, 1)
    assert "worst_slack=" in capsys.readouterr().out
    # the witness is solved when it is read, as it was before
    monkeypatch.undo()
    assert [(c.vertex, c.shifted) for c in got] == witnesses
    assert got == want


def test_tied_rows_report_the_lowest(worked_channel):
    # on the symmetric worked channel rows 11 and 12 tie exactly at zero bits
    inner = build_inner(inner_coeffs(worked_channel))
    outer = build_outer(outer_coeffs(worked_channel))
    rows = _gap_rows(inner.rhs_vector()[:, None], _reach(outer.rhs_vector()[:, None]), 0.0, clip=True)[:, 0]
    assert list(np.flatnonzero(rows == rows.min())) == [11, 12]
    cert = within_bits_slack(inner, outer, 0.0)
    assert (cert.slack, cert.halfspace_index) == (rows[11], 11)


def test_enumeration_tolerance_is_far_below_the_verdict_tolerance():
    # verdicts use the absolute MEMBERSHIP_TOL, enumeration the relative
    # _CANDIDATE_RTOL times the largest rhs B: over the corners of the
    # accepted envelope the latter stays a hundred times smaller, so
    # enumeration rounding cannot flip a verdict
    corners = (0.0, 1.0 / MAG_LIMIT, 1.0, MAG_LIMIT)
    largest = max(region.rhs_vector().max()
                  for gains in itertools.product(corners, repeat=4)
                  for region in (build_inner(inner_coeffs(ChannelGains(*gains))),
                                 build_outer(outer_coeffs(ChannelGains(*gains)))))
    assert _CANDIDATE_RTOL * largest < MEMBERSHIP_TOL / 100
    # and the bound the rationale gives for the whole envelope: every
    # coefficient is at most log2(1 + (2 * MAG_LIMIT)**2), a rhs three of them
    bound = 3 * math.log2(1 + (2 * MAG_LIMIT) ** 2)
    assert largest <= bound and _CANDIDATE_RTOL * bound < MEMBERSHIP_TOL / 100


def test_unclipped_never_below_clipped():
    rng = np.random.default_rng(13)
    for gains in seeded_channels(seed=67, count=40):
        inner = build_inner(inner_coeffs(gains))
        outer = build_outer(outer_coeffs(gains))
        for bits in (0.0, 0.5, 0.99, 1.0, 2.0, float(rng.random() * 3)):
            assert (within_bits_unclipped_slack(inner, outer, bits).slack
                    >= within_bits_slack(inner, outer, bits).slack)


def test_unclipped_one_bit_is_sharp():
    # the per-rate shift holds at one bit on every channel and fails
    # just below it, so the certificate can still fail
    regions = [
        (build_inner(inner_coeffs(g)), build_outer(outer_coeffs(g)))
        for g in seeded_channels(seed=47, count=200)
    ]
    assert all(within_bits_unclipped_slack(i, o, 1.0).slack >= -1e-9 for i, o in regions)
    for bits in (0.999, 0.99):
        assert any(within_bits_unclipped_slack(i, o, bits).slack < -1e-9 for i, o in regions)


def test_unclipped_slack_matches_row_lp():
    # slack = min over inner rows of rhs + bits * sum(c) - max_{outer} c . r
    for gains in seeded_channels(seed=71, count=5):
        inner = build_inner(inner_coeffs(gains))
        outer = build_outer(outer_coeffs(gains))
        expected = min(rhs + sum(c) - lp_max(outer, c) for c, rhs in inner.halfspaces)
        assert within_bits_unclipped_slack(inner, outer, 1.0).slack == pytest.approx(expected, abs=1e-9)


def test_region_as_dict_shape(worked_channel):
    region = build_outer(outer_coeffs(worked_channel))
    d = region_as_dict(region)
    assert d["label"] == "outer"
    assert len(d["halfspaces"]) == 13
    assert d["halfspaces"][0] == {"c": [1, 1, 0], "rhs": pytest.approx(math.log2((10 + math.sqrt(10)) ** 2 + 1))}
    assert all(len(v) == 3 for v in d["vertices"])


def test_type_validation(worked_channel):
    values = outer_coeffs(worked_channel).values
    # no free label reaches a region: a family's side is checked when it is made
    with pytest.raises(ValueError, match="side must be one of"):
        BoundCoeffs(values, "bogus")
    # the label is the family's side, and part of the region
    outer = region_from_coeffs(BoundCoeffs(values, "outer"))
    inner = region_from_coeffs(BoundCoeffs(values, "inner"))
    assert outer.label == "outer" and outer == build_outer(outer_coeffs(worked_channel))
    assert inner.halfspaces == outer.halfspaces and inner != outer


def test_the_constructor_checks_a_region(worked_channel):
    # a label and 13 right-hand sides, each finite and >= 0, whoever makes the region
    good = region_from_coeffs(outer_coeffs(worked_channel)).rhs_vector()
    bad = [("bogus", np.full(13, -1.0)), ("bogus", good), ("delta", good), ("outer", good[:12]),
           ("outer", np.full(13, -1.0)), ("outer", np.append(good[:12], -1e-300)), ("outer", 1.0),
           ("outer", good[:, None]), ("outer", [None] * 13), ("outer", ["1"] * 13)]
    for value in (math.nan, math.inf):
        for k in (0, 6, 12):   # a NaN anywhere, not only where min or max would meet it
            rhs = good.copy()
            rhs[k] = value
            bad.append(("outer", rhs))
    for label, rhs in bad:
        with pytest.raises(ValueError):
            RateRegion(label, rhs)
            pytest.fail(f"{label!r}, {rhs!r}")
    # a writeable input is stored as a read-only float64 copy, and is the built region
    region = RateRegion("outer", good)
    assert good.flags.writeable and not region._rhs.flags.writeable and region._rhs.dtype == np.float64
    good[0] += 1.0
    assert region == build_outer(outer_coeffs(worked_channel))
    assert RateRegion("gdof", [0, 1, 2] * 4 + [3]).rhs_vector().tolist() == [0.0, 1.0, 2.0] * 4 + [3.0]
