import functools
import hashlib
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
from icci.gdof import build_gdof_region, gdof_coeffs, gdof_rows
from icci.region import (
    _ADJ,
    _BOUND_DISTINCT,
    _BOUND_ROW,
    _CANDIDATE_RTOL,
    _COEFFS,
    _DET,
    _DOMINANCE,
    _DUAL_DENSE,
    _DUAL_STARTS,
    _OBJECTIVE_WEIGHT,
    _OBJECTIVES,
    _PAIR_TERMS,
    _PAIRS_FROM,
    _REACH_PASS,
    _SOLVE,
    _TERM_GATHER,
    _TERM_PLANE,
    _TERM_ROWS,
    _TERM_Y,
    _TRIPLE_TERMS,
    _TRIPLES,
    _TRIPLES_FROM,
    BOUND_PATTERNS,
    MEMBERSHIP_TOL,
    RateRegion,
    _candidates,
    _gap_rows,
    _implied,
    _least_rhs,
    _reach,
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
from icci.sweep import MAG_LIMIT, sample_gains

from conftest import seeded_channels
from test_gaussian_mi import EDGES
from test_sweep import EDGE_CHANNELS, TIE_CHANNELS, TWIN_CHANNELS, assert_shows_its_exact_vertices, exact_vertices

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


def g_prime_is_g(coeffs: np.ndarray, rhs: np.ndarray) -> bool:
    """Do (10, N) coefficients hold G' as G bit for bit, and their (13, N)
    rhs rows 5, 6, 9 and 10 as rows 7, 8, 11 and 12?"""
    return (coeffs[8:].tobytes() == coeffs[6:8].tobytes()
            and rhs[[5, 6, 9, 10]].tobytes() == rhs[[7, 8, 11, 12]].tobytes())


def test_inner_and_gdof_g_prime_is_g_and_four_rows_drop_r0():
    # the fact the icci.region docstring states once: on these families
    # rows 5, 6, 9 and 10 are rows 7, 8, 11 and 12 without r0 at the same
    # rhs, on both paths; the outer family breaks it, so the check can fail
    patterns = np.array(BOUND_PATTERNS)
    assert (patterns[[5, 6, 9, 10]] == patterns[[7, 8, 11, 12]] - (1, 0, 0)).all()
    gains = ([ChannelGains(*m) for m in itertools.product(EDGES, repeat=4)]
             + seeded_channels(42, 10000) + seeded_channels(7, 10000, 1e-6, 1e6))
    batched = coeff_rows(np.array([(g.m11, g.m12, g.m21, g.m22) for g in gains]))
    grid = np.array(list(itertools.product((0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0), repeat=4)))
    families = {
        "inner": (batched[0], [inner_coeffs(g) for g in gains]),
        "gdof": (gdof_rows(grid), [gdof_coeffs(GdofExponents(*e)) for e in grid.tolist()]),
        "outer": (batched[1], [outer_coeffs(g) for g in gains]),
    }
    for side, (rows, scalar) in families.items():
        scalar_rhs = np.array([region_from_coeffs(c).rhs_vector() for c in scalar]).T
        for coeffs, rhs in ((rows, bound_rhs(rows)), (np.array([c.values for c in scalar]).T, scalar_rhs)):
            assert g_prime_is_g(coeffs, rhs) == (side != "outer"), side


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


# sha256 of each fixed table of the shape, as little-endian float64, int64
# or bool bytes: every entry is a small exact integer or one correctly
# rounded division of two, so any CPU gives these bytes
SHAPE_TABLE_SHA256 = {
    "_COEFFS": ((13, 3), "af0161928002d776b3b1ce9c90a0d8c04a9a7635dd673ee84dfbbaff5a438f55"),
    "_BOUND_ROW": ((13,), "175e47388432b751ed3e6b132df2361867c9049a7bb98ecc3310cc52526df77c"),
    "_BOUND_STARTS": ((10,), "21149359f311586f46ad4a44d5185be68ce002ecab8f8b00c7a8eb600ebb54aa"),
    "_TRIPLES": ((216, 3), "4342315d7d4d900efb3f1f83977861eabd93695cca33763feb1956c48b060257"),
    "_ADJ": ((216, 3, 3), "4fd21953c12c70b2b2a117bddf2b65d29c69885a705458044ccd5ea1fb9ef3cd"),
    "_DET": ((216,), "aa93b15c617dabc89cef7b2f7622ad4498fdf896c7a2ddc5d390b625ffaf307b"),
    "_SOLVE": ((648, 10), "0a0245ddb6298eb04de9d33f8dfc72c6828ed507b88a0c57867e92732869faa3"),
    "_FACES": ((13, 3), "06d80ad708474ec385b32f1813aa0b456eede2420857b3c1cbde818580f70b19"),
    "_KEPT": ((256, 216), "90755966434e0c15123715f8baf990c5039d80d6d97beae8617fce07f7ab72fd"),
    "_DUAL_DENSE": ((10, 232), "71e66894f0602a80852f0b9f6eccc852c4e732cfce397c61396b10a14b944e1a"),
    "_DUAL_STARTS": ((15,), "fe28a3d9fe6e90f7baa5cd7dc3967ffdd5a066e194e787121f27e3b2169a76d2"),
    "_TERM_PLANE": ((48,), "b1c4ec84ad66062c98b85794b83efe3d585a6314b0f928d9bb154a6727c49163"),
    "_TERM_Y": ((48, 1), "24b54f90b3a9a16dba4bf564405731233e272f310786c6d2beef37ee4872d8b7"),
    "_PAIR_TERMS": ((2, 82), "d0c4a84b0bc6a58029a5ad1b8fe0cbaea4fa3678a5fe410cf2f595720faaa8c4"),
    "_TRIPLE_TERMS": ((2, 19), "3606047e4e99c8bc9443027136e5465d80d05f7f5fd698d44ae5520a8bf90e2d"),
    "_TERM_GATHER": ((232,), "cb26c5bc75f06557d841115efc826667c6b1de65f3bafccd4e951e947efb90d1"),
}


def test_the_shape_tables_keep_their_bytes():
    for name, (shape, digest) in SHAPE_TABLE_SHA256.items():
        table = getattr(icci.region, name)
        data = table.astype({"f": "<f8", "i": "<i8", "b": "?"}[table.dtype.kind]).tobytes()
        assert (table.shape, hashlib.sha256(data).hexdigest()) == (shape, digest), name


def _cross(a, b):
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


@functools.cache
def exact_triples() -> tuple:
    """(triple, adjugate rows, determinant) of every nonsingular triple
    of the 13 planes, the distinct patterns then r0 = 0, r1 = 0, r2 = 0,
    in Python ints: the columns of the adjugate of M are the cross
    products of M's row pairs, and det is row 0 times the first."""
    planes = list(_BOUND_DISTINCT) + [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    found = []
    for t in itertools.combinations(range(len(planes)), 3):
        m = [planes[i] for i in t]
        columns = [_cross(m[1], m[2]), _cross(m[2], m[0]), _cross(m[0], m[1])]
        det = sum(a * b for a, b in zip(m[0], columns[0]))
        if det:
            found.append((t, [list(row) for row in zip(*columns)], det))
    return tuple(found)


def test_shape_tables_keep_exactly_the_rank3_triples():
    assert _COEFFS.tolist() == [list(c) for c in BOUND_PATTERNS]
    assert [_BOUND_DISTINCT[k] for k in _BOUND_ROW] == list(BOUND_PATTERNS)
    planes = np.vstack([np.array(_BOUND_DISTINCT, dtype=float), np.eye(3)])
    combos = list(itertools.combinations(range(len(planes)), 3))
    rank3 = [t for t in combos if np.linalg.matrix_rank(planes[list(t)]) == 3]
    assert (len(_BOUND_DISTINCT), len(rank3), len(combos)) == (10, 216, 286)
    triples, adj, det = zip(*exact_triples())
    assert [tuple(t) for t in _TRIPLES.tolist()] == list(triples) == rank3
    assert _ADJ.tolist() == list(adj) and _DET.tolist() == list(det)
    # the adjugates and determinants are exact: adj . M = det * I with no rounding
    assert np.array_equal(_ADJ @ planes[_TRIPLES], _DET[:, None, None] * np.eye(3))
    assert _SOLVE.tobytes() == solve_map()[2].tobytes()
    assert not any(getattr(icci.region, name).flags.writeable for name in SHAPE_TABLE_SHA256)


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
    # the exponent regions of the edge quadruples whose right-hand sides are
    # finite (384 of 625) and of the symmetric grid; at rhs near the largest
    # float some triple solves overflow, and both merges see the same candidates
    from test_gdof import EDGE_EXPONENTS, GRID   # here: test_gdof imports this module
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = bound_rhs(gdof_rows(EDGE_EXPONENTS + [[1.0, a, a, 1.0] for a in GRID]))
        regions = [RateRegion("gdof", column) for column in rhs.T if np.isfinite(column).all()]
        assert len(regions) == 384 + len(GRID)
        for region in regions:
            want = merge_reference(*_candidates(region.rhs_vector()))
            assert vertices(region).tobytes() == want.tobytes(), region
    # exact vertices closer than the radius: 8 of them, shown as 5
    inner = build_inner(inner_coeffs(tiny))
    assert (len(exact_vertices(inner)[1]), len(vertices(inner))) == (8, 5)


def test_vertex_merge_keeps_both_ends_of_a_chain(monkeypatch, worked_channel):
    # a ~ b and b ~ c, a and c apart: b is dropped with a, and c, whose only
    # near neighbour is dropped, is kept
    points = np.array([[0.0, 1.0, 1.0], [0.6, 1.0, 1.0], [1.2, 1.0, 1.0]])
    monkeypatch.setattr(icci.region, "_candidates", lambda rhs: (points, 1.0))
    shown = vertices(build_inner(inner_coeffs(worked_channel)))
    assert shown.tobytes() == points[[0, 2]].tobytes() == merge_reference(points, 1.0).tobytes()


def merge_of(monkeypatch, points: np.ndarray, tol: float = 1.0) -> np.ndarray:
    """``vertices`` of a region whose candidates are these points at this radius."""
    monkeypatch.setattr(icci.region, "_candidates", lambda rhs: (points, tol))
    return vertices(build_inner(inner_coeffs(ChannelGains(1.0, 1.0, 1.0, 1.0))))


def first_guess(points: np.ndarray, tol: float = 1.0) -> np.ndarray:
    """The candidates with no earlier candidate within tol at all: the
    merge's first guess, which is the greedy set only on some inputs."""
    near = (np.abs(points[:, None, :] - points[None, :, :]) <= tol).all(axis=2)
    return points[~np.tril(near, -1).any(axis=1)]


@pytest.mark.parametrize("spacing", [0.55, 0.75, 1.0])
@pytest.mark.parametrize("length", [3, 4, 5, 6])
def test_vertex_merge_of_a_chain_takes_rounds(monkeypatch, length, spacing):
    # each candidate near its neighbours alone: every other one is kept,
    # while the first guess keeps the first alone, so the merge needs a
    # round per link of the chain to settle
    for direction in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, -1.0]):
        points = np.array([2.0, 8.0, 8.0]) + np.arange(length)[:, None] * spacing * np.array(direction)
        want = merge_reference(points, 1.0)
        assert merge_of(monkeypatch, points).tobytes() == want.tobytes() == points[::2].tobytes()
        assert len(first_guess(points)) == 1


def test_vertex_merge_of_interleaved_clusters(monkeypatch):
    # two chains and one tight cluster, far apart, their candidates
    # alternating in triple order: a0 b0 c0 a1 b1 c1 ...
    steps = np.arange(5)[:, None]
    a = np.array([0.0, 0.0, 0.0]) + steps * np.array([0.6, 0.0, 0.0])
    b = np.array([0.0, 5.0, 5.0]) + steps * np.array([0.0, 0.0, 0.6])
    c = np.array([5.0, 0.0, 5.0]) + steps * np.array([0.1, -0.1, 0.1])
    points = np.stack([a, b, c], axis=1).reshape(-1, 3)
    want = merge_reference(points, 1.0)
    assert merge_of(monkeypatch, points).tobytes() == want.tobytes()
    assert want.tobytes() == points[[0, 1, 2, 6, 7, 12, 13]].tobytes()


def test_vertex_merge_drops_a_candidate_near_a_later_kept_one(monkeypatch):
    # d is near b and c, not a; its first near candidate b is dropped, near
    # a, but c, after b and before d, is kept, so d is dropped with c
    points = np.array([[0.0, 1.0, 1.0], [0.9, 1.0, 1.0], [1.8, 1.0, 1.0], [1.35, 1.0, 1.0]])
    want = merge_reference(points, 1.0)
    assert merge_of(monkeypatch, points).tobytes() == want.tobytes() == points[[0, 2]].tobytes()
    assert first_guess(points).tobytes() == points[:1].tobytes()


def test_vertex_merge_of_one_candidate(monkeypatch):
    points = np.array([[0.25, 0.5, 0.75]])
    assert merge_of(monkeypatch, points, 0.0).tobytes() == points.tobytes()


def test_vertex_merge_of_lattice_points(monkeypatch):
    # points of a half-unit lattice at radius 0.6, near when every
    # coordinate is at most one step apart: many chains, in every order
    rng = np.random.default_rng(24)
    guessed_wrong = 0
    for _ in range(300):
        points = rng.integers(0, 6, (rng.integers(1, 41), 3)) * 0.5
        want = merge_reference(points, 0.6)
        assert merge_of(monkeypatch, points, 0.6).tobytes() == want.tobytes(), points
        guessed_wrong += len(first_guess(points, 0.6)) != len(want)
    assert guessed_wrong > 100   # 187 of the 300 sets need rounds


# each (j, k) of two rows whose patterns differ, j's dominating k's
# componentwise: r >= 0 gives c_k . r <= c_j . r, so rhs_j <= rhs_k makes
# row k implied
ROW_DOMINANCE = [(j, k) for j, cj in enumerate(BOUND_PATTERNS) for k, ck in enumerate(BOUND_PATTERNS)
                 if cj != ck and all(a >= b for a, b in zip(cj, ck))]
# the patterns of rows 9 and 10, which rows 11 and 12 dominate at the same rhs when G' = G
TWIN_PATTERNS = [_BOUND_DISTINCT.index((0, 2, 1)), _BOUND_DISTINCT.index((0, 1, 2))]


def implied_patterns(rhs: np.ndarray) -> np.ndarray:
    """(10, N) over (13, N) columns: is each distinct pattern implied, in
    that every row of it is implied by a row of ``ROW_DOMINANCE``."""
    row_implied = np.zeros(rhs.shape, dtype=bool)
    for j, k in ROW_DOMINANCE:
        row_implied[k] |= rhs[j] <= rhs[k]
    return np.array([row_implied[_BOUND_ROW == p].all(axis=0) for p in range(len(_BOUND_DISTINCT))])


def test_the_rule_is_the_componentwise_order_of_the_rows():
    # 52 row pairs across patterns, 29 pairs of distinct patterns, and
    # the module's fold of them is the row rule over both wide sets
    assert len(ROW_DOMINANCE) == 52
    pairs = sorted({(int(_BOUND_ROW[j]), int(_BOUND_ROW[k])) for j, k in ROW_DOMINANCE})
    assert sorted(_DOMINANCE) == pairs and len(pairs) == 29
    columns = wide_sets_rhs().reshape(13, -1)
    want = implied_patterns(columns)
    bits = [_implied(b) for b in _least_rhs(columns).T.tolist()]
    assert bits == ((1 << np.arange(len(_BOUND_DISTINCT))) @ want).tolist()


@functools.cache
def solve_map() -> tuple:
    """Each row's pattern index, the nonsingular triples, the solve map,
    the determinants and the faces of all 13 rows, from ``exact_triples``:
    row 3t + i of the solve map holds triple t's adjugate row i at the
    triple's patterns, so (solve @ b) / det solves every triple."""
    distinct = len(_BOUND_DISTINCT)
    triples, adj, det = zip(*exact_triples())
    solve = np.zeros((3 * len(triples), distinct))
    for t, (planes, rows) in enumerate(zip(triples, adj)):
        for i, row in enumerate(rows):
            for p, a in zip(planes, row):
                if p < distinct:
                    solve[3 * t + i, p] = a
    row = np.array([_BOUND_DISTINCT.index(c) for c in BOUND_PATTERNS])
    return row, np.array(triples), solve, np.array(det, dtype=float), np.vstack([_BOUND_DISTINCT, -np.eye(3)])


def reference_candidates(rhs: np.ndarray, implied=None) -> tuple[np.ndarray, float]:
    """The display candidates of a region as ``_candidates`` solved every
    region before it had an implication rule, each pattern at its least
    rhs by ``np.minimum.at`` into an inf array, minus those whose triple
    has a plane of a pattern implied, as ``implied_patterns`` finds them
    unless given."""
    if implied is None:
        implied = implied_patterns(rhs[:, None])[:, 0]
    row, triples, solve, det, faces = solve_map()
    b = np.full(len(faces) - 3, np.inf)
    np.minimum.at(b, row, rhs)
    tol = _CANDIDATE_RTOL * rhs.max()
    x = (solve @ b).reshape(-1, 3) / det[:, None] + 0.0
    feasible = (faces @ x.T <= np.concatenate([b, np.zeros(3)])[:, None] + tol).all(axis=0)
    on_implied = np.concatenate([implied, [False] * 3])[triples].any(axis=1)
    return x[feasible & ~on_implied], tol


def wide_sets_rhs() -> np.ndarray:
    """The (13, 2, N) rhs of both 10000-channel sets and the edge
    channels, inner then outer, bit for bit the built regions'."""
    gains = seeded_channels(42, 10000) + seeded_channels(7, 10000, 1e-6, 1e6) + EDGE_CHANNELS
    return bound_rhs(coeff_rows(np.array([(g.m11, g.m12, g.m21, g.m22) for g in gains])).swapaxes(0, 1))


def test_inner_regions_imply_their_twin_patterns():
    # inner G' = G puts rows 9 and 10 at the rhs of rows 11 and 12, which
    # dominate them, so every inner region drops both planes; on the
    # outer side only some of the edge channels do
    rhs = wide_sets_rhs()
    inner, outer = implied_patterns(rhs[:, 0]), implied_patterns(rhs[:, 1])
    assert inner[TWIN_PATTERNS, :].all()
    twins = outer[TWIN_PATTERNS, :].all(axis=0)
    assert np.flatnonzero(twins).min() >= 20000 and twins.sum() == 49


def test_candidates_are_the_reference_minus_implied_planes():
    # bit for bit, on regions with no pattern implied and with some
    rhs = wide_sets_rhs()
    columns = np.concatenate([rhs[:, 1], rhs[:, 0, ::20]], axis=1)
    implied = implied_patterns(columns)
    assert 0 < implied.any(axis=0).sum() < columns.shape[1]
    for column, column_implied in zip(columns.T, implied.T):
        x, tol = _candidates(column)
        want, want_tol = reference_candidates(column, column_implied)
        assert x.tobytes() == want.tobytes() and tol == want_tol, column


def test_a_hand_built_inner_region_with_row_5_binding_keeps_its_plane(worked_channel):
    # the rule reads the rhs, not the label: lower row 5 below rows 4, 7
    # and 8, so it binds, and its pattern r1 + r2 is not implied
    rhs = build_inner(inner_coeffs(worked_channel)).rhs_vector()
    rhs[5] = 0.75 * rhs[[4, 7, 8]].min()
    region = RateRegion("inner", rhs)
    assert not _implied(_least_rhs(rhs).tolist()) >> _BOUND_DISTINCT.index((0, 1, 1)) & 1
    raised = rhs.copy()
    raised[[5, 6]] = raised[[7, 8]]   # rows 5 and 6 at their r0-twins' rhs, implied
    assert exact_vertices(region)[1] != exact_vertices(RateRegion("inner", raised))[1]
    assert_shows_its_exact_vertices(region)
    assert _candidates(rhs)[0].tobytes() == reference_candidates(rhs)[0].tobytes()


def test_outer_regions_with_their_twin_patterns_implied_show_their_exact_vertices():
    rhs = wide_sets_rhs()[:, 1]
    for column in rhs[:, implied_patterns(rhs)[TWIN_PATTERNS, :].all(axis=0)].T:
        assert_shows_its_exact_vertices(RateRegion("outer", column))


def hand_built_rhs(rng: np.random.Generator, kind: str) -> np.ndarray:
    """13 right-hand sides of one of four kinds: uniform in [0, 1), small
    integers, uniform with some rows tied to others, or uniform with
    some rows zero."""
    if kind == "integers":
        return rng.integers(0, 5, 13).astype(float)
    rhs = rng.random(13)
    rows = rng.choice(13, rng.integers(1, 6), replace=False)
    if kind == "ties":
        rhs[rows] = rhs[rng.choice(13, len(rows))]
    elif kind == "zeros":
        rhs[rows] = 0.0
    return rhs


@pytest.mark.parametrize("kind", ["uniform", "integers", "ties", "zeros"])
def test_hand_built_regions_show_their_exact_vertices(kind):
    # the rule on right-hand sides no family gives: every region shows
    # exactly its exact vertices, and its candidates are the reference's
    rng = np.random.default_rng(["uniform", "integers", "ties", "zeros"].index(kind))
    implied = 0
    for _ in range(250):
        rhs = hand_built_rhs(rng, kind)
        assert _candidates(rhs)[0].tobytes() == reference_candidates(rhs)[0].tobytes(), rhs
        assert_shows_its_exact_vertices(RateRegion("outer", rhs))
        implied += implied_patterns(rhs[:, None]).any()
    assert implied > 100


def test_the_largest_r0_is_min_g1p_g2p():
    # every row with r0 has an rhs of G1' or G2' plus nonnegative terms,
    # and rows 0 and 1 are r0 + r1 <= G1' and r0 + r2 <= G2' (the
    # icci.region docstring).  Bit for bit: every dual multiplier of
    # (1, 0, 0) is one whole row with r0, so the reach is the least of
    # those rows' rhs, and rounding is monotone, so a rounded sum that
    # holds G1' or G2' as a term is no less than it
    w = _OBJECTIVES.index((1, 0, 0))
    multipliers = _DUAL_DENSE[:, _DUAL_STARTS[w]:_DUAL_STARTS[w + 1]]
    assert ((multipliers == 0) | (multipliers == 1)).all() and (multipliers.sum(axis=0) == 1).all()
    assert (np.array(_BOUND_DISTINCT)[multipliers.any(axis=1), 0] == 1).all()
    edges = [ChannelGains(*m) for m in itertools.product(EDGES, repeat=4)]
    gains = seeded_channels(42, 10000) + seeded_channels(7, 10000, 1e-6, 1e6) + EDGE_CHANNELS + edges
    coeffs = coeff_rows(np.array([(g.m11, g.m12, g.m21, g.m22) for g in gains]))
    for family in coeffs:   # inner, outer
        g1p, g2p = family[[8, 9]]   # in BoundCoeffs field order
        assert _reach(bound_rhs(family))[w].tobytes() == np.minimum(g1p, g2p).tobytes()


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


def reach_by_terms(b: np.ndarray) -> np.ndarray:
    """The reference of ``_reach`` from the (10, N) least rhs b, each
    multiplier summed from its nonzero terms alone, plane by plane in
    plane order, so no 0 * b is formed."""
    value = np.zeros((_DUAL_DENSE.shape[1], b.shape[1]))
    for y, b_p in zip(_DUAL_DENSE, b):
        used = np.flatnonzero(y)
        value[used] += y[used, None] * b_p
    return np.minimum.reduceat(value, _DUAL_STARTS, axis=0)


def assert_reach_is_the_term_form(rhs, sizes):
    want = reach_by_terms(_least_rhs(rhs))
    assert not np.isnan(want).any()
    for size in sizes:
        got = np.concatenate([_reach(rhs[:, s:s + size]) for s in range(0, rhs.shape[1], size)], axis=1)
        assert got.tobytes() == want.tobytes(), size


# column counts around _reach's passes: one column short of a pass, one
# pass, one column over, and two passes and a column
REACH_SPLITS = (_REACH_PASS - 1, _REACH_PASS, _REACH_PASS + 1, 2 * _REACH_PASS + 1)


def test_reach_sums_each_multiplier_in_plane_order():
    # a sum of three multiplier terms (1/3, 2/3 and 3/4 among them)
    # depends on its order: _reach has to be the term form, bit for bit,
    # on slices around its pass size and on a whole set at once, which it
    # takes in passes of its own
    edges = np.array(list(itertools.product(EDGES, repeat=4)))
    assert_reach_is_the_term_form(both_regions_rhs(edges), REACH_SPLITS + (len(edges) * 2,))
    wide = 10.0 ** np.random.default_rng(17).uniform(-6.0, 6.0, (20000, 4))
    assert_reach_is_the_term_form(both_regions_rhs(wide), REACH_SPLITS + (len(wide) * 2,))


def test_term_tables_are_the_dual_table():
    # followed back through the term rows, each multiplier's sum is its
    # nonzero entries of _DUAL_DENSE in plane order: a product is one
    # (plane, y_j), a pair adds two products, and a triple adds a product
    # to a pair, each from rows that come before it, so a pass fills the
    # rows in order; and no two rows are the same sum
    assert (_PAIRS_FROM, _TRIPLES_FROM - _PAIRS_FROM, _TERM_ROWS - _TRIPLES_FROM) == (48, 82, 19)
    assert (_PAIR_TERMS < _PAIRS_FROM).all()
    assert ((_PAIRS_FROM <= _TRIPLE_TERMS[0]) & (_TRIPLE_TERMS[0] < _TRIPLES_FROM)).all()
    assert (_TRIPLE_TERMS[1] < _PAIRS_FROM).all()

    def terms(row):
        if row < _PAIRS_FROM:
            return ((int(_TERM_PLANE[row]), float(_TERM_Y[row, 0])),)
        if row < _TRIPLES_FROM:
            first, last = _PAIR_TERMS[:, row - _PAIRS_FROM]
        else:
            first, last = _TRIPLE_TERMS[:, row - _TRIPLES_FROM]
        return terms(first) + terms(last)

    rows = [terms(row) for row in range(_TERM_ROWS)]
    assert len(set(rows)) == _TERM_ROWS
    for y, row in zip(_DUAL_DENSE.T, _TERM_GATHER):
        used = np.flatnonzero(y)
        assert rows[row] == tuple(zip(used.tolist(), y[used].tolist()))


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
