"""Half-space descriptions of three-dimensional rate regions, exact
vertex enumeration, and the bit-gap tests between regions.

A region lives in coordinates (r0, r1, r2): the common-message rate
followed by the two individual rates.  Every region handled here is the
intersection of the nonnegative octant with the 13 half-spaces

    c0*r0 + c1*r1 + c2*r2 <= rhs,    c_k in {0, 1, 2},  rhs >= 0,

whose patterns c are the constant ``BOUND_PATTERNS``, so it is bounded
(rows 2 and 3 bound r1 and r2, and row 0 bounds r0), contains the
origin, and is downward
comprehensive: lowering any coordinate of a feasible point keeps it
feasible, because every c_k is nonnegative.  Those facts drive both the
enumeration and the gap test.

Vertex enumeration is brute force over plane triples.  The coefficients
never depend on the channel, only the right-hand sides do, so the
triples are solved once, at import, and only over the distinct
patterns: of the 13 rows, rows 4-6 and rows 7-8
share a pattern, so they span 10 distinct planes.  A row whose
parallel twin has a smaller rhs lies outside that twin's half-space and
carries no vertex, and a twin of equal rhs is the same plane, so each
distinct pattern is solved at its least rhs.  With the 3 coordinate
planes that gives C(13, 3) = 286 triples, 216 of them nonsingular (the
13 rows themselves would give 385 of 560).  ``HalfSpace`` admits only
coefficients in {0, 1, 2}, so each entry of a triple's adjugate is a
difference of two products of such entries and its determinant a sum of
six products of three: small integers that float64 holds exactly.  A
triple is therefore singular exactly when its determinant is 0, with no
pivot threshold.  A region's candidates are then adj . b / det for the
least right-hand sides b.  Those violating any constraint by more than
``_CANDIDATE_RTOL`` times the region's largest rhs B are discarded as
infeasible.  Every vertex of the region is found (it lies on at least
three independent planes, so some triple produces it).  A kept
candidate need not be a true vertex: it may be an intersection up to
about 1e-13 B outside the region, next to a vertex (see
``_bound_candidates``).

Every region has this one shape: ``RateRegion`` admits only the 13
rows of ``BOUND_PATTERNS``, and the exponent region of ``icci.gdof`` is
the same rows on the exponent coefficients.  Certificates over any
number of regions go through ``_bound_candidates``, which solves N
regions in one elementwise pass, and ``_gap_rows``, which reduces their
candidates to row maxima with no deduplication (duplicates do not change
a maximum).  ``within_bits_slack`` and ``within_bits_unclipped_slack``
are that path at N = 1, and the sweep of ``icci.sweep`` runs it over
chunks of channels, so both give the same bits.  Only the display,
``vertices`` and ``region_as_dict``, deduplicates: candidates are merged
in triple order at the same radius in the max norm, one pass per kept
vertex rather than per candidate, so each vertex is shown once, up to
rounding; two vertices closer than 2**-44 B, which rounding cannot tell
apart, are shown as one.

Two bit-gap tests compare a target region with a cover region: the
clipped shift ``within_bits_slack``, which lowers each target vertex by
``bits`` but not below zero, and the per-rate shift
``within_bits_unclipped_slack``, which lowers it by ``bits`` with no
clip and so asks each cover row to lose at most ``bits`` per unit of
rate weight.  The docstrings of ``within_bits`` and
``within_bits_unclipped_slack`` give the proofs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import _COEFF_FIELDS, BoundCoeffs

__all__ = [
    "MEMBERSHIP_TOL",
    "HalfSpace",
    "RateRegion",
    "GapCertificate",
    "build_inner",
    "build_outer",
    "region_from_coeffs",
    "contains",
    "containment_slack",
    "vertices",
    "within_bits",
    "within_bits_slack",
    "within_bits_unclipped_slack",
    "region_as_dict",
]

# Verdicts and vertex enumeration use different tolerances.  A verdict
# compares a slack in bits with -MEMBERSHIP_TOL, an absolute 1e-9.  Over
# the accepted envelope (gains up to 1e6) every coefficient is at most
# log2(1 + 4e12) < 42 bits and every rhs a sum of at most three, B < 126,
# so rounding moves a slack by about 300 u B (u = 2**-53), under 5e-12,
# and the certificates agree with exact rational arithmetic within 3e-12;
# 1e-9 absorbs that and is far below any rate difference the bounds
# resolve.  Enumeration has to scale with the region instead: at gains of
# 1e-6 every rhs is below 1e-11, and an absolute 1e-9 would admit every
# intersection.  It uses the relative _CANDIDATE_RTOL (rationale in
# _bound_candidates), at most 7.2e-12 over the envelope, under
# MEMBERSHIP_TOL / 100, so enumeration rounding cannot flip a verdict.
MEMBERSHIP_TOL = 1e-9
# candidate filter and deduplication radius of vertex enumeration, per
# unit of the region's largest rhs
_CANDIDATE_RTOL = 2.0 ** -44

_REGION_LABELS = ("inner", "outer", "gdof")

# The constraint patterns of every region, in the fixed documented order.
# Row k weights (r0, r1, r2) and is paired with the rhs BOUND_RHS_TERMS[k].
BOUND_PATTERNS: tuple[tuple[int, int, int], ...] = (
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, 1, 1),
    (0, 1, 1),
    (1, 1, 1),
    (1, 1, 1),
    (0, 2, 1),
    (0, 1, 2),
    (1, 2, 1),
    (1, 1, 2),
)

# Row k's rhs is the sum, left to right, of these coefficients of a family.
BOUND_RHS_TERMS: tuple[tuple[str, ...], ...] = (
    ("g1p",),
    ("g2p",),
    ("d1",),
    ("d2",),
    ("e1", "e2"),
    ("a1", "g2"),
    ("a2", "g1"),
    ("a1", "g2p"),
    ("a2", "g1p"),
    ("a1", "g1", "e2"),
    ("a2", "g2", "e1"),
    ("a1", "g1p", "e2"),
    ("a2", "g2p", "e1"),
)
# BOUND_RHS_TERMS as indices into the coefficient rows, padded with a
# zero row (index 10) to three terms: adding 0.0 changes no sum
_RHS_INDEX = np.array([[_COEFF_FIELDS.index(name) for name in terms] + [len(_COEFF_FIELDS)] * (3 - len(terms))
                       for terms in BOUND_RHS_TERMS]).T
# the distinct patterns of BOUND_PATTERNS, in order of first appearance,
# and as a (10, 3) matrix: with coefficients in {0, 1, 2}, every product
# in _DISTINCT @ x is exact and only the sum of three terms rounds
_BOUND_DISTINCT = tuple(dict.fromkeys(BOUND_PATTERNS))
_DISTINCT = np.array(_BOUND_DISTINCT, dtype=float)
_ROW_WEIGHT = np.sum(BOUND_PATTERNS, axis=1)[:, None]   # sum(c) of each row


@dataclass(frozen=True)
class HalfSpace:
    """One constraint c . r <= rhs with small integer coefficients."""

    c: tuple[int, int, int]
    rhs: float

    def __post_init__(self) -> None:
        if len(self.c) != 3 or any(int(k) != k or k not in (0, 1, 2) for k in self.c):
            raise ValueError(f"coefficients must be a triple over {{0, 1, 2}}, got {self.c!r}")
        object.__setattr__(self, "c", tuple(int(k) for k in self.c))
        if not (math.isfinite(self.rhs) and self.rhs >= 0):
            raise ValueError(f"rhs must be finite and >= 0, got {self.rhs!r}")

    @classmethod
    def _unchecked(cls, c: tuple[int, int, int], rhs: float) -> "HalfSpace":
        """A half-space whose pattern and rhs the caller has validated."""
        hs = object.__new__(cls)
        object.__setattr__(hs, "c", c)
        object.__setattr__(hs, "rhs", rhs)
        return hs

    def as_dict(self) -> dict:
        return {"c": list(self.c), "rhs": self.rhs}


@dataclass(frozen=True)
class RateRegion:
    """A labeled intersection of the 13 ``BOUND_PATTERNS`` half-spaces,
    in that order, with the nonnegative octant."""

    label: str
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self) -> None:
        if self.label not in _REGION_LABELS:
            raise ValueError(f"label must be one of {_REGION_LABELS}, got {self.label!r}")
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        patterns = tuple(hs.c for hs in self.halfspaces)
        if patterns != BOUND_PATTERNS:
            raise ValueError(f"half-space patterns must be BOUND_PATTERNS, got {patterns!r}")

    def coefficient_matrix(self) -> np.ndarray:
        """The (13, 3) coefficients, shared by every region and read-only."""
        return _COEFFS

    def rhs_vector(self) -> np.ndarray:
        return np.array([hs.rhs for hs in self.halfspaces], dtype=float)


@dataclass(frozen=True)
class GapCertificate:
    """Worst case of a shifted-vertex membership test.

    slack is the minimum over target vertices and cover constraints of
    rhs - c . shift(vertex), where shift is the clipped shift
    max(vertex - bits, 0) for ``within_bits_slack`` and the per-rate
    shift vertex - bits for ``within_bits_unclipped_slack``; negative
    slack means the test fails.  halfspace_index is the lowest-numbered
    cover row attaining the minimum, the row ``ChannelCheck``
    reports, vertex a target vertex attaining it on that row, and
    shifted its shift.
    """

    slack: float
    vertex: tuple[float, float, float]
    shifted: tuple[float, float, float]
    halfspace_index: int


def bound_rhs(coeffs: np.ndarray) -> np.ndarray:
    """The 13 right-hand sides, in ``BOUND_PATTERNS`` order, of a family
    given as its 10 coefficients in ``BoundCoeffs`` field order: a
    (10, ...) array gives (13, ...), so a batch of channels is columns.
    Each row is summed left to right, as ``BOUND_RHS_TERMS`` lists it."""
    rows = np.concatenate([coeffs, np.zeros((1,) + coeffs.shape[1:])])
    rhs = rows[_RHS_INDEX[0]] + rows[_RHS_INDEX[1]]
    rhs += rows[_RHS_INDEX[2]]
    return rhs


def region_from_coeffs(coeffs: BoundCoeffs, label: str) -> RateRegion:
    """The 13-constraint rate region generated by one coefficient family:
    any object with the ten ``BoundCoeffs`` fields a1 ... g2p.

    The patterns are the constant ``BOUND_PATTERNS``, so only the
    right-hand sides are validated, once, rather than each half-space.
    """
    with np.errstate(over="ignore"):   # an overflowing sum is rejected below
        rhs = bound_rhs(np.array([getattr(coeffs, name) for name in _COEFF_FIELDS]))
    if not (np.isfinite(rhs).all() and (rhs >= 0).all()):
        raise ValueError(f"rhs must be finite and >= 0, got {rhs.tolist()!r}")
    return RateRegion(label=label, halfspaces=tuple(map(HalfSpace._unchecked, BOUND_PATTERNS, rhs.tolist())))


def build_inner(coeffs: BoundCoeffs) -> RateRegion:
    if coeffs.side != "inner":
        raise ValueError(f"build_inner needs side='inner' coefficients, got {coeffs.side!r}")
    return region_from_coeffs(coeffs, "inner")


def build_outer(coeffs: BoundCoeffs) -> RateRegion:
    if coeffs.side != "outer":
        raise ValueError(f"build_outer needs side='outer' coefficients, got {coeffs.side!r}")
    return region_from_coeffs(coeffs, "outer")


def _as_points(points) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected points of shape (3,) or (n, 3), got {arr.shape}")
    return arr


def containment_slack(region: RateRegion, points) -> np.ndarray:
    """Per-point worst slack against the region, coordinate planes included.

    Positive slack means strictly inside, zero on the boundary, negative
    outside by that amount.
    """
    pts = _as_points(points)
    c = region.coefficient_matrix()
    r = region.rhs_vector()
    content = (r[None, :] - pts @ c.T).min(axis=1)
    axes = pts.min(axis=1)
    return np.minimum(content, axes)


def contains(region: RateRegion, point, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership within absolute slack tol."""
    return bool(containment_slack(region, point).min() >= -tol)


def _plane_solver(patterns: tuple[tuple[int, int, int], ...]):
    """Fixed-shape solver for one tuple of constraint patterns.

    Returns the read-only (n, 3) coefficient matrix, each row's index
    into the distinct patterns (in order of first appearance), and, over
    the planes of the distinct patterns followed by r0 = 0, r1 = 0,
    r2 = 0, the nonsingular plane triples in ``itertools.combinations``
    order with each triple's adjugate and determinant, both exact
    integers (see the module docstring).
    """
    c = np.array(patterns, dtype=float).reshape(-1, 3)
    distinct = list(dict.fromkeys(patterns))
    row = np.array([distinct.index(p) for p in patterns], dtype=np.intp)
    planes = np.vstack([np.array(distinct, dtype=float).reshape(-1, 3), np.eye(3)])
    triples = np.array(list(itertools.combinations(range(len(planes)), 3)), dtype=np.intp)
    m = planes[triples]
    # M^-1 = adj / det, and the columns of adj are the cross products of row pairs
    adj = np.stack([np.cross(m[:, 1], m[:, 2]), np.cross(m[:, 2], m[:, 0]),
                    np.cross(m[:, 0], m[:, 1])], axis=2)
    det = np.einsum("tk,tk->t", m[:, 0], adj[:, :, 0])
    keep = det != 0
    out = (c, row, triples[keep], adj[keep], det[keep])
    for arr in out:
        arr.flags.writeable = False
    return out


# the one solver: _BOUND_ROW maps each row to its pattern in _BOUND_DISTINCT
_COEFFS, _BOUND_ROW, _TRIPLES, _ADJ, _DET = _plane_solver(BOUND_PATTERNS)
_WEIGHTS = np.ascontiguousarray(_ADJ.transpose(1, 2, 0))   # _WEIGHTS[k, j] = _ADJ[:, k, j]


def _least_rhs(rhs: np.ndarray) -> np.ndarray:
    """Each distinct pattern's least rhs, the one its rows bind at: rhs
    has one row per constraint, (13, ...) gives (10, ...)."""
    limit = np.full((len(_BOUND_DISTINCT),) + rhs.shape[1:], np.inf)
    np.minimum.at(limit, _BOUND_ROW, rhs)
    return limit


def vertices(region: RateRegion) -> np.ndarray:
    """Enumerate all vertices of the region as a (k, 3) array, for display.

    Candidate points are the intersections of the nonsingular plane
    triples, each distinct pattern at its least rhs; kept if feasible
    within ``_CANDIDATE_RTOL`` times the largest rhs, and deduplicated
    in triple order at the same radius.
    """
    r = region.rhs_vector()
    tol = _CANDIDATE_RTOL * np.max(r, initial=0.0)
    offsets = np.concatenate([_least_rhs(r), np.zeros(3)])
    # + 0.0 maps -0.0 to 0.0, so displayed vertices never read -0.0
    x = np.einsum("tij,tj->ti", _ADJ, offsets[_TRIPLES]) / _DET[:, None] + 0.0
    feasible = (x >= -tol).all(axis=1) & (x @ _COEFFS.T <= r + tol).all(axis=1)
    candidates = x[feasible]
    kept = []
    while len(candidates):
        kept.append(candidates[0])
        candidates = candidates[np.abs(candidates - candidates[0]).max(axis=1) > tol]
    return np.array(kept).reshape(-1, 3)


def _dot(c: tuple[int, int, int], x: list[np.ndarray]) -> np.ndarray:
    """c . x over coordinate-major points x (three arrays of one shape),
    summed left to right as ``_DISTINCT @ x`` sums it; each c_k * x_k is
    exact."""
    first, *rest = [k for k in range(3) if c[k]]
    out = x[first] * c[first]
    for k in rest:
        out += x[k] if c[k] == 1 else 2.0 * x[k]
    return out


def _row_reach(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """max of c . x for each row of ``BOUND_PATTERNS`` over each run of
    points: (13, N) for points x of shape (3, F) whose N runs begin at
    ``starts``."""
    return np.maximum.reduceat(_DISTINCT @ x, starts, axis=1)[_BOUND_ROW]


def _bound_candidates(rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of N regions, with no deduplication: what a maximum
    or minimum over vertices needs.

    rhs is (13, N), rows in ``BOUND_PATTERNS`` order.  Every region's
    T = 216 nonsingular plane triples are solved, each distinct pattern
    at its least rhs (see the module docstring), and the feasible
    intersections kept in triple order, region after region.  Returns
    (x, starts): x the (3, F) coordinates kept and starts the (N,) index
    in x where each region's run begins.  Every run is nonempty, since
    the origin is always a vertex (every rhs >= 0), and duplicates of a
    vertex do not change a maximum or a minimum.  Every operation is
    elementwise or reduces within one region, so each region's results
    are bitwise the same whatever N is.

    A candidate is kept when it violates no constraint, coordinate
    planes included, by more than ``_CANDIDATE_RTOL`` times its region's
    largest rhs B.  The tolerance comes from rounding: with |adj| <= 4
    and |det| >= 1, a coordinate adj . b / det is within about 48 u B of
    its exact value (u = 2**-53) and c . x, sum(c) <= 4, within about
    300 u B = 2**-44.8 B, so a true vertex is never dropped (measured:
    at most 3.3e-16 B), and two solutions of one vertex from different
    triples differ by less than 2**-44 B, which is why ``vertices``
    deduplicates at that radius.  An absolute ``MEMBERSHIP_TOL`` is too
    loose: on near-degenerate channels some intersections lie up to
    9e-10 outside the region next to a true vertex, and on a region
    whose rhs are all below 1e-9, as at gains of 1e-6, every
    intersection passes it.  A point admitted at this tolerance is at
    most about 1e-13 B outside the region (4e-12 for rates of 40 bits);
    on 10000 channels in [1e-6, 1e6] the certificates built on these
    vertices stay within 3e-12 of exact rational arithmetic.
    """
    n = rhs.shape[1]
    limit = _least_rhs(rhs)
    offsets = np.concatenate([limit, np.zeros((3, n))]).T
    b = [offsets[:, plane] for plane in _TRIPLES.T]   # (N, T): offset of each triple's plane j
    x = [(w[0] * b[0] + w[1] * b[1] + w[2] * b[2]) / _DET for w in _WEIGHTS]
    tol = _CANDIDATE_RTOL * rhs.max(axis=0)
    # pattern by pattern over (N, T) arrays rather than one _DISTINCT
    # matmul: at 32 regions the stacked points (166 KB) and their (10, F)
    # product (553 KB) exceed glibc's 128 KiB mmap threshold, are mapped
    # and faulted in again on every pass: sweep-accept lost about 20%
    feasible = (x[0] >= -tol[:, None]) & (x[1] >= -tol[:, None]) & (x[2] >= -tol[:, None])
    for c, bound in zip(_BOUND_DISTINCT, limit + tol):
        feasible &= _dot(c, x) <= bound[:, None]
    keep = np.flatnonzero(feasible)
    counts = feasible.sum(axis=1)
    return np.stack([xk.ravel()[keep] for xk in x]), np.cumsum(counts) - counts


def _gap_rows(cover_rhs: np.ndarray, x: np.ndarray, starts: np.ndarray, bits: float, clip: bool) -> np.ndarray:
    """The (13, N) slack of each cover row against N runs of target
    candidates (as ``_bound_candidates`` returns them) shifted down by
    bits: clipped at zero, or per rate with no clip.  A row's slack is
    rhs - max over the run of c . shift(v): rounding is monotone, so
    this equals the minimum over the run of the per-point slack.  The
    per-rate shift lowers every c . v by bits * sum(c), so it reuses the
    unshifted row maxima."""
    if clip:
        return cover_rhs - _row_reach(np.maximum(x - bits, 0.0), starts)
    return cover_rhs - (_row_reach(x, starts) - bits * _ROW_WEIGHT)


def _check_bits(bits: float) -> None:
    if not (math.isfinite(bits) and bits >= 0):
        raise ValueError(f"bits must be finite and >= 0, got {bits!r}")


def _gap_certificate(cover: RateRegion, target: RateRegion, bits: float, clip: bool) -> GapCertificate:
    """``_gap_rows`` for one pair of regions, the N = 1 case of the core."""
    _check_bits(bits)
    x, starts = _bound_candidates(target.rhs_vector()[:, None])
    rows = _gap_rows(cover.rhs_vector()[:, None], x, starts, bits, clip)[:, 0]
    row = int(rows.argmin())
    shifted = np.maximum(x - bits, 0.0) if clip else x - bits
    k = int((_COEFFS[row] @ shifted).argmax())
    # + 0.0 maps -0.0 to 0.0
    return GapCertificate(slack=float(rows[row]), vertex=tuple((x[:, k] + 0.0).tolist()),
                          shifted=tuple((shifted[:, k] + 0.0).tolist()), halfspace_index=row)


def within_bits_slack(cover: RateRegion, target: RateRegion, bits: float) -> GapCertificate:
    """Worst slack of the clipped-shift test of target against cover."""
    return _gap_certificate(cover, target, bits, clip=True)


def within_bits_unclipped_slack(cover: RateRegion, target: RateRegion, bits: float) -> GapCertificate:
    """Worst slack of the per-rate shift test of target against cover.

    The test asks that every target point v, lowered by ``bits`` in
    every coordinate with no clip at zero, satisfy each cover half-space
    c . (v - bits) <= rhs.  A shift of b lowers c . v by b * sum(c), so
    the test holds exactly when, for every cover row, the largest c . v
    over the target exceeds the cover's rhs by at most ``bits`` per unit
    of rate weight sum(c): a row on two rates may lose two bits, a row
    on R1 + 2 R2 three.  That is the per-rate notion behind the coefficient
    delta limits in ``icci.bounds`` and behind the one-bit result of
    Etkin, Tse and Wang for the interference channel (IEEE Trans. IT,
    2008).  The violation
    c . (v - bits) - rhs is linear in v, and a linear function reaches
    its maximum over the target polytope at a vertex, so checking the
    shifted target vertices is sound and complete.  The coordinate
    planes are not cover constraints here: a shifted point may have a
    negative coordinate.

    Since max(v - bits, 0) >= v - bits coordinatewise and every c_k is
    nonnegative, this slack is never below ``within_bits_slack``'s, and
    the two are equal when every target vertex coordinate is at least
    ``bits``.
    """
    return _gap_certificate(cover, target, bits, clip=False)


def within_bits(
    cover: RateRegion, target: RateRegion, bits: float, tol: float = MEMBERSHIP_TOL
) -> bool:
    """Is every point of target within ``bits`` per coordinate of cover?

    For a target point v the best candidate partner inside a downward
    comprehensive cover is the clipped shift w = max(v - bits, 0): any
    partner within ``bits`` of v dominates w coordinatewise, so if any
    partner lies in the cover then w does too.  Each cover constraint
    violation c . max(v - bits, 0) - rhs is a convex function of v
    (nonnegative combination of convex clips), so its maximum over the
    target polytope is attained at a target vertex.  Checking clipped
    shifts of all target vertices is therefore sound and complete.
    """
    return within_bits_slack(cover, target, bits).slack >= -tol


def region_as_dict(region: RateRegion, include_vertices: bool = True) -> dict:
    """JSON-ready description: label, half-spaces, enumerated vertices."""
    out: dict = {
        "label": region.label,
        "halfspaces": [hs.as_dict() for hs in region.halfspaces],
    }
    if include_vertices:
        out["vertices"] = vertices(region).tolist()
    return out
