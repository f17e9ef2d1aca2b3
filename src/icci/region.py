"""Half-space descriptions of three-dimensional rate regions, exact
vertex enumeration, and the bit-gap tests between regions.

A region lives in coordinates (r0, r1, r2): the common-message rate
followed by the two individual rates.  Every region handled here is the
intersection of the nonnegative octant with the 13 half-spaces

    c0*r0 + c1*r1 + c2*r2 <= rhs,    c_k in {0, 1, 2},  rhs >= 0,

whose patterns c are the constant ``BOUND_PATTERNS`` (``RateRegion``
admits no others, and the exponent region of ``icci.gdof`` is the same
rows), so it is bounded (rows 0, 2 and 3 bound r0, r1 and r2), contains
the origin, and is downward comprehensive: lowering any coordinate of a
feasible point keeps it feasible, because every c_k is nonnegative.
A row is implied by any row of another pattern that dominates its own
componentwise at no larger rhs, since r >= 0 gives c . r <= c' . r.  On
a family with G' = G, as the inner family of ``icci.bounds`` and the
exponent family of ``icci.gdof`` are, rows 5, 6, 9 and 10 are rows 7, 8,
11 and 12 without r0, at the same rhs, so that rule makes them redundant.
On any family the largest r0 is min(G1', G2'): every row with r0 has an
rhs of G1' or G2' plus nonnegative terms, so (min(G1', G2'), 0, 0)
meets every row, and rows 0 and 1, r0 + r1 <= G1' and r0 + r2 <= G2',
allow no more.  On the outer family that is the coherent corner: both
transmitters send the common codeword at full power.

Only the right-hand sides depend on the channel, so a ``RateRegion`` is
its label, the side of the family it came from, and one read-only (13,)
array of them, summed once when ``region_from_coeffs`` makes the region.
Whatever depends on the coefficients is computed once, at import
(``_shape_tables``), over 13 planes: the 10 distinct patterns (rows 4-6
and rows 7-8 share one), each taken at its least rhs, since a row whose
parallel twin has a smaller rhs never binds, then r0 = 0, r1 = 0 and
r2 = 0.  Of their 286 triples 216 are nonsingular.  With coefficients in
{0, 1, 2} each triple's adjugate and determinant are small integers that
float64 holds exactly, so a triple is singular exactly when its
determinant is 0, with no pivot threshold, and the adjugates spread over
the 13 planes are one exact table, the spread, from which the solve map
and the dual table below are both read.  The implication rule above
becomes 29 pairs (q, p) of distinct patterns with q >= p componentwise
(``_DOMINANCE``): p is implied when q's least rhs is no larger than p's.

Certificates are maxima of linear objectives over regions, taken by LP
duality with no vertices: the dual feasible set {y >= 0 : A^T y >= w}
of an objective w depends on the patterns A alone, so its basic
solutions, w . spread / det, form one table (``_DUAL_DENSE``) of 232
multipliers over the 15 objectives certificates need, and a
region's maximum of w . x is the least y . b over w's multipliers
(``_reach``).  A multiplier has at most three nonzero terms y_j b_j,
and the 232 share 48 distinct products, 82 pair sums and 19 triple
sums, so ``_reach`` forms each once, in plane order, with takes, * and
+, and gathers every multiplier's sum from them.  ``within_bits_slack``
and ``within_bits_unclipped_slack`` are ``_gap_rows`` on those maxima
at N = 1, and the sweep of ``icci.sweep`` runs the same path over a
block of channels at once, so both give the same bits.  Only the
display (``vertices``, ``region_as_dict``) and a certificate's witness
vertex, once read, solve a region's triples (``_candidates``), all in
one product with the solve map, the spread's pattern columns, and drop
the triples on a plane the rule finds implied.
``vertices`` merges the candidates greedily in triple order within
2**-44 times the largest rhs, so two vertices closer than rounding can
tell apart are shown as one: from one matrix of near pairs it keeps a
candidate iff no earlier kept candidate is near it, a fixpoint with one
solution, since each candidate's entry depends on earlier ones alone,
found in whole-array rounds with no loop per vertex.  The
exponent region's per-user DoF optimum of ``icci.gdof`` is a ``_reach``
maximum too.

Two bit-gap tests compare a target region with a cover region: the
clipped shift ``within_bits_slack``, which lowers each target vertex by
``bits`` but not below zero, and the per-rate shift
``within_bits_unclipped_slack``, which lowers it by ``bits`` with no
clip and so asks each cover row to lose at most ``bits`` per unit of
rate weight.  The docstrings of ``within_bits`` and
``within_bits_unclipped_slack`` give the proofs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bounds import _COEFF_FIELDS, BoundCoeffs
from .channel import _nonneg_finite

__all__ = [
    "MEMBERSHIP_TOL",
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

# Verdicts compare a slack in bits with -MEMBERSHIP_TOL, an absolute
# 1e-9.  Over the accepted envelope (gains up to 1e6) every rhs is a sum
# of at most three coefficients below log2(1 + 4e12) < 42 bits, B < 126.
# A slack is an rhs minus a maximum of at most 4 B that _reach sums from
# at most three nonnegative products, within about 4 u of itself
# (u = 2**-53), so rounding moves it by under 3e-13.  Against exact
# rational arithmetic on 5000 channels (2000 in [1e-3, 1e3] at one bit,
# 2000 in [1e-6, 1e6] at two bits, 1000 there at zero bits) the slacks
# agree within 7.1e-15 and every binding row is the same.  Certificates
# use no candidate radius.  Enumeration, for display and witnesses, has
# to scale with the region: at gains of 1e-6 every rhs is below 1e-11,
# where 1e-9 would admit every intersection.  Its relative
# _CANDIDATE_RTOL (rationale in _candidates) is at most 7.2e-12 over the
# envelope, under MEMBERSHIP_TOL / 100.
MEMBERSHIP_TOL = 1e-9
# candidate filter and deduplication radius of vertex enumeration, per
# unit of the region's largest rhs; certificates do not use it
_CANDIDATE_RTOL = 2.0 ** -44

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
_RHS_TERMS = tuple(map(tuple, _RHS_INDEX.T.tolist()))   # the same, one index triple per row
# the distinct patterns of BOUND_PATTERNS, in order of first appearance
_BOUND_DISTINCT = tuple(dict.fromkeys(BOUND_PATTERNS))
# the sides of a coefficient family that make a region: a delta family makes none
_REGION_SIDES = ("inner", "outer", "gdof")


@dataclass(frozen=True, eq=False)
class RateRegion:
    """A labeled intersection of the 13 ``BOUND_PATTERNS`` half-spaces,
    in that order, with the nonnegative octant.

    A region is its label, the side of its coefficient family (inner,
    outer or gdof), and its 13 right-hand sides, each finite and >= 0,
    stored as one read-only float64 array; the constructor checks all
    of it, and ``region_from_coeffs`` sums the right-hand sides of a
    family.  ``halfspaces`` lists the (pattern, rhs) pairs, and regions
    are equal, and hash alike, when their labels and half-spaces are.
    """

    label: str
    _rhs: np.ndarray

    def __post_init__(self) -> None:
        if self.label not in _REGION_SIDES:
            raise ValueError(f"label must be one of {_REGION_SIDES}, got {self.label!r}")
        # checked in Python floats: on 13 values that costs less than numpy calls
        try:
            rhs = self._rhs.tolist() if isinstance(self._rhs, np.ndarray) else list(self._rhs)
            bad = len(rhs) != len(BOUND_PATTERNS) or [x for x in rhs if not 0 <= x < math.inf]
        except TypeError:
            bad = True
        if bad:
            raise ValueError(f"need {len(BOUND_PATTERNS)} right-hand sides, each finite and >= 0, got {self._rhs!r}")
        rhs = np.array(rhs, dtype=float)
        rhs.flags.writeable = False
        object.__setattr__(self, "_rhs", rhs)

    @property
    def halfspaces(self) -> tuple[tuple[tuple[int, int, int], float], ...]:
        return tuple(zip(BOUND_PATTERNS, self._rhs.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RateRegion):
            return NotImplemented
        return (self.label, self.halfspaces) == (other.label, other.halfspaces)

    def __hash__(self) -> int:
        return hash((self.label, self.halfspaces))

    def coefficient_matrix(self) -> np.ndarray:
        """The (13, 3) coefficients, shared by every region and read-only."""
        return _COEFFS

    def rhs_vector(self) -> np.ndarray:
        """The 13 right-hand sides, a fresh writable copy."""
        return self._rhs.copy()


@dataclass(frozen=True, eq=False)
class GapCertificate:
    """Worst case of a shifted-vertex membership test.

    slack is the minimum over target vertices and cover constraints of
    rhs - c . shift(vertex), where shift is the clipped shift
    max(vertex - bits, 0) for ``within_bits_slack`` and the per-rate
    shift vertex - bits for ``within_bits_unclipped_slack``; negative
    slack means the test fails.  slack and halfspace_index, the
    lowest-numbered cover row attaining the minimum, come from the dual
    table, bit for bit what ``ChannelCheck`` reports.  vertex is the
    witness: of the target's display candidates (``vertices`` before
    deduplication), one that maximizes c . shift(v) on that row, so its
    slack there equals slack up to rounding; shifted is its shift.  The
    witness is solved when first read, so a caller that reads only the
    slack never solves the target's triples.  Certificates are equal
    when slack, vertex, shifted and halfspace_index are.
    """

    slack: float
    halfspace_index: int
    _target_rhs: np.ndarray = field(repr=False)
    _bits: float = field(repr=False)
    _clip: bool = field(repr=False)

    @cached_property
    def _witness(self) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        x, _ = _candidates(self._target_rhs)
        shifted = np.maximum(x - self._bits, 0.0) if self._clip else x - self._bits
        k = int((shifted @ _COEFFS[self.halfspace_index]).argmax())
        return tuple(x[k].tolist()), tuple(shifted[k].tolist())

    @property
    def vertex(self) -> tuple[float, float, float]:
        return self._witness[0]

    @property
    def shifted(self) -> tuple[float, float, float]:
        return self._witness[1]

    def _key(self) -> tuple:
        return self.slack, self.vertex, self.shifted, self.halfspace_index

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, GapCertificate) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


def bound_rhs(coeffs: np.ndarray) -> np.ndarray:
    """The 13 right-hand sides, in ``BOUND_PATTERNS`` order, of a family
    given as its 10 coefficients in ``BoundCoeffs`` field order: a
    (10, ...) array gives (13, ...), so a batch of channels is columns.
    Each row is summed left to right, as ``BOUND_RHS_TERMS`` lists it:
    the gathered terms are one (3, 13, ...) array, and a sum over its
    outer axis adds one term array after another."""
    rows = np.concatenate([coeffs, np.zeros((1,) + coeffs.shape[1:])])
    return rows[_RHS_INDEX].sum(axis=0)


def region_from_coeffs(coeffs: BoundCoeffs) -> RateRegion:
    """The 13-constraint rate region generated by one coefficient family,
    labelled by its side: inner, outer or gdof.  A delta family, a
    difference of two families, is not a region.

    Each rhs is summed left to right as ``bound_rhs`` sums it, bit for
    bit, in Python floats, whose overflow gives inf with no warning, and
    ``RateRegion`` refuses it.
    """
    if coeffs.side == "delta":
        raise ValueError("a delta family is not a region; build one from an inner, outer or gdof family")
    v = coeffs.values + (0.0,)
    return RateRegion(coeffs.side, [v[i] + v[j] + v[k] for i, j, k in _RHS_TERMS])


def _region_of_side(coeffs: BoundCoeffs, side: str) -> RateRegion:
    """``region_from_coeffs`` of a family that has to be of this side."""
    if coeffs.side != side:
        raise ValueError(f"need side={side!r} coefficients, got {coeffs.side!r}")
    return region_from_coeffs(coeffs)


def build_inner(coeffs: BoundCoeffs) -> RateRegion:
    return _region_of_side(coeffs, "inner")


def build_outer(coeffs: BoundCoeffs) -> RateRegion:
    return _region_of_side(coeffs, "outer")


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
    content = (region._rhs - pts @ _COEFFS.T).min(axis=1)
    axes = pts.min(axis=1)
    return np.minimum(content, axes)


def contains(region: RateRegion, point, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership within absolute slack tol."""
    tol = _nonneg_finite("tol", tol)
    return bool(containment_slack(region, point).min() >= -tol)


# (q, p) for distinct patterns with q >= p componentwise: r >= 0 gives
# p . r <= q . r, so p is implied when q's least rhs is no larger than p's
_DOMINANCE = tuple((q, p) for q, cq in enumerate(_BOUND_DISTINCT) for p, cp in enumerate(_BOUND_DISTINCT)
                   if q != p and all(a >= b for a, b in zip(cq, cp)))
# The 15 objectives of every certificate: the distinct patterns, whose
# maxima are the rows' reach, then those restrictions c_S of a pattern to
# a subset S of the rates that are not patterns themselves, which the
# clipped shift needs (see _gap_rows); _OBJECTIVE_WEIGHT is sum(c_S).
_OBJECTIVES = tuple(dict.fromkeys(_BOUND_DISTINCT + tuple(
    tuple(ck if k in s else 0 for k, ck in enumerate(c))
    for c in _BOUND_DISTINCT for n in (1, 2, 3) for s in itertools.combinations(np.flatnonzero(c).tolist(), n))))
_OBJECTIVE_WEIGHT = np.sum(_OBJECTIVES, axis=1)[:, None]
_TOP_WEIGHT = float(_OBJECTIVE_WEIGHT.max())   # 4, of r0 + 2 r1 + r2 and r0 + r1 + 2 r2
_NO_ERRSTATE = contextlib.nullcontext()
# the objectives c_S of each distinct pattern's nonempty restrictions, run after run
_RESTRICTION_LISTS = [[o for o, w in enumerate(_OBJECTIVES) if all(wk in (0, ck) for wk, ck in zip(w, c))]
                      for c in _BOUND_DISTINCT]
_RESTRICTIONS = np.concatenate(_RESTRICTION_LISTS)
_RESTRICTION_STARTS = np.cumsum([0] + [len(r) for r in _RESTRICTION_LISTS[:-1]])


def _shape_tables() -> tuple[np.ndarray, ...]:
    """The fixed tables of the 13-row shape, each read-only, from one
    exact spread of the plane triples' adjugates.

    ``_COEFFS`` holds the rows and ``_BOUND_ROW`` each row's distinct
    pattern; twin rows are adjacent, so ``_BOUND_STARTS``, each pattern's
    first row, starts one run per pattern.  The 13 planes are the 10
    distinct patterns and r0 = 0, r1 = 0, r2 = 0; ``_FACES`` negates the
    last three.  Their 216 nonsingular triples, ``_TRIPLES`` in
    ``itertools.combinations`` order, have M^-1 = ``_ADJ`` / ``_DET``,
    integers (see the module docstring).  The spread puts adjugate row i
    of triple t on the 13 planes, zero off the triple.  Its pattern
    columns are row 3t + i of the solve map ``_SOLVE``: (_SOLVE @ b) / det
    solves every triple at the patterns' least rhs b, the coordinate
    planes having rhs 0.  And w . spread / det, one rounding of an
    integer, is triple t's basic solution y of the dual
    {y >= 0 : A^T y >= w} of max w . x, A the patterns, feasible when
    y >= 0 on the pattern planes and y <= 0 on the coordinate planes (-y
    is their slack).  For rhs b >= 0 the least y . b over these is the
    maximum (the region is bounded and holds the origin), and a
    multiplier keeps its at most three pattern terms, once per objective
    of ``_OBJECTIVES``: ``_DUAL_DENSE`` column m is multiplier m, and
    ``_DUAL_STARTS`` starts each objective's run.  ``_KEPT`` row m marks
    the triples on no pattern of the set whose bits make up m, for every
    set that can be implied (0-7: no pattern dominates r0 + 2 r1 + r2 or
    r0 + r1 + 2 r2), so 256 rows.

    The term tables of ``_reach`` come from ``_DUAL_DENSE``'s columns:
    each multiplier's nonzero terms y_j b_j in plane order, first the
    distinct products y_j b_j (plane ``_TERM_PLANE``, factor
    ``_TERM_Y``), then the distinct sums of a multiplier's first two,
    then of all three, one term row each.  ``_PAIR_TERMS`` and
    ``_TRIPLE_TERMS`` hold, per pair and per triple, the row of the sum
    of its first terms and the row of its last, and ``_TERM_GATHER``
    multiplier m's row.
    """
    distinct = len(_BOUND_DISTINCT)
    coeffs = np.array(BOUND_PATTERNS, dtype=float)
    row = np.array([_BOUND_DISTINCT.index(c) for c in BOUND_PATTERNS])
    planes = np.vstack([_BOUND_DISTINCT, np.eye(3)])
    triples = np.array(list(itertools.combinations(range(len(planes)), 3)))
    m = planes[triples]
    # the columns of adj are the cross products of row pairs
    adj = np.stack([np.cross(m[:, 1], m[:, 2]), np.cross(m[:, 2], m[:, 0]), np.cross(m[:, 0], m[:, 1])], axis=2)
    det = np.einsum("tk,tk->t", m[:, 0], adj[:, :, 0])
    triples, adj, det = triples[det != 0], adj[det != 0], det[det != 0]
    spread = np.zeros((len(triples), 3, len(planes)))
    np.put_along_axis(spread, triples[:, None, :].repeat(3, axis=1), adj, axis=2)
    y = np.einsum("oi,tip->otp", np.array(_OBJECTIVES, dtype=float), spread) / det[:, None]
    feasible = (y[:, :, :distinct] >= 0).all(axis=2) & (y[:, :, distinct:] <= 0).all(axis=2)
    columns, starts = [], []
    for w_y, w_feasible in zip(y[:, :, :distinct] + 0.0, feasible):   # + 0.0: no -0.0
        starts.append(len(columns))
        columns.extend(dict.fromkeys(map(tuple, w_y[w_feasible].tolist())))
    implied_sets = np.arange(1 << (max(p for _, p in _DOMINANCE) + 1))
    kept = (implied_sets[:, None] & (1 << triples).sum(axis=1)) == 0
    solve, faces = spread[:, :, :distinct].reshape(-1, distinct), np.vstack([_BOUND_DISTINCT, -np.eye(3)])
    # each multiplier's nonzero terms (j, y_j) in plane order; the term rows
    # are the distinct products, then first pairs, then triples among them
    sums = [tuple((j, y_j) for j, y_j in enumerate(y) if y_j) for y in columns]
    rows = [*dict.fromkeys((t,) for s in sums for t in s), *dict.fromkeys(s[:2] for s in sums if len(s) > 1),
            *dict.fromkeys(s for s in sums if len(s) > 2)]
    term_row = {s: k for k, s in enumerate(rows)}
    products = [s[0] for s in rows if len(s) == 1]
    # a sum of n terms adds its last term to the sum of its first n - 1
    adds = [np.array([(term_row[s[:-1]], term_row[s[-1:]]) for s in rows if len(s) == n]).T.copy() for n in (2, 3)]
    tables = (coeffs, row, np.flatnonzero(np.diff(row, prepend=-1)), triples, adj, det, solve, faces, kept,
              np.array(columns).T.copy(), np.array(starts), np.array([j for j, _ in products]),
              np.array([[y_j] for _, y_j in products]), *adds, np.array([term_row[s] for s in sums]))
    for table in tables:
        table.flags.writeable = False
    return tables


(_COEFFS, _BOUND_ROW, _BOUND_STARTS, _TRIPLES, _ADJ, _DET, _SOLVE, _FACES, _KEPT,
 _DUAL_DENSE, _DUAL_STARTS, _TERM_PLANE, _TERM_Y, _PAIR_TERMS, _TRIPLE_TERMS, _TERM_GATHER) = _shape_tables()
# the term rows of _reach: the products, from _PAIRS_FROM the pairs, from _TRIPLES_FROM the triples
_PAIRS_FROM = len(_TERM_PLANE)
_TRIPLES_FROM = _PAIRS_FROM + _PAIR_TERMS.shape[1]
_TERM_ROWS = _TRIPLES_FROM + _TRIPLE_TERMS.shape[1]
# Columns per pass of _reach.  On a 1024-channel block's 2048 columns it
# takes 1.71, 1.49 and 1.50 ms in passes of 64, 128 and 256 columns, and
# 5.0 ms in one pass, whose 7 MB of temporaries miss the cache (timeit,
# best of 15 interleaved rounds, shared 2-vCPU Xeon); a 50-channel sweep
# is one pass.
_REACH_PASS = 128


def _least_rhs(rhs: np.ndarray) -> np.ndarray:
    """Each distinct pattern's least rhs, the one its rows bind at: rhs
    has one row per constraint, (13, ...) gives (10, ...).  A pattern's
    rows are one run of ``_BOUND_ROW``, so this is one minimum per run."""
    return np.minimum.reduceat(rhs, _BOUND_STARTS, axis=0)


def _implied(b: list) -> int:
    """The patterns that these least rhs, one per distinct pattern, make
    implied, as the bits of one int: p is when a pattern q of
    ``_DOMINANCE`` has b[q] <= b[p].  Dropping them all keeps the region,
    because dominance has no cycle: an implied pattern's dominating q is
    kept or itself implied by a larger one at a no larger rhs."""
    implied = 0
    for q, p in _DOMINANCE:
        if b[q] <= b[p]:
            implied |= 1 << p
    return implied


def _candidates(rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """The feasible plane-triple intersections of one region, in triple
    order and not deduplicated, and the radius that admitted them.

    Every nonsingular triple is solved by the solve map, each pattern at
    its least rhs b, and kept when no plane of it is ``_implied`` and it
    violates no pattern and no coordinate plane by more than
    ``_CANDIDATE_RTOL`` times the largest rhs B.  The other planes bound
    the same region, so each vertex is still a kept triple's solution,
    and an implied plane only solves again the vertices it passes
    through (on an inner region, the r0 = 0 face meets each twin plane
    along its r0-twin's).  A coordinate adj . b / det is a sum of at
    most three products (|adj| <= 4; the map's other entries are exact
    zeros) divided by |det| >= 1, so within about 48 u B of its exact
    value (u = 2**-53), and c . x, sum(c) <= 4, within about
    300 u B = 2**-44.8 B: a true vertex is never dropped (measured: at
    most 3.3e-16 B), two solutions of one vertex differ by less than
    2**-44 B, and a kept point is at most about 1e-13 B outside the
    region.  An absolute ``MEMBERSHIP_TOL`` would be too loose: on
    near-degenerate channels some intersections lie up to 9e-10 outside
    the region, and at gains of 1e-6 every intersection passes it.
    """
    b = _least_rhs(rhs)
    tol = _CANDIDATE_RTOL * max(rhs.tolist())
    # + 0.0 maps -0.0 to 0.0, so displayed vertices never read -0.0
    x = (_SOLVE @ b).reshape(-1, 3) / _DET[:, None] + 0.0
    # one row per face, so the test over faces reduces along the long axis
    feasible = (_FACES @ x.T <= np.concatenate([b, np.zeros(3)])[:, None] + tol).all(axis=0)
    return x.compress(feasible & _KEPT[_implied(b.tolist())], axis=0), tol


def vertices(region: RateRegion) -> np.ndarray:
    """Enumerate all vertices of the region as a (k, 3) array, for display:
    the ``_candidates``, on no implied plane, merged greedily in
    triple order at their radius in the max norm: the first is kept,
    every candidate near it dropped, and so on, so of a chain a ~ b ~ c
    with a and c apart both are kept.

    The near relation is one (K, K) matrix from a (3, K, K) array of
    per-coordinate gaps, and the kept set is the fixpoint of the rule
    keep[k] = no earlier kept candidate is near k.  keep[k] depends on
    keep[:k] alone, so by induction on k the fixpoint is unique, the
    greedy set, and each round of the rule fixes at least one more
    leading entry, so rounds reach it.  They start from the first guess,
    the candidates with no earlier near one at all, which is already the
    fixpoint when each candidate's first near one (itself, if kept) is in
    it."""
    x, tol = _candidates(region._rhs)
    columns = x.T.copy()   # contiguous: the broadcast below is 2.5-7x faster than on x.T
    gaps = columns[:, :, None] - columns[:, None, :]
    near = (np.abs(gaps, out=gaps) <= tol).all(axis=0)
    # near[k, k] holds, so first[k] <= k; K >= 1, since the origin is always a candidate
    first = near.argmax(axis=1)
    keep = first == np.arange(len(x))
    if not keep[first].all():
        earlier = np.tril(near, -1)
        while True:
            step = ~(earlier & keep).any(axis=1)
            if np.array_equal(step, keep):
                break
            keep = step
    return x[keep]


def _reach(rhs: np.ndarray) -> np.ndarray:
    """The largest w . x over each of N regions for the objectives w of
    ``_OBJECTIVES``: (15, N) for rhs (13, N).

    By LP duality each is the least y . b over w's multipliers in the
    dual table, b each pattern's least rhs.  A multiplier has at most
    three nonzero terms y_j b_j, summed in plane order, and the 232 use
    48 distinct products, 82 distinct pair sums and 19 triple sums, each
    a pair sum plus a product (``_shape_tables``): a pass takes the
    products, adds the pairs, then the triples, gathers every
    multiplier's sum and takes one minimum per objective's run.  Each
    step is a take or one correctly rounded * or + per value, so a value
    is its terms summed in plane order, bit for bit on any numpy and
    CPU; every term is nonnegative, so a sum is within about 4 u of
    itself, and an infinite rhs gives inf terms, never NaN.  More than
    ``_REACH_PASS`` columns are taken in passes of that many, which keep
    the temporaries in cache.  Every operation is elementwise or reduces
    within one column, so each region's results are bitwise the same
    whatever N is.
    """
    n = rhs.shape[1]
    if n > _REACH_PASS:
        return np.concatenate([_reach(rhs[:, s:s + _REACH_PASS]) for s in range(0, n, _REACH_PASS)], axis=1)
    terms = np.empty((_TERM_ROWS, n))
    np.multiply(_TERM_Y, _least_rhs(rhs).take(_TERM_PLANE, axis=0), terms[:_PAIRS_FROM])
    # indexing the two halves costs less than unpacking them
    halves = terms.take(_PAIR_TERMS, axis=0)
    np.add(halves[0], halves[1], terms[_PAIRS_FROM:_TRIPLES_FROM])
    halves = terms.take(_TRIPLE_TERMS, axis=0)
    np.add(halves[0], halves[1], terms[_TRIPLES_FROM:])
    return np.minimum.reduceat(terms.take(_TERM_GATHER, axis=0), _DUAL_STARTS, axis=0)


def _gap_rows(cover_rhs: np.ndarray, reach: np.ndarray, bits, clip: bool) -> np.ndarray:
    """The (13, N) slack of each cover row against N target regions,
    given as their ``_reach``, shifted down by the float bits: clipped
    at zero, or per rate with no clip.  A row's slack is rhs minus the
    largest c . shift(v) over the target.  The per-rate shift lowers
    every c . v by bits * sum(c); the clipped one has
    c . max(v - bits, 0) = max over subsets S of the rates of
    c_S . v - bits * sum(c_S), so its largest value is the largest such
    difference over the restrictions of c, or 0 for the empty subset;
    each objective is shifted once, the patterns' own first."""
    # a finite bits past the largest float over _TOP_WEIGHT makes inf
    # here, which only lowers a row's top: its clip is then 0 and its
    # per-rate slack inf.  An errstate costs about 1 us a call, so only
    # such a bits enters one.
    with np.errstate(over="ignore") if bits * _TOP_WEIGHT == math.inf else _NO_ERRSTATE:
        top = reach - bits * _OBJECTIVE_WEIGHT
    if clip:
        top = np.maximum(np.maximum.reduceat(top[_RESTRICTIONS], _RESTRICTION_STARTS), 0.0)
    return cover_rhs - top[_BOUND_ROW]


def _gap_certificate(cover: RateRegion, target: RateRegion, bits: float, clip: bool) -> GapCertificate:
    """``_gap_rows`` for one pair of regions, the N = 1 case of the core;
    the witness, read on demand, is a display candidate attaining the
    binding row."""
    bits = _nonneg_finite("bits", bits)
    rhs = target._rhs
    rows = _gap_rows(cover._rhs[:, None], _reach(rhs[:, None]), bits, clip)[:, 0]
    row = int(rows.argmin())
    return GapCertificate(float(rows[row]), row, rhs, bits, clip)


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
    tol = _nonneg_finite("tol", tol)
    return within_bits_slack(cover, target, bits).slack >= -tol


def region_as_dict(region: RateRegion) -> dict:
    """JSON-ready description: label, half-spaces, enumerated vertices."""
    return {
        "label": region.label,
        "halfspaces": [{"c": list(c), "rhs": rhs} for c, rhs in zip(BOUND_PATTERNS, region._rhs.tolist())],
        "vertices": vertices(region).tolist(),
    }
