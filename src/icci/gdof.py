"""Degrees-of-freedom scale: what the bound families become when every
link power is an exponent of one large base power P.

Each outer coefficient grows like a multiple of log2(P); the multiple
depends only on the link exponents alpha_ij.  With shorthand
(y)+ = max(y, 0) the ten coefficients collapse onto eight numbers:

    a_i = (alpha_ii - alpha_ji)+          private-only
    d_i = alpha_ii                        full own signal
    e_i = max(alpha_ii - alpha_ji, alpha_ij)
    g_i = max(alpha_ii, alpha_ij)         (shared by G and G')

Each is the larger of two integer forms in the exponents, written once
in the table ``_GDOF_FORMS``: the batched ``gdof_rows`` takes the ten
coefficients of N exponent quadruples as columns, and ``gdof_coeffs``
(the gdof side of ``BoundCoeffs``) is its N = 1 case.  They generate
the exponent region, the 13 rows of the rate region on these numbers
with G' = G.  On the fully symmetric channel (direct exponents 1, cross
exponents alpha) the best per-user total (r0 + r1 + r2)/2 over that
region has a closed piecewise form in alpha, both with and without the
common layer.  The module provides the closed forms, an independent
optimizer to cross-check them (the region's exact maximum from the dual
table of ``icci.region``), and finite-P multiplexing-gain ratios that
converge to the exponent targets.  The optimizer is one batched core
over alphas: ``per_user_dof_optimum`` is its N = 1 case, which keeps
both optima of the last alpha, and ``dof_curve_samples`` runs a grid
through it in fixed passes, uncached.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import _COEFF_FIELDS, BoundCoeffs, outer_coeffs
from .channel import ChannelGains, GdofExponents, _nonneg_finite, _real
from .region import (
    _DUAL_DENSE,
    _OBJECTIVES,
    _RHS_INDEX,
    RateRegion,
    _reach,
    _region_of_side,
    bound_rhs,
)

__all__ = [
    "DofCurveSample",
    "gdof_rows",
    "gdof_coeffs",
    "build_gdof_region",
    "per_user_dof_optimum",
    "dof_icci_lp",
    "dof_ic_lp",
    "dof_ic",
    "dof_icci",
    "dof_uplift",
    "multiplexing_gain",
    "multiplexing_targets",
    "dof_curve_samples",
    "write_curve_csv",
    "CURVE_CSV_HEADER",
]

CURVE_CSV_HEADER = ("alpha", "d_ic", "d_icci", "d_uplift", "d_icci_lp")
# A curve is for plotting; the default grid has 301 points.  On the
# largest grid, 10**5 points, ``dof_curve_samples`` takes about 0.8 s and
# peaks at about 58 MB RSS in process, each point a sample held in memory,
# while ``icci gdof-curve``, which writes each pass of rows as it is
# computed, takes about 1.3 s and peaks at 33 MB, against 31 MB on the
# default grid (shared 2-vCPU Xeon).
_MAX_CURVE_POINTS = 10**5
# Alphas per pass of the batched optimizer.  A pass holds a few KB of
# temporaries per alpha, mostly the (N, 232) product of _reach: passes of
# 8192 peaked at 84 MB on the largest grid, and one pass would need about
# 600 MB.  At 1024 the command's peak on the largest grid is 2 MB above
# the default grid's.
_CURVE_PASS = 1024


@dataclass(frozen=True)
class DofCurveSample:
    alpha: float
    d_ic: float
    d_icci: float
    d_uplift: float
    d_icci_lp: float


# Each exponent coefficient is the larger of two integer forms in the
# exponents (a11, a12, a21, a22), given as their weights; G' = G.
_GDOF_FORMS = {
    "a1": ((1, 0, -1, 0), (0, 0, 0, 0)),
    "a2": ((0, -1, 0, 1), (0, 0, 0, 0)),
    "d1": ((1, 0, 0, 0), (0, 0, 0, 0)),
    "d2": ((0, 0, 0, 1), (0, 0, 0, 0)),
    "e1": ((1, 0, -1, 0), (0, 1, 0, 0)),
    "e2": ((0, -1, 0, 1), (0, 0, 1, 0)),
    "g1": ((1, 0, 0, 0), (0, 1, 0, 0)),
    "g2": ((0, 0, 0, 1), (0, 0, 1, 0)),
}
_GDOF_FORMS.update(g1p=_GDOF_FORMS["g1"], g2p=_GDOF_FORMS["g2"])
# (20, 4): the first form of each coefficient in field order, then the second
_FORM_MATRIX = np.array([_GDOF_FORMS[name] for name in _COEFF_FIELDS], dtype=float).transpose(1, 0, 2).reshape(-1, 4)
_FORM_MATRIX.flags.writeable = False


def gdof_rows(exponents: np.ndarray) -> np.ndarray:
    """The exponent-scale coefficients for an (N, 4) array of exponents,
    columns (a11, a12, a21, a22) each finite and >= 0, as a (10, N)
    array, rows in ``BoundCoeffs`` field order.

    Each form has at most two nonzero weights, each 1 or -1, so its
    products are exact and its sum rounds once in any order: each value
    is the scalar difference or copy of the exponents, bit for bit up to
    the sign of a zero, and each column the same whatever N is.
    """
    forms = _FORM_MATRIX @ np.asarray(exponents, dtype=float).T
    return np.maximum(forms[:len(_COEFF_FIELDS)], forms[len(_COEFF_FIELDS):])


def gdof_coeffs(exponents: GdofExponents) -> BoundCoeffs:
    """The exponent-scale coefficients, G' = G (the gdof side):
    ``gdof_rows`` at N = 1."""
    row = (exponents.a11, exponents.a12, exponents.a21, exponents.a22)
    return BoundCoeffs(gdof_rows([row])[:, 0].tolist(), "gdof")


def build_gdof_region(coeffs: BoundCoeffs) -> RateRegion:
    """The exponent region of a gdof family: the 13 rows of
    ``region_from_coeffs`` with G' = G, so rows 5, 6, 9 and 10 are
    redundant, as ``icci.region`` says for every such family."""
    return _region_of_side(coeffs, "gdof")


# r0 + r1 + r2 and r1 + r2 among the objectives of the dual table
_SUM_ALL, _SUM_INDIVIDUAL = _OBJECTIVES.index((1, 1, 1)), _OBJECTIVES.index((0, 1, 1))


# The largest alpha whose exponent region no sum can overflow: its
# coefficients are at most max(1, alpha), a rhs sums at most three of
# them, and a multiplier of the dual table sums to at most 3, so every
# sum of ``bound_rhs`` and ``_reach`` is at most 9 alpha up to rounding.
# On the symmetric channel no rhs exceeds 2 alpha, which leaves room for
# the rounding.  A column above it is scaled by 2**-4: 9 * max / 16 < max.
_FINITE_ALPHA = sys.float_info.max / (len(_RHS_INDEX) * float(_DUAL_DENSE.sum(axis=0).max()))


def _symmetric_reach(alphas) -> np.ndarray:
    """The (15, N) ``_reach`` of the exponent regions of N symmetric
    channels (direct exponents 1, cross exponents alpha), one column per
    alpha: the batched core of ``per_user_dof_optimum``.

    Every step is positively homogeneous (``gdof_rows`` a max of integer
    forms, ``bound_rhs`` a sum, ``_reach`` nonnegative products and a
    min), and a power of two commutes with every rounding unless a value
    overflows or goes subnormal.  So a column whose alpha exceeds
    ``_FINITE_ALPHA`` (about 2e307), where a sum could overflow, is
    scaled by 2**-4, its direct exponents of 1 too, and its reach
    divided by it: the unscaled bits, with no sum past the float range.
    The scale is per column, so a small alpha in the same pass never
    goes subnormal.
    """
    exponents = np.ones((len(alphas), 4))
    exponents[:, 1] = exponents[:, 2] = alphas
    scale = None
    if max(alphas) > _FINITE_ALPHA:   # a scale costs numpy calls: only a pass that needs one builds it
        scale = np.where(exponents[:, 1] > _FINITE_ALPHA, 2.0 ** -4, 1.0)
        exponents *= scale[:, None]
    reach = _reach(bound_rhs(gdof_rows(exponents)))
    return reach if scale is None else reach / scale


def per_user_dof_optimum(alpha: float, allow_common: bool = True) -> float:
    """The best per-user total (r0 + r1 + r2)/2 over the exponent region
    of the symmetric channel (direct exponents 1, cross exponents alpha),
    or (r1 + r2)/2 with allow_common False, the no-common-message
    baseline of Etkin, Tse and Wang (2008), exact by the dual table of
    ``icci.region``: the batched core at N = 1.

    The region is convex and mirror-symmetric in (r1, r2), so the
    average of a maximizer and its mirror image is a symmetric
    maximizer: the best per-user total needs no symmetry constraint.  It
    is downward comprehensive, so the best r1 + r2 is reached at r0 = 0.
    The rows come from ``gdof_rows``, not from the closed forms, so the
    two stay independent checks of each other.  Both optima of the last
    alpha are kept (``_symmetric_optima``).
    """
    return _symmetric_optima(_nonneg_finite("alpha", alpha))[0 if allow_common else 1]


@functools.lru_cache(maxsize=1)
def _symmetric_optima(alpha: float) -> tuple[float, float]:
    """Both optima of ``per_user_dof_optimum`` at one checked alpha, with
    and without the common layer, from one ``_symmetric_reach`` column.
    The last alpha's pair is kept, so the paper's comparison of the two,
    ``dof_icci_lp(a)`` then ``dof_ic_lp(a)``, solves the region once."""
    reach = _symmetric_reach([alpha])
    return float(reach[_SUM_ALL, 0]) / 2.0, float(reach[_SUM_INDIVIDUAL, 0]) / 2.0


def dof_icci_lp(alpha: float) -> float:
    """Best symmetric per-user total with the common layer, by the dual
    table: ``per_user_dof_optimum(alpha, True)``.  It and ``dof_ic_lp``
    stay because ``bench/`` and the tests call them; they go when
    ``bench/`` calls ``per_user_dof_optimum`` (ROADMAP item 1)."""
    return per_user_dof_optimum(alpha, allow_common=True)


def dof_ic_lp(alpha: float) -> float:
    """Same optimizer restricted to r0 = 0 (no common message):
    ``per_user_dof_optimum(alpha, False)``, kept as ``dof_icci_lp`` is."""
    return per_user_dof_optimum(alpha, allow_common=False)


def dof_ic(alpha: float) -> float:
    """Closed-form symmetric per-user curve without a common message.

    Pieces over alpha (half-open on the right boundary):
      [0, 1/2): 1 - alpha     [1/2, 2/3): alpha      [2/3, 1): 1 - alpha/2
      [1, 2):   alpha/2       [2, inf):   1
    """
    alpha = _nonneg_finite("alpha", alpha)
    if alpha < 0.5:
        return 1.0 - alpha
    if alpha < 2.0 / 3.0:
        return alpha
    if alpha < 1.0:
        return 1.0 - alpha / 2.0
    if alpha < 2.0:
        return alpha / 2.0
    return 1.0


def dof_icci(alpha: float) -> float:
    """Closed-form symmetric per-user curve with the common layer.

    Written piecewise on the dof_ic breakpoints (dof_ic plus alpha/2,
    then plus (2 - 3*alpha)/2, two zero-uplift pieces, then plus
    (alpha - 2)/2) the pieces all collapse to 1 - alpha/2 below 1 and
    alpha/2 from 1 on; the collapsed form is used so each value costs a
    single rounding step.
    """
    alpha = _nonneg_finite("alpha", alpha)
    if alpha < 1.0:
        return 1.0 - alpha / 2.0
    return alpha / 2.0


def dof_uplift(alpha: float) -> float:
    """What the common layer adds on top of dof_ic: alpha/2 on [0, 1/2),
    (2 - 3*alpha)/2 on [1/2, 2/3), zero on [2/3, 2), (alpha - 2)/2 from 2
    on.  Computed as the curve difference so the identity
    dof_uplift == dof_icci - dof_ic holds exactly in floats."""
    return dof_icci(alpha) - dof_ic(alpha)


def multiplexing_gain(exponents: GdofExponents, p: float) -> dict[str, float]:
    """Finite-P ratios: each outer coefficient divided by log2(p).

    As p grows these approach the exponent targets from
    multiplexing_targets; p must exceed 1 for the ratio to make sense.
    """
    p = _real("p", p)
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"p must be finite and > 1, got {p!r}")
    gains = ChannelGains.from_exponents(exponents, p)
    denom = math.log2(p)
    return {key: value / denom for key, value in outer_coeffs(gains).as_dict().items()}


def multiplexing_targets(exponents: GdofExponents) -> dict[str, float]:
    """Exponent-scale limits keyed like the coefficient dict (the primed
    G targets coincide with the plain G ones)."""
    return gdof_coeffs(exponents).as_dict()


def _curve_grid(alpha_min, alpha_max, step) -> tuple[float, float, int]:
    """The inclusive grid alpha_min, alpha_min + step, ..., alpha_max as
    (alpha_min, step, points), checked before any point is computed."""
    alpha_min = _nonneg_finite("alpha_min", alpha_min)
    alpha_max = _nonneg_finite("alpha_max", alpha_max)
    step = _real("step", step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    if alpha_max < alpha_min:
        raise ValueError(f"alpha_max {alpha_max} < alpha_min {alpha_min}")
    points = (alpha_max - alpha_min) / step + 1e-9   # the grid has int(points) + 1 points
    if not points < _MAX_CURVE_POINTS:   # inf included
        raise ValueError(f"the grid {alpha_min}..{alpha_max} in steps of {step} has over {_MAX_CURVE_POINTS} points")
    return alpha_min, step, int(points) + 1


def _curve_passes(alpha_min: float, step: float, points: int):
    """The rows (alpha, d_ic, d_icci, d_uplift, d_icci_lp) of a checked
    grid, one list per pass of the batched core."""
    for start in range(0, points, _CURVE_PASS):
        alphas = [alpha_min + k * step for k in range(start, min(start + _CURVE_PASS, points))]
        optima = (_symmetric_reach(alphas)[_SUM_ALL] / 2.0).tolist()
        yield [(alpha, dof_ic(alpha), dof_icci(alpha), dof_uplift(alpha), optimum)
               for alpha, optimum in zip(alphas, optima)]


def dof_curve_samples(
    alpha_min: float = 0.0, alpha_max: float = 3.0, step: float = 0.01
) -> list[DofCurveSample]:
    """Closed-form curve values and the dual-table optimum on an inclusive
    grid, the optima in fixed passes of the batched core."""
    passes = _curve_passes(*_curve_grid(alpha_min, alpha_max, step))
    return [DofCurveSample(*row) for rows in passes for row in rows]


def write_curve_csv(
    stream, alpha_min: float = 0.0, alpha_max: float = 3.0, step: float = 0.01
) -> int:
    """Write the curve as CSV to an open text stream; returns row count.

    Floats are written in shortest round-trip form so the file parses
    back to the exact values computed.  Each pass of rows is written as
    it is computed, so no more than one pass is held.
    """
    return _write_curve_rows(stream, _curve_passes(*_curve_grid(alpha_min, alpha_max, step)))


def _write_curve_rows(stream, passes) -> int:
    """The CSV of ``write_curve_csv`` for the passes of ``_curve_passes``,
    each written as it is computed."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CURVE_CSV_HEADER)
    count = 0
    for rows in passes:
        writer.writerows([repr(float(v)) for v in row] for row in rows)
        count += len(rows)
    return count
