"""Degrees-of-freedom scale: what the bound families become when every
link power is an exponent of one large base power P.

Each outer coefficient grows like a multiple of log2(P); the multiple
depends only on the link exponents alpha_ij.  With shorthand
(y)+ = max(y, 0) the ten coefficients collapse onto eight numbers:

    a_i = (alpha_ii - alpha_ji)+          private-only
    d_i = alpha_ii                        full own signal
    e_i = max(alpha_ii - alpha_ji, alpha_ij)
    g_i = max(alpha_ii, alpha_ij)         (shared by G and G')

These generate the exponent region, the 13 rows of the rate region on
these numbers with G' = G.  On the fully symmetric channel (direct
exponents 1, cross exponents alpha) the region projects onto per-user
coordinates (d0, d1) with d2 = d1, and the best per-user total
(d0 + 2*d1)/2 has a closed piecewise form in alpha, both with and
without the common layer.  The module provides the closed forms, an
independent vertex-enumeration optimizer over the projected region to
cross-check them, and finite-P multiplexing-gain ratios that converge
to the exponent targets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .bounds import outer_coeffs
from .channel import ChannelGains, GdofExponents, _real
from .region import HalfSpace, RateRegion, region_from_coeffs

__all__ = [
    "GdofCoeffs",
    "SymmetricGdofPoint",
    "DofCurveSample",
    "gdof_coeffs",
    "build_gdof_region",
    "symmetric_region",
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

@dataclass(frozen=True)
class GdofCoeffs:
    """Exponent-scale analogues of the bound coefficients."""

    a1: float
    a2: float
    d1: float
    d2: float
    e1: float
    e2: float
    g1: float
    g2: float

    # the primed G coefficients of the rate families coincide with G here
    g1p = property(lambda self: self.g1)
    g2p = property(lambda self: self.g2)


@dataclass(frozen=True)
class SymmetricGdofPoint:
    """A point (d0, d1) of the symmetric projected exponent region."""

    d0: float
    d1: float


@dataclass(frozen=True)
class DofCurveSample:
    alpha: float
    d_ic: float
    d_icci: float
    d_uplift: float
    d_icci_lp: float


def gdof_coeffs(exponents: GdofExponents) -> GdofCoeffs:
    a11, a12 = exponents.a11, exponents.a12
    a21, a22 = exponents.a21, exponents.a22
    return GdofCoeffs(
        a1=max(a11 - a21, 0.0),
        a2=max(a22 - a12, 0.0),
        d1=a11,
        d2=a22,
        e1=max(a11 - a21, a12),
        e2=max(a22 - a12, a21),
        g1=max(a11, a12),
        g2=max(a22, a21),
    )


def build_gdof_region(coeffs: GdofCoeffs) -> RateRegion:
    """The exponent region: the 13 rows of ``region_from_coeffs`` with
    G' = G.  Rows 5, 6, 9 and 10 then drop r0 from rows 7, 8, 11 and 12
    at the same rhs, so r0 >= 0 makes them redundant, and the region is
    the one of the nine other rows."""
    return region_from_coeffs(coeffs, "gdof")


def _check_alpha(alpha: float) -> float:
    alpha = _real("alpha", alpha)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    return alpha


def symmetric_region(alpha: float) -> tuple[HalfSpace, ...]:
    """Projected constraints over (d0, d1) for the symmetric channel.

    The third coordinate of each HalfSpace is unused (coefficient 0);
    d2 = d1 is already folded in.
    """
    alpha = _check_alpha(alpha)
    top = max(1.0, alpha)
    return (
        HalfSpace(c=(1, 1, 0), rhs=top),
        HalfSpace(c=(0, 1, 0), rhs=min(1.0, max(alpha, 1.0 - alpha))),
        HalfSpace(c=(1, 2, 0), rhs=top + max(1.0 - alpha, 0.0)),
    )


def per_user_dof_optimum(
    alpha: float, allow_common: bool = True
) -> tuple[float, SymmetricGdofPoint]:
    """Maximize (d0 + 2*d1)/2 over the projected region by enumerating
    all feasible pairwise line intersections (the region is a 2-D
    polytope, so the optimum sits on a vertex).  With allow_common False
    the common coordinate is pinned to zero, which recovers the
    no-common-message baseline."""
    alpha = _check_alpha(alpha)
    lines: list[tuple[float, float, float]] = [
        (float(hs.c[0]), float(hs.c[1]), hs.rhs) for hs in symmetric_region(alpha)
    ]
    lines.append((-1.0, 0.0, 0.0))  # d0 >= 0, written as -d0 <= 0
    lines.append((0.0, -1.0, 0.0))  # d1 >= 0, written as -d1 <= 0
    if not allow_common:
        lines.append((1.0, 0.0, 0.0))  # d0 <= 0; with -d0 <= 0 pins d0 = 0
    constraints = lines  # every boundary line doubles as a <= constraint
    tol = 1e-9
    best: tuple[float, SymmetricGdofPoint] | None = None
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a0, a1, ar = lines[i]
            b0, b1, br = lines[j]
            det = a0 * b1 - a1 * b0
            if abs(det) <= 1e-12:
                continue
            d0 = (ar * b1 - a1 * br) / det
            d1 = (a0 * br - ar * b0) / det
            if d0 < -tol or d1 < -tol:
                continue
            if any(c0 * d0 + c1 * d1 > rhs + tol for c0, c1, rhs in constraints):
                continue
            value = (d0 + 2.0 * d1) / 2.0
            if best is None or value > best[0]:
                best = (value, SymmetricGdofPoint(d0=d0, d1=d1))
    assert best is not None  # origin is always feasible
    return best


def dof_icci_lp(alpha: float) -> float:
    """Best symmetric per-user total with the common layer, by enumeration."""
    return per_user_dof_optimum(alpha, allow_common=True)[0]


def dof_ic_lp(alpha: float) -> float:
    """Same optimizer restricted to d0 = 0 (no common message)."""
    return per_user_dof_optimum(alpha, allow_common=False)[0]


def dof_ic(alpha: float) -> float:
    """Closed-form symmetric per-user curve without a common message.

    Pieces over alpha (half-open on the right boundary):
      [0, 1/2): 1 - alpha     [1/2, 2/3): alpha      [2/3, 1): 1 - alpha/2
      [1, 2):   alpha/2       [2, inf):   1
    """
    alpha = _check_alpha(alpha)
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
    alpha = _check_alpha(alpha)
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
    coeffs = outer_coeffs(gains)
    denom = math.log2(p)
    ratios = coeffs.as_dict()
    del ratios["side"]
    return {key: value / denom for key, value in ratios.items()}


def multiplexing_targets(exponents: GdofExponents) -> dict[str, float]:
    """Exponent-scale limits keyed like the coefficient dict (the primed
    G targets coincide with the plain G ones)."""
    g = gdof_coeffs(exponents)
    return {
        "A1": g.a1,
        "A2": g.a2,
        "D1": g.d1,
        "D2": g.d2,
        "E1": g.e1,
        "E2": g.e2,
        "G1": g.g1,
        "G2": g.g2,
        "G1p": g.g1,
        "G2p": g.g2,
    }


def dof_curve_samples(
    alpha_min: float = 0.0, alpha_max: float = 3.0, step: float = 0.01
) -> list[DofCurveSample]:
    """Closed-form and enumerated curve values on an inclusive grid."""
    alpha_min = _check_alpha(alpha_min)
    alpha_max = _check_alpha(alpha_max)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    if alpha_max < alpha_min:
        raise ValueError(f"alpha_max {alpha_max} < alpha_min {alpha_min}")
    count = int(math.floor((alpha_max - alpha_min) / step + 1e-9)) + 1
    samples = []
    for k in range(count):
        alpha = alpha_min + k * step
        samples.append(
            DofCurveSample(
                alpha=alpha,
                d_ic=dof_ic(alpha),
                d_icci=dof_icci(alpha),
                d_uplift=dof_uplift(alpha),
                d_icci_lp=dof_icci_lp(alpha),
            )
        )
    return samples


def write_curve_csv(
    stream, alpha_min: float = 0.0, alpha_max: float = 3.0, step: float = 0.01
) -> int:
    """Write the curve as CSV to an open text stream; returns row count.

    Floats are written in shortest round-trip form so the file parses
    back to the exact values computed.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CURVE_CSV_HEADER)
    samples = dof_curve_samples(alpha_min, alpha_max, step)
    for s in samples:
        writer.writerow([repr(float(v)) for v in (s.alpha, s.d_ic, s.d_icci, s.d_uplift, s.d_icci_lp)])
    return len(samples)
