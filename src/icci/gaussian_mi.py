"""Independent Gaussian oracle for the achievable-side coefficients, and
a rate accounting for the layered scheme on a concrete channel.

The achievable family in :mod:`icci.bounds` is a set of closed forms.
This module re-derives each of the ten values as an actual mutual
information of jointly Gaussian variables, sharing no formulas with the
closed forms, so agreement between the two is a real check.  The
oracle returns the ten values as the inner side of ``BoundCoeffs``, the
type of the closed forms, so the two compare value by value.

The reference input distribution: the common layer carries zero power,
transmitter i splits unit power into a public part U_i with power
1 - x_ji and an independent private remainder, so X_i = U_i + (private)
with the private variance x_ji = 1/max(m**2, 1) over the gain m of the
link it crosses, the noise-floor split of the closed forms.  Receiver
outputs are Y_1 = m11 X_1 + m12 X_2 + Z_1 and
Y_2 = m21 X_1 + m22 X_2 + Z_2 with unit Gaussian noise.  All signals are
circularly symmetric complex, so a mutual information is a log2 ratio
of conditional variances with no 1/2 factor:

    I(S; Y | C) = log2( Var(Y | C) / Var(Y | C, S) ).

The joint covariance of (U1, U2, X1, X2, Y1, Y2) is built exactly, in
Python ints: each float gain is exactly M / D with one common power of
two D, and a ratio Var(Y | C) / Var(Y | C, S) is unchanged when Y or a
conditioner is rescaled, so Y_i is scaled by D and U_i by M**2 over the
cross gain M / D its private part crosses (U_i is the constant 0 where
M**2 <= D**2, its public power being zero).  A receiver's four values
need six conditional variances of its output y, with x its own signal,
u its own public part and v the other one.  One chain per receiver,
Bareiss's fraction-free elimination (Math. Comp. 22, 1968) along
(v, x, u), gives each Var(y | first k) = det(S_k + y) / det(S_k) as a
pair of ints; it is written out on the ten entries of the upper
triangle of the (v, x, u, y) block, and the tests hold the generic
elimination it came from as their reference.  The other two are exact
2x2 Schur complements of the (u, y) block, in the covariance for
Var(y | u) and after the chain's first step for Var(y | v, u):
(s_uu s_yy - s_uy**2) / (prev s_uu), prev being the step's pivot S_vv
(1 before it, or where v is constant).  So a value rounds only where
its variance ratio becomes a float (one correctly rounded int division)
and in the log2, within about 1e-14 bits of the closed forms over the
whole accepted envelope.  A conditioner of exactly zero variance given
the earlier ones is a constant and is skipped, as u is in a complement.
A negative pivot or a final variance that is not positive raises
``CovarianceError``, which names the conditioner or the conditional
variance and the receiver output.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .bounds import BoundCoeffs, cap, inner_coeffs
from .channel import ChannelGains, _real

__all__ = [
    "CovarianceError",
    "DecodeStage",
    "DecodeChainReport",
    "mutual_info_terms",
    "mi_discrepancy",
    "successive_decode_chain",
]

# variable order in the joint covariance, and the names a guard message gives them
_U1, _U2, _X1, _X2, _Y1, _Y2 = range(6)
_NAMES = ("U1", "U2", "X1", "X2", "Y1", "Y2")


class CovarianceError(ArithmeticError):
    """Elimination met a negative pivot or a final variance that is not
    positive; the message names the variables, e.g. ``negative pivot
    -1.000e+00 at conditioner U2 of Y1``."""


def _joint_covariance(gains: ChannelGains) -> list[list[int]]:
    ratios = [m.as_integer_ratio() for m in (gains.m11, gains.m12, gains.m21, gains.m22)]
    den = max(d for _, d in ratios)
    m11, m12, m21, m22 = (n * (den // d) for n, d in ratios)
    dd, y12 = den * den, m11 * m21 + m12 * m22
    w1, w2 = (max(m * m - dd, 0) for m in (m21, m12))  # M**2 times the public power
    # rows and columns U1, U2, X1, X2, D Y1, D Y2, with D Y_i = M_i1 X1 + M_i2 X2 + D Z_i
    return [
        [m21 * m21 * w1, 0, w1, 0, m11 * w1, m21 * w1],
        [0, m12 * m12 * w2, 0, w2, m12 * w2, m22 * w2],
        [w1, 0, 1, 0, m11, m21],
        [0, w2, 0, 1, m12, m22],
        [m11 * w1, m12 * w2, m11, m12, m11 * m11 + m12 * m12 + dd, y12],
        [m21 * w1, m22 * w2, m21, m22, y12, m21 * m21 + m22 * m22 + dd],
    ]


def _negative_pivot(pivot: int, prev: int, at: int, y: int) -> CovarianceError:
    return CovarianceError(f"negative pivot {pivot / prev:.3e} at conditioner {_NAMES[at]} of {_NAMES[y]}")


def _positive(var: tuple[int, int], y: int, given: tuple[int, ...]) -> tuple[int, int]:
    """A final conditional variance Var(y | given) as (numerator,
    denominator), if it is positive."""
    if var[0] <= 0:
        names = ", ".join(_NAMES[c] for c in given)
        raise CovarianceError(f"conditional variance Var({_NAMES[y]} | {names}) = {var[0] / var[1]:.3e} is not positive")
    return var


def _schur(s_uu: int, s_uy: int, s_yy: int, prev: int, y: int, given: tuple[int, ...]) -> tuple[int, int]:
    """Var(y | given) for given = (*C, u), from the (u, y) block of an
    elimination given C, each entry prev times a covariance given C: the
    2x2 Schur complement (s_uu s_yy - s_uy**2) / (prev s_uu), or
    Var(y | C) if u is constant."""
    if s_uu < 0:
        raise _negative_pivot(s_uu, prev, given[-1], y)
    return _positive((s_uu * s_yy - s_uy * s_uy, prev * s_uu) if s_uu else (s_yy, prev), y, given)


def _receiver_variances(cov: list[list[int]], y: int, x: int, u: int, v: int) -> tuple[tuple[int, int], ...]:
    """Var(y | C) for C = (), (v), (v, x), (v, x, u), (u) and (v, u), as
    (numerator, denominator) pairs, at the receiver observing y, own
    signal x with public part u, other public part v: the fraction-free
    chain (v, x, u) gives the first four, and the (u, y) block before and
    after its first step the last two.

    The chain is written out on the upper triangle of the (v, x, u, y)
    block: s_ab is prev times the covariance of a and b given the
    conditioners eliminated so far, and a step with pivot p = s_tt sets
    s_ab = (p s_ab - s_ta s_tb) // prev for a, b after t, each division
    exact (Sylvester's identity); prev is 1 before the first step, so it
    divides by nothing.  A zero pivot is a constant conditioner: its step
    is skipped and prev kept."""
    rv, rx, ru, ry = cov[v], cov[x], cov[u], cov[y]
    vv, vx, vu, vy = rv[v], rv[x], rv[u], rv[y]
    xx, xu, xy = rx[x], rx[u], rx[y]
    uu, uy = ru[u], ru[y]
    yy = ry[y]
    var, var_u = (yy, 1), _schur(uu, uy, yy, 1, y, (u,))
    prev = 1
    if vv < 0:
        raise _negative_pivot(vv, prev, v, y)
    if vv:
        xx, xu, xy = vv * xx - vx * vx, vv * xu - vx * vu, vv * xy - vx * vy
        uu, uy = vv * uu - vu * vu, vv * uy - vu * vy
        yy = vv * yy - vy * vy
        prev = vv
    var_v, var_uv = (yy, prev), _schur(uu, uy, yy, prev, y, (v, u))
    if xx < 0:
        raise _negative_pivot(xx, prev, x, y)
    if xx:
        uu, uy = (xx * uu - xu * xu) // prev, (xx * uy - xu * xy) // prev
        yy = (xx * yy - xy * xy) // prev
        prev = xx
    var_vx = (yy, prev)
    if uu < 0:
        raise _negative_pivot(uu, prev, u, y)
    if uu:
        yy = (uu * yy - uy * uy) // prev
        prev = uu
    return var, var_v, var_vx, _positive((yy, prev), y, (v, x, u)), var_u, var_uv


def _receiver_terms(cov: list[list[int]], y: int, x: int, u: int, v: int) -> tuple[float, ...]:
    """(a, d, e, g) at that receiver, each a log2 ratio of two of its
    ``_receiver_variances``."""
    var, var_v, var_vx, var_vxu, var_u, var_uv = _receiver_variances(cov, y, x, u, v)
    return tuple(math.log2(n_small * d_big / (d_small * n_big)) for (n_small, d_small), (n_big, d_big) in
                 ((var_uv, var_vxu), (var_v, var_vx), (var_u, var_vxu), (var, var_vx)))


def mutual_info_terms(gains: ChannelGains) -> BoundCoeffs:
    """All ten coefficients as Gaussian mutual informations: the oracle's
    inner family.

    Per receiver i (j the other user), with the common layer identically
    zero so conditioning on it is vacuous:

        a_i = I(X_i; Y_i | U_i, U_j)      d_i = I(X_i; Y_i | U_j)
        e_i = I(X_i, U_j; Y_i | U_i)      g_i = I(X_i, U_j; Y_i)
        g_i' = I(common, X_i, U_j; Y_i) = g_i
    """
    cov = _joint_covariance(gains)
    try:
        a1, d1, e1, g1 = _receiver_terms(cov, _Y1, _X1, _U1, _U2)
        a2, d2, e2, g2 = _receiver_terms(cov, _Y2, _X2, _U2, _U1)
    except OverflowError:  # a variance ratio past the float range
        raise ValueError(f"a mutual information of {gains} is too large for a float") from None
    # the common layer has zero power, so adding it to the decoded side
    # changes nothing: the primed values are the plain ones, as in the
    # closed forms, whose inner G' is G bit for bit
    return BoundCoeffs((a1, a2, d1, d2, e1, e2, g1, g2, g1, g2), "inner")


def mi_discrepancy(gains: ChannelGains) -> float:
    """Max absolute difference between the oracle and the closed forms."""
    closed = inner_coeffs(gains).values
    oracle = mutual_info_terms(gains).values
    return max(abs(o - c) for o, c in zip(oracle, closed))


@dataclass(frozen=True)
class DecodeStage:
    """One step of the successive decoder at a receiver."""

    label: str
    sinr: float
    rate: float
    ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DecodeChainReport:
    """Stage-by-stage rates for the layered scheme, plus summary ratios.

    individual_ratio counts what one user's own messages carry: the
    public sub-message is limited by the slower of the two stages that
    must decode it (its own receiver early, the other receiver after the
    common layer), plus the private stage.  per_user_ratio adds half the
    common rate, since that layer is shared by both users.
    """

    p: float
    include_common: bool
    stages: tuple[DecodeStage, ...]
    individual_ratio: float
    common_ratio: float
    per_user_ratio: float

    def as_dict(self) -> dict:
        return asdict(self)


def successive_decode_chain(p: float, include_common: bool = True) -> DecodeChainReport:
    """Rate accounting for the layered scheme on the symmetric channel
    with direct exponent 1 and cross exponent 0.6 at base power p.

    Each transmitter stacks a common component (power ~ p**-0.2), a
    public component (~ 1) and a private component (~ p**-0.6), jointly
    normalized to unit power.  A receiver decodes in order: own public,
    common, other user's public, own private, each time treating the
    remaining layers as noise and subtracting what it decoded.  The
    common layer is decoded from its own-link copy with the cross-link
    copy as noise, but both copies are subtracted afterwards.  Stage
    ratios rate/log2(p) approach (0.2, 0.2, 0.2, 0.4) as p grows; p
    below 1e3 is rejected because the layer ordering has not settled.
    """
    p = _real("p", p)
    if not (math.isfinite(p) and p >= 1e3):
        raise ValueError(f"p must be finite and >= 1e3, got {p!r}")
    cross_exp = 0.6
    common_raw = p ** -0.2 if include_common else 0.0
    public_raw = 1.0
    private_raw = p ** -cross_exp
    total = common_raw + public_raw + private_raw
    own_scale = p / total               # direct link power gain per unit raw power
    cross_scale = p ** cross_exp / total
    own_common = own_scale * common_raw
    cross_common = cross_scale * common_raw
    own_public = own_scale * public_raw
    cross_public = cross_scale * public_raw
    own_private = own_scale * private_raw
    residual = cross_scale * private_raw + 1.0   # other user's private + noise
    log2p = math.log2(p)

    def stage(label: str, signal: float, noise: float) -> DecodeStage:
        sinr = signal / noise
        rate = cap(sinr)
        return DecodeStage(label=label, sinr=sinr, rate=rate, ratio=rate / log2p)

    s_pub = stage(
        "own-public", own_public,
        own_common + cross_common + cross_public + own_private + residual,
    )
    s_common = stage(
        "common", own_common,
        cross_common + cross_public + own_private + residual,
    )
    s_cross = stage("cross-public", cross_public, own_private + residual)
    s_priv = stage("own-private", own_private, residual)

    individual = min(s_pub.rate, s_cross.rate) / log2p + s_priv.ratio
    common_ratio = s_common.ratio
    return DecodeChainReport(
        p=p,
        include_common=include_common,
        stages=(s_pub, s_common, s_cross, s_priv),
        individual_ratio=individual,
        common_ratio=common_ratio,
        per_user_ratio=individual + common_ratio / 2.0,
    )
