"""Closed-form rate coefficients for the two-user Gaussian interference
channel with a common message.

Everything here combines the single-link Gaussian capacity

    cap(p) = log2(1 + p)

with signal-to-interference-plus-noise ratios read off the channel
gains.  Two families of ten coefficients are produced, five per
receiver: A (private part only), D (full own signal, other user's
public part already removed), E (own private plus the other's public,
jointly), G (full own signal plus the other's public), and G' (all
decodable layers including the common one).

The inner family rates a layered scheme in which each transmitter
splits off a private part sized so that it crosses into the other
receiver at or below the noise floor; transmitter i keeps private power
fraction

    x_ji = 1 / max(m_ji**2, 1),

so its leakage m_ji**2 * x_ji never exceeds one.  Receiver i therefore
operates over a residual floor of n = 1 + i * x, with i = m_ij**2 and
x = x_ij.  With s = m_ii**2, G' there is G: (1 + s + i)/n - 1 equals
(s + i(1 - x))/n because n = 1 + i*x, so ``_inner_args`` computes G once
and gives it for G' too, and the inner family, like the exponent family
of ``icci.gdof``, is eight numbers (``icci.region`` says what that makes
of the region's rows).  The outer family evaluates the same ten roles
against the raw channel with no splitting, G' with the beamforming gain
(m_ii + m_ij)**2 that independent signalling gives up.  The signed
differences outer minus inner are bounded: below one bit for the A, D
and E coefficients, at most one bit for G, and below two bits for G'.
(The G bound is tight: outer minus inner for G_1 equals
log2(1 + min(m12**2, 1)), which is exactly one bit whenever m12 >= 1,
and for G_2 the same in m21.)  ``delta_slack`` is the least margin.

Each family's capacity arguments are written once, per receiver, in
``_inner_args`` and ``_outer_args``, every square a product: the scalar
``inner_coeffs`` and ``outer_coeffs`` run them on Python floats once
per receiver and build through ``_family``, one refusal by name of a
gain past the float range, and the batched ``coeff_rows`` once on numpy
columns stacked by receiver, in the same operations and order, and both
map libm's log1p over the arguments, so both give the same bits.

Every family of ten is one type, ``BoundCoeffs``: the values in the
fixed order of ``_COEFF_FIELDS``, keyed by ``_COEFF_KEYS``, and a side
tag.  Besides the inner and outer families it holds their signed deltas
(``gap_deltas``), the Gaussian oracle's inner family
(``icci.gaussian_mi``) and the exponent-scale coefficients
(``icci.gdof``), so this module is the only one that lists the ten
names in order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import ChannelGains

__all__ = [
    "BoundCoeffs",
    "cap",
    "power_split",
    "inner_coeffs",
    "outer_coeffs",
    "coeff_rows",
    "coeff_deltas",
    "gap_deltas",
    "delta_slack",
]

_LN2 = math.log(2.0)
_COEFF_FIELDS = ("a1", "a2", "d1", "d2", "e1", "e2", "g1", "g2", "g1p", "g2p")
# the keys of as_dict: each field name with its first letter upper case
_COEFF_KEYS = tuple(name[0].upper() + name[1:] for name in _COEFF_FIELDS)
_SIDES = ("inner", "outer", "delta", "gdof")
# gap budget of each coefficient, in _COEFF_FIELDS order, as a column
_DELTA_BUDGETS = np.array([[1.0]] * 8 + [[2.0]] * 2)


def cap(p: float) -> float:
    """Gaussian capacity log2(1 + p) for p >= 0, accurate for tiny p:
    libm's log1p divided by ln 2, the one formula that ``_family`` and
    ``coeff_rows`` map over a family's arguments."""
    if not (p >= 0):
        raise ValueError(f"capacity argument must be nonnegative, got {p!r}")
    return math.log1p(p) / _LN2


@dataclass(frozen=True)
class BoundCoeffs:
    """Ten coefficients, in ``_COEFF_FIELDS`` order (a1, a2, ..., g2p; each
    also readable by that name), and the family they are: ``side`` is
    inner or outer (rate bounds in bits), delta (outer minus inner, which
    may be negative) or gdof (exponent scale, with G' = G)."""

    values: tuple[float, ...]
    side: str

    def __post_init__(self) -> None:
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(_COEFF_FIELDS):
            raise ValueError(f"expected {len(_COEFF_FIELDS)} coefficients, got {len(self.values)}")
        signed = self.side == "delta"
        for name, value in zip(_COEFF_FIELDS, self.values):
            if not (math.isfinite(value) and (signed or value >= 0)):
                raise ValueError(f"coefficient {name} must be finite{'' if signed else ' and >= 0'}, got {value!r}")

    def as_dict(self) -> dict:
        return dict(zip(_COEFF_KEYS, self.values))


for _k, _name in enumerate(_COEFF_FIELDS):
    setattr(BoundCoeffs, _name, property(lambda self, k=_k: self.values[k]))
del _k, _name


def power_split(gains: ChannelGains) -> tuple[float, float]:
    """Private power fractions (x12, x21).

    x12 scales transmitter 2's private part (it crosses the m12 link into
    receiver 1) and x21 scales transmitter 1's (crossing m21).  Each is
    1 / max(m**2, 1) over its cross gain, 1.0 up to m = 1 and at zero
    gain, so the private leakage lands at or below the noise floor;
    ``coeff_rows`` takes the same expression on columns, with the same
    bits.  Its literals are ints, as in ``_inner_args``, but the
    expression is not exact on ``Fraction`` powers: below 1 it is the int
    quotient 1 / 1, the float 1.0, so an exact reference takes the split
    as ``Fraction(1) / max(i, 1)``.
    """
    return 1 / max(gains.m12 * gains.m12, 1), 1 / max(gains.m21 * gains.m21, 1)


def _inner_args(s, i, x, x_other):
    """The five ``cap`` arguments (A, D, E, G, G') of the inner family at
    one receiver, from its direct power s, its cross power i, the private
    fraction x of the interferer's signal there and the private fraction
    x_other of its own transmitter's; G' is G, the same value; on Python
    floats or numpy columns alike, in the same operations and order, so
    both give the same bits.  Every literal is an int, which converts to
    a float exactly, so the form also runs on ``Fraction`` inputs and
    gives exact ``Fraction`` arguments."""
    n = 1 + i * x   # the residual interference floor
    g = (s + i * (1 - x)) / n
    return s * x_other / n, s / n, (s * x_other + i * (1 - x)) / n, g, g


def _outer_args(s, i, i_other, t):
    """The five ``cap`` arguments of the outer family at one receiver,
    from its direct and cross powers, the other receiver's cross power
    and its summed gains t = m_ii + m_ij, the square t * t being G'; on
    floats, numpy columns or ``Fraction`` inputs, as ``_inner_args``."""
    return (
        s / (1 + i_other),
        s,
        i + s / (1 + i_other),
        s + i,
        t * t,
    )


def _powers(gains: ChannelGains) -> tuple[float, float, float, float]:
    """(s1, s2, i1, i2): the direct and cross powers of one channel."""
    return gains.m11 * gains.m11, gains.m22 * gains.m22, gains.m12 * gains.m12, gains.m21 * gains.m21


# receiver 1's five arguments then receiver 2's, taken in field order
_FIELD_ORDER = operator.itemgetter(0, 5, 1, 6, 2, 7, 3, 8, 4, 9)


def _family(side: str, gains: ChannelGains, args) -> BoundCoeffs:
    """The side family from both receivers' ``cap`` arguments: one map of
    libm's log1p, each value divided by ln 2, which is ``cap`` and
    ``coeff_rows`` bit for bit."""
    try:
        return BoundCoeffs(tuple([v / _LN2 for v in map(math.log1p, _FIELD_ORDER(args))]), side)
    except ValueError:   # finite gains give a NaN or inf, which BoundCoeffs refuses, only by overflow
        raise ValueError(f"an {side} coefficient of {gains} is too large for a float") from None


def inner_coeffs(gains: ChannelGains) -> BoundCoeffs:
    """Achievable-side coefficients under the noise-floor power split."""
    s1, s2, i1, i2 = _powers(gains)
    x12, x21 = power_split(gains)
    return _family("inner", gains, _inner_args(s1, i1, x12, x21) + _inner_args(s2, i2, x21, x12))


def outer_coeffs(gains: ChannelGains) -> BoundCoeffs:
    """Converse-side coefficients evaluated on the raw channel."""
    s1, s2, i1, i2 = _powers(gains)
    t1, t2 = gains.m11 + gains.m12, gains.m22 + gains.m21
    return _family("outer", gains, _outer_args(s1, i1, i2, t1) + _outer_args(s2, i2, i1, t2))


def coeff_rows(gains: np.ndarray) -> np.ndarray:
    """Both coefficient families for an (N, 4) array of gains, columns
    (m11, m12, m21, m22) each finite and >= 0.

    Returns a (2, 10, N) array: the inner family in [0], the outer in
    [1], rows in ``BoundCoeffs`` field order (a1, a2, ..., g2p).  The
    arguments are ``_inner_args`` and ``_outer_args`` called once each,
    on (2, N) columns stacked by receiver: own gains (m11, m22), cross
    gains (m12, m21), and the other receiver's values in reverse order,
    so each of the ten results is a coefficient's two receiver rows and
    they stack straight into field order.  Each element sees the
    operations of ``inner_coeffs`` and ``outer_coeffs``; only the split
    is taken per type, with the scalar bits.  cap is one map of libm's
    log1p divided by ln 2, as in ``cap`` and ``_family``, so every value
    is the scalar family's on every CPU: numpy picks SVML kernels on
    AVX-512 hosts at run time, whose log1p differs from libm's on 1.4 %
    of log-uniform arguments in [1e-12, 1e12], so the core asks numpy
    for +, -, *, /, min, max and takes only.
    """
    m = np.asarray(gains, dtype=float).T
    own, cross = m[::3], m[1:3]   # (m11, m22) and (m12, m21)
    s, i = own * own, cross * cross
    x = 1 / np.maximum(i, 1)
    args = np.array(_inner_args(s, i, x, x[::-1]) + _outer_args(s, i, i[::-1], own + cross))
    # a memoryview yields the float64s one by one, with no list of them all
    caps = np.fromiter(map(math.log1p, memoryview(args.ravel())), float, args.size) / _LN2
    return caps.reshape(2, len(_COEFF_FIELDS), m.shape[1])


def coeff_deltas(inner: BoundCoeffs, outer: BoundCoeffs) -> BoundCoeffs:
    """The delta side: outer minus inner, coefficient by coefficient."""
    if inner.side != "inner" or outer.side != "outer":
        raise ValueError(
            f"expected (inner, outer) coefficient families, got ({inner.side!r}, {outer.side!r})"
        )
    return BoundCoeffs(tuple(o - i for o, i in zip(outer.values, inner.values)), "delta")


def gap_deltas(gains: ChannelGains) -> BoundCoeffs:
    """Signed outer-minus-inner differences for one channel."""
    return coeff_deltas(inner_coeffs(gains), outer_coeffs(gains))


def delta_slack(deltas):
    """The delta limits as a slack: the least of budget minus delta over
    the ten coefficients, the budget one bit for A, D, E and G and two
    bits for the primed G pair.  A delta family gives a float, a (10, N)
    array, rows in ``BoundCoeffs`` field order, an (N,) array.

    Every budget follows from the closed forms (each delta is at most
    log2 of a noise-floor factor that never exceeds 2, or a sum of two
    such factors for the primed pair), but the boundary is reachable:
    the plain G delta equals one bit exactly whenever the relevant cross
    gain is >= 1, and the E delta rounds to exactly one bit once the
    matching direct gain is small enough that its rescue term falls
    below float resolution.  So the slack may read a few ulps below 0,
    and judging it >= -tol certifies the real-arithmetic statement
    without manufacturing boundary failures out of rounding.
    """
    if isinstance(deltas, BoundCoeffs):
        if deltas.side != "delta":
            raise ValueError(f"expected a delta family, got side {deltas.side!r}")
        return float(delta_slack(np.array(deltas.values)[:, None])[0])
    return (_DELTA_BUDGETS - deltas).min(axis=0)
