"""Channel descriptions for the two-user Gaussian interference channel
with a shared common message.

Four nonnegative magnitudes describe the links: ``m11`` and ``m22`` are
the direct gains, ``m12`` is the gain from transmitter 2 into receiver 1,
and ``m21`` the gain from transmitter 1 into receiver 2.  Transmit power
and noise variance are normalized to one, so the link budget lives
entirely in the gains:

    SNR1 = m11**2,  INR1 = m12**2,
    SNR2 = m22**2,  INR2 = m21**2.

A scaled description is often more convenient: fix a base power P > 0
and give each link an exponent alpha_ij with m_ij = P**(alpha_ij / 2),
i.e. |m_ij|**2 = P**alpha_ij.  Exponents are what survive as P grows,
which makes them the natural coordinates for degrees-of-freedom work.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

__all__ = ["ChannelGains", "SnrView", "GdofExponents"]

_GAIN_KEYS = ("m11", "m12", "m21", "m22")


def _real(name: str, value) -> float:
    """value as a Python float, if it is a real number: a Python or numpy
    int or float, but not a bool.  Raises ValueError otherwise, also for
    an int too large for a float."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {value!r}") from None


def _int(name: str, value) -> int:
    """value as a Python int, if it is an integer: a Python or numpy int,
    but not a bool.  Raises ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def _nonneg_finite(name: str, value) -> float:
    """value as a Python float, if it is a finite nonnegative real number
    (see ``_real``); raises ValueError otherwise."""
    value = _real(name, value)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def _set_nonneg_finite(obj, names: tuple[str, ...]) -> None:
    """Check that each named field is a finite nonnegative real number
    and store it as a Python float."""
    for name in names:
        object.__setattr__(obj, name, _nonneg_finite(name, getattr(obj, name)))


@dataclass(frozen=True)
class SnrView:
    """The same channel in power terms: direct SNRs and interference INRs."""

    snr1: float
    snr2: float
    inr1: float
    inr2: float

    def __post_init__(self) -> None:
        _set_nonneg_finite(self, ("snr1", "snr2", "inr1", "inr2"))


@dataclass(frozen=True)
class GdofExponents:
    """Per-link power exponents alpha_ij, read against a base power P."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self) -> None:
        _set_nonneg_finite(self, ("a11", "a12", "a21", "a22"))


@dataclass(frozen=True)
class ChannelGains:
    """Link magnitudes (m11, m12, m21, m22), all finite and nonnegative."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self) -> None:
        _set_nonneg_finite(self, _GAIN_KEYS)

    @classmethod
    def from_snr(cls, view: SnrView) -> "ChannelGains":
        return cls(
            m11=math.sqrt(view.snr1),
            m12=math.sqrt(view.inr1),
            m21=math.sqrt(view.inr2),
            m22=math.sqrt(view.snr2),
        )

    @classmethod
    def from_exponents(cls, exponents: GdofExponents, p: float) -> "ChannelGains":
        """Realize m_ij = p**(alpha_ij / 2) at base power p > 0."""
        p = _real("p", p)
        if not (math.isfinite(p) and p > 0):
            raise ValueError(f"base power p must be finite and > 0, got {p!r}")
        gains = {}
        for key, alpha in zip(_GAIN_KEYS, (exponents.a11, exponents.a12, exponents.a21, exponents.a22)):
            try:
                gains[key] = p ** (alpha / 2.0)
            except OverflowError:
                raise ValueError(f"{key} = p**({alpha!r} / 2) is too large for a float at p={p!r}") from None
        return cls(**gains)

    @classmethod
    def symmetric(cls, alpha: float, p: float) -> "ChannelGains":
        """Direct exponents 1, both cross exponents alpha."""
        return cls.from_exponents(GdofExponents(1.0, alpha, alpha, 1.0), p)

    def snr_view(self) -> SnrView:
        return SnrView(
            snr1=self.m11 * self.m11,
            snr2=self.m22 * self.m22,
            inr1=self.m12 * self.m12,
            inr2=self.m21 * self.m21,
        )

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelGains":
        if set(data) != set(_GAIN_KEYS):
            raise ValueError(
                f"channel dict must have exactly the keys {_GAIN_KEYS}, got {sorted(data)}"
            )
        return cls(**{key: data[key] for key in _GAIN_KEYS})

    @classmethod
    def from_json(cls, text: str) -> "ChannelGains":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid channel JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("channel JSON must be an object")
        return cls.from_dict(data)
