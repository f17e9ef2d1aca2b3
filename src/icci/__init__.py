"""Capacity bound families, polytope certification, and DoF analysis
for the two-user Gaussian interference channel with a common message.

The package namespace is the ``__all__`` of every module but the CLI."""

from . import bounds, channel, gaussian_mi, gdof, region, sweep
from .bounds import *
from .channel import *
from .gaussian_mi import *
from .gdof import *
from .region import *
from .sweep import *

__version__ = "0.1.0"

__all__ = [*channel.__all__, *bounds.__all__, *region.__all__, *gdof.__all__, *gaussian_mi.__all__, *sweep.__all__]
