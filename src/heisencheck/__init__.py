"""heisencheck: exact-arithmetic checks for Heisenberg-invariant surface models."""

__version__ = "0.1.0"

from .exactnum import CycloNum  # noqa: F401
from .mpoly import SparsePoly  # noqa: F401
from .pfaffian import SkewMatrix  # noqa: F401
