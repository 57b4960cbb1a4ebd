"""Exact computer algebra for double structures on Lie algebroids."""

__version__ = "0.1.0"

from .exact import Chart, Polynomial, rat, format_rat  # noqa: F401
from .verdicts import CheckItem, CheckReport  # noqa: F401

__all__ = [
    "Chart",
    "Polynomial",
    "rat",
    "format_rat",
    "CheckItem",
    "CheckReport",
    "__version__",
]
