"""Bishop discs and Levi-flat fillings of two-spheres in almost complex 4-manifolds."""

from . import bishop, continuation, errors, geometry, rh, scenarios, serialize
from .calculus import (
    DiscField,
    DiscGrid,
    cauchy_green,
    dbar,
    schwarz,
    winding_number,
)

__all__ = [
    "bishop",
    "continuation",
    "errors",
    "geometry",
    "rh",
    "scenarios",
    "serialize",
    "DiscField",
    "DiscGrid",
    "cauchy_green",
    "dbar",
    "schwarz",
    "winding_number",
]

__version__ = "0.1.0"
