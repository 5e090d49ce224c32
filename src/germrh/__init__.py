"""Conductors, differents and genus data for p-covers of boundary germs."""

from .dvr_core import (
    ABOVE_PRECISION,
    RElem,
    RingDescriptor,
    make_ring,
    unit_root,
    val,
)

__version__ = "0.1.0"

__all__ = [
    "ABOVE_PRECISION",
    "RElem",
    "RingDescriptor",
    "make_ring",
    "unit_root",
    "val",
    "__version__",
]
