"""Exact enumeration of leading-term embeddings on cone-ordered arrays.

The package counts, with integer arithmetic throughout, how many extra
leading terms each length-4 colored partition on a trapezoidal point array
embeds, and verifies the closed formulas for those counts: nested chain
sums, per-type polynomials, a product total, and the Weyl-dimension
identities tying the total to symplectic representation theory.
"""
from .geometry import Rank, RootLabel, StripPoint, TrapezoidPoint
from .census import CensusReport, SupportType, classify_support

__version__ = "0.1.0"

__all__ = [
    "Rank",
    "RootLabel",
    "StripPoint",
    "TrapezoidPoint",
    "ColoredPartition",
    "CensusReport",
    "SupportType",
    "classify_support",
    "__version__",
]


def __getattr__(name: str):
    # The command line never uses partitions, so it loads on first use.
    if name == "ColoredPartition":
        from .partitions import ColoredPartition

        return ColoredPartition
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
