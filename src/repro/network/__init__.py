"""Network substrate: bandwidth traces and links."""

from .bandwidth import (
    BandwidthTrace,
    ConstantTrace,
    PiecewiseTrace,
    RandomTrace,
    StepTrace,
    gbps,
)
from .link import NetworkLink, TransferResult

__all__ = [
    "BandwidthTrace",
    "ConstantTrace",
    "NetworkLink",
    "PiecewiseTrace",
    "RandomTrace",
    "StepTrace",
    "TransferResult",
    "gbps",
]
