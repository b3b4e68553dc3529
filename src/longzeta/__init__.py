"""Exact zeta-polynomial invariants of long virtual knot diagrams."""

from longzeta.diagram import Diagram, connect_sum, generate
from longzeta.invariant import (
    certify_minimality,
    virtual_lower_bound,
    zeta,
    zeta_split,
)
from longzeta.rings import RingT, ZetaPolynomial

__version__ = "0.1.0"

__all__ = [
    "Diagram",
    "RingT",
    "ZetaPolynomial",
    "certify_minimality",
    "connect_sum",
    "generate",
    "virtual_lower_bound",
    "zeta",
    "zeta_split",
]
