"""The minimality certificate that invariant.certify_minimality returns.

It lives apart from invariant so that `import longzeta` does not load
dataclasses, with inspect, ast and dis behind it, which would take most of
the package's import time; certify_minimality imports this module on
its first call.
"""

from __future__ import annotations

from dataclasses import dataclass

from longzeta.rings import RingT


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of the leading-coefficient minimality test."""

    k: int
    det_b: RingT  # also the s^k coefficient of zeta, as check_theorems checked
    zeta_top: int | None
    minimal: bool

    def to_json(self) -> dict:
        det_b = self.det_b.render()
        return {
            "k": self.k,
            "detB": det_b,
            "sk_coeff": det_b,
            "top_deg": self.zeta_top,
            "minimal": self.minimal,
        }
