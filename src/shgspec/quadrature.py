"""Trapezoidal contour quadrature on circles.

For an integrand analytic in an annulus around the circle the trapezoidal
rule converges exponentially in the node count.  contour_integral applies
the rule to one integrand, the oracle for the contour integrals computed
elsewhere; winding_number counts roots by the argument principle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ContourSpec", "contour_integral", "winding_number"]

MIN_MODULUS = 1e-8  # |f| on a counting contour below this means a root nearby


@dataclass(frozen=True)
class ContourSpec:
    """Counterclockwise circle used for contour integrals."""

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.nodes < 8:
            raise ValueError("need at least 8 quadrature nodes")

    def points(self):
        th = 2.0 * np.pi * np.arange(self.nodes) / self.nodes
        e = np.exp(1j * th)
        z = self.center + self.radius * e
        dz = 1j * self.radius * e * (2.0 * np.pi / self.nodes)
        return z, dz

    def mirrored(self) -> "ContourSpec":
        """The curve {-z : z on contour}, still counterclockwise."""
        return ContourSpec(-self.center, self.radius, self.nodes)


def contour_integral(g, spec: ContourSpec):
    """Trapezoidal integral of g over the circle.

    g is called with an array of nodes and must return the integrand values.
    """
    z, dz = spec.points()
    gz = np.asarray(g(z))
    if not np.all(np.isfinite(gz)):
        bad = z[~np.isfinite(gz)][0]
        raise ValueError(f"integrand not finite at contour node {bad}")
    return np.sum(gz * dz, axis=-1)


def winding_number(f_df, spec: ContourSpec):
    """Argument-principle count (1/2 pi i) * integral of f'/f over the contour.

    f_df maps an array of nodes to (f, f') values.  Returns (count, dist)
    where dist is the distance of the raw quadrature value from the nearest
    integer.  Raises if |f| drops below MIN_MODULUS on the nodes or if the raw
    value is farther than 0.2 from an integer (contour too coarse or a root
    sits on the contour).
    """
    z, dz = spec.points()
    f, df = f_df(z)
    f = np.asarray(f)
    if np.min(np.abs(f)) < MIN_MODULUS:
        raise ValueError("function modulus too small on contour; root nearby")
    raw = np.sum(df / f * dz) / (2j * np.pi)
    count = int(np.rint(raw.real))
    dist = abs(raw - count)
    if dist > 0.2:
        raise ValueError(
            f"winding integral {raw:.4g} too far from an integer; "
            "contour too coarse or root on contour"
        )
    return count, dist
