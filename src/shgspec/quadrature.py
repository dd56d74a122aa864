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
BUDGET = 0.1  # a count is vouched for when its error budget is below this


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


def winding_number(spec: ContourSpec, f, df, noise=0.0):
    """Argument-principle count (1/2 pi i) * integral of f'/f over the contour.

    f, df and noise hold f, f' and a bound on the error of f at spec's
    nodes (spec.points).  Returns (count, dist, (quad, prop)): dist is
    the distance of the quadrature value from count, and quad and prop are
    its error budget, the full trapezoid sum against the sum over the even
    nodes and the largest noise / |f| on the nodes.  Raises, naming the
    contour, if |f| drops below MIN_MODULUS on the nodes (root nearby), or
    if the value is farther than 0.2 from an integer or the budget is not
    below BUDGET (contour too coarse, root on it, or f too noisy).
    """
    if spec.nodes % 2:
        raise ValueError("a winding number needs an even node count")
    dz = spec.points()[1]
    where = f"on the {spec.nodes}-node circle |z - {spec.center:.6g}| = {spec.radius:.6g}"
    if np.min(np.abs(f)) < MIN_MODULUS:
        raise ValueError(f"function modulus too small {where}; root nearby")
    g = df / f * dz / (2j * np.pi)
    raw = np.sum(g)
    count = int(np.rint(raw.real))
    dist = abs(raw - count)
    quad, prop = float(abs(raw - 2.0 * np.sum(g[::2]))), float(np.max(noise / np.abs(f)))
    if dist > 0.2 or quad + prop >= BUDGET:
        why = "too far from an integer" if dist > 0.2 else "unresolved"
        raise ValueError(f"winding integral {raw:.4g} {why} {where}: error budget "
                         f"{quad:.2g} (quadrature) + {prop:.2g} (propagation)")
    return count, dist, (quad, prop)
