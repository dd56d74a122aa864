import numpy as np
import pytest

from shgspec.quadrature import ContourSpec, contour_integral, winding_number


def test_residue():
    c = 0.7 + 0.2j
    spec = ContourSpec(c, 0.5, 32)
    val = contour_integral(lambda z: 1.0 / (z - c), spec)
    assert abs(val - 2j * np.pi) < 1e-12


def test_cauchy_zero():
    spec = ContourSpec(1.0, 0.8, 48)
    val = contour_integral(lambda z: np.exp(z) + z**3, spec)
    assert abs(val) < 1e-10


def test_nonfinite_integrand():
    spec = ContourSpec(0.0, 1.0, 8)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            contour_integral(lambda z: 1.0 / (z - z[0]), spec)


def test_winding_simple_root():
    c = 0.3 - 0.1j
    count, dist, _ = winding_number(
        lambda z: (z - c, np.ones_like(z)), ContourSpec(c, 0.4, 32)
    )
    assert count == 1 and dist < 1e-12
    count, *_ = winding_number(
        lambda z: ((z - c) ** 3, 3 * (z - c) ** 2), ContourSpec(c, 0.4, 32)
    )
    assert count == 3


def test_winding_guards():
    c = 0.0
    with pytest.raises(ValueError, match="modulus too small"):
        winding_number(
            lambda z: (z - 1.0, np.ones_like(z)), ContourSpec(1.0 + 1e-10, 1e-9, 16)
        )
    # root essentially on the contour: raw value far from an integer
    with pytest.raises(ValueError, match="too far from an integer"):
        winding_number(
            lambda z: (z - 1.0, np.ones_like(z)),
            ContourSpec(c, 1.0 + 1e-4, 8),
        )


def test_mirrored_contour():
    spec = ContourSpec(2.0 + 1.0j, 0.5, 32)
    m = spec.mirrored()
    assert m.center == -spec.center and m.radius == spec.radius
    # counterclockwise around the mirrored point
    val = contour_integral(lambda z: 1.0 / (z + 2.0 + 1.0j), m)
    assert abs(val - 2j * np.pi) < 1e-12


def test_winding_budget():
    """The budget's quadrature part is the full trapezoid sum against the
    sum over the even nodes, and its propagation part the largest noise /
    |f|; a count whose budget reaches BUDGET is refused as unresolved, and
    a value far from an integer although the sums agree is refused too."""
    spec = ContourSpec(0.0, 1.0, 64)
    # a root 1.1 radii out: the N-node sum is off by 1.1^-N / (1 - 1.1^-N)
    f_df = lambda z: (z - 1.1, np.ones_like(z))
    err = lambda n: 1.1**-n / (1 - 1.1**-n)
    count, dist, (quad, prop) = winding_number(f_df, spec, noise=np.full(64, 1e-3))
    assert count == 0 and abs(dist - err(64)) < 1e-12
    assert abs(quad - (err(32) - err(64))) < 1e-12
    assert abs(prop - 1e-3 / 0.1) < 1e-12  # min |f| = 0.1 at z = 1
    with pytest.raises(ValueError, match=r"unresolved on the 32-node circle"):
        winding_number(f_df, ContourSpec(0.0, 1.0, 32))
    with pytest.raises(ValueError, match="unresolved"):
        winding_number(f_df, spec, noise=0.01)
    # f' is not the derivative of f: every sum reads 0.3
    with pytest.raises(ValueError, match="too far from an integer"):
        winding_number(lambda z: (z, 0.3 * np.ones_like(z)), spec)
    with pytest.raises(ValueError, match="even node count"):
        winding_number(f_df, ContourSpec(0.0, 1.0, 63))
