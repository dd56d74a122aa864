"""Constant-mode potentials q = c, p = p0: closed forms at v != 0.

L does not depend on x, so M(x, lambda) = exp(x L), and since L is
traceless with L^2 = -(omega^2 - C) I,

    Delta = cos sqrt(omega^2 - C),   C = p0^2/16 + (cosh c - 1)/8.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from shgspec.monodromy import integrate_many, omega
from shgspec.potential import Potential

C0, P0 = 0.3, 0.2
LAMS = np.array([0.7, 2.0 + 0.1j, 0.05, 13.0])


@pytest.fixture(scope="module")
def constant():
    return Potential.from_modes({0: C0}, {0: P0}, Kf=1)


def _lax(lam):
    """L(lambda) of q = C0, p = P0: w = P p = P0 (P's symbol is 1 at k = 0)."""
    return np.array([[P0 / 4, lam - np.exp(C0) / (16 * lam)],
                     [-lam + np.exp(-C0) / (16 * lam), -P0 / 4]])


def test_monodromy_is_the_matrix_exponential(constant):
    """M(1) = expm(L) within 1e-13 relative to max(1, |M|) at tol 1e-12
    (measured: 1.6e-14 at most)."""
    res = integrate_many(constant, LAMS, order=0, tol=1e-12)
    for lam, M in zip(LAMS, res.Mgrave):
        want = expm(_lax(lam))
        assert np.max(np.abs(M - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), lam


def test_delta_is_the_shifted_cosine(constant):
    """Delta = cos sqrt(omega^2 - C) within 1e-13 relative to max(1, |Delta|)
    (measured: 6.6e-15 at most)."""
    res = integrate_many(constant, LAMS, order=0, tol=1e-12)
    C = P0**2 / 16 + (np.cosh(C0) - 1) / 8
    want = np.cos(np.sqrt(omega(LAMS) ** 2 - C))
    assert np.all(np.abs(res.Delta - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
