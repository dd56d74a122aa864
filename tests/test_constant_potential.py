"""Constant-mode potentials q = c, p = p0: closed forms at v != 0.

L does not depend on x, so M(x, lambda) = exp(x L), and since L is
traceless with L^2 = -(omega^2 - C) I,

    Delta = cos sqrt(omega^2 - C),   C = p0^2/16 + (cosh c - 1)/8.

So every gap n != 0 is closed at omega(tau_n)^2 = (n pi)^2 + C, with
mu_n = lambda_dot_n = tau_n, and gap 0 is open with omega(lambda_0^+-) =
+-sqrt C; it is its own reciprocal image, 16 lambda_0^- lambda_0^+ = 1.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from shgspec.config import RunConfig
from shgspec.monodromy import integrate_many, omega
from shgspec.potential import Potential
from shgspec.spectrum import build_table

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


@pytest.mark.parametrize("c, p0", [(0.3, 0.2), (0.1, 0.05)])
def test_table_closed_forms(c, p0):
    """build_table(16) at the suite's spectral tolerance: closed gaps n != 0
    at their shifted frequencies (measured: 9.1e-16 relative), gap 0 at
    omega = +-sqrt C (2.1e-13 at c = 0.3, 9.4e-15 at c = 0.1) and its own
    reciprocal (1.6e-14), and mu_0 = e^(c/2)/4, lambda_dot_0 = 1/4 and
    lambda_dot_* = i/4 (exact)."""
    v = Potential.from_modes({0: c}, {0: p0}, Kf=1)
    table = build_table(v, 16, tol=RunConfig.spectral_tol)
    C = p0**2 / 16 + (np.cosh(c) - 1) / 8
    for n in [n for n in range(-16, 17) if n]:
        tau, npi2 = table.tau(n), (n * np.pi) ** 2
        assert table.gamma(n) == 0, n
        assert abs(omega(tau) ** 2 - npi2 - C) <= 1e-14 * max(1.0, npi2), n
        for root in (table.mu_n(n), table.lam_dot_n(n)):
            assert abs(root - tau) <= 1e-14 * abs(tau), n
    lm, lp = table.lam_pm(0)
    assert abs(omega(lm) + np.sqrt(C)) <= 1e-12 and abs(omega(lp) - np.sqrt(C)) <= 1e-12
    assert abs(16 * lm * lp - 1) <= 1e-13
    for got, want in ((table.mu_n(0), np.exp(c / 2) / 4), (table.lam_dot_n(0), 0.25),
                      (table.lam_dot_star, 0.25j)):
        assert abs(got - want) <= 1e-14
