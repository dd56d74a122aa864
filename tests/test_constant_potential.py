"""Constant-mode potentials q = c, p = p0: closed forms at v != 0.

L does not depend on x, so M(x, lambda) = exp(x L), and since L is
traceless with L^2 = -(omega^2 - C) I,

    Delta = cos sqrt(omega^2 - C),   C = p0^2/16 + (cosh c - 1)/8.

So every gap n != 0 is closed at omega(tau_n)^2 = (n pi)^2 + C, with
mu_n = lambda_dot_n = tau_n, and gap 0 is open with omega(lambda_0^+-) =
+-sqrt C; it is its own reciprocal image, 16 lambda_0^- lambda_0^+ = 1.
With every other gap closed, the roots of psi_n in gap 0 and its mirror
solve a 2x2 system of integrals over the two gaps.
"""

import numpy as np
import pytest
from scipy.linalg import expm
from conftest import row

from shgspec.config import RunConfig
from shgspec.differentials import solve_sigma
from shgspec.monodromy import integrate_many, omega
from shgspec.potential import Potential, family_var
from shgspec.spectrum import build_isolating, build_table

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
        r, npi2 = row(table, n), (n * np.pi) ** 2
        tau = r.tau
        assert r.gamma == 0, n
        assert abs(omega(tau) ** 2 - npi2 - C) <= 1e-14 * max(1.0, npi2), n
        for root in (r.mu, r.lam_dot):
            assert abs(root - tau) <= 1e-14 * abs(tau), n
    lm, lp, mu, ld, *_ = row(table, 0)
    assert abs(omega(lm) + np.sqrt(C)) <= 1e-12 and abs(omega(lp) - np.sqrt(C)) <= 1e-12
    assert abs(16 * lm * lp - 1) <= 1e-13
    for got, want in ((mu, np.exp(c / 2) / 4), (ld, 0.25), (table.lam_dot_star, 0.25j)):
        assert abs(got - want) <= 1e-14


def _sigma_pair_oracle(a, b, tau_n, nodes=256):
    """Sum and product of the two roots of psi_n in gap 0 = [a, b] and its
    mirror [-b, -a], from the 2x2 system of theta-quadratures.

    With every other gap closed, psi_n/sqrt_c(chi_p) is a constant times
    (lambda^2 - S lambda + P) / ((lambda - tau_n) sqrt((lambda^2 - a^2)
    (lambda^2 - b^2))), S and P the sum and product of sigma_{1,0} and of the
    lambda-plane root of f_{n,2}; its integral over each gap vanishes.  On a
    gap [m - h, m + h], lambda = m + h cos theta turns the integral into one
    over theta in [0, pi] with the endpoint singularities divided out
    (Gauss-Chebyshev nodes; their common weight pi/nodes cancels)."""
    theta = (np.arange(nodes) + 0.5) * np.pi / nodes
    m, h = (a + b) / 2, (b - a) / 2
    rows = []
    for lam, rest in ((m + h * np.cos(theta), lambda x: np.sqrt((x + a) * (x + b))),
                      (-m + h * np.cos(theta), lambda x: np.sqrt((a - x) * (b - x)))):
        g = 1.0 / ((lam - tau_n) * rest(lam))
        rows.append([np.mean(lam**j * g) for j in (0, 1, 2)])
    (i0, i1, i2), (k0, k1, k2) = rows
    # i2 - S i1 + P i0 = 0 on both gaps
    S, P = np.linalg.solve([[i1, -i0], [k1, -k0]], [i2, k2])
    return S, P


@pytest.mark.parametrize("c, p0", [(0.3, 0.2), (0.1, 0.05)])
@pytest.mark.parametrize("n", [1, 2])
def test_sigma_against_the_gap_quadratures(c, p0, n):
    """solve_sigma's sigma_{1,0} and mirror-gap root of f_{n,2} against the
    2x2 theta-quadrature system: their product within 1e-11 relative, and
    their sum, in which the two roots all but cancel, within 1e-11 of the
    roots' size (measured: 1.2e-12 and 5.7e-13 at c = 0.3, the solve's
    residual 2.8e-11 there; an mpmath solution matched the solve to 3e-13 or
    better)."""
    v = Potential.from_modes({0: c}, {0: p0}, Kf=1)
    table = build_table(v, 16, tol=RunConfig.spectral_tol)
    iso = build_isolating(v, table, nodes=RunConfig().nodes)
    sol = solve_sigma(table, iso, n, 16, tol=RunConfig.newton_tol)
    a, b = (lam.real for lam in row(table, 0)[:2])
    S, P = _sigma_pair_oracle(a, b, row(table, n).tau.real)
    s1, rho = sol.sigma1[sol.K], family_var(2, sol.sigma2[sol.K])
    assert abs(s1 + rho - S) <= 1e-11 * (abs(s1) + abs(rho))
    assert abs(s1 * rho - P) <= 1e-11 * abs(P)
