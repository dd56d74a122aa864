from collections import namedtuple

import numpy as np
import pytest

from shgspec.potential import Potential
from shgspec.spectrum import build_isolating, build_table

SPECTRAL_TOL = 1e-13

Row = namedtuple("Row", "lam_minus lam_plus mu lam_dot tau gamma")


def row(table, n):
    """Row n (|n| <= n_max) of a spectrum table, read from its arrays as
    complex numbers, with the gap's midpoint tau and width gamma."""
    assert abs(n) <= table.n_max
    i = n + table.n_max
    lm, lp, mu, ld = (complex(a[i]) for a in (table.lam_minus, table.lam_plus, table.mu,
                                              table.lam_dot))
    return Row(lm, lp, mu, ld, 0.5 * (lm + lp), lp - lm)


def disc(iso, n):
    """The disc U_n (|n| <= n_max) as (centre, radius), read from the arrays."""
    return complex(iso.centers[n + iso.n_max]), float(iso.radii[n + iso.n_max])


def slot(table, quantity, j, m):
    """table.family(quantity, j, K) at the one slot (j, m)."""
    return table.family(quantity, j, abs(m))[m + abs(m)]


def generic_v4():
    """v4, the generic K_f = 8 potential: q_k = 0.02 (a + ib)/k, k = 1..8,
    then p_k = 0.01 (a + ib)/k, k = 1..4, with a, b successive normal draws
    of seed 1."""
    rng = np.random.default_rng(1)
    q = {k: 0.02 * complex(rng.normal(), rng.normal()) / k for k in range(1, 9)}
    p = {k: 0.01 * complex(rng.normal(), rng.normal()) / k for k in range(1, 5)}
    return Potential.from_modes(q, p, Kf=8)


@pytest.fixture(scope="session")
def v_seed():
    """The seeded real test potential q = 0.1 cos(2 pi x), p = 0."""
    return Potential.cosine(0.1)


@pytest.fixture(scope="session")
def tab32(v_seed):
    return build_table(v_seed, 32, tol=SPECTRAL_TOL)


@pytest.fixture(scope="session")
def tab16(tab32):
    return tab32.truncated(16)


@pytest.fixture(scope="session")
def iso16(v_seed, tab16):
    return build_isolating(v_seed, tab16)


@pytest.fixture(scope="session")
def reflected(v_seed):
    vr = v_seed.reflected()
    tabr = build_table(vr, 16, tol=SPECTRAL_TOL)
    isor = build_isolating(vr, tabr)
    return vr, tabr, isor


@pytest.fixture(scope="session")
def v_zero():
    return Potential.zero()


@pytest.fixture(scope="session")
def tab0(v_zero):
    return build_table(v_zero, 8, tol=SPECTRAL_TOL)


@pytest.fixture(scope="session")
def iso0(v_zero, tab0):
    return build_isolating(v_zero, tab0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
