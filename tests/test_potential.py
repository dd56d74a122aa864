import json

import numpy as np
import pytest
from conftest import generic_v4

from shgspec.config import seeded_ensemble
from shgspec.potential import Potential, family_var, p_multiplier, pi_k
from shgspec.spectrum import build_table


def _grid(v):
    return np.arange(64) / 64


def test_zero_potential_fields():
    v = Potential.zero()
    x = _grid(v)
    emq, eq = v.exp_q_at(x)
    assert np.max(np.abs(v.q_at(x))) == 0
    assert np.max(np.abs(v.Pp_at(x))) == 0
    assert np.max(np.abs(eq - 1)) == 0
    assert np.max(np.abs(emq - 1)) == 0


def test_constant_q_fields():
    c = 0.37
    v = Potential.from_modes({0: c}, {}, Kf=1)
    x = _grid(v)
    assert np.max(np.abs(v.dq_at(x))) < 1e-14
    assert np.max(np.abs(v.exp_q_at(x)[1] - np.exp(c))) < 1e-13


def test_p_multiplier_single_mode():
    # p = cos(2 pi x): P p = sqrt(1 + 4 pi^2) cos(2 pi x)
    v = Potential.from_modes({}, {1: 0.5, -1: 0.5}, Kf=1)
    x = np.linspace(0, 1, 17)
    ref = np.sqrt(1 + 4 * np.pi**2) * np.cos(2 * np.pi * x)
    assert np.max(np.abs(v.Pp_at(x) - ref)) < 1e-13
    assert p_multiplier(0) == 1.0


def test_periodicity():
    v = Potential.cosine(0.1, mode=2, amplitude_p=0.05)
    x = np.array([0.0, 0.31, 0.77])
    assert np.max(np.abs(v.q_at(x) - v.q_at(x + 1.0))) < 1e-14
    emq0, eq0 = v.exp_q_at(x)
    emq1, eq1 = v.exp_q_at(x + 1.0)
    assert np.max(np.abs(eq0 - eq1)) < 1e-13


def test_parseval():
    v = Potential.from_modes({1: 0.2 - 0.1j, 3: 0.05j}, {2: 0.07}, Kf=3)
    x = np.arange(64) / 64
    grid_norm = np.sum(np.abs(v.q_at(x)) ** 2) / 64
    coeff_norm = np.sum(np.abs(v.q_coeffs) ** 2)
    assert abs(grid_norm - coeff_norm) < 1e-12


def test_real_flag_fields_real():
    v = Potential.cosine(0.3, amplitude_p=0.1)
    x = _grid(v)
    for f in (v.q_at(x), v.dq_at(x), v.Pp_at(x), v.exp_q_at(x)[1]):
        assert np.max(np.abs(np.imag(f))) < 1e-13


def test_real_flag_validation():
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        Potential(
            np.array([0.0, 0.0, 0.2j]), np.zeros(3, complex), 1, True
        ).validate()


def test_nonfinite_coefficient():
    with pytest.raises(ValueError, match="non-finite"):
        Potential.from_modes({1: complex(np.nan, 0)}, {}, Kf=1)
    # built directly, the coefficients are checked where the table is built
    v = Potential(np.array([0.0, np.nan, 0.0], complex), np.zeros(3, complex), 1)
    with pytest.raises(ValueError, match="non-finite"):
        build_table(v, 2)


def test_mode_maps_and_family_variable_guards():
    """A mode beyond the stated band limit is refused; without one the band
    limit is the largest mode.  The family variable exists for j = 1, 2 only."""
    with pytest.raises(ValueError, match="mode 2 outside band limit Kf=1"):
        Potential.from_modes({2: 0.1}, Kf=1)
    assert Potential.from_modes({3: 0.1}).Kf == 3
    with pytest.raises(ValueError, match="j must be 1 or 2"):
        family_var(3, 1.0)


def test_reflection_involution_exact():
    v = Potential.from_modes({1: 0.2 - 0.1j, 2: 0.03j}, {1: 0.05}, Kf=2, real=False)
    w = v.reflected().reflected()
    assert np.array_equal(w.q_coeffs, v.q_coeffs)
    assert np.array_equal(w.p_coeffs, v.p_coeffs)
    assert np.array_equal(v.reflected().q_coeffs, -v.q_coeffs)


def test_json_round_trip():
    v = Potential.from_modes({1: 0.2 - 0.1j}, {2: 0.07 + 0.01j}, Kf=2, real=False)
    w = Potential.from_json(v.to_json())
    assert np.array_equal(w.q_coeffs, v.q_coeffs)
    assert np.array_equal(w.p_coeffs, v.p_coeffs)
    assert w.Kf == v.Kf and w.real == v.real
    assert "grid" not in json.loads(v.to_json())
    # files written with the former grid setting still load; the key is ignored
    u = Potential.from_json(json.dumps({**json.loads(v.to_json()), "grid": 128}))
    assert np.array_equal(u.q_coeffs, v.q_coeffs) and u.real == v.real


@pytest.mark.parametrize("v", [
    Potential.from_modes({1: 0.2, 3: 0.15j, 4: 0.1}, {2: 0.1, 4: 0.05}, Kf=4),  # WIDE
    generic_v4(),
], ids=["wide", "v4"])
def test_exp_q_resolved(v):
    """The e^{+-q} series is taken on a grid that resolves it: exp_q_at
    agrees with exp(+-q_at) to rounding on potentials whose e^{+-q}
    outgrows 64 points."""
    x = np.random.default_rng(3).random(4000)
    qx = v.q_at(x)
    for f, ref in zip(v.exp_q_at(x), (np.exp(-qx), np.exp(qx))):
        assert np.max(np.abs(f - ref) / np.abs(ref)) <= 1e-14


def test_exp_q_grid_resolves_q():
    """The e^{+-q} grid has at least 4 Kf points, so q itself is not aliased:
    on 64 points q = 0.2 cos(2 pi 64 x) reads as the constant 0.2."""
    v = Potential.cosine(0.2, mode=64)
    x = np.random.default_rng(4).random(50)
    assert np.max(np.abs(v.exp_q_at(x)[1] / np.exp(v.q_at(x)) - 1.0)) <= 1e-13


def test_exp_q_not_finite():
    """An e^{+-q} that overflows on the sample grid raises; it is not
    expanded into non-finite coefficients."""
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        Potential.cosine(800.0).exp_q_coeffs()


@pytest.mark.parametrize("v", seeded_ensemble() + [Potential.zero()], ids=["v1", "v2", "v3", "zero"])
def test_exp_q_small_potentials_keep_64_points(v):
    """On v1-v3 and v = 0 the series is the 64-point FFT with its 1e-17
    keep rule, bit for bit."""
    qx = v.q_at(np.arange(64) / 64)
    cm, cp = np.fft.fft(np.exp(-qx)) / 64, np.fft.fft(np.exp(qx)) / 64
    keep = (np.abs(cm) + np.abs(cp)) > 1e-17 * max(1.0, np.abs(cp).max(), np.abs(cm).max())
    ks = np.fft.fftfreq(64, d=1.0 / 64)
    for got, want in zip(v.exp_q_coeffs(), (ks[keep], cm[keep], cp[keep])):
        assert np.array_equal(got, want)


def test_lax_coefficients():
    """The Lax fields on the grid: w = P p + q_x, and exp(-q) exp(q) = 1
    (the diagonal coefficient diag(e^{-q/2}, e^{q/2})/4 has product 1/16)."""
    v = Potential.cosine(0.4, amplitude_p=0.2)
    x = np.array([0.1, 0.6])
    emq, eq = v.exp_q_at(x)
    assert np.max(np.abs(emq * eq - 1.0)) < 1e-14
    assert np.max(np.abs(v.w_at(x) - v.Pp_at(x) - v.dq_at(x))) == 0
    assert pi_k(0) == 1.0
    assert pi_k(3) == 3 * np.pi


def test_fields_match_direct_exponentials():
    """Fields built from powers of e^{2 pi i x} match the same sums over
    one complex exponential per point and mode, to the k eps the powers
    cost."""
    v = Potential.from_modes({1: 0.5, 3: 0.2j, 4: 0.1}, {2: 0.3, 4: 0.05}, Kf=4)
    x = np.random.default_rng(2).random((40, 3))
    ks, cm, cp = v.exp_q_coeffs()
    ph = np.exp(2j * np.pi * np.multiply.outer(x, ks))
    emq, eq = v.exp_q_at(x)
    assert np.max(np.abs(emq - ph @ cm)) <= 1e-13 * np.max(np.abs(cm)) * ks.size
    assert np.max(np.abs(eq - ph @ cp)) <= 1e-13 * np.max(np.abs(cp)) * ks.size
    ph = np.exp(2j * np.pi * np.multiply.outer(x, v.modes))
    w = ph @ (v.p_coeffs * p_multiplier(v.modes) + v.q_coeffs * 2j * np.pi * v.modes)
    assert np.max(np.abs(v.w_at(x) - w)) <= 1e-13 * np.max(np.abs(w))
    assert v.q_at(0.3).shape == ()
