import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from shgspec.config import seeded_ensemble
from shgspec.gradients import GL_NODES_DEFAULT, _gauss_legendre
from shgspec import monodromy
from shgspec.monodromy import (
    E_nu,
    closed_form_zero,
    integrate,
    integrate_many,
    lam_zero,
    omega,
    step_count,
)
from shgspec.potential import Potential

# frozen oracles (closed forms evaluated independently of the integrator)
COSH_HALF = 1.1276259652063807  # cosh(1/2) = Delta(i/4, 0)
COS_15_16 = 0.5918050750924775  # cos(15/16) = Delta(1, 0)
SIN_15_16 = 0.806081108260693
DDOT_1 = -0.8564611775269864  # -(17/16) sin(15/16)


def test_identity_rotation_at_quarter():
    r = integrate(Potential.zero(), 0.25, order=1)
    assert abs(r.Delta - 1.0) < 1e-10
    assert abs(r.delta_anti) < 1e-11
    assert np.max(np.abs(r.Mgrave - np.eye(2))) < 1e-10


def test_zero_closed_form_values():
    r = integrate(Potential.zero(), 0.25j)
    assert abs(r.Delta - COSH_HALF) < 1e-9
    r = integrate(Potential.zero(), 1.0)
    assert abs(r.Delta - COS_15_16) < 1e-10
    assert abs(r.Delta_dot - DDOT_1) < 1e-9


def test_closed_form_zero_matches_integrator():
    lams = [0.3, 0.7 + 0.2j, 2.4, 5.5 - 0.4j, 0.05j + 0.1]
    res = integrate_many(Potential.zero(), lams, order=2, tol=1e-12)
    for i, lam in enumerate(lams):
        cf = closed_form_zero(lam)
        assert np.max(np.abs(res.Mgrave[i] - cf.Mgrave)) < 1e-10
        assert abs(res.Delta_dot[i] - cf.Delta_dot) < 1e-9
        assert abs(res.Delta_ddot[i] - cf.Delta_ddot) < 1e-8


@pytest.mark.parametrize("order", [0, 1, 2])
def test_jets_are_the_one_array_of_a_result(order):
    """A result holds one jet array (M, M', M''/2) of shape (order + 1, L, 2,
    2): Mgrave and Mgrave_dot are views of it, Mgrave_ddot is twice its last
    jet, and an order not integrated reads None or raises."""
    lams = [0.7, 2.0 + 0.1j, 0.05]
    res = integrate_many(seeded_ensemble()[0], lams, order=order, tol=1e-11)
    assert res.jets.shape == (order + 1, len(lams), 2, 2)
    assert np.shares_memory(res.Mgrave, res.jets)
    if order >= 1:
        assert np.shares_memory(res.Mgrave_dot, res.jets)
    else:
        assert res.Mgrave_dot is None
        with pytest.raises(ValueError, match="order 1 was not integrated"):
            res.Delta_dot
    if order == 2:
        assert np.array_equal(res.Mgrave_ddot, 2 * res.jets[2])
    else:
        assert res.Mgrave_ddot is None
    for i in range(len(lams)):
        assert np.array_equal(res.single(i).jets, res.jets[:, i])


def test_zero_path_is_rotation():
    x = np.array([0.0, 0.25, 0.5, 1.0])
    r = integrate(Potential.zero(), 1.3, path_nodes=x)
    ref = E_nu(omega(1.3), x[:, None] * 0 + x)  # E_omega(x)
    assert np.max(np.abs(r.path - ref)) < 1e-10


def test_delta_dot_star_zero():
    # omega(i/4) = i/2 and the prefactor 1 + 1/(16 lambda^2) vanishes
    r = closed_form_zero(0.25j)
    assert abs(r.Delta_dot) < 1e-14
    assert abs(r.Delta - COSH_HALF) < 1e-14


def test_omega_symmetries():
    for lam in (0.7, 1.3 + 0.4j, 0.02 - 0.01j):
        assert omega(-lam) == -omega(lam)
        assert abs(omega(-1.0 / (16.0 * lam)) - omega(lam)) < 1e-14


def test_floquet_multipliers():
    v = Potential.cosine(0.1)
    r = integrate(v, 1.9 + 0.3j)
    xi_plus, xi_minus = r.Delta + np.sqrt(r.chi_p + 0j), r.Delta - np.sqrt(r.chi_p + 0j)
    assert abs(xi_plus * xi_minus - 1.0) < 1e-9
    assert abs(0.5 * (xi_plus + xi_minus) - r.Delta) < 1e-9
    assert abs(np.linalg.det(r.Mgrave) - 1.0) < 1e-9


def test_wronskian_along_path():
    v = Potential.cosine(0.1, amplitude_p=0.05)
    x = np.linspace(0.05, 0.95, 7)
    r = integrate(v, 2.2, tol=1e-11, path_nodes=x)
    dets = np.linalg.det(r.path)
    assert np.max(np.abs(dets - 1.0)) < 1e-9


def test_evenness_and_real_symmetry():
    v = Potential.cosine(0.08)
    lams = np.array([0.8, 1.7, 3.9, 2.0 + 0.5j])
    a = integrate_many(v, lams, order=0, tol=1e-11)
    b = integrate_many(v, -lams, order=0, tol=1e-11)
    assert np.max(np.abs(a.Delta - b.Delta)) < 1e-9
    r = integrate_many(v, lams.real, order=0, tol=1e-11)
    assert np.max(np.abs(r.Delta.imag)) < 1e-10


def test_self_convergence():
    """Reference run at tol/100 bounds the defect; halving the tolerance
    shrinks it monotonically."""
    v = Potential.cosine(0.1, amplitude_p=0.03)
    lam = 2.0 + 0.3j
    tol = 1e-9
    ref = integrate(v, lam, order=0, tol=tol / 100).Delta
    assert abs(integrate(v, lam, order=0, tol=tol).Delta - ref) < 10 * tol
    defects = [
        abs(integrate(v, lam, order=0, tol=t).Delta - ref)
        for t in (1e-7, 1e-8, 1e-9, 1e-10, 1e-11)
    ]
    assert all(b < a for a, b in zip(defects[:-1], defects[1:]))


def test_lam_zero_against_mpmath():
    """For n < 0 the root (n pi + sqrt(n^2 pi^2 + 1/4))/2 is small and the
    sum cancels; lam_zero must not lose digits there."""
    for n in (-1, -4, -9, -16, -32):
        with mpmath.workdps(50):
            x = n * mpmath.pi
            ref = (x + mpmath.sqrt(x**2 + mpmath.mpf(1) / 4)) / 2
            rel = float(abs((mpmath.mpf(float(lam_zero(n))) - ref) / ref))
        assert rel <= 1e-15, (n, rel)


def test_domain_guards():
    v = Potential.zero()
    for lam in (1e-9, 1e9, np.nan, complex(1.0, np.nan)):
        with pytest.raises(ValueError, match="annulus"):
            integrate(v, lam)
        with pytest.raises(ValueError, match="annulus"):
            closed_form_zero(lam)
    with pytest.raises(ValueError, match="tol"):
        integrate(v, 1.0, tol=1e-20)
    with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
        integrate_many(v, [1.0], order=3)
    with pytest.raises(ValueError, match=r"path_nodes must lie in \[0, 1\]"):
        integrate_many(v, [1.0], path_nodes=[1.5])
    with pytest.raises(ValueError, match="unknown monodromy function 'x'"):
        integrate_many(v, [1.0], order=1).scalar("x")


def test_chi_wrappers():
    """The BatchResult scalars chi_p and chi_D of an order-0 run."""
    v0 = Potential.zero()
    assert abs(integrate(v0, lam_zero(1), order=0).chi_p) < 1e-9  # omega = pi
    assert abs(integrate(v0, 1.0, order=0).chi_D - SIN_15_16) < 1e-9
    # reciprocity spot value: chi_p(-1/(16 lam), (-q,p)) = chi_p(lam, (q,p))
    v = Potential.cosine(0.1)
    lam = 1.3 + 0.2j
    a = integrate(v.reflected(), -1.0 / (16.0 * lam), order=0).chi_p
    b = integrate(v, lam, order=0).chi_p
    assert abs(a - b) < 1e-9


def test_quarter_period_point():
    # omega(lam) = pi/2 => Delta = 0, chi_D = 1
    lam = (np.pi / 2 + np.sqrt((np.pi / 2) ** 2 + 0.25)) / 2
    r = closed_form_zero(lam)
    assert abs(r.Delta) < 1e-14
    assert abs(r.chi_D - 1.0) < 1e-14


def dop853_reference(v, lams, order, path_nodes=None):
    """Oracle independent of the Magnus propagator: M(1, lam) and its
    lambda-derivatives from the variational system

        M' = L M,  (dM)' = L dM + L_lam M,  (ddM)' = L ddM + 2 L_lam dM + L_lamlam M

    for every lam of lams in one system, integrated by adaptive DOP853 at
    rtol = atol = 1e-13.  Returns the stacks (M, dM, ddM)[:order+1] per lam,
    shape (len(lams), order+1, 2, 2), and, for path_nodes, M(x) there by
    dense output, shape (len(lams), len(path_nodes), 2, 2).
    """
    lam = np.asarray(lams, dtype=complex)
    shape = (lam.size, order + 1, 2, 2)
    L, L1, L2 = np.zeros((3, lam.size, 2, 2), dtype=complex)  # L, L_lam, L_lamlam

    def rhs(x, y):
        Y = y.reshape(shape)
        w = complex(v.w_at(x))
        emq, eq = (complex(f) for f in v.exp_q_at(x))
        L[:, 0, 0], L[:, 1, 1] = w / 4, -w / 4
        L[:, 0, 1], L[:, 1, 0] = lam - eq / (16 * lam), -lam + emq / (16 * lam)
        L1[:, 0, 1], L1[:, 1, 0] = 1 + eq / (16 * lam**2), -1 - emq / (16 * lam**2)
        L2[:, 0, 1], L2[:, 1, 0] = -eq / (8 * lam**3), emq / (8 * lam**3)
        out = [L @ Y[:, 0]]
        if order >= 1:
            out.append(L @ Y[:, 1] + L1 @ Y[:, 0])
        if order >= 2:
            out.append(L @ Y[:, 2] + 2 * L1 @ Y[:, 1] + L2 @ Y[:, 0])
        return np.stack(out, 1).ravel()

    y0 = np.zeros(shape, dtype=complex)
    y0[:, 0] = np.eye(2)
    sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), method="DOP853", rtol=1e-13,
                    atol=1e-13, dense_output=path_nodes is not None)
    assert sol.success
    jets = sol.y[:, -1].reshape(shape)
    if path_nodes is None:
        return jets, None
    path = sol.sol(path_nodes).reshape(*shape, -1)[:, 0]
    return jets, np.moveaxis(path, -1, 1)


def _jets(res, i):
    return [m[i] for m in (res.Mgrave, res.Mgrave_dot, res.Mgrave_ddot) if m is not None]


def _rel_err(got, want):
    """Largest entry error of each jet, relative to max(1, |entries|)."""
    return np.array([np.max(np.abs(g - w)) / max(1.0, np.max(np.abs(w)))
                     for g, w in zip(got, want)])


def _circle_point(radius, im_omega=1.0):
    """The point of |lambda| = radius in the first quadrant where Im omega = im_omega."""
    t = np.arcsin(im_omega / (radius * (1.0 + 1.0 / (16.0 * radius**2))))
    return radius * np.exp(1j * t)


# |omega| up to 50 at both ends, 5% off-axis, and the lower pole of U_*
ZERO_ORACLE_LAMS = [50.0, 50.0 * (1 + 0.05j), 1.0 / 800, (1.0 + 0.05j) / 800,
                    0.25j, 1.3, 7.0 - 0.4j]


@pytest.mark.parametrize("tol", [1e-7, 1e-11, 1e-13])
def test_zero_potential_closed_forms_at_every_step_count(tol):
    """At v = 0 the generator does not depend on x, every commutator of the
    Magnus scheme vanishes and each step is exact, so M, M' and M'' match the
    closed forms to rounding whatever step count tol selects."""
    lams = np.array(ZERO_ORACLE_LAMS)
    res = integrate_many(Potential.zero(), lams, order=2, tol=tol)
    for i, lam in enumerate(lams):
        cf = closed_form_zero(lam)
        err = _rel_err(_jets(res, i), [cf.Mgrave, cf.Mgrave_dot, cf.Mgrave_ddot])
        assert np.all(err <= 1e-13), (lam, res.steps[i], err)


R4 = 4 * np.pi + np.pi / 2  # outer radius of the N = 4 counting annulus
# large and reciprocal end, 5% off-axis, and both N = 4 counting circles where
# |Im omega| = 1 (entries there grow like e^|Im omega|)
ORACLE_LAMS = [20.0, 20.0 * (1 + 0.05j), 1.0 / 320, (1 + 0.05j) / 320,
               _circle_point(R4), -np.conj(_circle_point(R4)),
               _circle_point(1.0 / (16 * R4)), -np.conj(_circle_point(1.0 / (16 * R4)))]


# amplitude of order one, and a band limit of four: outside the small
# potentials v1-v3 on which the first-guess step count is calibrated
AMPLE = Potential.cosine(1.0, amplitude_p=0.5)
WIDE = Potential.from_modes({1: 0.2, 3: 0.15j, 4: 0.1}, {2: 0.1, 4: 0.05}, Kf=4)


@pytest.fixture(scope="module")
def dop853_oracle():
    """DOP853 references at ORACLE_LAMS on v1, v3, AMPLE and WIDE, one system
    per potential, and the reference's own error there, measured on the zero
    potential in the same batch against the closed forms."""
    ens = seeded_ensemble()
    pots = {"v1": ens[0], "v3": ens[2], "ample": AMPLE, "wide": WIDE}
    ref = {k: dop853_reference(v, ORACLE_LAMS, 2)[0] for k, v in pots.items()}
    zero = dop853_reference(Potential.zero(), ORACLE_LAMS, 2)[0]
    own = []
    for lam, jets in zip(ORACLE_LAMS, zero):
        cf = closed_form_zero(lam)
        own.append(_rel_err(jets, [cf.Mgrave, cf.Mgrave_dot, cf.Mgrave_ddot]))
    return pots, ref, np.array(own)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("tol", [1e-11, 1e-13])
def test_matches_dop853_oracle(dop853_oracle, tol, order):
    """Relative error of M and its derivatives stays within tol.  The DOP853
    reference at rtol = 1e-13 is itself off by up to ~1.7e-13; its error at
    the same lambda on the zero potential, integrated in the same batch, is
    added to the allowance, which matters only at tol = 1e-13."""
    pots, ref, own = dop853_oracle
    for k, want in ref.items():
        res = integrate_many(pots[k], ORACLE_LAMS, order=order, tol=tol)
        assert np.all(res.err <= tol / 3)
        for i in range(len(ORACLE_LAMS)):
            err = _rel_err(_jets(res, i), want[i][: order + 1])
            assert np.all(err <= tol + own[i, : order + 1]), (k, ORACLE_LAMS[i], err)


def test_error_estimate_doubles_steps_where_first_guess_misses():
    """On AMPLE at the reciprocal end the first-guess step count misses
    tol/3; the half-grid estimate catches it and the step count is doubled.
    The estimate tracks the error against a grid eight times finer."""
    tol = 1e-11
    lams = np.array([1.0 / 320, (1 + 0.05j) / 320])
    res = integrate_many(AMPLE, lams, order=1, tol=tol)
    first = step_count(AMPLE, lams, tol)
    assert np.all(res.steps == 2 * first)
    assert np.all(res.err <= tol / 3)
    for i in range(lams.size):
        n = int(first[i])
        fine = monodromy._propagate(AMPLE, 8 * n, lams[i : i + 1], 2)[0]
        guess = monodromy._propagate(AMPLE, n, lams[i : i + 1], 2)[0]
        assert monodromy._defect(guess, fine)[0] > tol / 3
        got = np.stack([res.Mgrave[i], res.Mgrave_dot[i]])[..., None]
        assert monodromy._defect(got, fine)[0] <= tol / 3


def test_overflowing_monodromy_raises_without_doubling(monkeypatch):
    """Where |Im omega| exceeds about 709, M overflows: the lambda is named in
    a ValueError after its first propagation, not doubled to a silent NaN."""
    calls = []
    propagate = monodromy._propagate
    monkeypatch.setattr(
        monodromy, "_propagate", lambda *a, **k: calls.append(a[1]) or propagate(*a, **k)
    )
    lam = 800j + 0.01
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"not finite at lambda = \(0\.01\+800j\)"):
            integrate(Potential.zero(), lam, order=0)
    assert calls == [step_count(Potential.zero(), np.array([lam]), monodromy.DEFAULT_TOL)[0]]


def test_fields_beyond_cache_budget(monkeypatch):
    """Above CACHE_STEPS the fields are computed block by block and not
    cached; the result, path included, is that of the cached grid."""
    v = seeded_ensemble()[2]
    lams = [3.0, 9.7 + 0.3j, 1.0 / (16 * 9.7)]
    x = np.array([0.0, 0.1, 0.37, 1.0 / 3, 0.9, 1.0])
    want = integrate_many(v, lams, order=2, tol=1e-11, path_nodes=x)
    monkeypatch.setattr(monodromy, "BLOCK", 64)
    monkeypatch.setattr(monodromy, "CACHE_STEPS", 32)
    w = Potential(v.q_coeffs, v.p_coeffs, v.Kf, v.real)  # empty cache
    got = integrate_many(w, lams, order=2, tol=1e-11, path_nodes=x)
    assert not any(key[0] == "magnus" and key[1] > 32 for key in w._cache)
    assert np.array_equal(got.steps, want.steps)
    for a, b in [(got.Mgrave, want.Mgrave), (got.Mgrave_ddot, want.Mgrave_ddot),
                 (got.path, want.path)]:
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("branch", ["blocks", "path"])
def test_direct_sums_match_the_fft_grid(monkeypatch, branch, k, order):
    """The alphas summed directly, on every step of a grid above CACHE_STEPS
    or on the steps a path node splits, agree with the cached grid, whose
    uniform steps take theirs from the inverse FFT: M(1), its jets and the
    path within 1e-13 relative.  The path grid is the gradients' one; with
    CACHE_STEPS below n every one of its steps is summed directly.  Blocks of
    64 steps make every grid span several blocks."""
    v = seeded_ensemble()[k]
    lams = [0.01, 1.7 + 0.1j, 40.0]
    x = _gauss_legendre(GL_NODES_DEFAULT)[0] if branch == "path" else None
    monkeypatch.setattr(monodromy, "BLOCK", 64)
    want = integrate_many(v, lams, order=order, tol=1e-11, path_nodes=x)
    monkeypatch.setattr(monodromy, "CACHE_STEPS", 32)
    w = Potential(v.q_coeffs, v.p_coeffs, v.Kf, v.real)  # empty cache
    got = integrate_many(w, lams, order=order, tol=1e-11, path_nodes=x)
    assert not any(key[0] == "magnus" for key in w._cache)
    assert np.array_equal(got.steps, want.steps)
    for i in range(len(lams)):
        assert np.all(_rel_err(_jets(got, i), _jets(want, i)) <= 1e-13)
    if x is not None:
        assert np.max(np.abs(got.path - want.path)) <= 1e-13 * np.max(np.abs(want.path))


def _alphas_oracle(v, x, h):
    """alpha_i (3 alphas, 3 entries) of the step [x, x + h], from the fields
    w/4, -e^q/16 and e^-q/16 at its Gauss points in 30 digits: h f(m),
    (sqrt 15 / 3) h (f(r) - f(l)) and (10/3) h (f(r) - 2 f(m) + f(l))."""
    with mpmath.workdps(30):
        x, h, r = mpmath.mpf(x), mpmath.mpf(h), mpmath.sqrt(15) / 10
        fields = []
        for t in (-r, 0, r):
            ph = [mpmath.expjpi(2 * int(k) * (x + h * (0.5 + t))) for k in v.modes]
            q = mpmath.fsum(mpmath.mpc(c) * e for c, e in zip(v.q_coeffs, ph))
            w = mpmath.fsum((mpmath.mpc(p) * mpmath.sqrt(1 + 4 * mpmath.pi**2 * int(k) ** 2)
                             + 2j * mpmath.pi * int(k) * mpmath.mpc(c)) * e
                            for k, p, c, e in zip(v.modes, v.p_coeffs, v.q_coeffs, ph))
            fields.append([w / 4, -mpmath.exp(q) / 16, mpmath.exp(-q) / 16])
        (fl, fm, fr) = fields
        return np.array([[complex(h * m) for m in fm],
                         [complex(mpmath.sqrt(15) / 3 * h * (b - a)) for a, b in zip(fl, fr)],
                         [complex(10 * h * (b - 2 * m + a) / 3) for a, m, b in zip(fl, fm, fr)]])


# largest alpha_1..3 errors, relative to the largest |alpha_i| of an entry
# over the sampled steps, measured on v1-v3 and AMPLE at n = 48 and 448:
# 7.7e-16, 8.6e-14 and 2.3e-12 (v1, from the ~1e-17 noise of the e^{+-q}
# series' high modes); the bounds allow about 4 times that.  Differences of
# the fields at the Gauss points reach 2.1e-14, 9.1e-13 and 4.6e-10 there.
ALPHA_BOUNDS = np.array([4e-15, 4e-13, 1e-11])


@pytest.mark.parametrize("n", [48, 448])
def test_alphas_against_mpmath(n):
    """The alphas of sampled uniform steps, from the inverse FFT and from the
    direct sum alike, against the Gauss-point combinations in 30 digits."""
    pots = [*seeded_ensemble()[:3], AMPLE]
    js = np.unique(np.linspace(0, n - 1, 9).astype(int))
    h = 1.0 / n
    for v in pots:
        want = np.stack([_alphas_oracle(v, j * h, h) for j in js], axis=-1)
        scale = np.abs(want).max(axis=-1)  # (alphas, entries)
        fft = h * monodromy._uniform_alphas(v, n)[..., js]
        direct = h * monodromy._step_alphas(v, js * h, np.full(js.size, h))
        for got in (fft, direct):
            err = (np.abs(got - want).max(axis=-1) / scale).max(axis=1)
            assert np.all(err <= ALPHA_BOUNDS), (n, err)


PAGE_FAULT_PROBE = """
import resource
import numpy as np
from shgspec import monodromy
from shgspec.config import seeded_ensemble

v = seeded_ensemble()[0]
contour = monodromy.lam_zero(4) + np.exp(2j * np.pi * np.arange(33) / 64)
batch = monodromy.lam_zero(np.arange(-8, 9)) * (1 + 1e-3j)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    monodromy.integrate_many(v, contour, order=2)
    monodromy.integrate_many(v, batch, order=2)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's malloc and getrusage's fault count")
def test_repeated_propagation_takes_no_page_faults():
    """A second spectrum-sized run on cached grids (a 33-node contour and a
    17-lambda batch, order 2) adds fewer than 64 minor page faults: the
    kernel's large arrays live in its workspace, not in fresh mappings.  It
    runs in a fresh interpreter, where no earlier large free has raised
    glibc's mmap and trim thresholds."""
    src = str(Path(monodromy.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", PAGE_FAULT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert int(out.stdout) < 64


# the sixth-order Magnus generator written out as jet commutators: an
# oracle for its Laurent coefficients


def _comm_jets(X, Y):
    """Jets of [X, Y] for traceless 2x2 jets (K, 3, ...) = (a, b, c), meaning
    [[a, b], [c, -a]]."""
    Z = np.zeros_like(X)
    K = Z.shape[0]
    for i in range(K):
        for j in range(K - i):
            (xa, xb, xc), (ya, yb, yc) = X[i], Y[j]
            Z[i + j, 0] += xb * yc - xc * yb
            Z[i + j, 1] += 2.0 * (xa * yb - xb * ya)
            Z[i + j, 2] += 2.0 * (xc * ya - xa * yc)
    return Z


def _omega_direct(v, n, lams, K):
    """Jets (K, 3, steps, lams) of Omega = a1 + a3/12 + [-20 a1 - a3 + c1,
    a2 + c2]/240, c1 = [a1, a2], c2 = -[a1, 2 a3 + c1]/60, on the uniform
    n-grid, from the alphas the propagator uses."""
    h = np.diff(np.arange(n + 1) / n)
    alphas = h * monodromy._uniform_alphas(v, n)
    inv = np.stack([1.0 / lams, -1.0 / lams**2, 1.0 / lams**3][:K])  # jets of 1/lambda
    X = np.zeros((3, K, 3, h.size, lams.size), dtype=complex)
    X[:, 0, 0] = alphas[:, 0, :, None]
    X[:, :, 1:] = alphas[:, None, 1:, :, None] * inv[None, :, None, None, :]
    X[0, 0, 1] += np.multiply.outer(h, lams)
    X[0, 0, 2] -= np.multiply.outer(h, lams)
    if K > 1:
        X[0, 1, 1] += h[:, None]
        X[0, 1, 2] -= h[:, None]
    a1, a2, a3 = X
    c1 = _comm_jets(a1, a2)
    c2 = _comm_jets(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + _comm_jets(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


def _coefficients(v, n):
    """Breakpoints, step lengths and Omega's packed Laurent coefficients
    (3, steps, 5) of the uniform n-grid."""
    return monodromy._block_fields(v, n, None, 0, n, monodromy._uniform_alphas(v, n))[:3]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_omega_coefficients_match_commutator_form(order):
    """Omega and its lambda-jets from the Laurent coefficients agree with the
    jet-commutator form to 1e-14 relative to |Omega|, from the reciprocal end
    to |lambda| = 300."""
    lams = np.array([1e-3, 1.1e-3 + 2e-4j, 0.25, 1.7 + 0.1j, 300.0, 300.0 - 7j])
    for v in seeded_ensemble()[:3]:
        for n in (48, 448):
            coef = _coefficients(v, n)[2]
            got = monodromy._omega_jets(coef, lams, order + 1)
            want = _omega_direct(v, n, lams, order + 1)
            scale = np.abs(want).max(axis=(1, 2))  # (K, lams)
            err = np.abs(got - want).max(axis=(1, 2))
            assert np.all(err <= 1e-14 * scale), (n, err / scale)


def test_omega_coefficients_parity():
    """Sampled on |lambda| = 1 and Fourier-transformed, the commutator form of
    Omega has only even powers -4..2 on the diagonal and only odd powers -5..3
    off it, and the packed coefficients are those powers' coefficients."""
    lams = np.exp(2j * np.pi * np.arange(16) / 16)
    for v in seeded_ensemble()[:3]:
        coef = _coefficients(v, 32)[2]
        C = np.fft.fft(_omega_direct(v, 32, lams, 1)[0], axis=-1) / 16  # C[e, step, p % 16]
        tol = 1e-14 * np.abs(C).max()
        for e, powers in enumerate(monodromy.POWERS):
            others = [p for p in range(-8, 8) if p not in powers]
            assert np.all(np.abs(C[e][:, others]) <= tol), e
            assert np.all(np.abs(C[e][:, list(powers)] - coef[e, :, : len(powers)]) <= tol), e
        assert np.all(coef[0, :, 4] == 0.0)  # the diagonal's pad


def test_omega_coefficients_at_zero_potential_are_alpha_1():
    """At v = 0 the fields are constant, alpha_2 and alpha_3 are exactly zero,
    and so is every commutator: Omega's coefficients are alpha_1's,
    lambda h and -h/(16 lambda) off the diagonal, exactly."""
    _, h, coef = _coefficients(Potential.zero(), 40)
    want = np.zeros_like(coef)
    want[1, :, 3], want[1, :, 2] = h, -h / 16.0  # powers 1 and -1
    want[2, :, 3], want[2, :, 2] = -h, h / 16.0
    assert np.array_equal(coef, want)


def test_cached_fields_stay_within_300_bytes_a_step():
    """The grids cached on the potential hold x, h and 15 complex coefficients
    a step (~260 B); the bound keeps the cache, and peak memory, from
    growing with a wider Laurent storage."""
    v = seeded_ensemble()[0]  # a fresh potential, its cache empty
    integrate_many(v, [0.01, 1.7 + 0.1j, 40.0], order=2, tol=1e-11)
    grids = {key: blocks for key, blocks in v._cache.items() if key[0] == "magnus"}
    assert grids
    for (_, n, _), blocks in grids.items():
        size = sum(a.nbytes for block in blocks for a in block if a is not None)
        assert size <= 300 * n, (n, size / n)


def test_path_matches_dense_output():
    """M(x) at the Gauss-Legendre nodes of the gradient kernels is a prefix
    product of the step maps; it matches the DOP853 dense output, and
    det M(x) = 1."""
    x, _ = _gauss_legendre(GL_NODES_DEFAULT)
    v = seeded_ensemble()[2]
    lams = [2.2, 9.7 + 0.3j, 1.0 / (16 * 9.7)]
    for lam, jets, path in zip(lams, *dop853_reference(v, lams, 1, path_nodes=x)):
        res = integrate(v, lam, order=1, tol=1e-11, path_nodes=x)
        assert np.max(np.abs(res.path - path)) <= 1e-11 * np.max(np.abs(path))
        assert np.max(np.abs(np.linalg.det(res.path) - 1.0)) <= 1e-12
        assert np.all(_rel_err([res.Mgrave, res.Mgrave_dot], jets) <= 1e-11)


def test_step_count_follows_omega_and_tol():
    """N grows with |omega| (both ends alike) and a 100x tighter tol
    multiplies it by 100^(1/6) ~ 2.15, up to the rounding of N to m 2^e
    (m = 4..7), which moves it by less than a factor 1.25."""
    v = Potential.cosine(0.1)
    big = np.array([1.0, 5.0, 10.0, 20.0, 40.0])
    lams = np.concatenate([big, -1.0 / (16.0 * big)])
    n11 = integrate_many(v, lams, order=0, tol=1e-11).steps
    n13 = integrate_many(v, lams, order=0, tol=1e-13).steps
    for n in (n11, n13):
        assert np.all(np.diff(n[:5]) >= 0) and n[4] > n[0]
        assert np.array_equal(n[:5], n[5:])
    ratio = n13 / n11
    assert np.all(ratio > 100 ** (1 / 6) / 1.25) and np.all(ratio < 100 ** (1 / 6) * 1.25)


# the jet kernels of the propagator, against products written out entry by
# entry


def _random_jets(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("b_steps", [100, 1])
def test_jet_product_on_large_arrays_is_the_entrywise_sum(K, b_steps):
    """Above 256 elements an entry, _mul is bit for bit the truncated jet
    product C_k = sum_{i+j=k} A_i B_j with each entry summed as
    A_r0 B_0s + A_r1 B_1s, pairs in the order of i; B may broadcast over
    the step axis, as M does against the prefix products."""
    rng = np.random.default_rng(K)
    A = _random_jets(rng, (K, 2, 2, 3, 100))
    B = _random_jets(rng, (K, 2, 2, 3, b_steps))
    want = np.zeros((K, 2, 2, 3, 100), dtype=complex)
    for i in range(K):
        for j in range(K - i):
            for r in range(2):
                for s in range(2):
                    want[i + j, r, s] += A[i, r, 0] * B[j, 0, s] + A[i, r, 1] * B[j, 1, s]
    got = monodromy._mul(A, B, monodromy._Workspace())
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 160, 161])
def test_tree_is_the_ordered_product(steps):
    """_tree over the step axis equals E_{n-1} ... E_0 formed one step at a
    time, for step maps exp(W) of small traceless W with two derivatives."""
    rng = np.random.default_rng(steps)
    K, lams = 3, 4
    work = monodromy._Workspace()
    E = monodromy._exp_jet(_random_jets(rng, (K, 3, lams, steps), 0.1), work)
    jets = np.moveaxis(E, (3, 4), (0, 1))  # (lams, steps, K, 2, 2)
    want = jets[:, 0]
    for n in range(1, steps):
        step = jets[:, n]
        want = np.stack([sum(step[:, i] @ want[:, k - i] for i in range(k + 1))
                         for k in range(K)], axis=1)
    got = np.moveaxis(monodromy._tree(E, work), 3, 0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _ring(rng, n, lo, hi):
    return rng.uniform(lo, hi, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))


def _cosh_sinhc_oracle(z):
    """c, S, S', S'' from 0F1: cosh sqrt z = 0F1(;1/2;z/4), S = 0F1(;3/2;z/4),
    and d/dz 0F1(;b;z/4) = 0F1(;b+1;z/4) / (4b)."""
    with mpmath.workdps(30):
        x = mpmath.mpc(z) / 4
        return [complex(mpmath.hyp0f1(0.5, x)), complex(mpmath.hyp0f1(1.5, x)),
                complex(mpmath.hyp0f1(2.5, x)) / 6, complex(mpmath.hyp0f1(3.5, x)) / 60]


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("region", ["series", "closed", "mixed"])
def test_cosh_sinhc_against_hypergeometric_oracle(K, region):
    """The exponential's scalar kernel on |z| <= SERIES_RADIUS only (power
    series), |z| > SERIES_RADIUS only (cosh, sinh and their recurrences),
    and both interleaved in one array, which must give each entry the value
    it has in a one-region array."""
    rng = np.random.default_rng(K)
    r = monodromy.SERIES_RADIUS
    series = np.concatenate([_ring(rng, 30, 0.0, r), [r, -r, 1j * r, 0.0]])
    closed = np.concatenate([_ring(rng, 30, r * (1 + 1e-6), 40.0), [r * (1 + 1e-6), -40.0, 40.0]])
    if region == "mixed":
        z = np.concatenate([series, closed])
        perm = rng.permutation(z.size)
        z = z[perm]
        parts = [np.concatenate(p)[perm] for p in
                 zip(monodromy._cosh_sinhc(series, K), monodromy._cosh_sinhc(closed, K))]
    else:
        z = series if region == "series" else closed
    got = monodromy._cosh_sinhc(z, K)
    assert len(got) == K + 1
    want = np.array([_cosh_sinhc_oracle(x) for x in z]).T
    for k in range(K + 1):
        assert np.all(np.abs(got[k] - want[k]) <= 1e-14 * np.maximum(np.abs(want[k]), 1.0))
        if region == "mixed":
            assert got[k].tobytes() == parts[k].tobytes()
