import re

import numpy as np
import pytest
from conftest import slot

from shgspec.differentials import (
    SigmaSolution,
    SigmaWorkspace,
    eval_psi,
    psi_negative,
    solve_sigma,
    verify_negative_normalization,
    verify_normalization,
)
import shgspec.differentials as df
import shgspec.roots_products as rp
from shgspec.config import THRESHOLDS, seeded_ensemble
from shgspec.potential import pi_k
from shgspec.quadrature import ContourSpec, contour_integral
from shgspec.roots_products import CanonicalRootEvaluator, NodeFamily, zero_tail
from shgspec.spectrum import build_isolating, build_table


def test_mean_value_bound(tab16, iso16):
    """|oint f / w_{1,m}| <= 2 pi max_G |f| for f analytic in U_{1,m}."""
    from shgspec.roots_products import _sroot

    m = 1
    spec = iso16.contours(1, [m], nodes=96)[0]
    lo, hi = slot(tab16, "gap2", 1, m)
    for f in (lambda z: z**2 - 0.3 * z, lambda z: np.exp(0.3 * z)):
        val = contour_integral(
            lambda z: f(z) / _sroot(slot(tab16, "tau2", 1, m), slot(tab16, "gamma2", 1, m), z),
            spec,
        )
        grid = lo + (hi - lo) * np.linspace(0, 1, 33)
        gap_max = np.max(np.abs(f(grid)))
        assert abs(val) <= 2 * np.pi * gap_max * (1 + 1e-6)


def test_zero_potential_solution_exact(tab0, iso0):
    """sigma = tau at v=0, zero Newton iterations (the tau initializer is
    already the solution)."""
    for n in (0, 1, 3):
        sol = solve_sigma(tab0, iso0, n, 8, tol=1e-9)
        assert sol.newton_iters == 0
        assert sol.residual_norm <= 1e-9
        for k in range(-8, 9):
            assert abs(sol.sigma1[k + sol.K] - slot(tab0, "tau2", 1, k)) < 1e-12
            assert abs(sol.sigma2[k + sol.K] - slot(tab0, "tau2", 2, k)) < 1e-12


def test_zero_potential_psi_normalization(tab0, iso0):
    sol = solve_sigma(tab0, iso0, 1, 8)
    ev = CanonicalRootEvaluator(tab0, 8)
    spec = iso0.contours(1, [1], nodes=96)[0]
    z, dz = spec.points()
    val = np.sum(eval_psi(sol, z) / ev.chip(z) * dz)
    assert abs(val - 2 * np.pi) < 1e-7
    mat, dev = verify_normalization(sol, tab0, iso0)
    assert dev < 1e-7


def test_small_v_solutions(v_seed, tab16, iso16):
    for n in (0, 1, 2):
        sol = solve_sigma(tab16, iso16, n, 16, tol=1e-9)
        assert sol.newton_iters <= 8
        assert sol.residual_norm <= 1e-9
        assert sol.clamp_events == 0
        # roots confined to the gap hulls (1e-8 slack)
        for k in range(-16, 17):
            if k != n:
                lo, hi = slot(tab16, "gap2", 1, k)
                s = sol.sigma1[k + sol.K]
                assert _seg_dist(s, lo, hi) < 1e-8
            lo, hi = slot(tab16, "gap2", 2, k)
            u = -1.0 / (16.0 * sol.sigma2[k + sol.K])
            assert _seg_dist(u, lo, hi) < 1e-8


def _seg_dist(z, a, b):
    if a == b:
        return abs(z - a)
    t = np.clip(((z - a) / (b - a)).real, 0.0, 1.0)
    return abs(z - (a + t * (b - a)))


def test_root_estimate(v_seed, tab16, iso16):
    """|sigma_{j,k}^n - tau_{j,k}| <= 5 gamma_{j,k}^2 (with an absolute
    floor at the solver tolerance for collapsed gaps)."""
    sol = solve_sigma(tab16, iso16, 1, 16)
    for k in range(-16, 17):
        g1 = abs(slot(tab16, "gamma2", 1, k))
        if k != 1:
            assert abs(sol.sigma1[k + sol.K] - slot(tab16, "tau2", 1, k)) <= 5 * g1**2 + 1e-8
        g2 = abs(slot(tab16, "gamma2", 2, k))
        assert abs(sol.sigma2[k + sol.K] - slot(tab16, "tau2", 2, k)) <= 5 * g2**2 + 1e-8


def test_normalization_fresh_contours(v_seed, tab16, iso16, monkeypatch):
    sol = solve_sigma(tab16, iso16, 1, 16)
    mat, dev = verify_normalization(sol, tab16, iso16, nodes=96)
    assert dev < 1e-6
    # columns: delta_{nm} on family 1, zero on family 2
    assert abs(mat[(1, 1)] - 1.0) < 1e-6
    assert abs(mat[(1, 0)]) < 1e-6 and abs(mat[(2, 1)]) < 1e-6
    # contour independence: a further radius change stays within tolerance
    monkeypatch.setattr(df, "CONTOUR_SCALE", 1.2)
    _, dev2 = verify_normalization(sol, tab16, iso16, nodes=96)
    assert abs(dev2 - dev) < 1e-8


def test_unknowns_are_the_open_gaps_roots(tab16, iso16, v3_and_reflected, tab0, iso0):
    """The sigma system solves for the roots of the open gaps (gamma != 0)
    alone, sigma_{1,n} excepted: at N = 16, 4, 3, 4 unknowns on v1 and
    8, 7, 7 on v3 for n = 0, 1, 2, one residual row each; none at v = 0.
    Every other root of the solution is its tau, bit for bit."""
    (tab3, iso3), _ = v3_and_reflected
    for tab, iso, counts in ((tab16, iso16, (4, 3, 4)), (tab3, iso3, (8, 7, 7)),
                             (tab0, iso0, (0, 0, 0))):
        taus = tab.evaluator(tab.n_max).roots
        closed2 = taus.gamma2 == 0
        for n, count in zip((0, 1, 2), counts):
            ws = SigmaWorkspace(tab, iso, n, tab.n_max)
            closed1 = (taus.gamma1 == 0) | (ws.ks == n)
            assert ws.initial_state().size == len(ws.rows) == count
            assert np.count_nonzero(~closed1) + np.count_nonzero(~closed2) == count
            sol = solve_sigma(tab, iso, n, tab.n_max)
            assert np.array_equal(sol.sigma1[closed1], taus.sigma1[closed1])
            assert np.array_equal(sol.sigma2[closed2], taus.sigma2[closed2])


def test_solver_idempotence(v_seed, tab16, iso16):
    sol = solve_sigma(tab16, iso16, 0, 16)
    ws = SigmaWorkspace(tab16, iso16, 0, 16)
    u = ws.pack(sol.sigma1, sol.sigma2)
    F, _ = ws.residual_and_jacobian(u)
    assert np.linalg.norm(F) <= 1e-9


def test_residual_tail_decay(v_seed, tab16, iso16):
    """|F_{j,m}| decays over m at a fixed admissible point: perturbing one
    root keeps the residual mass concentrated at low |m|.  The rows F_{j,m}
    (m != n for j = 1) are verify_normalization's entries times the row
    prefactors: its matrix covers every (j, m), the closed gaps' rows that
    the solve does not form included."""
    ws = SigmaWorkspace(tab16, iso16, 0, 16)
    s1, s2 = ws.unpack(ws.initial_state())
    s1[1 + 16] += 0.25 * slot(tab16, "gamma2", 1, 1)  # quarter of the open gap
    C_n = 1.0 / NodeFamily(s1, s2, 16).f2_inf()
    mat, _ = verify_normalization(SigmaSolution(0, 16, s1, s2, 0.0, 0, C_n), tab16, iso16)
    mags = {}
    for (fam, m), val in mat.items():
        if (fam, m) != (1, 0):
            mags[(fam, m)] = abs(val) * (abs(m) if fam == 1 else 16.0 * pi_k(m) ** 2 * pi_k(0))
    outer = max(v for (fam, m), v in mags.items() if abs(m) >= 12)
    peak = max(mags.values())
    assert outer < 1e-3 * peak


def test_sign_change_across_gap(v_seed, tab16, iso16):
    """Pushing sigma_{1,m} across the gap flips the sign of F_{1,m}."""
    ws = SigmaWorkspace(tab16, iso16, 0, 16)
    lo, hi = slot(tab16, "gap2", 1, 1)
    vals = []
    for t in (0.2, 0.8):
        s1 = tab16.family("tau2", 1, ws.K)
        s2 = tab16.family("tau2", 2, ws.K)
        s1[1 + 16] = lo + t * (hi - lo)
        F, _ = ws.residual_and_jacobian(ws.pack(s1, s2))
        row = [r[:2] for r in ws.rows].index((1, 1))
        vals.append(F[row].real)
    assert vals[0] * vals[1] < 0


def test_jacobian_structure(v_seed, tab16, iso16):
    """The Jacobian over the open gaps' roots.  Q11_mm tends to 2 as the gap
    m closes; in a closed gap the root at its tau makes the row vanish
    whatever the other roots, so the solve fixes it there and forms no row
    or column for it (and no large-|m| trend is left to test)."""
    ws = SigmaWorkspace(tab16, iso16, 1, 16)
    Q = ws.residual_and_jacobian(ws.initial_state())[1]()
    m1 = np.count_nonzero(ws.open1)
    d11 = np.diag(Q[:m1, :m1])
    assert np.all(np.abs(d11) > 0.5)
    assert abs(np.median(d11.real) - 2.0) < 0.3
    # Q22 diagonal tends to 2 pi f_{n,1}(0)/f_{n,2}(inf)
    s1 = tab16.family("tau2", 1, ws.K)
    s2 = tab16.family("tau2", 2, ws.K)
    mask = ws.ks != 1
    f1_0 = np.prod(s1[mask] / pi_k(ws.ks[mask])) * zero_tail(
        np.array([0.0 + 0j]), 16
    )[0]
    f2_inf = np.prod(s2 / pi_k(ws.ks)) * ws.evaluator.tail_zero
    want = 2 * np.pi * f1_0 / f2_inf
    d22 = np.diag(Q[m1:, m1:])
    assert abs(np.median(d22.real) - want.real) < 0.3 * abs(want)
    # D + K split: off-diagonal part has bounded Frobenius norm
    assert np.linalg.norm(Q - np.diag(np.diag(Q))) < 10.0


def test_jacobian_vs_finite_differences(v_seed, tab16, iso16):
    ws = SigmaWorkspace(tab16, iso16, 1, 16)
    u0 = ws.initial_state()
    Q = ws.residual_and_jacobian(u0)[1]()
    # every entry with genuine magnitude (one that vanishes by symmetry would
    # only compare quadrature noise): all 9 of the open gaps' 3 x 3
    picks = np.argwhere(np.abs(Q) > 1e-6)
    assert picks.shape[0] == 9
    h = 1e-6
    for r, c in picks:
        up = u0.copy()
        up[c] += h
        um = u0.copy()
        um[c] -= h
        Fp, _ = ws.residual_and_jacobian(up)
        Fm, _ = ws.residual_and_jacobian(um)
        fd = (Fp[r] - Fm[r]) / (2 * h)
        assert abs(Q[r, c] - fd) / max(abs(Q[r, c]), abs(fd)) < 1e-4
    # same agreement at the accepted solution
    sol = solve_sigma(tab16, iso16, 1, 16)
    us = ws.pack(sol.sigma1, sol.sigma2)
    Qs = ws.residual_and_jacobian(us)[1]()
    for r, c in picks[:3]:
        up = us.copy()
        up[c] += h
        um = us.copy()
        um[c] -= h
        Fp, _ = ws.residual_and_jacobian(up)
        Fm, _ = ws.residual_and_jacobian(um)
        fd = (Fp[r] - Fm[r]) / (2 * h)
        assert abs(Qs[r, c] - fd) / max(abs(Qs[r, c]), abs(fd)) < 1e-4


def test_truncation_stability(v_seed, tab32, iso16):
    tab24 = tab32.truncated(24)
    iso24 = build_isolating(v_seed, tab24)
    sol16 = solve_sigma(tab32.truncated(16), iso16, 1, 16)
    sol24 = solve_sigma(tab24, iso24, 1, 24)
    for k in range(-12, 13):
        if k == 1:
            continue
        assert abs(sol16.sigma1[k + sol16.K] - sol24.sigma1[k + sol24.K]) < 1e-6
        assert abs(sol16.sigma2[k + sol16.K] - sol24.sigma2[k + sol24.K]) < 1e-6


def test_psi_node_doubling(v_seed, tab16, iso16):
    sol = solve_sigma(tab16, iso16, 1, 16)
    ev = CanonicalRootEvaluator(tab16, 16)
    for nodes in ((48, 96),):
        vals = []
        for nn in nodes:
            spec = iso16.contours(1, [3], nodes=nn)[0]
            z, dz = spec.points()
            vals.append(np.sum(eval_psi(sol, z) / ev.chip(z) * dz))
        assert abs(vals[0] - vals[1]) < 1e-10


def test_psi_C_n_consistency(v_seed, tab16, iso16):
    """psi_{n,2}(lambda) C_n -> 1 along the real axis (C_n = 1/psi_{n,2}(inf))."""
    sol = solve_sigma(tab16, iso16, 1, 16)
    devs = []
    for lam in (30.0, 120.0, 480.0):  # convergence is O(1/lambda)
        mu = -1.0 / (16.0 * lam)
        f2 = np.prod(
            (sol.sigma2 - mu) / pi_k(np.arange(-16, 17))
        ) * zero_tail(np.array([mu], complex), 16)[0]
        devs.append(abs(f2 * sol.C_n - 1.0))
    assert devs[2] < devs[1] < devs[0] and devs[2] < 1e-3


def test_psi_negative_zero_potential(tab0, iso0):
    solr = solve_sigma(tab0, iso0, 1, 8)  # reflected zero potential is itself
    mat, dev = verify_negative_normalization(solr, tab0, iso0, tab0, iso0, nodes=96)
    assert dev < 1e-7
    assert abs(mat[(2, -1)] - 1.0) < 1e-7


def test_psi_negative_shares_the_tails_of_chip(tab0, iso0, monkeypatch):
    """zero_tail is even, so psi_{-n} at z carries the tails of
    sqrt_c(chi_p) at z, and the check leaves them out of both: no tail
    evaluation per contour, and the same normalization matrix as
    psi_negative on its own."""
    solr = solve_sigma(tab0, iso0, 1, 8)
    calls = []
    tail = rp.zero_tail
    monkeypatch.setattr(rp, "zero_tail", lambda *a, **k: calls.append(1) or tail(*a, **k))
    mat, _ = verify_negative_normalization(solr, tab0, iso0, tab0, iso0, nodes=32)
    monkeypatch.undo()
    assert len(calls) <= 1  # the evaluator's chi1(0)
    ev = CanonicalRootEvaluator(tab0, 8)
    for (j, m), val in mat.items():
        z, dz = iso0.contours(j, [m], nodes=32, scale=1.5)[0].points()
        alone = np.sum(psi_negative(solr, z) / ev.chip(z) * dz) / (2 * np.pi)
        assert abs(val - alone) <= 1e-13


def test_psi_negative_needs_positive_index(tab0, iso0):
    """psi_{-n} is defined for n >= 1: the reflected n = 0 solution is refused
    instead of giving a normalization deviation of 1."""
    solr = solve_sigma(tab0, iso0, 0, 8)
    with pytest.raises(ValueError, match="n >= 1"):
        psi_negative(solr, np.array([0.3 + 0.1j]))
    with pytest.raises(ValueError, match="n >= 1"):
        verify_negative_normalization(solr, tab0, iso0, tab0, iso0)


def test_psi_negative_small_v(v_seed, tab16, iso16, reflected):
    vr, tabr, isor = reflected
    solr = solve_sigma(tabr, isor, 1, 16)
    mat, dev = verify_negative_normalization(solr, tabr, isor, tab16, iso16, nodes=96)
    assert dev < 1e-6
    # change-of-variable consistency: the Gamma_{2,m}(q,p) integral of
    # psi_{-n} equals the Gamma_{1,-m}(-q,p) integral of psi_n
    ev = CanonicalRootEvaluator(tab16, 16)
    evr = CanonicalRootEvaluator(tabr, 16)
    for m in (2, -3):
        spec = iso16.contours(2, [m], nodes=96)[0]
        z, dz = spec.points()
        lhs = np.sum(
            psi_negative(solr, z) / ev.chip(z) * dz
        )
        spec2 = isor.contours(1, [-m], nodes=96)[0]
        z2, dz2 = spec2.points()
        rhs = np.sum(eval_psi(solr, z2) / evr.chip(z2) * dz2)
        assert abs(lhs - rhs) < 1e-8
    # roots of psi_{-n} confined to the gaps of (q,p) except (2,-n):
    # -sigma_{2,k}^r lies in -G_{1,k}(v) (= G_{1,-k} for k != 0, the mirror
    # gap G_{2,0} at k=0); 1/(16 sigma_{1,k}^r) lies in -G_{2,k}(v)
    for k in (2, -2):
        root = -solr.sigma2[k + solr.K]
        lo, hi = slot(tab16, "gap2", 1, -k)
        assert _seg_dist(root, lo, hi) < 1e-7
        root = 1.0 / (16.0 * solr.sigma1[k + solr.K])
        lo, hi = slot(tab16, "gap2", 2, -k)
        assert _seg_dist(root, lo, hi) < 1e-7
    root0 = -solr.sigma2[solr.K]
    lo, hi = slot(tab16, "gap2", 2, 0)
    assert _seg_dist(root0, lo, hi) < 1e-7


def test_normalization_gates_read_the_stored_C_n(tab16, iso16, reflected):
    """Both normalization checks integrate psi with the solution's own C_n:
    scaling C_n alone by 1 + 1e-5 fails each gate, and the converged
    solutions pass it (v1, n = 1)."""
    from dataclasses import replace

    _, tabr, isor = reflected
    sol, solr = solve_sigma(tab16, iso16, 1, 16), solve_sigma(tabr, isor, 1, 16)
    scaled = lambda s: replace(s, C_n=s.C_n * (1 + 1e-5))
    check = lambda s: verify_normalization(s, tab16, iso16)[1]
    check_negative = lambda s: verify_negative_normalization(s, tabr, isor, tab16, iso16)[1]
    assert check(sol) <= THRESHOLDS["normalization"] < check(scaled(sol))
    assert check_negative(solr) <= THRESHOLDS["normalization_negative"] < check_negative(scaled(solr))


def test_admissibility_guard(monkeypatch, tmp_path, capsys, v_seed, tab16, iso16):
    """A converged root outside the contour of its own row is refused, by
    solve_sigma with a RuntimeError that names it and by shgspec
    differentials with exit 3: sigma_{1,-1}, an open gap's root, moved by 2.0
    in the initial state, at a tolerance at which no Newton step is taken."""
    from shgspec.cli import main
    from shgspec.config import RunConfig

    ws = SigmaWorkspace(tab16, iso16, 1, 16)
    assert ws.open1[-1 + 16] and not ws.open1[2 + 16]
    (spec,) = iso16.contours(1, [-1])
    assert abs(ws.unpack(ws.initial_state())[0][-1 + 16] + 2.0 - spec.center) > spec.radius
    assert solve_sigma(tab16, iso16, 1, 16, tol=np.inf).newton_iters == 0
    init = SigmaWorkspace.initial_state

    def moved(ws):
        s1, s2 = ws.unpack(init(ws))
        s1[-1 + ws.K] += 2.0  # way outside Gamma_{1,-1}
        return ws.pack(s1, s2)

    monkeypatch.setattr(SigmaWorkspace, "initial_state", moved)
    refusal = r"root sigma_\(1,-1\) converged outside its contour .*outside solvable neighborhood"
    with pytest.raises(RuntimeError, match=refusal):
        solve_sigma(tab16, iso16, 1, 16, tol=np.inf)
    monkeypatch.setattr(RunConfig, "newton_tol", np.inf)
    path = tmp_path / "v1.json"
    path.write_text(v_seed.to_json())
    assert main(["differentials", str(path), "--n-list", "1"]) == 3
    assert re.search(refusal, capsys.readouterr().err)


def test_workspace_requires_K_geq_table(tab16, iso16):
    with pytest.raises(ValueError, match="K must be >="):
        SigmaWorkspace(tab16, iso16, 0, 8)
    with pytest.raises(ValueError, match="n = 17 .* K = 16"):
        solve_sigma(tab16, iso16, 17, 16)


def test_solver_iteration_budget(v_seed, tab16, iso16, v3_and_reflected):
    """A solve that has not reached tol after max_iter steps raises: v1 with
    no step allowed, and v3 at n = 0, which needs 2 steps, after its one."""
    with pytest.raises(RuntimeError, match="outside solvable neighborhood"):
        solve_sigma(tab16, iso16, 1, 16, tol=1e-14, max_iter=0)
    tab, iso = v3_and_reflected[0]
    assert solve_sigma(tab, iso, 0, 16).newton_iters == 2
    with pytest.raises(RuntimeError, match="did not reach tol"):
        solve_sigma(tab, iso, 0, 16, max_iter=1)


@pytest.fixture(scope="module")
def v3_and_reflected():
    """(table, iso) of v3 at N = 16 and of its reflection (-q, p)."""
    v3 = seeded_ensemble()[2]
    out = []
    for v in (v3, v3.reflected()):
        tab = build_table(v, 16, tol=1e-13)
        out.append((tab, build_isolating(v, tab)))
    return out


def _verify_quotient(monkeypatch, run, *args):
    """Run a solve or a normalization check; return its result, the nodes of
    all contours of its last sweep and the integrand psi/sqrt_c(chi_p) it
    integrated there, with sqrt_c(chi_p) the values its evaluator kept.  The
    last sweep of a solve is the residual at its solution."""
    got = []
    terms = df._contour_terms
    monkeypatch.setattr(df, "_contour_terms", lambda *a: got.append(a) or terms(*a))
    out = run(*args)
    monkeypatch.undo()
    psi, ev, specs = got[-1]
    z, _, chip = (np.concatenate(a) for a in zip(*(ev.on_contour(s) for s in specs)))
    return out, z, psi(z) / chip


def test_bare_quotient_matches_the_tailed_oracle(
    monkeypatch, tab16, iso16, reflected, v3_and_reflected
):
    """psi/sqrt_c(chi_p) without the zero-potential tails equals the tailed
    eval_psi/chip (psi_negative/chip for psi_{-n}) to 1e-13 relative, on the
    solve nodes and on the verification contours: the tails cancel."""
    rel = lambda a, b: float(np.max(np.abs(a - b) / np.abs(b)))
    (tab3, iso3), (tab3r, iso3r) = v3_and_reflected
    for (tab, iso), (tabr, isor) in (
        ((tab16, iso16), reflected[1:]),
        ((tab3, iso3), (tab3r, iso3r)),
    ):
        ev, evr = CanonicalRootEvaluator(tab, 16), CanonicalRootEvaluator(tabr, 16)
        for n in (0, 1, 2):
            sol, z, f = _verify_quotient(monkeypatch, solve_sigma, tab, iso, n, 16)
            assert rel(f, eval_psi(sol, z) / ev.chip(z)) <= 1e-13
            _, z, f = _verify_quotient(monkeypatch, verify_normalization, sol, tab, iso)
            assert rel(f, eval_psi(sol, z) / ev.chip(z)) <= 1e-13
        solr, z, f = _verify_quotient(monkeypatch, solve_sigma, tabr, isor, 1, 16)
        assert rel(f, eval_psi(solr, z) / evr.chip(z)) <= 1e-13
        _, z, f = _verify_quotient(
            monkeypatch, verify_negative_normalization, solr, tabr, isor, tab, iso
        )
        assert rel(f, psi_negative(solr, z) / ev.chip(z)) <= 1e-13


def test_sigma_layer_evaluates_tails_only_at_zero(tab16, iso16, reflected, monkeypatch):
    """solve_sigma and both normalization checks evaluate zero_tail only at
    the point 0, once per table: its evaluator's zero_tail(0, K) serves
    sqrt_c(chi_1)(0) and every f_{n,2}(inf).  On no contour node:
    psi and sqrt_c(chi_p) carry the same tails there, which cancel."""
    vr, tabr, isor = reflected
    tab, tabr = tab16.truncated(16), tabr.truncated(16)  # no evaluator built yet
    points = []
    tail = rp.zero_tail

    def counting(z, *args, **kwargs):
        points.append(np.atleast_1d(z))
        return tail(z, *args, **kwargs)

    monkeypatch.setattr(rp, "zero_tail", counting)
    sol = solve_sigma(tab, iso16, 1, 16)
    assert len(points) == 1
    verify_normalization(sol, tab, iso16)
    assert len(points) == 1
    solr = solve_sigma(tabr, isor, 1, 16)
    verify_negative_normalization(solr, tabr, isor, tab, iso16)
    assert len(points) == 2  # the reflected table's evaluator
    assert all(z.shape == (1,) and z[0] == 0 for z in points)


def _count_chip_points(monkeypatch):
    """Patch _bare_chip to record the size of each call; returns the list."""
    points = []
    bare = CanonicalRootEvaluator._bare_chip

    def counting(ev, lam, *args, **kwargs):
        points.append(np.size(lam))
        return bare(ev, lam, *args, **kwargs)

    monkeypatch.setattr(CanonicalRootEvaluator, "_bare_chip", counting)
    return points


def test_checks_build_no_solve_contours(tab16, iso16, reflected, monkeypatch):
    """After the solve, a normalization check evaluates sqrt_c(chi_p) on its
    own contours alone, 2 (2K+1) nodes points, and only once per table: the
    reflected check on the same base contours reads the kept values.  psi
    evaluation evaluates it on no point."""
    vr, tabr, isor = reflected
    tab, tabr = tab16.truncated(16), tabr.truncated(16)  # no evaluator built yet
    points = _count_chip_points(monkeypatch)
    sol = solve_sigma(tab, iso16, 1, 16)
    solr = solve_sigma(tabr, isor, 1, 16)
    for check, want in (
        (lambda: verify_normalization(sol, tab, iso16), 2 * 33 * 96),  # K = 16, 96 nodes
        (lambda: verify_negative_normalization(solr, tabr, isor, tab, iso16), 0),
    ):
        points.clear()
        check()
        assert sum(points) == want
    points.clear()
    lam = np.array([0.3 + 0.2j, 5.0, 40.0 - 1.0j])
    eval_psi(sol, lam)
    eval_psi(solr, lam)
    psi_negative(solr, lam)
    assert points == []


def test_sigma_pass_evaluates_each_contour_once(monkeypatch, v3_and_reflected):
    """The sigma benchmark's sequence on v3 at K = 16 (solves for n = 0, 1, 2,
    each with verify_normalization, then the reflected n = 1 solve with
    verify_negative_normalization), here followed by eval_psi and
    psi_negative, builds the nodes of each distinct contour and evaluates
    sqrt_c(chi_p) on them once: the solves' 8 contours of the base table
    (one per open gap) and 7 of the reflected one, and 66 verification
    contours, 64 resp. 96 nodes each, 81 ContourSpec.points calls.
    Repeating the sequence builds and evaluates nothing.  Each solve builds one SigmaWorkspace; the checks and
    psi evaluation build none.  The kept values equal a fresh evaluation on
    all the same nodes at once, bit for bit: no product depends on the
    batch it is evaluated in."""
    (tab3, iso), (tab3r, isor) = v3_and_reflected
    tab, tabr = tab3.truncated(16), tab3r.truncated(16)  # no evaluator built yet
    points = _count_chip_points(monkeypatch)
    builds, nodes = [], []
    init, pts = SigmaWorkspace.__init__, ContourSpec.points
    monkeypatch.setattr(SigmaWorkspace, "__init__", lambda ws, *a: builds.append(1) or init(ws, *a))
    monkeypatch.setattr(ContourSpec, "points", lambda spec: nodes.append(1) or pts(spec))
    lam = np.array([0.3 + 0.2j, 5.0, 40.0 - 1.0j])

    def run(want_builds, fn, *args, **kwargs):
        before = len(builds)
        out = fn(*args, **kwargs)
        assert len(builds) - before == want_builds, fn.__name__
        return out

    def sequence():
        for n in (0, 1, 2):
            sol = run(1, solve_sigma, tab, iso, n, 16)
            run(0, verify_normalization, sol, tab, iso, nodes=96)
        solr = run(1, solve_sigma, tabr, isor, 1, 16)
        run(0, verify_negative_normalization, solr, tabr, isor, tab, iso, nodes=96)
        run(0, eval_psi, sol, lam)
        run(0, psi_negative, solr, lam)

    sequence()
    assert len(nodes) == 81
    assert sum(points) == 8 * 64 + 7 * 64 + 66 * 96 == 7296
    points.clear()
    nodes.clear()
    sequence()
    assert points == [] and nodes == []
    assert len(builds) == 8
    monkeypatch.undo()
    for t in (tab, tabr):
        ev = t.evaluator(16)
        specs = list(ev._on_contour)
        z, dz, kept = (np.concatenate(a) for a in zip(*(ev.on_contour(s) for s in specs)))
        fresh_z, fresh_dz = (np.concatenate(a) for a in zip(*(s.points() for s in specs)))
        assert np.array_equal(z, fresh_z) and np.array_equal(dz, fresh_dz)
        assert np.array_equal(kept, ev._bare_chip(fresh_z))


def test_one_residual_evaluation_per_newton_trial(
    monkeypatch, tab16, iso16, v3_and_reflected
):
    """solve_sigma evaluates the residual once at the initializer, then once
    per Newton iteration at the full step: 1 + iterations residual calls per
    solve."""
    calls = []
    rj = SigmaWorkspace.residual_and_jacobian
    monkeypatch.setattr(
        SigmaWorkspace, "residual_and_jacobian", lambda ws, *a, **k: calls.append(1) or rj(ws, *a, **k)
    )
    for tab, iso in ((tab16, iso16), v3_and_reflected[0]):
        for n in (0, 1, 2):
            calls.clear()
            sol = solve_sigma(tab, iso, n, 16)
            assert sol.newton_iters >= 1
            assert len(calls) == 1 + sol.newton_iters


def test_jacobian_formed_only_where_newton_steps(monkeypatch, v3_and_reflected):
    """residual_and_jacobian returns F and a function that forms Q; solve_sigma
    forms Q only at the iterates a Newton step starts from, newton_iters per
    solve.  The sigma benchmark's solves on v3 at K = 16 (n = 0, 1, 2 and the
    reflected n = 1) evaluate the residual 12 times and form 8 Jacobians."""
    calls, jacobians = [], []
    rj = SigmaWorkspace.residual_and_jacobian

    def counting(ws, u):
        calls.append(1)
        F, jacobian = rj(ws, u)
        return F, lambda: jacobians.append(1) or jacobian()

    monkeypatch.setattr(SigmaWorkspace, "residual_and_jacobian", counting)
    (tab, iso), (tabr, isor) = v3_and_reflected
    iters = 0
    for t, i, n in ((tab, iso, 0), (tab, iso, 1), (tab, iso, 2), (tabr, isor, 1)):
        before = len(jacobians)
        sol = solve_sigma(t, i, n, 16)
        assert len(jacobians) - before == sol.newton_iters
        iters += sol.newton_iters
    assert (len(calls), len(jacobians), iters) == (12, 8, 8)


def test_normalization_in_one_sweep_matches_each_contour_alone(monkeypatch, v3_and_reflected):
    """verify_normalization evaluates psi once, on the nodes of all 2 (2K+1)
    contours; each entry equals that contour's integral evaluated alone."""
    (tab, iso), _ = v3_and_reflected
    sol = solve_sigma(tab, iso, 1, 16)
    sweeps = []
    psi = df._psi
    monkeypatch.setattr(df, "_psi", lambda *a: sweeps.append(np.size(a[3])) or psi(*a))
    mat, dev = verify_normalization(sol, tab, iso, nodes=96)
    monkeypatch.undo()
    assert sweeps == [2 * 33 * 96]
    ev = tab.evaluator(16)
    roots = NodeFamily(sol.sigma1, sol.sigma2, 16)
    for (j, m), val in mat.items():
        spec = iso.contours(j, [m], nodes=96, scale=1.5)[0]
        z, dz = spec.points()
        psi = df._psi(1, roots, sol.C_n, z, 1.0)
        alone = np.sum(psi / ev.on_contour(spec)[2] * dz) / (2 * np.pi)
        assert abs(val - alone) <= 1e-14
    assert dev == max(abs(v - float(key == (1, 1))) for key, v in mat.items())
