import dataclasses
from functools import cmp_to_key

import numpy as np
import pytest
from conftest import disc, generic_v4, random_kf3, row

from shgspec.config import seeded_ensemble
from shgspec.monodromy import KINDS, ROUNDING, BatchResult, integrate_many, lam_zero
from shgspec.potential import Potential, family_var
from shgspec.quadrature import ContourSpec, winding_number
import shgspec.spectrum as sp
from shgspec.spectrum import (
    DiscFamily,
    SpectrumTable,
    _mobius_disc,
    _newton_batch,
    _periodic_pair_from_ddot,
    build_isolating,
    build_table,
    certify_counts,
    count_annulus,
    order_le,
    trace_formula_tau,
)

# quadratic-formula oracle: lambda_1(0) = (pi + sqrt(pi^2 + 1/4))/2
LAM1_ZERO = 3.1613626096867287


def test_zero_potential_periodic_oracle(tab0):
    assert abs(lam_zero(1) - LAM1_ZERO) < 1e-15
    for n in range(-8, 9):
        lm, lp = row(tab0, n)[:2]
        assert abs(lm - lam_zero(n)) < 1e-9
        assert abs(lp - lam_zero(n)) < 1e-9
    # eq:kap3.170 pairing lambda_{-k}^+ = 1/(16 lambda_k^+)
    assert abs(row(tab0, -1).lam_plus - 1.0 / (16.0 * LAM1_ZERO)) < 1e-11


def test_zero_potential_dirichlet_and_star(tab0):
    assert abs(row(tab0, 1).mu - LAM1_ZERO) < 1e-10
    assert abs(tab0.lam_dot_star - 0.25j) < 1e-12


def test_locate_periodic_single(v_zero):
    """A one-index table at the zero potential: the double root 1/4 at n = 0."""
    lm, lp = row(build_table(v_zero, 1), 0)[:2]
    assert abs(lm - 0.25) < 1e-11 and abs(lp - 0.25) < 1e-11


def test_count_roots_simple(v_seed):
    # chi_p has a double root in D_1 at the zero potential
    spec = ContourSpec(np.pi, np.pi / 3, 64)
    f = integrate_many(Potential.zero(), spec.points()[0], order=1, tol=1e-11).scalar("chi_p")
    cnt, dist, _ = winding_number(spec, *f[:2])
    assert cnt == 2 and dist < 1e-8


def test_annulus_counts(v_seed, v_zero):
    for v in (v_zero, v_seed):
        cnt = count_annulus(v, 4, tol=1e-11)
        assert cnt["chi_p"] == 4 + 8 * 4
        assert cnt["chi_D"] == 2 + 4 * 4
        assert cnt["ddelta"] == 4 + 4 * 4


def test_certified_counts(v_seed, tab16, iso16):
    rep = certify_counts(v_seed, tab16, iso16, n_range=range(-3, 4))
    assert all(got == {"chi_p": 2, "chi_D": 1, "ddelta": 1}
               for n, got in rep.items() if n != "star")


def test_one_propagation_per_counting_contour(v_seed, tab16, iso16, monkeypatch):
    """chi_p, chi_D and Delta_dot are counted from one order-2 run over every
    contour of a call that a rung resolves: one for all U_n and U_*, one for
    both annulus circles."""
    import shgspec.spectrum as sp

    orders = []
    run = sp.integrate_many

    def counted(v, lams, order=1, **kw):
        orders.append(order)
        return run(v, lams, order, **kw)

    monkeypatch.setattr(sp, "integrate_many", counted)
    ns = range(-2, 3)
    rep = certify_counts(v_seed, tab16, iso16, n_range=ns)
    assert rep["star"] == 1 and orders == [2]
    orders.clear()
    cnt = count_annulus(v_seed, 2)
    assert cnt["chi_p"] == 4 + 8 * 2 and orders == [2]


@pytest.fixture(scope="module")
def v3_iso():
    v3 = seeded_ensemble()[2]
    return v3, build_isolating(v3, build_table(v3, 4, tol=1e-13))


def _counting_contours(iso):
    """U_-3, U_0, U_2 and U_* at 0.98 of their radii on 64 nodes, then the
    two circles of A_4 on 384."""
    discs = [disc(iso, n) for n in (-3, 0, 2)] + [(iso.star_center, iso.star_radius)]
    return [ContourSpec(c, 0.98 * r, iso.nodes) for c, r in discs] + [
        ContourSpec(0.0, DiscFamily.B_radius(N), 384) for N in (4, -4)]


def test_on_contour_matches_direct_propagation(v_seed, iso16, v3_iso, monkeypatch):
    """Filled in from one node per mirror pair, M and both lambda-jets agree
    with a direct propagation of every node within 1e-13 relative.  The six
    contours of one potential propagate in one call: v1 (real) propagates 33
    of 64 nodes on U_n and U_* and 97 of 384 on each annulus circle; v3
    (complex) keeps only evenness: all 64 on U_n, 192 of 384 on the annulus
    circles."""
    calls = _propagations(monkeypatch)
    v3, iso3 = v3_iso
    for v, iso, wants in ((v_seed, iso16, (33, 33, 33, 33, 97, 97)),
                          (v3, iso3, (64, 64, 64, 64, 192, 192))):
        calls.clear()
        specs = _counting_contours(iso)
        got = sp._on_contour(v, specs, 2, 1e-11)
        assert [lam.size for lam, _ in calls] == [sum(wants)] and len(got) == len(specs)
        for spec, res in zip(specs, got):
            direct = integrate_many(v, spec.points()[0], order=2, tol=1e-11)
            assert np.array_equal(res.lams, direct.lams)
            for jet in ("Mgrave", "Mgrave_dot", "Mgrave_ddot"):
                a, b = getattr(res, jet), getattr(direct, jet)
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), (spec, jet)


@pytest.mark.parametrize("k, spec, want", [
    (0, ContourSpec(0.25j, 0.1, 63), 63),  # odd N, centre on the imaginary axis
    (2, ContourSpec(0.0, 1.5, 63), 63),  # odd N at the origin, complex potential
    (0, ContourSpec(2.0 + 0.3j, 0.5, 64), 64),  # centre off both axes
    (0, ContourSpec(0.3 + 0.25j, 0.1, 64), 64),
    (0, ContourSpec(2.0, 0.5, 63), 32),  # k <-> -k needs no even N
])
def test_on_contour_without_symmetry_propagates_every_node(k, spec, want, monkeypatch):
    """A node count or centre that pairs no nodes propagates every node,
    exactly as integrate_many alone does.  Only the pairings through N/2 need
    an even N: on the real axis an odd N still pairs k with -k."""
    v = seeded_ensemble()[k]
    calls = _propagations(monkeypatch)
    got, = sp._on_contour(v, [spec], 1, 1e-11)
    assert [lam.size for lam, _ in calls] == [want]
    direct = integrate_many(v, spec.points()[0], order=1, tol=1e-11)
    if want == spec.nodes:
        assert np.array_equal(got.Mgrave, direct.Mgrave)
        assert np.array_equal(got.Mgrave_dot, direct.Mgrave_dot)
    for a, b in ((got.Mgrave, direct.Mgrave), (got.Mgrave_dot, direct.Mgrave_dot)):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))


def test_counting_work_on_v1(v_seed, tab16, iso16, monkeypatch):
    """certify_counts at |n| <= 16 and count_annulus(v1, 4) resolve every
    contour on its first rung (32 nodes on U_n and U_*, 192 on each annulus
    circle, tol 1e-6), propagating half and a quarter of the nodes, each call
    in one integrate_many: 35,740 and 3,920 lambda-steps measured, bounded
    here with a 10% margin (at 64 nodes and tol 1e-11 they took 479,456 and
    49,664), with the counts isolation requires."""
    calls = _propagations(monkeypatch)
    rep = certify_counts(v_seed, tab16, iso16, n_range=range(-16, 17))
    assert rep.pop("star") == 1
    assert all(got == {"chi_p": 2, "chi_D": 1, "ddelta": 1} for got in rep.values())
    assert {rung[1:3] for rung in rep.trace} == {(32, 1e-6)}
    assert [lam.size for lam, _ in calls] == [17 * 34]
    assert sum(steps for _, steps in calls) <= 39300
    calls.clear()
    cnt = count_annulus(v_seed, 4)
    assert cnt == {"chi_p": 36, "chi_D": 18, "ddelta": 20}
    assert [lam.size for lam, _ in calls] == [49 + 49]
    assert sum(steps for _, steps in calls) <= 4310


# lambda-steps of certify_counts at |n| <= 16 and U_* at 64 nodes and tol 1e-11
_FULL_WORK = {"v1": 479456, "v2": 584064, "v3": 1132800, "v4": 1436160,
              "q=0.3,p=0.2": 479456, "q=0.6": 479456}


@pytest.mark.parametrize("name", list(_FULL_WORK))
def test_budgeted_counts_match_the_full_counts(name, monkeypatch):
    """On v1-v4 and the constant family the budgeted counts at every
    |n| <= 16 and U_* are the isolation counts 2, 1, 1 and 1, which 64 nodes
    at tol 1e-11 also give, for at most a fifth of that work (13-16 times
    less measured); count_annulus(v, 4) gives 36/18/20.  Both reports miss
    nothing, and every budget stays below 1e-3 (largest measured 4.1e-4)."""
    ens = seeded_ensemble()
    v = {"v1": ens[0], "v2": ens[1], "v3": ens[2], "v4": generic_v4(),
         "q=0.3,p=0.2": Potential.from_modes({0: 0.3}, {0: 0.2}, Kf=1),
         "q=0.6": Potential.from_modes({0: 0.6}, {}, Kf=1)}[name]
    table = build_table(v, 16, tol=1e-13)
    iso = build_isolating(v, table)
    calls = _propagations(monkeypatch)
    rep = certify_counts(v, table, iso, n_range=range(-16, 17))
    assert sum(steps for _, steps in calls) <= _FULL_WORK[name] / 5
    assert rep["star"] == 1 and rep.miss == 0
    assert all(rep[n] == {"chi_p": 2, "chi_D": 1, "ddelta": 1} for n in range(-16, 17))
    assert max(quad + prop for *_, quad, prop in rep.trace) < 1e-3
    ns = (-16, -1, 0, 1, 16, "star")  # the counts at 64 nodes, tol 1e-11
    discs = [(iso.star_center, iso.star_radius) if n == "star" else disc(iso, n) for n in ns]
    specs = [ContourSpec(c, 0.98 * r, 64) for c, r in discs]
    for n, spec, res in zip(ns, specs, sp._on_contour(v, specs, 2, 1e-11)):
        full = {k: winding_number(spec, *res.scalar(k)[:2])[0] for k in KINDS}
        assert (full["ddelta"] if n == "star" else full) == rep[n]
    cnt = count_annulus(v, 4)
    assert cnt == {"chi_p": 36, "chi_D": 18, "ddelta": 20} and cnt.miss == 0


def _U1_around_lam_minus(v, table, iso, ratio):
    """certify_counts' U_1 centred on lambda_1^- with lambda_dot_1, the
    nearest other root, ratio times the counting radius away."""
    lm = row(table, 1).lam_minus
    centers, radii = iso.centers.copy(), iso.radii.copy()
    centers[1 + iso.n_max] = lm
    radii[1 + iso.n_max] = abs(row(table, 1).lam_dot - lm) / ratio / 0.98
    return certify_counts(v, table, dataclasses.replace(iso, centers=centers, radii=radii),
                          n_range=(1,))


def test_a_root_just_outside_moves_the_count_up_the_ladder(v_seed, tab16, iso16, monkeypatch):
    """With lambda_dot_1 4% outside the circle, 32 and 64 nodes miss the
    budget; the third rung (128 nodes, tol 1e-10) resolves the counts of the
    one chi_p root inside, after one propagation per rung.  U_* resolves on
    the first rung, in the same propagation as U_1, and climbs no further."""
    calls = _propagations(monkeypatch)
    rep = _U1_around_lam_minus(v_seed, tab16, iso16, 1.04)
    assert rep[1] == {"chi_p": 1, "chi_D": 0, "ddelta": 0} and rep["star"] == 1
    assert rep.trace[0][:3] == (1, 128, 1e-10) and rep.trace[0][3] < 0.1
    assert rep.trace[1][:3] == ("star", 32, 1e-6)
    assert [lam.size for lam, _ in calls] == [17 + 17, 33, 65]


def test_a_contour_no_rung_resolves_raises(v_seed, tab16, iso16):
    """With lambda_dot_1 1% outside the circle no rung up to 256 nodes at
    tol 1e-11 resolves the count: certify_counts raises, naming the
    contour, instead of returning a count."""
    with pytest.raises(ValueError, match="unresolved on the 256-node circle"):
        _U1_around_lam_minus(v_seed, tab16, iso16, 1.01)


def _direct_period2_eigenvalues(v, nmodes=40):
    """Independent oracle: Fourier-matrix discretization of the first-order
    operator on period-2 functions, linearized in the spectral parameter by a
    companion form (the lambda and 1/lambda terms make it quadratic)."""
    ks = np.arange(-nmodes, nmodes + 1)
    Nk = ks.size
    ngrid = 512
    x = np.arange(ngrid) / ngrid
    w = v.w_at(x)
    emq, eq = v.exp_q_at(x)
    wm = np.fft.fft(w) / ngrid
    em = np.fft.fft(emq) / ngrid
    ep = np.fft.fft(eq) / ngrid

    def coef(cs, m):
        return cs[m % ngrid] if abs(m) <= ngrid // 2 else 0.0

    J = np.array([[0, 1], [-1, 0]], complex)
    Z = np.array([[0, 1], [1, 0]], complex)
    T = np.zeros((2 * Nk, 2 * Nk), complex)
    B2 = np.zeros((2 * Nk, 2 * Nk), complex)
    for i, k in enumerate(ks):
        T[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] += -J * (1j * np.pi * k)
        for j, k2 in enumerate(ks):
            if (k - k2) % 2:
                continue
            m = (k - k2) // 2
            cw = coef(wm, m)
            if cw != 0:
                T[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] += -(cw / 4.0) * Z
            B2[2 * i, 2 * j] += coef(em, m) / 16.0
            B2[2 * i + 1, 2 * j + 1] += coef(ep, m) / 16.0
    Np = 2 * Nk
    C = np.zeros((2 * Np, 2 * Np), complex)
    C[:Np, Np:] = np.eye(Np)
    C[Np:, :Np] = B2
    C[Np:, Np:] = T
    ev = np.linalg.eigvals(C)
    return np.sort(ev[(ev.real > 0.05) & (np.abs(ev.imag) < 1e-7)].real)


def test_periodic_against_direct_discretization(v_seed, tab16):
    ev = _direct_period2_eigenvalues(v_seed)
    for n in (1, 2, 3):
        lm, lp = row(tab16, n)[:2]
        close_m = np.min(np.abs(ev - lm.real))
        close_p = np.min(np.abs(ev - lp.real))
        assert close_m < 5e-6 and close_p < 5e-6
    # the n=1 gap is open and its width matches the discretization
    block = ev[(ev > 3.0) & (ev < 3.4)]
    assert abs((block.max() - block.min()) - abs(row(tab16, 1).gamma)) < 5e-6


def test_order_relation():
    def sort_order(values):
        return sorted(values, key=cmp_to_key(lambda a, b: -1 if order_le(a, b) else 1))

    assert order_le(1.0, 2.0)
    assert not order_le(2.0, 1.0)
    # moduli tie (within 1e-12) falls back to the imaginary part
    assert order_le(complex(0, -1), complex(0, 1))
    assert not order_le(complex(0, 1), complex(0, -1))
    vals = [2.2, 0.5, 1.0, 1.0 + 0.3j, 0.02]
    ref = sort_order(vals)
    # elementwise on arrays, a bool for two numbers; the rule on Python numbers
    def le(a, b):
        a, b = complex(a), complex(b)
        d = abs(a) - abs(b)
        return d < -sp.ORDER_TIE_TOL or (d <= sp.ORDER_TIE_TOL and a.imag <= b.imag)

    assert type(order_le(1.0, 2.0)) is bool
    pairs = [(a, b) for a in vals for b in vals]
    assert order_le(*np.array(pairs).T).tolist() == [le(a, b) for a, b in pairs]
    # deterministic under perturbations below the tie tolerance
    rng = np.random.default_rng(1)
    for _ in range(5):
        pert = [z + complex(*rng.uniform(-1e-13, 1e-13, 2)) for z in vals]
        got = sort_order(pert)
        assert [round(abs(z), 6) for z in got] == [round(abs(z), 6) for z in ref]


def test_two_index_relabelings(tab16):
    K = 7
    # lambda_{j,k}^- and lambda_{j,k}^+: the family-j variables of the gap's ends
    lam2 = {j: family_var(j, tab16.family("gap2", j, K).T) for j in (1, 2)}
    for j, (minus, plus) in lam2.items():
        tau, gam = tab16.family("tau2", j, K), tab16.family("gamma2", j, K)
        for k in (1, 3, 7):
            assert plus[K - k] == -minus[K + k]
            assert minus[K - k] == -plus[K + k]
            assert gam[K - k] == gam[K + k]
            assert tau[K - k] == -tau[K + k]
    # lam_{1,0}^+ = 1/(16 lam_{2,0}^-)
    assert abs(lam2[1][1][K] - 1.0 / (16.0 * lam2[2][0][K])) < 1e-12


def test_reciprocity_of_spectra(tab16, reflected):
    _, tabr, _ = reflected
    for n in range(-6, 7):
        (lm, lp, mu, ld, *_), (lmr, lpr, mur, ldr, *_) = row(tab16, n), row(tabr, -n)
        assert abs(16.0 * lp * lmr - 1.0) < 1e-8
        assert abs(16.0 * lm * lpr - 1.0) < 1e-8
        assert abs(16.0 * mu * mur - 1.0) < 1e-8
        assert abs(16.0 * ld * ldr - 1.0) < 1e-8
    assert abs(16.0 * tab16.lam_dot_star * (-tabr.lam_dot_star) - 1.0) < 1e-8


def test_reality_and_interlacing(v_seed, tab16):
    for n in range(-16, 17):
        lm, lp, mu, ld, _, gamma = row(tab16, n)
        for z in (lm, lp, mu, ld):
            assert abs(z.imag) < 1e-9
        if abs(gamma) > 1e-9:
            assert lm.real - 1e-10 <= mu.real <= lp.real + 1e-10
            assert lm.real - 1e-10 <= ld.real <= lp.real + 1e-10
    for n in range(-16, 16):
        assert row(tab16, n).lam_plus.real < row(tab16, n + 1).lam_minus.real


def test_reciprocal_end_gaps_of_the_generic_potential_are_open():
    """The double-root rule measures the half-width on the local scale
    omega' ~ 1/(16 lambda^2), so the narrow open gaps at the reciprocal end
    stay open.  The gaps n = -5..-8 of v4 are about 5e-6 to 7.5e-6 wide in
    lambda, and |Delta| > 1 at their midpoints."""
    v4 = generic_v4()
    tab = build_table(v4, 8, tol=1e-13)
    ns = range(-8, -4)
    assert all(row(tab, n).gamma != 0 for n in ns)
    taus = np.array([row(tab, n).tau for n in ns])
    assert np.all(np.abs(integrate_many(v4, taus, order=0, tol=1e-13).Delta) > 1.0)


def _propagations(monkeypatch):
    """Wrap spectrum.integrate_many; the list returned gets the lambda and
    the lambda-steps of every call."""
    calls = []
    run = sp.integrate_many

    def counted(v, lams, order=1, **kw):
        res = run(v, lams, order, **kw)
        calls.append((np.atleast_1d(lams).copy(), int(np.sum(res.steps))))
        return res

    monkeypatch.setattr(sp, "integrate_many", counted)
    return calls


@pytest.mark.parametrize("k, n_max, before", [(0, 8, 55168), (2, 16, 188032)])
def test_build_table_propagates_each_lambda_once(monkeypatch, k, n_max, before):
    """The Delta_dot Newton hands its last order-2 propagation to the
    quadratic model and to the Dirichlet Newton's first iteration, and finds
    lambda_dot_star in the same batch: no lambda reaches integrate_many
    twice, and the lambda-steps of v1 (n_max 8) and v3 (n_max 16) stay below
    70% of what propagating each lambda_dot again cost."""
    calls = _propagations(monkeypatch)
    build_table(seeded_ensemble()[k], n_max, tol=1e-13)
    lams = np.concatenate([lam for lam, _ in calls])
    assert np.unique(lams).size == lams.size
    assert sum(steps for _, steps in calls) <= 0.7 * before


def test_quadratic_model_and_first_dirichlet_step_propagate_nothing(v_seed, monkeypatch):
    """With the polish Newton stubbed out, the quadratic model propagates no
    lambda; the Dirichlet Newton's first propagation lies one step away
    from the handed-forward result, and it finds the roots a Newton from the
    Delta_dot roots finds."""
    roots, res = _newton_batch(v_seed, lam_zero(np.arange(-8, 9)), "ddelta", tol=1e-13)
    calls = _propagations(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(sp, "_newton_batch", lambda v, seeds, kind, tol: (np.asarray(seeds), None))
        _periodic_pair_from_ddot(v_seed, roots, res, tol=1e-13)
    assert calls == []
    mus = _newton_batch(v_seed, res.lams, "chi_D", tol=1e-13, first=res)[0]
    assert calls and not np.isin(calls[0][0], res.lams).any()
    fresh = _newton_batch(v_seed, roots, "chi_D", tol=1e-13)[0]
    assert np.max(np.abs(mus - fresh) / np.abs(fresh)) <= 1e-14


@pytest.mark.parametrize("name, n_max", [("v1", 8), ("v3", 16), ("v4", 8)])
def test_handed_forward_model_matches_a_fresh_propagation(name, n_max):
    """The quadratic model fed the Delta_dot Newton's last result agrees with
    the model fed a fresh order-2 propagation at the roots: lambda^+- to
    1e-13 relative, and every open/double decision the same."""
    v = {"v1": seeded_ensemble()[0], "v3": seeded_ensemble()[2], "v4": generic_v4()}[name]
    roots, res = _newton_batch(v, lam_zero(np.arange(-n_max, n_max + 1)), "ddelta", tol=1e-13)
    got = _periodic_pair_from_ddot(v, roots, res, tol=1e-13)
    want = _periodic_pair_from_ddot(v, roots, integrate_many(v, roots, order=2, tol=1e-13),
                                    tol=1e-13)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-13
    assert np.array_equal(got[0] == got[1], want[0] == want[1])


def test_delta_sign_at_periodic(v_seed, tab16):
    lams = np.array([row(tab16, n).lam_plus for n in range(-5, 6)])
    res = integrate_many(v_seed, lams, order=0, tol=1e-12)
    signs = np.array([(-1.0) ** n for n in range(-5, 6)])
    assert np.max(np.abs(res.Delta - signs)) < 1e-8


def test_disc_family():
    discs = [DiscFamily.D(n) for n in range(-4, 5)]
    for i, (c1, r1) in enumerate(discs):
        for c2, r2 in discs[i + 1 :]:
            assert abs(c1 - c2) > r1 + r2
    c, r = DiscFamily.D(0)
    assert c == 0.25 and abs(r - 1 / (4 * np.pi)) < 1e-15
    c, r = DiscFamily.D(-1)
    assert 0 < c.real < 0.1 and r < c.real  # excludes the origin


def test_isolating_invariants(tab16, iso16):
    N = tab16.n_max
    # (I-1) holds by construction (checked in build); verify a sample
    for n in (-3, 0, 2):
        c, r = disc(iso16, n)
        lm, lp, mu, ld, *_ = row(tab16, n)
        assert abs(lm - c) < r and abs(lp - c) < r
        assert abs(mu - c) < r
        assert abs(ld - c) < r
    assert abs(tab16.lam_dot_star - iso16.star_center) < iso16.star_radius
    # (I-2): distance scaling with the reported constant
    cc = iso16.c_const
    for m in range(0, N + 1):
        for n in range(m + 1, N + 1):
            cm, rm = disc(iso16, m)
            cn, rn = disc(iso16, n)
            d = abs(cm - cn) - rm - rn
            assert d >= (n - m) / cc - 1e-12
            assert d <= cc * (n - m) + 1e-12
    # (I-4): beyond the table the discs are the reference D_n
    (c,), (r,) = iso16.discs(1, [N + 3])
    assert (c, r) == DiscFamily.D(N + 3)
    # (I-5)
    for n in range(-N, N + 1):
        cn, rn = disc(iso16, n)
        assert abs(iso16.star_center - cn) - iso16.star_radius - rn >= 1.0 / cc - 1e-12


def _crowded_reciprocal_iso():
    """The isolating neighborhoods of v1's N = 4 table with its n = -1 cluster
    moved to [5.68, 5.98] in 1/(16 lambda), 0.3 short of the n = -2 cluster:
    the reciprocal row alone sets c (9.54; 8.02 without it)."""
    v1 = seeded_ensemble()[0]
    tab = build_table(v1, 4, tol=1e-13)
    arrs = [np.array(a) for a in (tab.lam_minus, tab.lam_plus, tab.mu, tab.lam_dot)]
    arrs[0][3], arrs[1][3] = 1 / (16 * 5.98), 1 / (16 * 5.68)
    arrs[2][3] = arrs[3][3] = 1 / (16 * 5.83)
    return build_isolating(v1, SpectrumTable(4, *arrs, tab.lam_dot_star, True, tab.q0))


@pytest.mark.parametrize("which", ["v1", "v3", "crowded"])
def test_isolating_reciprocal_separation(which, iso16, v3_iso):
    """(I-3): for 0 <= m < n <= N the reciprocal images of U_{-m} and U_{-n}
    lie between (n - m)/c and c (n - m) apart, c the reported constant."""
    iso = {"v1": iso16, "v3": v3_iso[1]}.get(which) or _crowded_reciprocal_iso()
    cc = iso.c_const
    images = [_mobius_disc(*disc(iso, -n)) for n in range(iso.n_max + 1)]
    for m, (cm, rm) in enumerate(images):
        for n, (cn, rn) in enumerate(images[m + 1 :], m + 1):
            d = abs(cm - cn) - rm - rn
            assert (n - m) / cc - 1e-12 <= d <= cc * (n - m) + 1e-12, (m, n)


def test_contours_inside_discs(tab16, iso16):
    ms = [-5, -1, 0, 2, 16]
    for j in (1, 2):
        gaps = tab16.family("gap2", j, 16)[np.add(ms, 16)]
        for g, c, r, (lo, hi) in zip(iso16.contours(j, ms, scale=1.5), *iso16.discs(j, ms), gaps):
            assert abs(g.center - c) + g.radius <= r + 1e-12
            assert abs(lo - g.center) < g.radius and abs(hi - g.center) < g.radius


def test_trace_formula_zero(v_zero, iso0, tab0):
    c, r = disc(iso0, 1)
    [(tau, g2)] = trace_formula_tau(v_zero, [ContourSpec(c, 0.9 * r, 128)], tol=1e-12)
    assert abs(tau - LAM1_ZERO) < 1e-9
    assert abs(g2) < 1e-10


def test_trace_formula_small_v(v_seed, tab16, iso16, monkeypatch):
    """The moments of three discs come from one propagation."""
    ns = (0, 1, -2)
    calls = _propagations(monkeypatch)
    circles = [ContourSpec(c, 0.9 * r, 128) for c, r in (disc(iso16, n) for n in ns)]
    moments = trace_formula_tau(v_seed, circles, tol=1e-12)
    assert len(calls) == 1 and len(moments) == 3
    for n, (tau, g2) in zip(ns, moments):
        assert abs(tau.imag) < 1e-10
        assert g2.real > -1e-12
        assert abs(tau - row(tab16, n).tau) < 1e-7
        assert abs(g2 - row(tab16, n).gamma ** 2) < 1e-7


def test_table_json_round_trip(tab16):
    clone = SpectrumTable.from_json(tab16.to_json())
    assert clone.n_max == tab16.n_max
    assert np.array_equal(clone.lam_minus, tab16.lam_minus)
    assert np.array_equal(clone.mu, tab16.mu)
    assert clone.lam_dot_star == tab16.lam_dot_star


def test_isolating_failure_far_from_real():
    # overlapping clusters: isolating neighborhoods must be refused; an
    # n_max=0 table with a huge fake cluster against the surrogate neighbors
    one = lambda z: np.array([z], complex)
    bad = SpectrumTable(0, one(0.1), one(3.3), one(0.25), one(0.25), 0.25j)
    with pytest.raises(ValueError, match="not constructible|overlap"):
        build_isolating(Potential.cosine(0.1), bad)


def _overlapping_table():
    """The N = 4 table of 2 cos(6 pi x) as localized without the distinct-root
    check: the n = -4 and n = -3 entries hold the same cluster."""
    g = 0.0027566842825j
    return SpectrumTable(
        4,
        [0.0043292366049, 0.0043292366049, 0.0139548498509, 0.0254822036111, 0.25,
         2.4526921201083, 4.4814586225254 - g, 5.9766442041944, 14.660954760399],
        [0.0106413721144, 0.0106413721144, 0.0139548498509, 0.0254822036111, 0.25,
         2.4526921201083, 4.4814586225254 + g, 14.003647958222, 14.660954760399],
        [0.0107315034066, 0.0107315034066, 0.0139548498509, 0.0254822036111, 0.25,
         2.4526921201083, 4.4787296651512, 11.9798819475342, 14.660954760399],
        [0.0062625991298, 0.0062625991298, 0.0139548498509, 0.0254822036111, 0.25,
         2.4526921201083, 4.5221530479444, 9.9798819475342, 14.57134223941],
        0.25j,
        True,
        2.0,
    )


def test_isolating_failure_names_the_overlap():
    """When two clusters coincide, the refusal of the isolating neighborhoods
    names them and the widest gap."""
    v = Potential.cosine(2.0, mode=3)
    with pytest.raises(ValueError, match=r"n = -3 and n = -4 overlap .*\|gamma_3\| = 8\.03"):
        build_isolating(v, _overlapping_table())


def test_isolating_refuses_a_contour_inside_its_gap():
    """q = cos(2 pi x): the n = -1 gap is wider than twice the radius its
    disc leaves for the contour (r/|gamma| = 0.456), so the circle would not
    enclose the gap; build_isolating names n.  At amplitude 0.6 the smallest
    r/|gamma| is 0.63 and every contour encloses its gap."""
    v = Potential.cosine(1.0)
    with pytest.raises(ValueError, match=r"contour of n = -1 .* misses its gap"):
        build_isolating(v, build_table(v, 16))
    v = Potential.cosine(0.6)
    tab = build_table(v, 16)
    iso = build_isolating(v, tab)
    assert all(iso.contour_radii[n + 16] > 0.5 * abs(row(tab, n).gamma) for n in range(-16, 17))


def test_table_refuses_one_root_at_two_indices():
    """On the real potential 2 cos(6 pi x), far from zero, Newton from the
    zero-potential seeds of n = -4 and n = -3 lands on the same Delta_dot
    root; build_table names both indices instead of listing it twice."""
    v = Potential.cosine(2.0, mode=3)
    with pytest.raises(RuntimeError, match=r"n = -4 and n = -3 .*outside working neighborhood"):
        build_table(v, 4)


def test_table_equality_is_identity(tab16):
    """Tables hold arrays, so == is identity and never raises."""
    assert (tab16 == tab16.truncated(tab16.n_max)) is False
    assert tab16 == tab16


def test_table_arrays_are_read_only_copies(tab16):
    """The evaluators a table keeps derive from its arrays, so the table holds
    read-only copies.  A truncated copy starts without evaluators, and they
    stay out of to_json."""
    for name in ("lam_minus", "lam_plus", "mu", "lam_dot"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tab16, name)[0] = 0.0
    lam = np.array([0.24 + 0j])
    tab = SpectrumTable(0, lam, lam + 0.02, lam + 0.01, lam + 0.01, 0.25j)
    lam[0] = 9.0
    assert tab.lam_minus[0] == 0.24
    clone = tab16.truncated(16)
    ev = tab16.evaluator(16)
    assert tab16.evaluator(16) is ev and clone.evaluator(16) is not ev
    assert clone.to_json() == tab16.to_json()


def test_annulus_counts_at_cutoff_2(v_seed):
    """A_2 holds 4 + 8N periodic, 2 + 4N Dirichlet and 4 + 4N Delta_dot roots."""
    cnt = count_annulus(v_seed, 2)
    assert (cnt["chi_p"], cnt["chi_D"], cnt["ddelta"]) == (20, 10, 12)


def _single(tab, iso, n):
    """Single index n, read from the arrays within n_max and from the
    zero-potential surrogates beyond: (lambda^-, lambda^+, mu, lambda_dot),
    the disc U_n (D_n beyond) and the contour Gamma_n (beyond, the circle of
    radius pi/5 around lam_zero(n), or its image under z -> 1/(16 z))."""
    if abs(n) <= tab.n_max:
        i = n + tab.n_max
        lm, lp, mu, ld = (complex(a[i]) for a in (tab.lam_minus, tab.lam_plus, tab.mu,
                                                  tab.lam_dot))
        U = complex(iso.centers[i]), float(iso.radii[i])
        g = complex(iso.contour_centers[i]), float(iso.contour_radii[i])
        return lm, lp, mu, ld, U, ContourSpec(*g, iso.nodes)
    lm = lp = mu = ld = complex(lam_zero(n))
    c, r = DiscFamily.D(n)
    g = (lam_zero(n), np.pi / 5.0) if n > 0 else _mobius_disc(lam_zero(-n), np.pi / 5.0)
    return lm, lp, mu, ld, (complex(c), float(r)), ContourSpec(complex(g[0]), float(g[1]),
                                                               iso.nodes)


def _relabeled(tab, iso, j, m):
    """Slot (j, m) of the two-index relabelings, written out case by case:
    (lambda^+, lambda^-, mu, lambda_dot, gap endpoints, U disc, contour)."""
    n = abs(m)
    if j == 1 and m >= 0:
        lm, lp, mu, ld, (c, r), g = _single(tab, iso, n)
        return lp, lm, mu, ld, (lm, lp), (c, r), g
    if j == 1:
        lm, lp, mu, ld, (c, r), g = _single(tab, iso, n)
        return -lm, -lp, -mu, -ld, (-lp, -lm), (-c, r), g.mirrored()
    if m >= 0:
        lm, lp, mu, ld, (c, r), g = _single(tab, iso, -n)
        return (1.0 / (16.0 * lm), 1.0 / (16.0 * lp), 1.0 / (16.0 * mu), 1.0 / (16.0 * ld),
                (-lp, -lm), (-c, r), g.mirrored())
    lm, lp, mu, ld, (c, r), g = _single(tab, iso, m)
    return (-1.0 / (16.0 * lp), -1.0 / (16.0 * lm), -1.0 / (16.0 * mu), -1.0 / (16.0 * ld),
            (lm, lp), (c, r), g)


def test_two_index_relabelings_case_by_case():
    """The array map of every two-index reader (SpectrumTable.family,
    IsolatingNeighborhoods.discs and contours) equals its case-by-case
    definition on the complex potential v3, inside the table, on the
    surrogates beyond it (K > n_max) and at slot (2, 0): bit for bit for
    family 1, the gap ends, the discs and the contours.  Family 2 divides in
    numpy, which rounds apart from Python's complex division, so there each
    lambda_{2,k}^+-, mu and lambda_dot may move by one ulp per component."""
    v3 = seeded_ensemble()[2]
    tab = build_table(v3, 3, tol=1e-12)
    iso = build_isolating(v3, tab)
    K = 6
    ms = np.arange(-K, K + 1)
    bits = lambda *z: np.array(z, dtype=complex).tobytes()
    for j in (1, 2):
        fam = {q: tab.family(q, j, K) for q in ("tau2", "gamma2", "mu2", "lam_dot2", "gap2")}
        (cs, rs), contours = iso.discs(j, ms), iso.contours(j, ms)
        for k, m in enumerate(ms.tolist()):
            plus, minus, mu, ld, gap, (c, r), contour = _relabeled(tab, iso, j, m)
            assert bits(*fam["gap2"][k]) == bits(*gap)
            assert bits(cs[k], rs[k]) == bits(c, r)
            assert contours[k] == contour and bits(contours[k].center) == bits(contour.center)
            want = {"tau2": (0.5 * (plus + minus), (plus, minus)),
                    "gamma2": (plus - minus, (plus, minus)), "mu2": (mu, (mu,)),
                    "lam_dot2": (ld, (ld,))}
            for q, (value, ends) in want.items():
                if j == 1:
                    assert bits(fam[q][k]) == bits(value), (q, m)
                    continue
                for part in ("real", "imag"):
                    ulps = sum(np.spacing(abs(getattr(z, part))) for z in ends)
                    assert abs(getattr(fam[q][k], part) - getattr(value, part)) <= ulps, (q, m)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            tab.family("tau2", bad, 1)
        with pytest.raises(ValueError):
            iso.discs(bad, ms)
        with pytest.raises(ValueError):
            iso.contours(bad, ms)


@pytest.mark.parametrize("amplitude, mode, n_max", [(2.0, 3, 2), (1.0, 3, 3), (1.5, 2, 2), (1.5, 2, 3)])
def test_tabulated_data_are_roots_on_large_cosines(amplitude, mode, n_max):
    """Far from zero a Newton stop on the ratio of consecutive steps returned
    non-roots: lambda_dot_2 = 4.5222 on 2 cos 6 pi x at n_max 2, where
    |Delta_dot| = 0.17 (the root is 4.4787), and mu with |chi_D| up to 0.53
    on the other three.  Propagated afresh, every tabulated lambda_dot and mu
    is a root within NEWTON_NOISE times its noise (BatchResult.scalar)."""
    v = Potential.cosine(amplitude, mode=mode)
    tab = build_table(v, n_max)
    for kind, roots in (("ddelta", tab.lam_dot), ("chi_D", tab.mu)):
        f, _, noise = integrate_many(v, roots, order=2, tol=1e-12).scalar(kind)
        assert np.all(np.abs(f) <= sp.NEWTON_NOISE * noise), (kind, np.abs(f))
    if (amplitude, mode, n_max) == (2.0, 3, 2):
        assert abs(row(tab, 2).lam_dot - 4.4787) < 1e-4


def test_newton_raises_where_a_capped_step_cannot_shrink(v_seed):
    """Seeded at 5 + 30i, far from every Delta_dot root, each Newton step is
    capped at 0.5 and no root is within the 40 steps' reach: the Newton
    raises, naming the kind and the index, where a stop on steps that no
    longer shrink returned 5 + 28i with |Delta_dot| = 1.2e12."""
    with pytest.raises(RuntimeError, match=r"ddelta did not converge at indices \[1\]"):
        _newton_batch(v_seed, [lam_zero(1), 5.0 + 30.0j], "ddelta")


def test_each_kind_charged_its_own_noise_on_the_inner_annulus_circle(v_seed):
    """chi_D is one entry of M, so its noise is err max|M|, not err max|M|^2:
    on v1's inner circle of A_4 (|M| up to 7.6e5) its propagation part of the
    budget reads 7.3e-8 (chi_p 1.8e-7, Delta_dot 8.1e-8), where err max|M|^2
    read 5.6e-2 of the 0.1 budget.  count_annulus traces both circles, each
    resolved on its first rung, with the largest part over the kinds."""
    spec = ContourSpec(0.0, DiscFamily.B_radius(-4), 192)
    winds = dict(zip(KINDS, (-18, -9, -11)))
    reps = {kind: sp._count(v_seed, [(-4, spec, {kind: winds[kind]})], 1e-11) for kind in KINDS}
    props = {kind: rep.trace[0][4] for kind, rep in reps.items()}
    assert props["chi_D"] < 1e-6 and max(props.values()) < 1e-6
    assert all(rep.miss == 0 for rep in reps.values())
    cnt = count_annulus(v_seed, 4)
    assert [row[:3] for row in cnt.trace] == [(4, 192, 1e-6), (-4, 192, 1e-6)]
    assert cnt.trace[1][4] == max(props.values())


def test_no_propagation_noise_reads_zero(monkeypatch):
    """On q = 0.6 the N- and N/2-step products of some lambda agree to the
    bit, so their err reads 0 (4 scalar noises of build_table(16, tol=1e-12)
    read 0 when the noise rule took err alone); BatchResult.scalar floors
    err at ROUNDING steps, so every noise is at least that."""
    scalar, seen = BatchResult.scalar, []

    def spy(res, kind):
        out = scalar(res, kind)
        seen.append((out[2], ROUNDING * res.steps))
        return out

    monkeypatch.setattr(BatchResult, "scalar", spy)
    build_table(Potential.from_modes({0: 0.6}, {}, Kf=1), 16, tol=1e-12)
    noise, floor = (np.concatenate(a) for a in zip(*seen))
    assert noise.size and np.all(noise >= floor) and np.all(floor > 0)


@pytest.mark.parametrize("i", [0, 2])
def test_nearly_double_roots_converge_at_the_rounding_floor(i):
    """Random K_f = 3 potentials (conftest.random_kf3) whose Newton on chi_p
    stalled, #0 at tol 1e-13 and #2 at 1e-12, while the noise rule read the
    truncation estimate alone: at an edge of #0's gap 0 (lambda = 0.25099,
    896 steps) |chi_p| plateaued at 8.9e-16 against a noise of 9e-17 and
    |chi_p'| = 1.3e-3, so each step of 7e-13 missed the 1.25e-13 step stop
    and the noise stop missed too.  With the rounding floor both tables
    build at both tolerances and agree to 1e-10 relative."""
    v = random_kf3()[i]
    coarse, fine = (build_table(v, 8, tol=tol) for tol in (1e-12, 1e-13))
    for name in ("lam_minus", "lam_plus", "mu", "lam_dot"):
        a, b = getattr(coarse, name), getattr(fine, name)
        assert np.all(np.abs(a - b) <= 1e-10 * np.abs(b)), name
