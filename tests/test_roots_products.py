import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.special import zeta
from conftest import disc, row, slot

from shgspec.monodromy import integrate_many, lam_zero, omega, tau_zero
from shgspec.config import seeded_ensemble
from shgspec.potential import Potential, family_var, pi_k
from shgspec.quadrature import contour_integral
from shgspec.roots_products import (
    CanonicalRootEvaluator,
    NodeFamily,
    constraint_products,
    f1n,
    interpolate_reconstruct,
    product_chi_D,
    product_chi_p,
    product_delta_dot,
    sign_tables,
    standard_root,
    verify_product_reps,
    node_product,
    zero_tail,
)
from shgspec.spectrum import build_table


def _tail_brute(z, K, KBIG=400_000):
    """Independent oracle for the tail product, with its own remainder model."""
    ks = np.arange(K + 1, KBIG)
    t = lam_zero(ks)
    val = np.prod((t * t - z * z) / (ks * np.pi) ** 2)
    return val * np.exp((0.125 - z * z) / np.pi**2 * zeta(2, KBIG))


@pytest.mark.parametrize("z", [0.7, 5.1, 1.3 + 0.2j, 0.0, -0.044 + 0.01j])
@pytest.mark.parametrize("K", [8, 16])
def test_zero_tail_against_brute_force(z, K):
    closed = zero_tail(np.array([z], complex), K)[0]
    brute = _tail_brute(complex(z), K)
    assert abs(closed - brute) / abs(brute) < 1e-8


@pytest.mark.parametrize("lam", [60.0, 300.0, 1000.0, 5000.0])
def test_canonical_root_far_out_zero_potential(v_zero, tab0, lam):
    """Far out in lambda the tail keeps sqrt_c(chi_p)^2 = chi_p: the remainder
    series of zero_tail converges only for |z| < (M+1) pi."""
    ev = CanonicalRootEvaluator(tab0, 16)
    lams = np.array([lam, lam + 0.5j])
    res = integrate_many(v_zero, lams, order=0, tol=1e-12)
    rel = np.abs(ev.chip(lams) ** 2 - res.chi_p) / np.abs(res.chi_p)
    assert np.max(rel) <= 1e-9


def test_zero_tail_is_even():
    """Every factor of the tail pairs k with -k, so zero_tail(-z) = zero_tail(z)
    up to rounding, from near 0 to beyond the truncation ring."""
    r = np.logspace(-3, np.log10(150.0), 41)
    for K in (8, 16):
        for z in (r + 0.37j, r * np.exp(0.3j), r * np.exp(1.1j), 1j * r):
            a, b = zero_tail(z, K), zero_tail(-z, K)
            assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-14


def _tail_mp(z, K):
    """zero_tail to 40 digits: sin z / z over the factors 1 - z^2/(k pi)^2 for
    k <= K, times the product over k > K of (t_k^2 - z^2)/((k pi)^2 - z^2)."""
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        t = lambda k: (k * mpmath.pi + mpmath.sqrt((k * mpmath.pi) ** 2 + 0.25)) / 2
        sine = mpmath.sin(z) / z / mpmath.fprod(
            1 - (z / (k * mpmath.pi)) ** 2 for k in range(1, K + 1)
        )
        rest = mpmath.nprod(
            lambda k: (t(k) ** 2 - z**2) / ((k * mpmath.pi) ** 2 - z**2), [K + 1, mpmath.inf]
        )
        return complex(sine * rest)


@pytest.mark.parametrize("k", [3, 10, 16, 22])
def test_zero_tail_near_a_lattice_point_against_mpmath(k):
    """At z = t_k ~ k pi + 1/(16 k pi), |k| <= K, the sine factor divides sin z
    by k pi - z; with the float k pi that costs its ulp (1.1e-11 relative at
    k = 22).  The default cutoff holds there too: the remainder series keeps
    the z-dependence of both terms of d_k (3.7e-13 at k = 16 with the second
    term's j = 0 alone)."""
    z = float(lam_zero(k))
    got = zero_tail(np.array([z], complex), 24)[0]
    want = _tail_mp(z, 24)
    assert abs(got - want) / abs(want) <= 2e-14


def test_node_product_against_a_loop_over_the_factors(tab16):
    """node_product holds its factors on the leading axis; with linear or
    standard-root factors, with or without a removed factor, for a scalar or
    an array x and with or without its tail, it equals the product of its
    factors taken one at a time."""
    from shgspec.roots_products import _sroot

    K = 16
    tau, gam = tab16.family("tau2", 1, K), tab16.family("gamma2", 1, K)
    piks = pi_k(np.arange(-K, K + 1))
    for x in (0.37 + 0.21j, np.array([0.37 + 0.21j, 2.9 - 0.4j, 11.3 + 0.05j, -6.2 + 1.0j])):
        xa = np.atleast_1d(x)
        for gammas in (None, gam):
            for skip in (None, 3, -5):
                want = np.ones(xa.size, complex)
                for i, k in enumerate(range(-K, K + 1)):
                    if k != skip:
                        w = tau[i] - xa if gammas is None else _sroot(tau[i], gammas[i], xa)
                        want *= w / piks[i]
                for tail, t in ((1.0, 1.0), (None, zero_tail(xa, K))):
                    got = node_product(tau, x, K, gammas, tail=tail, skip=skip)
                    assert got.shape == xa.shape
                    assert np.max(np.abs(got - want * t) / np.abs(want * t)) <= 4e-15


def test_products_give_a_point_alone_its_bits_in_a_batch(tab16):
    """zero_tail, node_product and chip at a point alone equal, bit for bit,
    their values at that point inside a batch whose points need different
    tail cutoffs: numpy reduces a single contiguous column of factors in
    another order than many, so a lone point is computed as a batch.  The
    batch is large enough (33 x 605 complex factors) for numpy to reuse
    temporaries in place, which rounds a product differently."""
    from shgspec.roots_products import _tail_cutoff

    rng = np.random.default_rng(11)
    far = rng.uniform(-3000, 3000, 4) + 1j * rng.uniform(-40, 40, 4)
    near = rng.uniform(-5, 5, 601) + 1j * rng.uniform(-2, 2, 601)
    z = np.concatenate([near, far])
    tau, gam = tab16.family("tau2", 1, 16), tab16.family("gamma2", 1, 16)
    ev = CanonicalRootEvaluator(tab16, 16)
    fns = [lambda x: zero_tail(x, 16), lambda x: zero_tail(x, 48),
           lambda x: node_product(tau, x, 16, gam, skip=3), ev.chip]
    for fn in fns:
        batch = fn(z)
        assert all(fn(z[i : i + 1])[0] == batch[i] for i in range(z.size))
        assert fn(z[0])[0] == batch[0]
    assert np.unique(_tail_cutoff(np.abs(z / np.pi) ** 2, 16)).size >= 3


def test_zero_tail_lattice_guard():
    with pytest.raises(ValueError, match="lattice"):
        zero_tail(np.array([20 * np.pi + 0j]), 8)


def test_standard_root_collapsed_gap(tab0):
    # gamma = 0: w_{1,n}(lambda) = tau_{1,n} - lambda exactly
    lam = np.array([0.9 + 0.4j, 2.0])
    for n in (0, 2, -1):
        w = standard_root(1, n, lam, tab0)
        assert np.max(np.abs(w - (slot(tab0, "tau2", 1, n) - lam))) == 0


def test_standard_root_antisymmetry(tab16):
    lam = np.array([0.6 + 0.3j, 2.4 - 0.1j, 7.7])
    for n in (1, 2, 5):
        a = standard_root(1, -n, lam, tab16)
        b = -standard_root(1, n, -lam, tab16)
        assert np.max(np.abs(a - b)) < 1e-12


def test_standard_root_squares(tab16):
    lam = np.array([0.8, 1.9 + 0.5j])
    for j, n in ((1, 1), (1, -2), (2, 0), (2, 3)):
        w = standard_root(j, n, lam, tab16)
        lo, hi = family_var(j, slot(tab16, "gap2", j, n))
        if j == 1:
            ref = (hi - lam) * (lo - lam)
        else:
            ref = (hi + 1.0 / (16 * lam)) * (lo + 1.0 / (16 * lam))
        assert np.max(np.abs(w * w - ref)) < 1e-12


def _w_scalar(table, n, z):
    from shgspec.roots_products import _sroot

    return _sroot(slot(table, "tau2", 1, n), slot(table, "gamma2", 1, n), np.asarray(z, complex))


def test_inverse_standard_root_integrals(tab16, iso16):
    # (1/2 pi i) oint_{Gamma_{1,m}} dlam / w_{1,n} = -delta_{mn}
    for m in (1, 3):
        for n in (1, 3):
            spec = iso16.contours(1, [m], nodes=96)[0]
            val = contour_integral(
                lambda z, n=n: 1.0 / _w_scalar(tab16, n, z), spec
            ) / (2j * np.pi)
            want = -1.0 if m == n else 0.0
            assert abs(val - want) < 1e-8


def test_canonical_root_zero_potential(tab0):
    ev = CanonicalRootEvaluator(tab0, 16)
    lams = np.array([0.7, 1.3 + 0.2j, 5.1], complex)
    ref = -1j * np.sin(omega(lams))
    assert np.max(np.abs(ev.chip(lams) - ref)) < 1e-7


def test_canonical_root_chi1_zero_closed_form(tab16):
    # sqrt_c(chi_1)(0) = sqrt+(lam_0^+ lam_0^-) prod lam_m^+ lam_m^-/(m pi)^2
    K = 16
    ev = CanonicalRootEvaluator(tab16, K)
    l0m, l0p = row(tab16, 0)[:2]
    val = np.sqrt(l0p * l0m)
    for m in range(1, K + 1):
        lm, lp = row(tab16, m)[:2]
        val *= lp * lm / (m * np.pi) ** 2
    val *= zero_tail(np.array([0.0 + 0j]), K)[0]
    assert abs(ev.chi1_zero - val) < 1e-12 * abs(val)
    chi2_inf = ev.roots.f2_inf()  # sqrt_c(chi_2) at lambda = inf
    assert abs(ev.chi1_zero - chi2_inf) < 1e-10 * abs(val)


def test_canonical_root_symmetries(tab16, reflected):
    _, tabr, _ = reflected
    ev = CanonicalRootEvaluator(tab16, 16)
    evr = CanonicalRootEvaluator(tabr, 16)
    for lam in (0.83 + 0.1j, 4.4 - 0.3j):
        z = np.array([lam])
        assert abs(ev.chip(z)[0] + ev.chip(-z)[0]) < 1e-8
        assert abs(evr.chip(-1.0 / (16.0 * z))[0] - ev.chip(z)[0]) < 1e-7


def test_canonical_root_gap_endpoint_guard(tab16):
    ev = CanonicalRootEvaluator(tab16, 16)
    lam_plus = row(tab16, 1).lam_plus
    with pytest.raises(ValueError, match="branch ambiguous"):
        ev.chip(np.array([lam_plus + 1e-12]))


def test_squared_consistency_zero(v_zero, tab0):
    ev = CanonicalRootEvaluator(tab0, 24)
    lams = np.array(
        [0.4, 0.7, 1.1, 1.9, 2.7, 3.8, 5.1, 6.3, 0.09, 0.5 + 0.5j,
         1.3 + 0.2j, 2.2 - 0.4j, 0.8j, 1.5j, 3 + 1j, 4 - 2j, 7.1, 0.13,
         5.9 + 0.2j, 2.9],
        dtype=complex,
    )
    ref = -np.sin(omega(lams)) ** 2
    assert np.max(np.abs(ev.chip(lams) ** 2 - ref) / np.maximum(np.abs(ref), 1e-12)) < 1e-7


def test_squared_consistency_small_v():
    """Product branch squared equals chi_p from the integrator; the spec's
    module-level tolerances are attainable for small amplitudes under the
    zero-potential tail model (see decisions ledger)."""
    lams = np.array([0.45, 0.8, 1.45, 2.1 + 0.3j, 2.9, 3.7 - 0.2j, 4.6,
                     5.4 + 0.4j, 6.9, 0.115, 1.85j, 0.6 + 0.6j, 7.8, 2.5,
                     5.0 - 0.5j, 3.3 + 0.1j, 0.95, 1.65, 6.1, 4.05],
                    dtype=complex)
    v = Potential.cosine(0.03)
    tab = build_table(v, 24, tol=1e-13)
    ev = CanonicalRootEvaluator(tab, 24)
    res = integrate_many(v, lams, order=0, tol=1e-12)
    rel = np.max(np.abs(ev.chip(lams) ** 2 - res.chi_p) / np.abs(res.chi_p))
    assert rel < 1e-5
    v2 = Potential.cosine(0.01)
    tab2 = build_table(v2, 32, tol=1e-13)
    ev2 = CanonicalRootEvaluator(tab2, 32)
    res2 = integrate_many(v2, lams, order=0, tol=1e-12)
    rel2 = np.max(np.abs(ev2.chip(lams) ** 2 - res2.chi_p) / np.abs(res2.chi_p))
    assert rel2 < 1e-6


def test_evaluators_deterministic(tab16):
    ev = CanonicalRootEvaluator(tab16, 16)
    lams = np.array([0.7 + 0.1j, 4.2])
    a = ev.chip(lams)
    b = ev.chip(lams.copy())
    assert np.array_equal(a, b)


def test_sign_tables_zero(v_zero, tab0):
    rep = sign_tables(v_zero, tab0)
    assert rep["failures"] == []
    assert rep["skipped"] > 0  # point gaps make interior checks vacuous


def test_sign_tables_small_v(v_seed, tab16):
    rep = sign_tables(v_seed, tab16)
    assert rep["failures"] == []
    assert rep["checked"] > 30


def test_sign_tables_report_a_swapped_pair_of_gaps(v_seed, tab16):
    """The v1 table with the rows of n = 1 and n = 2 swapped, a labeling
    error: each of the three parts of sign_tables reports it, between the
    bands, inside the gaps and for f_{1,n}."""
    rows = {}
    for name in ("lam_minus", "lam_plus", "mu", "lam_dot"):
        arr = np.array(getattr(tab16, name))
        arr[[17, 18]] = arr[[18, 17]]
        rows[name] = arr
    rep = sign_tables(v_seed, dataclasses.replace(tab16, **rows))
    assert {kind for kind, *_ in rep["failures"]} == {"interband", "gap-interior", "f1n"}
    assert rep["checked"] == sign_tables(v_seed, tab16)["checked"]


def test_gap_interior_sign_g11(v_seed, tab16):
    # on G_{1,1} from below the sign is (-1)^{1+1} = +
    ev = CanonicalRootEvaluator(tab16, 16)
    lo, hi = slot(tab16, "gap2", 1, 1)
    xs = np.linspace(lo.real + 0.3 * (hi - lo).real, hi.real - 0.3 * (hi - lo).real, 3)
    vals = ev.chip_from_below(xs, abs(hi - lo))
    assert np.all(vals.real > 0)


def test_f1n_positivity(v_seed, tab16):
    for n in (0, 1, -1):
        a = slot(tab16, "gap2", 1, n - 1)[1].real
        b = slot(tab16, "gap2", 1, n + 1)[0].real
        xs = np.linspace(a + 0.1 * (b - a), b - 0.1 * (b - a), 5)
        vals = f1n(tab16, n, xs.astype(complex), 16)
        assert np.all((-1.0) ** n * vals.real > 0)
        assert np.max(np.abs(vals.imag)) < 1e-10 * np.max(np.abs(vals.real))


def test_product_representation_zero(tab0, v_zero):
    lams = np.array([0.7, 1.9, 2.6 + 0.3j, 4.1], complex)
    prod = product_chi_p(tab0, 16, lams)
    ref = -np.sin(omega(lams)) ** 2
    assert np.max(np.abs(prod - ref) / np.maximum(np.abs(ref), 1e-10)) < 1e-6
    # each factor pairs to 1 exactly; the residue is table localization noise
    cons = constraint_products(tab0, 16)
    for val in cons.values():
        assert abs(val - 1.0) < 1e-10


def test_product_representations_converge(v_seed, tab32):
    """The residuals of all K come from one propagation, bit for bit those of
    each K alone."""
    reps = verify_product_reps(v_seed, tab32, (8, 16, 24, 32))
    assert reps[1:2] == verify_product_reps(v_seed, tab32, (16,))
    traces = {key: [rep[key] for rep in reps] for key in reps[0]}
    for key, tr in traces.items():
        assert tr[-1] < 1e-4
        assert all(b < a for a, b in zip(tr[:-1], tr[1:])), (key, tr)
    cons = constraint_products(tab32, 32)
    assert abs(cons["periodic"] - 1.0) < 1e-4
    assert abs(cons["dirichlet"] - 1.0) < 1e-4
    assert abs(cons["delta_dot"] - 1.0) < 1e-4


def _pair_products(table, K):
    """The constraint identities written out as products of the pairs
    16 lambda_n lambda_{-n}, 0 <= n <= K: the oracle for their node-family form."""
    l0m, l0p, mu0, ld0, *_ = row(table, 0)
    per = (16.0 * l0p * l0m) ** 2
    dir_ = np.exp(-table.q0) * 16.0 * mu0 ** 2
    ddot = -table.lam_dot_star**2 * (16.0 * ld0) ** 2
    for n in range(1, K + 1):
        (lpm, lpp, mup, ldp, *_), (lmm, lmp, mum, ldm, *_) = row(table, n), row(table, -n)
        per *= (lpp * 16.0 * lmp) ** 2 * (lpm * 16.0 * lmm) ** 2
        dir_ *= (mup * 16.0 * mum) ** 2
        ddot *= (ldp * 16.0 * ldm) ** 2
    return {"periodic": per, "dirichlet": dir_, "delta_dot": ddot}


@pytest.mark.parametrize("which", [0, 2])
def test_constraint_products_are_the_pair_products(which):
    """f1(0)/f2(inf) of the node families (the standard roots' squared) is the
    product of the 16 lambda_n lambda_{-n} pairs, on v1 and the complex v3."""
    table = build_table(seeded_ensemble()[which], 32, tol=1e-13)
    for K in (8, 16, 32):
        got, want = constraint_products(table, K), _pair_products(table, K)
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-14 * abs(want[key]), (K, key)


def test_ratio_asymptotics(v_seed, tab16, iso16):
    # w_{1,m}/sqrt_c(chi_p) * (-i sin omega)/(pi_m - omega) -> 1 inside U_{1,m}
    ev = CanonicalRootEvaluator(tab16, 16)
    rs = []
    for m in range(2, 15):
        c, r = disc(iso16, m)
        lam = np.array([c + 0.5j * r])
        w = _w_scalar(tab16, m, lam)
        val = (
            w
            / ev.chip(lam)
            * (-1j * np.sin(omega(lam)))
            / (pi_k(m) - omega(lam))
        )[0]
        rs.append(abs(val - 1.0))
    assert all(r < 0.1 for r in rs[6:])
    assert rs[-1] < rs[0]


def test_product_ratio_bound(v_seed, tab16, iso16):
    # sup over Gamma_{1,n} of |prod_{m != n} (sigma_m - lam)/w_{1,m} - 1| decays
    K = 16
    sup = {}
    for n in (4, 8, 12):
        z, _ = iso16.contours(1, [n], nodes=32)[0].points()
        num = np.ones_like(z)
        for m in range(-K, K + 1):
            if m == n:
                continue
            num *= (slot(tab16, "lam_dot2", 1, m) - z) / _w_scalar(tab16, m, z)
        sup[n] = np.max(np.abs(num - 1.0))
    assert sup[8] < sup[4] and sup[12] < sup[8]


# ---------------------------------------------------------------------------
# interpolation


def test_interpolation_zero_values(tab0):
    nodes = NodeFamily.from_table(tab0, 8)
    zeros = np.zeros(17, complex)
    assert interpolate_reconstruct(nodes, zeros, zeros, 1.1 + 0.5j) == 0


def test_interpolation_linearity(tab0):
    nodes = NodeFamily.from_table(tab0, 8)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    b = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    z = 0.9 + 0.7j
    zeros = np.zeros(17, complex)
    va = interpolate_reconstruct(nodes, zeros, a, z)
    vb = interpolate_reconstruct(nodes, zeros, b, z)
    vab = interpolate_reconstruct(nodes, zeros, a + 2 * b, z)
    assert abs(vab - (va + 2 * vb)) < 1e-12 * max(abs(vab), 1.0)


def test_interpolation_node_collision(tab0):
    nodes = NodeFamily.from_table(tab0, 4)
    s1 = nodes.sigma1.copy()
    s1[0] = nodes.sigma1[1]
    bad = NodeFamily(s1, nodes.sigma2, 4)
    zeros = np.zeros(9, complex)
    with pytest.raises(ValueError, match="collision"):
        interpolate_reconstruct(bad, zeros, zeros, 1.0 + 1.0j)


def test_interpolation_self_consistency(tab0):
    """phi = f1 (f2 - f2(inf)) reconstructed from kappa-node values."""
    from shgspec.verification import interpolation_self_test

    assert interpolation_self_test(tab0, K=24, seed=0) < 1e-5


def test_interpolation_vectorized_in_z(tab16):
    """An array of z gives the per-point values, with and without phi_fn."""
    nodes = NodeFamily.from_table(tab16, 8)
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 17)) + 1j * rng.standard_normal((2, 17))
    zs = np.array([0.9 + 0.7j, 2.1 + 0.3j, 0.05 + 0.02j, -1.3 + 0.4j])
    fn = lambda w: np.sin(w) + 0.1 * w
    for phi_fn in (None, fn):
        many = interpolate_reconstruct(nodes, a, b, zs, phi_fn=phi_fn)
        one = [interpolate_reconstruct(nodes, a, b, z, phi_fn=phi_fn) for z in zs]
        assert np.max(np.abs(many - one) / np.abs(one)) < 1e-14


def test_padded_family_is_the_same_function(tab16):
    nodes = NodeFamily.from_table(tab16, 8)
    wide = nodes.padded(24)
    assert wide.K == 24 and np.array_equal(wide.sigma1[16:33], nodes.sigma1)
    z = np.array([0.9 + 0.7j, 7.3 - 0.2j, 0.02 + 0.01j])
    for f in ("f1", "f2", "f"):
        want = getattr(nodes, f)(z)
        assert np.max(np.abs(getattr(wide, f)(z) - want) / np.abs(want)) < 1e-13
    assert abs(wide.f2_inf() / nodes.f2_inf() - 1) < 1e-13


def _w_removed(n):
    """prod over k != n of (t_k - t_n)/pi_k over the zero-potential nodes t_k,
    in closed form: with h(z) = prod_k (t_k - z)/pi_k
    = -sin(omega(z)) h(0)/h(-(16 z)^{-1}), it equals -pi_n h'(t_n); h is
    the node product at K = 0 with the node t_0."""
    tn = complex(tau_zero(n))
    h0, h2 = node_product(np.array([tau_zero(0)]), [0.0, -1.0 / (16.0 * tn)], 0)
    return pi_k(n) * (-1.0) ** n * (1.0 + 1.0 / (16.0 * tn**2)) * h0 / h2


def test_padded_tail_weights_match_removed_factor_products(tab16):
    """f' at the tail nodes of the padded family equals f' assembled from the
    closed-form removed-factor product of the zero-potential tail.  zero_tail
    at a node t_n ~ n pi divides sin(t_n) by n pi - t_n, formed with pi in two
    parts; with the float n pi the two routes differed by 1.1e-11 at |n| = 22,
    now by 4e-13."""
    K, W = 8, 24
    nodes = NodeFamily.from_table(tab16, K)
    wide = nodes.padded(W)
    at_sigma1, at_kappa2 = wide.fdot_at_nodes()
    taus = tau_zero(nodes.ks)
    worst = 0.0
    for n in [m for m in range(-W, W + 1) if abs(m) > K]:
        tn = complex(tau_zero(n))
        # the tail beyond K with the n-factor removed, at t_n
        w_red = _w_removed(n) / node_product(taus, tn, K, tail=1.0)[0]
        red1 = node_product(nodes.sigma1, tn, K, tail=w_red)[0]
        fdot_s = -red1 / pi_k(n) * nodes.f2(tn)[0]
        kap = -1.0 / (16.0 * tn)
        red2 = node_product(nodes.sigma2, tn, K, tail=w_red)[0]
        fdot_k = nodes.f1(kap)[0] * red2 * (-1.0 / (16.0 * kap**2)) / pi_k(n)
        worst = max(
            worst,
            abs(at_sigma1[n + W] / fdot_s - 1),
            abs(at_kappa2[n + W] / fdot_k - 1),
        )
    assert worst < 2e-12


def test_interpolation_self_test_weights_once(tab0, monkeypatch):
    """The self-test computes the node weights once, not once per point, and
    each family's weights with one tail and one f1 or f2 call: 24 zero_tail
    calls in all (with the per-point cutoffs of the far tail nodes)."""
    import shgspec.roots_products as rp
    from shgspec.verification import interpolation_self_test

    calls = []
    tail = rp.zero_tail
    monkeypatch.setattr(rp, "zero_tail", lambda *a, **k: calls.append(1) or tail(*a, **k))
    assert interpolation_self_test(tab0, K=16, seed=0) < 1e-5
    assert len(calls) <= 24


def test_node_product_skips_one_index_per_point(tab16):
    """A skip array, one index per point, gives bit for bit what one call per
    point with that index gives, for linear and standard-root factors; an
    index beyond K is refused, where a negative one would wrap around."""
    K = 16
    tau, gam = tab16.family("tau2", 1, K), tab16.family("gamma2", 1, K)
    x = np.array([0.37 + 0.21j, 2.9 - 0.4j, 11.3 + 0.05j, -6.2 + 1.0j, 0.05 + 0.01j])
    skips = np.array([3, -5, 0, 16, -16])
    for gammas in (None, gam):
        got = node_product(tau, x, K, gammas, skip=skips)
        want = [node_product(tau, xi, K, gammas, skip=int(s))[0] for xi, s in zip(x, skips)]
        assert np.array_equal(got, want)
    for bad in (-K - 1, K + 1, skips - 1):
        with pytest.raises(ValueError, match="beyond the truncation"):
            node_product(tau, x, K, skip=bad)


def _fdot_removed_matrix(fam):
    """f' at the nodes by a route of its own: per family one (2K+1)^2 matrix
    of factors with its diagonal set to 1, times the tail."""
    piks = pi_k(fam.ks)

    def removed(nodes, x):
        w = (nodes[:, None] - x) / piks[:, None]
        np.fill_diagonal(w, 1.0)
        return np.prod(w, axis=0) * zero_tail(x, fam.K)

    s1, k2 = fam.sigma1, fam.kappa2
    at_sigma1 = -removed(s1, s1) / piks * fam.f2(s1)
    dfactor = -1.0 / (16.0 * k2**2) / piks
    return at_sigma1, fam.f1(k2) * removed(fam.sigma2, -1.0 / (16.0 * k2)) * dfactor


@pytest.mark.parametrize("K", [8, 16])
def test_fdot_at_nodes_is_the_removed_factor_matrix(tab16, K):
    """fdot_at_nodes equals the removed-factor matrix form bit for bit, on the
    families padded with their tail nodes to 3K."""
    fam = NodeFamily.from_table(tab16, K).padded(3 * K)
    for got, want in zip(fam.fdot_at_nodes(), _fdot_removed_matrix(fam)):
        assert np.array_equal(got, want)


def test_a_narrow_open_gap_is_open_everywhere(v_seed, tab16):
    """A gap the table holds open (lambda^- != lambda^+) is open to every
    layer however narrow: v1's collapsed gap -16 opened to 7e-10 about its
    double root (the table's floor for an open gap there is about 4.9e-10)
    gets branch guards at its ends, sign checks in both of its slots, and
    both slots' roots as unknowns of the sigma solve."""
    import dataclasses

    from shgspec.differentials import SigmaWorkspace
    from shgspec.spectrum import build_isolating

    assert row(tab16, -16).gamma == 0
    lm, lp = tab16.lam_minus.copy(), tab16.lam_plus.copy()
    lm[0], lp[0] = lm[0] - 3.5e-10, lp[0] + 3.5e-10
    narrow = dataclasses.replace(tab16, lam_minus=lm, lam_plus=lp)
    ev = narrow.evaluator(16)
    for end in (lm[0], lp[0], -lm[0], -lp[0]):
        with pytest.raises(ValueError, match="branch ambiguous"):
            ev.chip(np.array([end + 5e-11]))
    base, rep = sign_tables(v_seed, tab16), sign_tables(v_seed, narrow)
    assert rep["failures"] == []
    assert (rep["checked"], rep["skipped"]) == (base["checked"] + 2, base["skipped"] - 2)
    ws = SigmaWorkspace(narrow, build_isolating(v_seed, narrow), 1, 16)
    assert {(2, -16), (2, 16)} <= {(j, m) for j, m, _ in ws.rows}
