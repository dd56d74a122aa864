import csv
import io

import numpy as np
import pytest
from conftest import row

from shgspec import gradients
from shgspec.cli import main
from shgspec.config import THRESHOLDS, RunConfig
from shgspec.gradients import (
    FD_EPS,
    FD_EPS_ORDER,
    FDCase,
    GradientKernel,
    fd_directional,
    fd_evaluate,
    fd_rel_error,
    grad_deltas_fd_report,
    grad_antidiscriminant,
    grad_dirichlet,
    grad_discriminant,
    grad_m4_at_dirichlet,
    grad_monodromy,
    grad_periodic,
    grad_periodic_via_delta,
    perturbed,
    seeded_directions,
    zero_potential_delta_kernels,
)
from shgspec.monodromy import integrate, lam_zero
from shgspec.potential import Potential
from shgspec.spectrum import _newton_batch, build_table

TOL = 1e-13
EPS = 1e-4


@pytest.fixture(scope="module")
def dirs():
    return seeded_directions(0, 3)


def _fd(scalar_fn, v, d, eps=EPS):
    return fd_directional(scalar_fn, v, d, eps)


def test_direction_normalization(dirs):
    for d in dirs:
        assert abs(d.h1_norm() - 1.0) < 1e-12
        assert d.real and d.Kf <= 4


def test_perturbed_merges_band_limits():
    v = Potential.cosine(0.1)  # Kf = 1
    d = seeded_directions(1, 1)[0]  # Kf = 4
    w = perturbed(v, d, 0.5)
    assert w.Kf == 4
    x = np.array([0.3, 0.8])
    assert np.max(np.abs(w.q_at(x) - v.q_at(x) - 0.5 * d.q_at(x))) < 1e-14


def test_every_gradient_is_one_kernel(v_seed, tab16):
    mu1, lam1p = row(tab16, 1).mu, row(tab16, 1).lam_plus
    kernels = [
        grad_discriminant(v_seed, 1.7),
        grad_antidiscriminant(v_seed, 1.7),
        grad_dirichlet(v_seed, mu1),
        grad_periodic(v_seed, lam1p),
        grad_periodic_via_delta(v_seed, lam1p),
        grad_m4_at_dirichlet(v_seed, mu1),
    ]
    gm = grad_monodromy(v_seed, 2.3)
    assert sorted(gm) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for k in kernels + list(gm.values()):
        assert isinstance(k, GradientKernel)
        assert k.q_kernel.shape == k.p_kernel.shape == k.x.shape


def test_grad_monodromy_fd(v_seed, dirs):
    lam = 2.3
    gm = grad_monodromy(v_seed, lam, tol=TOL)
    for (i, j), kern in gm.items():
        def entry(vv, i=i, j=j):
            return complex(integrate(vv, lam, order=0, tol=TOL).Mgrave[i, j])

        for d in dirs[:2]:
            fd = _fd(entry, v_seed, d)
            assert abs(kern.pair(d) - fd) / abs(fd) < 1e-6


def test_boundary_term_coefficient(v_seed):
    lam = 2.3
    gm = grad_monodromy(v_seed, lam, tol=TOL)
    res = integrate(v_seed, lam, order=0, tol=TOL)
    assert abs(gm[0, 1].boundary_term - 0.5 * res.Mgrave[0, 1]) < 1e-9
    assert abs(gm[1, 0].boundary_term + 0.5 * res.Mgrave[1, 0]) < 1e-9
    assert gm[0, 0].boundary_term == 0.0


def test_grad_discriminant_fd(v_seed, dirs):
    lam = 1.7
    kern = grad_discriminant(v_seed, lam, tol=TOL)

    def delta_at(vv):
        return complex(integrate(vv, lam, order=0, tol=TOL).Delta)

    for d in dirs:
        ana = kern.pair(d)
        # Delta's directional third derivative is tiny here; the eps^2 term
        # only dominates the integrator noise on a coarse decade
        errs = [abs(_fd(delta_at, v_seed, d, e) - ana) for e in (3e-2, 3e-3)]
        order = np.log10(errs[0] / errs[1])
        assert order > 1.9
        assert abs(_fd(delta_at, v_seed, d) - ana) / abs(ana) < 1e-5


def test_fd_order_gate_can_fail(v_seed, dirs):
    """The gradient_fd_order gate passes only when every measured FD order
    lies within THRESHOLDS["gradient_fd_order"] of 2.  The exact Delta kernel
    passes at the suite's step sizes FD_EPS_ORDER.  A pairing off by 1e-5
    either way reads an order below 1.9, since the FD error stops falling
    with eps; off by +1e-6 the kernel error cancels the truncation error at
    eps = 0.03 here and the reading rises to 2.8.  All three fail.  With both
    step sizes at the noise floor no order is measured."""
    thr = THRESHOLDS["gradient_fd_order"]

    def order_dev(orders):
        return max(abs(o - 2.0) for o in orders)

    [case] = fd_evaluate(v_seed, None, [("Delta", "")], dirs[:2], FD_EPS_ORDER, TOL)
    exact = case.analytic
    orders = case.orders()
    assert len(orders) == 2 and order_dev(orders) <= thr
    for off in (1e-5, -1e-5, 1e-6):
        case.analytic = [a * (1 + off) for a in exact]
        orders = case.orders()
        assert len(orders) == 2 and order_dev(orders) > thr
        if off != 1e-6:
            assert min(orders) < 1.9
    assert max(orders) > 2.1  # the +1e-6 case reads too high an order
    [case] = fd_evaluate(v_seed, None, [("Delta", "")], dirs[:1], (3e-5, 1e-5), TOL)
    assert case.orders(eps_order=(3e-5, 1e-5)) == []


def test_fd_relocation_uses_its_tol(v_seed, tab16, dirs, monkeypatch):
    """fd_evaluate relocates an eigenvalue on each perturbed potential with
    Newton at the tol it is given."""
    tols, newton = [], gradients._newton_batch
    monkeypatch.setattr(gradients, "_newton_batch",
                        lambda *args, tol: tols.append(tol) or newton(*args, tol=tol))
    fd_evaluate(v_seed, tab16, [("mu", 1)], dirs[:1], (FD_EPS,), 1e-12)
    assert tols == [1e-12, 1e-12]


def test_cli_rows_use_the_suite_error(tmp_path, capsys):
    """Each row of `shgspec gradients` carries the per-direction error that
    the suite folds into gradient_fd, of the pairing against the naive FD
    quotient.  At v = 0 the Delta pairing and its FD quotient both vanish
    (below 1e-8), while the delta ones do not; the Delta case is then
    unresolved in every direction, and passes only because its kernel
    vanishes too."""
    v0 = Potential.zero()
    path = tmp_path / "zero.json"
    path.write_text(v0.to_json())
    assert main(["gradients", str(path)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    cfg = RunConfig()
    dirs = seeded_directions(cfg.seed, 3)
    lam, tol = 1.7, cfg.spectral_tol
    for quantity, grad, attr in (("Delta", grad_discriminant, "Delta"),
                                 ("delta", grad_antidiscriminant, "delta_anti")):
        kern = grad(v0, lam, tol=tol)
        scalar_fn = lambda vv, attr=attr: complex(getattr(integrate(vv, lam, order=0, tol=tol), attr))
        mine = [r for r in rows if r["quantity"] == quantity]
        assert len(mine) == len(dirs)
        for row, d in zip(mine, dirs):
            small = max(abs(complex(row["analytic"])), abs(complex(row["fd"]))) < 1e-8
            assert small == (quantity == "Delta")
            rel = fd_rel_error(kern.pair(d), fd_directional(scalar_fn, v0, d, EPS))
            assert row["rel_error"] == f"{rel:.3e}"
    [case] = fd_evaluate(v0, None, [("Delta", "")], dirs, (FD_EPS,), tol)
    err, unresolved = case.error()
    assert unresolved == len(dirs) and case.kernel.l2_norm() < 1e-8
    assert f"{err:.3e}" == max((r["rel_error"] for r in rows if r["quantity"] == "Delta"),
                               key=float)


def test_unresolved_directions_cannot_pass(dirs):
    """A kernel 100% wrong on a 1e-9 pairing read an absolute error of 1e-9
    and passed gradient_fd.  Such a direction is now unresolved: a case with
    no resolved direction fails (nan), unless its kernel vanishes; one
    resolved direction judges the case, and the unresolved ones still count
    their absolute error."""
    thr = THRESHOLDS["gradient_fd"]
    kern = grad_antidiscriminant(Potential.zero(), 1.7, tol=TOL)  # L2 norm ~0.4
    assert fd_rel_error(2e-9, 1e-9) <= thr  # the old per-direction reading

    def case(k, analytic, fd):
        return FDCase("delta", "", k, (1.7, "delta_anti"), analytic, {FD_EPS: fd})

    err, unresolved = case(kern, [2e-9] * 3, [1e-9] * 3).error()
    assert np.isnan(err) and unresolved == 3 and not err <= thr
    err, unresolved = case(kern, [2e-9, 2e-9, 0.5], [1e-9, 1e-9, 0.5 + 1e-7]).error()
    assert unresolved == 2 and err == pytest.approx(2e-7) and err <= thr
    err, _ = case(kern, [2e-9, 2e-9, 0.5], [1e-9, 1e-9, 0.6]).error()
    assert err > thr
    zero_kern = grad_discriminant(Potential.zero(), 1.7, tol=TOL)
    err, unresolved = case(zero_kern, [2e-9] * 3, [1e-9] * 3).error()
    assert unresolved == 3 and err == pytest.approx(1e-9)


def test_fd_quotients_match_the_naive_oracle(v_seed, tmp_path, capsys):
    """Every row of `shgspec gradients` on v1 carries the quotient that
    fd_directional gives with that row's own scalar, bit for bit: the shared
    evaluator's batched integrations and Newton runs change no value."""
    path = tmp_path / "v1.json"
    path.write_text(v_seed.to_json())
    assert main(["gradients", str(path)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    cfg = RunConfig()
    v = Potential.from_json(path.read_text())
    tol = cfg.spectral_tol
    table = build_table(v, max(2, min(cfg.n_max, 4)), tol=tol)
    dirs = seeded_directions(cfg.seed, 3)

    def at(attr):
        return lambda vv: complex(getattr(integrate(vv, 1.7, order=0, tol=tol), attr))

    def relocated(lam, kind):
        return lambda vv: complex(_newton_batch(vv, [lam], kind, tol=1e-13)[0][0])

    scalar_fns = {
        ("Delta", ""): at("Delta"),
        ("delta", ""): at("delta_anti"),
        ("mu", "0"): relocated(row(table, 0).mu, "chi_D"),
        ("mu", "1"): relocated(row(table, 1).mu, "chi_D"),
        ("lambda_plus", "1"): relocated(row(table, 1).lam_plus, "chi_p"),
    }
    assert [(r["quantity"], r["n"], r["direction"]) for r in rows] == [
        (*key, str(i)) for key in scalar_fns for i in range(len(dirs))]
    for line in rows:
        fn = scalar_fns[line["quantity"], line["n"]]
        assert line["fd"] == str(fd_directional(fn, v, dirs[int(line["direction"])], EPS))


def _count_fd_work(monkeypatch):
    """Wrap the FD path's perturbed, integrate_many and _newton_batch; return
    the perturbed potentials built and the (potential, lambda, kind) reads."""
    built, reads = [], []

    def wrap(name, record):
        orig = getattr(gradients, name)

        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            record(args, out)
            return out

        monkeypatch.setattr(gradients, name, wrapper)

    wrap("perturbed", lambda args, out: built.append(out))
    wrap("integrate_many", lambda args, out: reads.extend(
        (id(args[0]), complex(lam), "plain") for lam in args[1]))
    wrap("_newton_batch", lambda args, out: reads.extend(
        (id(args[0]), complex(lam), args[2]) for lam in args[1]))
    return built, reads


def test_fd_work_count(v_seed, tab16, tmp_path, monkeypatch, capsys):
    """`shgspec gradients` on v1 builds each of its 3 x 2 perturbed
    potentials once, and the suite's report its 3 x 3 x 2; every
    (perturbed potential, lambda, kind) reaches integrate_many or
    _newton_batch once, and no other potential is read."""
    path = tmp_path / "v1.json"
    path.write_text(v_seed.to_json())
    for run, count in ((lambda: main(["gradients", str(path)]), 6),
                       (lambda: grad_deltas_fd_report(v_seed, tab16, RunConfig()), 18)):
        built, reads = _count_fd_work(monkeypatch)
        run()
        assert len(built) == count
        assert len(set(reads)) == len(reads)
        assert {r[0] for r in reads} == {id(vv) for vv in built}
        monkeypatch.undo()
    capsys.readouterr()


def test_grad_antidiscriminant_fd(v_seed, dirs):
    lam = 1.7
    kern = grad_antidiscriminant(v_seed, lam, tol=TOL)

    def anti_at(vv):
        return complex(integrate(vv, lam, order=0, tol=TOL).delta_anti)

    for d in dirs[:2]:
        ana = kern.pair(d)
        assert abs(_fd(anti_at, v_seed, d) - ana) / abs(ana) < 1e-5


def test_zero_potential_gradients():
    v0 = Potential.zero()
    lam = 1.9
    assert grad_discriminant(v0, lam, tol=TOL).l2_norm() < 1e-10
    ka = grad_antidiscriminant(v0, lam, tol=TOL)
    q_ref, p_ref = zero_potential_delta_kernels(lam, ka.x)
    assert np.max(np.abs(ka.q_kernel - q_ref)) < 1e-9
    assert np.max(np.abs(ka.p_kernel - p_ref)) < 1e-9


def test_kernel_pairing_linearity(v_seed, dirs):
    kern = grad_monodromy(v_seed, 1.7, tol=1e-11)[0, 1]  # with a boundary term
    d1, d2 = dirs[0], dirs[1]
    both = perturbed(d1, d2, 1.0)
    a = kern.pair(d1) + kern.pair(d2)
    b = kern.pair(both)
    assert abs(a - b) < 1e-13 * max(1.0, abs(b))


def test_grad_dirichlet_fd(v_seed, tab16, dirs):
    mu1 = row(tab16, 1).mu
    kern = grad_dirichlet(v_seed, mu1, tol=TOL)

    def mu_at(vv):
        return complex(_newton_batch(vv, [mu1], "chi_D", tol=TOL)[0][0])

    for d in dirs:
        ana = kern.pair(d)
        assert abs(_fd(mu_at, v_seed, d) - ana) / abs(ana) < 1e-6


def test_grad_periodic_fd_and_chain_rule(v_seed, tab16, dirs):
    """At lambda_1^+ |M_21| is the larger off-diagonal entry, at lambda_1^-
    |M_12|: the two ends of the gap take grad_periodic's two eigenfunction
    routes."""
    lam1 = row(tab16, 1)
    for lam, m12_larger in ((lam1.lam_plus, False), (lam1.lam_minus, True)):
        M = integrate(v_seed, lam, order=0, tol=TOL).Mgrave
        assert (abs(M[0, 1]) >= abs(M[1, 0])) == m12_larger
        kern = grad_periodic(v_seed, lam, tol=TOL)
        chain_kern = grad_periodic_via_delta(v_seed, lam, tol=TOL)

        def lam_at(vv, lam=lam):
            return complex(_newton_batch(vv, [lam], "chi_p", tol=TOL)[0][0])

        for d in dirs:
            ana = kern.pair(d)
            chain = chain_kern.pair(d)
            fd = _fd(lam_at, v_seed, d)
            assert abs(ana - fd) / abs(fd) < 1e-6
            assert abs(chain - fd) / abs(fd) < 1e-5


def test_grad_m4_fd(v_seed, tab16, dirs):
    for n in (0, 1):
        mu = row(tab16, n).mu
        kern = grad_m4_at_dirichlet(v_seed, mu, tol=TOL)

        def m4_at(vv, mu=mu):
            return complex(integrate(vv, mu, order=0, tol=TOL).Mgrave[1, 1])

        for d in dirs[:2]:
            ana = kern.pair(d)
            assert abs(_fd(m4_at, v_seed, d) - ana) / abs(ana) < 1e-5


def test_grad_zero_reduction_fd(dirs):
    # at v=0 the m4 formula built from E_omega matches direct FD
    v0 = Potential.zero()
    mu = lam_zero(1)  # the zero potential's Dirichlet eigenvalue mu_1
    kern = grad_m4_at_dirichlet(v0, mu, tol=TOL)

    def m4_at(vv):
        return complex(integrate(vv, mu, order=0, tol=TOL).Mgrave[1, 1])

    for d in dirs[:2]:
        ana = kern.pair(d)
        fd = _fd(m4_at, v0, d)
        assert abs(ana - fd) < 1e-5 * max(abs(fd), 1e-3)


def test_simplicity_guard():
    # all periodic eigenvalues at v=0 are double
    with pytest.raises(ValueError, match="multiple|multiplicity"):
        grad_periodic(Potential.zero(), lam_zero(1), tol=1e-12)


def test_dirichlet_gradient_asymptotic_shape(v_seed, tab16):
    """d_q mu_n ~ (n pi / 2) cos(2 n pi x) for large n."""
    ratios = []
    for n in (6, 8, 10):
        kern = grad_dirichlet(v_seed, row(tab16, n).mu, tol=1e-11)
        coeff = 2.0 * np.sum(
            kern.weights * kern.q_kernel * np.cos(2 * n * np.pi * kern.x)
        )
        ratios.append(abs(coeff / (n * np.pi / 2.0) - 1.0))
    assert all(r < 0.05 for r in ratios)
    assert ratios[-1] < ratios[0]


def test_gradient_decay_witness(v_seed, tab16):
    """|| d Delta (lambda_n^+) || decays; tail sums shrink.  A closed gap's
    term (1e-26 to 1e-30 on v1) can lie below one ulp of the tail it joins,
    so consecutive tail sums are compared strictly past an open gap and
    with a floor of 4 ulps of the tail past a closed one."""
    norms = []
    for n in range(1, 9):
        norms.append(grad_discriminant(v_seed, row(tab16, n).lam_plus, tol=1e-11).l2_norm() ** 2)
    tails = np.cumsum(norms[::-1])[::-1]
    open_gap = np.array([abs(row(tab16, n).gamma) > 1e-9 for n in range(1, 8)])
    floor = np.where(open_gap, 0.0, 4 * np.spacing(tails[:-1]))
    assert open_gap.any() and np.all(tails[1:] < tails[:-1] + floor)
    assert norms[-1] < 0.1 * norms[0]
