"""Cross-module verification: every identity the toolkit relies on, as one
deterministic pass/fail report.

Each check produces a CheckReport with a scalar metric and its threshold,
read from config.THRESHOLDS alone: a RunConfig sets the sizes and tolerances
of the run, never a gate.  The only skips are the checks that need a
real-flagged potential; an exception raised while building a check's data
propagates, so a numerical failure is never reported as a skip.  The
negative control corrupts one root of a converged differential and asserts
the normalization check notices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spectrum as sp
from .config import THRESHOLDS, RunConfig
from .differentials import (
    solve_sigma,
    verify_negative_normalization,
    verify_normalization,
)
from .gradients import grad_deltas_fd_report
from .monodromy import closed_form_zero, integrate_many, lam_zero, omega
from .potential import Potential, family_var
from .quadrature import ContourSpec
from .roots_products import (
    NodeFamily,
    constraint_products,
    interpolate_reconstruct,
    sign_tables,
    verify_product_reps,
)

__all__ = [
    "CheckReport", "run_suite", "negative_control", "ZERO_SAMPLE_LAMBDAS",
    "check_zero_closed_forms", "check_monodromy_invariants", "interpolation_self_test",
]


@dataclass
class CheckReport:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    metric: float
    threshold: float
    trace: list | None = None
    reason: str = ""

    def line(self) -> str:
        extra = f"  ({self.reason})" if self.reason else ""
        return (
            f"[{self.status.upper():7s}] {self.check_id:28s} "
            f"metric={self.metric:.3e} thr={self.threshold:.3e}{extra}"
        )


# twenty sample points, on and off the real axis, inside the working annulus
ZERO_SAMPLE_LAMBDAS = np.array(
    [
        0.3,
        0.7,
        1.1,
        1.9,
        2.7,
        3.8,
        5.1,
        7.7,
        0.25,
        0.06,
        0.5 + 0.5j,
        1.3 + 0.2j,
        2.2 - 0.4j,
        0.8j,
        1.5j,
        3.0 + 1.0j,
        4.0 - 2.0j,
        0.1 + 0.05j,
        6.0 + 0.3j,
        9.9,
    ],
    dtype=complex,
)


def check_zero_closed_forms(cfg):
    """Integrator vs closed forms at v=0 on the 20-point sample."""
    v0 = Potential.zero()
    res = integrate_many(v0, ZERO_SAMPLE_LAMBDAS, order=1, tol=cfg.ode_tol)
    ref = closed_form_zero(ZERO_SAMPLE_LAMBDAS, order=1)
    rel = lambda a, b: np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0))
    return max(
        rel(res.Delta, ref.Delta), rel(res.chi_D, ref.chi_D), rel(res.Delta_dot, ref.Delta_dot)
    )


def check_monodromy_invariants(v, cfg):
    lams = np.array([0.6, 1.4, 2.9, 4.4 + 0.5j, 0.2 - 0.1j, 6.8])
    res = integrate_many(v, lams, order=0, tol=cfg.ode_tol)
    res_m = integrate_many(v, -lams, order=0, tol=cfg.ode_tol)
    wr = np.max(np.abs(np.linalg.det(res.Mgrave) - 1.0))
    # whole matrices, each side propagated on its own; S = diag(1, -1)
    S = np.diag([1.0, -1.0])
    even = np.max(np.abs(res_m.Mgrave - S @ res.Mgrave @ S))
    if v.real:
        rr = integrate_many(v, lams.conj(), order=0, tol=cfg.ode_tol)
        realsym = float(np.max(np.abs(rr.Mgrave - res.Mgrave.conj())))
    else:
        realsym = None
    return wr, even, realsym


def _build_workspace(v, cfg, n_max_build=None):
    full = sp.build_table(v, n_max_build or cfg.n_max, tol=cfg.spectral_tol)
    table = full.truncated(cfg.n_max) if full.n_max > cfg.n_max else full
    iso = sp.build_isolating(v, table, nodes=cfg.nodes)
    return table, iso, full


# the truncations of the product_reps K-trace; the n the sigma checks solve
PRODUCT_K_LIST = (8, 16, 24, 32)
DIFFERENTIALS_N_LIST = (0, 1, 2)


def run_suite(v: Potential, cfg: RunConfig | None = None):
    """All cross-module checks for one potential, one report per THRESHOLDS
    key in its order.

    A check given the metric None needs a real-flagged potential and is
    reported as skipped; an exception from any layer propagates, and so does
    a check reported twice, under no THRESHOLDS key, or not at all.
    """
    cfg = cfg or RunConfig()
    checks: dict[str, CheckReport] = {}

    def report(check_id, metric, trace=None, reason=""):
        thr = float(THRESHOLDS[check_id])
        if check_id in checks:
            raise RuntimeError(f"check {check_id} reported twice")
        if metric is None:
            checks[check_id] = CheckReport(check_id, "skipped", float("nan"), thr,
                                           reason="potential not real-flagged")
        else:
            status = "pass" if metric <= thr else "fail"
            checks[check_id] = CheckReport(check_id, status, float(metric), thr, trace, reason)

    report("monodromy_zero_closed_forms", check_zero_closed_forms(cfg))
    wr, even, realsym = check_monodromy_invariants(v, cfg)
    report("monodromy_wronskian", wr)
    report("monodromy_evenness", even)
    report("monodromy_real_symmetry", realsym)

    # zero-potential spectrum against the quadratic-formula oracle
    tab0 = sp.build_table(Potential.zero(), 8, tol=cfg.spectral_tol)
    errs = np.abs(np.array([tab0.lam_minus, tab0.lam_plus, tab0.mu]) - lam_zero(np.arange(-8, 9)))
    report("zero_spectrum", max(np.max(errs), abs(tab0.lam_dot_star - 0.25j)))

    cnt = sp.count_annulus(v, 4, tol=cfg.ode_tol)
    report("counting_annulus", cnt.miss, trace=cnt.trace)

    # spectral workspace: build once to the largest product truncation and
    # truncate for the differential solves
    table, iso, tab_full = _build_workspace(
        v, cfg, n_max_build=max(cfg.n_max, max(PRODUCT_K_LIST))
    )

    rep = sp.certify_counts(v, table, iso, range(-cfg.n_max, cfg.n_max + 1), cfg.ode_tol)
    report("counting_discs", rep.miss, trace=rep.trace)
    # the table's rows n = -N..N: data, gap midpoints and widths, open gaps
    ns = np.arange(-cfg.n_max, cfg.n_max + 1)
    lm, lp, mu, ld = table.lam_minus, table.lam_plus, table.mu, table.lam_dot
    taus, gams, opened = 0.5 * (lm + lp), lp - lm, lm != lp

    # reciprocity with the reflected potential: row n against its row -n
    vr = v.reflected()
    tabr = sp.build_table(vr, cfg.n_max, tol=cfg.spectral_tol)
    rows_r = np.array([tabr.lam_minus, tabr.lam_plus, tabr.mu, tabr.lam_dot])[:, ::-1]
    errs = np.abs(16.0 * np.array([lp, lm, mu, ld]) * rows_r - 1.0)
    star = abs(16.0 * table.lam_dot_star * (-tabr.lam_dot_star) - 1.0)
    report("reciprocity", max(np.max(errs), star))

    # reality, confinement to the open gaps, and strict gap separation
    # lambda_n^+ < lambda_{n+1}^-
    worst = None
    if v.real:
        inner = np.array([mu, ld]).real
        outside = np.r_[lm.real - inner, inner - lp.real]
        worst = max(np.max(np.abs(np.array([lm, lp, mu, ld]).imag)),
                    np.max(outside[:, opened], initial=0.0),
                    sp.delta_sign_check(v, table, tol=cfg.ode_tol),
                    np.max(lp.real[:-1] - lm.real[1:], initial=0.0))
    report("reality_confinement", worst)

    # product representations with K-convergence trace; the node table
    # reaches the largest truncation so higher K genuinely adds information
    reps = verify_product_reps(v, tab_full, PRODUCT_K_LIST, tol_ode=cfg.ode_tol)
    trace = [(Kp, max(rep.values())) for Kp, rep in zip(PRODUCT_K_LIST, reps)]
    report("product_reps", trace[-1][1], trace=trace)
    # strictly decreasing in K: a step counts that does not lower the residual
    # unless it ends at or below ode_tol, the accuracy of the integrate_many
    # values it is judged against, below which residuals cannot be ordered
    steps = [(a, b) for (_, a), (_, b) in zip(trace, trace[1:])]
    judged = sum(not (a <= cfg.ode_tol and b <= cfg.ode_tol) for a, b in steps)
    mono = sum(not (b < a or b <= cfg.ode_tol) for a, b in steps)
    report("product_reps_monotone", mono, trace=trace,
           reason=f"{judged} of {len(steps)} steps above the {cfg.ode_tol:.0e} floor")
    cons = constraint_products(tab_full, PRODUCT_K_LIST[-1])
    report("constraint_products", max(abs(val - 1.0) for val in cons.values()))

    # canonical-root conventions
    ev0 = tab0.evaluator(tab0.n_max)
    sample = np.array([0.7, 1.3 + 0.2j, 5.1], dtype=complex)
    ref = -1j * np.sin(omega(sample))
    report("canonical_zero", float(np.max(np.abs(ev0.chip(sample) - ref))))
    evv = table.evaluator(table.n_max)
    z = np.array([0.83 + 0.1j, 4.4 - 0.3j, 1.7 + 0.6j])
    w = evv.chip(z)
    sym = np.r_[w + evv.chip(-z), tabr.evaluator(tabr.n_max).chip(-1.0 / (16.0 * z)) - w]
    report("canonical_symmetries", np.max(np.abs(sym)))

    if v.real:
        st = sign_tables(v, table)
        report(
            "sign_tables",
            len(st["failures"]),
            reason=f"{st['checked']} checked, {st['skipped']} vacuous",
        )
    else:
        report("sign_tables", None)

    # gradient FD checks
    fd = grad_deltas_fd_report(v, table, cfg)
    report("gradient_fd", fd["max_rel"],
           reason=f"{fd['unresolved']} of {fd['order_cases']} unresolved")
    report(
        "gradient_fd_order",
        fd["order_dev"],
        reason=f"{fd['order_measured']} of {fd['order_cases']} measured",
    )
    report("gradient_zero_delta", fd["zero_delta_norm"])

    # differentials: every sigma root but sigma_{1,n} lies in its gap (lo, hi
    # in the lambda plane, both families) and within 5 gamma^2 (+1e-8) of the
    # gap midpoint, collapsed gaps included
    lo, hi = np.concatenate([table.family("gap2", j, cfg.n_max) for j in (1, 2)]).T
    roots = table.evaluator(table.n_max).roots
    tau2, gam2 = np.r_[roots.sigma1, roots.sigma2], np.r_[roots.gamma1, roots.gamma2]
    sols = [solve_sigma(table, iso, n, table.n_max, tol=cfg.newton_tol,
                        max_iter=cfg.newton_max_iter) for n in DIFFERENTIALS_N_LIST]
    s = np.array([np.r_[sol.sigma1, sol.sigma2] for sol in sols])  # (n, 2 (2N+1))
    m = 2 * cfg.n_max + 1
    keep = np.arange(2 * m) != np.array(DIFFERENTIALS_N_LIST)[:, None] + cfg.n_max
    dist = _segment_distance(np.c_[s[:, :m], family_var(2, s[:, m:])], lo, hi)
    excess = (np.abs(s - tau2) - 1e-8) / np.maximum(np.abs(gam2) ** 2, 1e-30)
    report("sigma_solve_residual", max(sol.residual_norm for sol in sols))
    report("sigma_newton_iters", max(sol.newton_iters for sol in sols))
    report("normalization", max(verify_normalization(sol, table, iso)[1] for sol in sols))
    report("gap_confinement", np.max(dist[keep], initial=0.0))
    report("sigma_tau_estimate", np.max(excess[keep], initial=0.0))
    # reflected differential psi_{-1}
    isor = sp.build_isolating(vr, tabr, nodes=cfg.nodes)
    solr = solve_sigma(
        tabr, isor, 1, tabr.n_max, tol=cfg.newton_tol, max_iter=cfg.newton_max_iter
    )
    _, devm = verify_negative_normalization(solr, tabr, isor, table, iso)
    report("normalization_negative", devm)

    # interpolation self-test on the zero-potential node family
    report("interpolation", interpolation_self_test(tab0, K=16, seed=cfg.seed))

    # trace formula against the table, on the discs of n = 0, 1, -1
    at = np.array([0, 1, -1]) + cfg.n_max
    circles = [ContourSpec(complex(c), 0.9 * float(r), cfg.nodes + 64)
               for c, r in zip(iso.centers[at], iso.radii[at])]
    tau, g2 = np.array(sp.trace_formula_tau(v, circles, tol=cfg.ode_tol)).T
    report("trace_formula", np.max(np.abs(np.r_[tau - taus[at], g2 - gams[at] ** 2])))

    # refined Delta_dot asymptotics (stated for n >= 0), over the open gaps:
    # |lamdot_n - tau_n| <= C gamma_n^2
    up = opened & (ns >= 0)
    report("lamdot_refined", np.max(np.abs(ld - taus)[up] / np.abs(gams[up]) ** 2, initial=0.0))

    # partial products of the Delta_dot constraint approach 1 monotonically
    # (noise floor: collapsed factors contribute only rounding jitter)
    vals = [abs(constraint_products(table, Kc)["delta_dot"] - 1.0) for Kc in range(2, cfg.n_max + 1, 2)]
    bad = sum(
        1 for a, b in zip(vals[:-1], vals[1:]) if b > a + 1e-13 + 0.01 * a
    )
    report("constraint_monotone", bad, trace=list(enumerate(vals)))

    return [checks[check_id] for check_id in THRESHOLDS]


def _segment_distance(z, a, b):
    """Distance of each z from its segment [a, b] of the complex plane."""
    ab = b - a
    t = np.clip(((z - a) / np.where(ab == 0, 1.0, ab)).real, 0.0, 1.0)
    return np.abs(z - (a + t * ab))


def interpolation_self_test(table, K=24, seed=0):
    """Reconstruction of phi = f1 (f2 - f2(inf)) from its node values.

    phi vanishes at every sigma_1 node, so only the kappa ring contributes;
    the residue sum is extended over the zero-potential tail nodes, and five
    random points are reconstructed in one call.
    """
    nodes = NodeFamily.from_table(table, K)
    f2_inf = nodes.f2_inf()

    def phi(z):
        return nodes.f1(z) * (nodes.f2(z) - f2_inf)

    rng = np.random.default_rng(seed)
    zs = rng.uniform(0.4, 2.5, 5) + 1j * rng.uniform(0.1, 0.8, 5)
    phi_s1 = np.zeros(2 * K + 1, dtype=complex)  # f1 vanishes at sigma1 nodes
    phi_k2 = -nodes.f1(nodes.kappa2) * f2_inf
    rec = interpolate_reconstruct(nodes, phi_s1, phi_k2, zs, phi_fn=phi)
    ref = phi(zs)
    return float(np.max(np.abs(rec - ref) / np.maximum(np.abs(ref), 1e-12)))


def negative_control(v, cfg: RunConfig | None = None):
    """Corrupt one sigma root past a gap endpoint; the normalization check
    must detect it.  Returns (clean_dev, corrupted_dev)."""
    cfg = cfg or RunConfig()
    table, iso, _ = _build_workspace(v, cfg)
    sol = solve_sigma(table, iso, 1, table.n_max, tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
    _, dev0 = verify_normalization(sol, table, iso)
    # push sigma_{1,k0} half a gap length beyond the + endpoint
    k0 = 1 if sol.n != 1 else 2
    lo, hi = (complex(a[k0 + table.n_max]) for a in (table.lam_minus, table.lam_plus))
    gam = hi - lo
    if gam == 0:
        gam = 0.05  # collapsed gap: push by an absolute offset instead
    bad = sol.sigma1.copy()
    bad[k0 + sol.K] = hi + 0.5 * abs(gam)
    sol_bad = replace(sol, sigma1=bad)
    _, dev1 = verify_normalization(sol_bad, table, iso)
    return dev0, dev1
