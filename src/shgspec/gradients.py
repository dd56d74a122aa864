"""L2-gradient kernels of the Floquet data and eigenvalues, with FD oracles.

Every gradient is one GradientKernel, a quadrature kernel over the
recorded x-path of the fundamental solution: a multiplier acting on qdot, a
coefficient of P(pdot), and a boundary term multiplying qdot(0).  The
gradient of an eigenvalue takes the eigenvalue itself.  The pairing is the
real (non-conjugated) L2 pairing on [0,1].  Kernels built from M(x) are
generally not 1-periodic, so the pairings use Gauss-Legendre quadrature
(spectrally accurate for the smooth integrands at hand) rather than the
periodic trapezoidal rule.

Central finite differences of the same scalars at perturbed potentials are
the independent oracle for every kernel.  The suite and `shgspec gradients`
share one case builder and one evaluator, fd_evaluate, which builds each
v +- eps d once and reads every scalar on it once.  A direction whose pairing
and quotient both lie below FD_FLOOR is unresolved; a case without a
resolved direction fails unless its kernel itself vanishes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .monodromy import integrate, integrate_many, omega
from .potential import Potential, R2, Z2
from .spectrum import _newton_batch

__all__ = [
    "GradientKernel", "grad_monodromy", "grad_discriminant", "grad_antidiscriminant",
    "grad_dirichlet", "grad_periodic", "grad_periodic_via_delta", "grad_m4_at_dirichlet",
    "seeded_directions", "perturbed", "fd_directional", "FDCase", "fd_evaluate",
    "fd_rel_error", "zero_potential_delta_kernels", "grad_deltas_fd_report",
]

GL_NODES_DEFAULT = 192  # Gauss-Legendre nodes of every kernel


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [0, 1], once per n, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(eq=False)
class GradientKernel:
    """Sampled gradient kernel of one scalar: a q-multiplier, a P-coefficient
    and a boundary term, paired with a direction (qdot, pdot) as
    <q_kernel, qdot> + boundary_term qdot(0) + <p_kernel, P(pdot)>."""

    x: np.ndarray
    weights: np.ndarray
    q_kernel: np.ndarray
    p_kernel: np.ndarray
    boundary_term: complex = 0.0

    def pair(self, direction: Potential) -> complex:
        q_part = np.sum(self.weights * self.q_kernel * direction.q_at(self.x))
        q_part += self.boundary_term * direction.q0()
        return complex(q_part + np.sum(self.weights * self.p_kernel * direction.Pp_at(self.x)))

    def l2_norm(self) -> float:
        return np.sqrt(float(np.sum(self.weights * np.abs(self.q_kernel) ** 2))
                       + float(np.sum(self.weights * np.abs(self.p_kernel) ** 2)))


def _path_data(v, lam, tol):
    x, w = _gauss_legendre(GL_NODES_DEFAULT)
    res = integrate(v, lam, order=1, tol=tol, path_nodes=x)
    emq, eq = v.exp_q_at(x)
    return x, w, res, res.path, emq, eq


def _minv(path):
    """Inverse of M(x) from the Wronskian identity det M = 1."""
    inv = np.empty_like(path)
    inv[..., 0, 0], inv[..., 1, 1] = path[..., 1, 1], path[..., 0, 0]
    inv[..., 0, 1], inv[..., 1, 0] = -path[..., 0, 1], -path[..., 1, 0]
    return inv


def grad_monodromy(v, lam, tol=1e-11):
    """Gradient kernels of the four entries of the Floquet matrix,
    {(i, j): kernel}.  The d/dx qdot part is integrated by parts into the
    q-multiplier and the EV_0 boundary term, which is zero on the diagonal."""
    x, w, res, path, emq, eq = _path_data(v, lam, tol)
    Mg = res.Mgrave
    Minv = _minv(path)
    E = np.zeros_like(path)
    E[:, 0, 1], E[:, 1, 0] = eq, emq
    ZE = lam * np.broadcast_to(Z2, path.shape) + (1.0 / (16.0 * lam)) * E
    q_mat = -0.5 * (Mg @ (Minv @ ZE @ path))
    p_mat = -0.25j * np.einsum("ab,pbc,cd,pde->pae", Mg, Minv, R2, path)
    boundary = 0.5 * np.array([[0.0, Mg[0, 1]], [-Mg[1, 0], 0.0]], dtype=complex)
    return {(i, j): GradientKernel(x, w, q_mat[:, i, j], p_mat[:, i, j], complex(boundary[i, j]))
            for i in range(2) for j in range(2)}


def _half_trace_kernel(gm, combine):
    """The kernel of combine(M_11, M_22)/2 from the diagonal Floquet kernels
    gm of grad_monodromy."""
    k1, k4 = gm[0, 0], gm[1, 1]
    return GradientKernel(k1.x, k1.weights, 0.5 * combine(k1.q_kernel, k4.q_kernel),
                          0.5 * combine(k1.p_kernel, k4.p_kernel))


def grad_discriminant(v, lam, tol=1e-11):
    """The kernel of Delta = (m1 + m4)/2; vanishes at v=0."""
    return _half_trace_kernel(grad_monodromy(v, lam, tol=tol), np.add)


def grad_antidiscriminant(v, lam, tol=1e-11):
    """The kernel of the anti-discriminant delta = (m1 - m4)/2."""
    return _half_trace_kernel(grad_monodromy(v, lam, tol=tol), np.subtract)


def zero_potential_delta_kernels(lam, x):
    """Closed-form d_q delta and d_p delta at v=0 on the sample points x."""
    om = complex(omega(lam))
    qk = 0.5 * (lam + 1.0 / (16.0 * lam)) * (
        np.cos(om) * np.sin(2 * om * x) - np.sin(om) * np.cos(2 * om * x)
    )
    pk = (np.cos(om) / 4.0) * np.cos(2 * om * x) + (np.sin(om) / 4.0) * np.sin(
        2 * om * x
    )
    return qk, pk


def _grad_expr(f1, f2, lam, emq, eq):
    """The shared expression Grad{f}{lambda}: multiplier and P-coefficient."""
    qk = (lam / 2.0) * (f2**2 - f1**2) + (1.0 / (32.0 * lam)) * (
        f2**2 * eq - f1**2 * emq
    )
    pk = -0.5 * f1 * f2
    return qk, pk


SIMPLE_EV_FLOOR = 1e-8


def _require_simple(deriv, lam, kind):
    """Refuse an eigenvalue at which the lambda-derivative deriv vanishes."""
    if abs(deriv) < SIMPLE_EV_FLOOR * (1.0 + abs(lam)):
        raise ValueError(f"gradient undefined at multiple {kind} eigenvalue")


def grad_dirichlet(v, mu, tol=1e-11):
    """Kernel of the Dirichlet eigenvalue mu,
    d mu = (m1(mu)/chi_D'(mu)) Grad{M_2}{mu}."""
    x, w, res, path, emq, eq = _path_data(v, mu, tol)
    chiD_dot = res.Mgrave_dot[0, 1]
    _require_simple(chiD_dot, mu, "Dirichlet")
    pref = res.Mgrave[0, 0] / chiD_dot
    qk, pk = _grad_expr(path[:, 0, 1], path[:, 1, 1], mu, emq, eq)
    return GradientKernel(x, w, pref * qk, pref * pk)


def grad_periodic(v, lam, tol=1e-11):
    """Kernel of the simple periodic eigenvalue lam.

    The eigenfunction route: with m2 = chi_D(lam) != 0 the eigenfunction is
    m2 M_1 - delta M_2 and d lam = -(1/(2 Delta_dot m2)) Grad{...}; with
    m3 != 0 it is m3 M_2 + delta M_1 and d lam = (1/(2 Delta_dot m3)) Grad{...}.
    """
    x, w, res, path, emq, eq = _path_data(v, lam, tol)
    dd = res.Delta_dot
    _require_simple(dd, lam, "periodic")
    g2, g3 = res.Mgrave[0, 1], res.Mgrave[1, 0]
    delta = res.delta_anti
    M1, M2 = path[:, :, 0], path[:, :, 1]
    if abs(g2) >= abs(g3):
        if abs(g2) < SIMPLE_EV_FLOOR:
            raise ValueError("geometric multiplicity two: gradient undefined")
        f = g2 * M1 - delta * M2
        pref = -1.0 / (2.0 * dd * g2)
    else:
        f = g3 * M2 + delta * M1
        pref = 1.0 / (2.0 * dd * g3)
    qk, pk = _grad_expr(f[:, 0], f[:, 1], lam, emq, eq)
    return GradientKernel(x, w, pref * qk, pref * pk)


def grad_periodic_via_delta(v, lam, tol=1e-11):
    """Chain-rule route d lam = -d Delta / Delta_dot, as a cross-check."""
    k = grad_discriminant(v, lam, tol=tol)
    dd = integrate(v, lam, order=1, tol=tol).Delta_dot
    _require_simple(dd, lam, "periodic")
    return GradientKernel(k.x, k.weights, -k.q_kernel / dd, -k.p_kernel / dd)


def grad_m4_at_dirichlet(v, mu, tol=1e-11):
    """Kernel of m4(lambda) at the fixed Dirichlet eigenvalue lambda = mu:
    -m3 Grad{M_2} + (m4/4)(Grad{M_1+M_2} - Grad{M_1-M_2})."""
    x, w, res, path, emq, eq = _path_data(v, mu, tol)
    _require_simple(res.Mgrave_dot[0, 1], mu, "Dirichlet")
    g3, g4 = res.Mgrave[1, 0], res.Mgrave[1, 1]
    M1, M2 = path[:, :, 0], path[:, :, 1]
    q2, p2 = _grad_expr(M2[:, 0], M2[:, 1], mu, emq, eq)
    qs, ps = _grad_expr(M1[:, 0] + M2[:, 0], M1[:, 1] + M2[:, 1], mu, emq, eq)
    qd, pd = _grad_expr(M1[:, 0] - M2[:, 0], M1[:, 1] - M2[:, 1], mu, emq, eq)
    qk = -g3 * q2 + (g4 / 4.0) * (qs - qd)
    pk = -g3 * p2 + (g4 / 4.0) * (ps - pd)
    return GradientKernel(x, w, qk, pk)


# ---------------------------------------------------------------------------
# finite-difference oracles


def seeded_directions(seed=0, count=3):
    """Reproducible real directions of band limit 4 with unit H1 norm."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q, p = {}, {}
        for k in range(0, 5):
            q[k] = complex(rng.standard_normal(), rng.standard_normal() if k else 0.0)
            p[k] = complex(rng.standard_normal(), rng.standard_normal() if k else 0.0)
        d = Potential.from_modes(q, p, Kf=4)
        nrm = d.h1_norm()
        out.append(Potential(d.q_coeffs / nrm, d.p_coeffs / nrm, d.Kf, d.real))
    return out


def perturbed(v: Potential, direction: Potential, t: float) -> Potential:
    """The potential v + t*direction (band limits merged)."""
    Kf = max(v.Kf, direction.Kf)
    pad = lambda c, k0: np.pad(c, Kf - k0)
    return Potential(pad(v.q_coeffs, v.Kf) + t * pad(direction.q_coeffs, direction.Kf),
                     pad(v.p_coeffs, v.Kf) + t * pad(direction.p_coeffs, direction.Kf),
                     Kf, v.real and direction.real)


def fd_directional(scalar_fn, v, direction, eps):
    """Central difference of scalar_fn along the direction: the one-off form
    of fd_evaluate's quotients, with the same arithmetic."""
    plus, minus = (scalar_fn(perturbed(v, direction, t)) for t in (eps, -eps))
    return (plus - minus) / (2.0 * eps)


FD_FLOOR = 1e-8  # about the noise of a quotient at FD_EPS: 20 tol/(2 eps), tol 1e-13
FD_EPS, FD_EPS_ORDER = 1e-4, (0.1, 0.03)  # the judged step; the pair the order is read from
# The cases of run_suite's gradient checks and of `shgspec gradients`, as
# (quantity, n): Delta and delta at lambda = 1.7, "M" the Floquet entries at 2.3
SUITE_FD_CASES = (("Delta", ""), ("delta", ""), ("M", ""), ("mu", 1), ("lambda_plus", 1),
                  ("lambda_plus_via_delta", 1), ("m4", 1))
CLI_FD_CASES = (("Delta", ""), ("delta", ""), ("mu", 0), ("mu", 1), ("lambda_plus", 1))


def fd_rel_error(analytic, fd):
    """The gradient_fd error of one direction: relative where the pairing or
    its FD quotient exceeds FD_FLOOR, absolute where both do not (the
    direction is then unresolved)."""
    scale = max(abs(analytic), abs(fd))
    return abs(fd - analytic) / scale if scale > FD_FLOOR else abs(fd - analytic)


@dataclass
class FDCase:
    """One FD-checked scalar: its kernel at v, the probe (lam, what) that reads
    it on a perturbed potential, and, from fd_evaluate, its pairings and FD
    quotients {eps: [...]} per direction.  what is "chi_D" or "chi_p" for the
    eigenvalue Newton finds from the seed lam, else "Delta", "delta_anti" or
    an Mgrave entry (i, j) of the order-0 BatchResult at lam."""

    quantity: str
    n: int | str  # the eigenvalue index, "" for the scalars at a fixed lambda
    kernel: GradientKernel
    probe: tuple
    analytic: list | None = None
    fd: dict | None = None

    def error(self):
        """(gradient_fd error, unresolved directions) at FD_EPS.  An
        unresolved direction cannot be judged, and a larger eps does not help
        (its eps^2 error scales with the third derivative, not the pairing).
        Its absolute error counts, but a case with no resolved direction reads
        nan, which fails, unless its kernel's L2 norm is itself below the
        floor (d Delta at v = 0, which gradient_zero_delta checks)."""
        pairs = list(zip(self.analytic, self.fd[FD_EPS]))
        unresolved = sum(max(abs(a), abs(f)) <= FD_FLOOR for a, f in pairs)
        if unresolved == len(pairs) and self.kernel.l2_norm() > FD_FLOOR:
            return np.nan, unresolved
        return max(fd_rel_error(a, f) for a, f in pairs), unresolved

    def orders(self, eps_order=FD_EPS_ORDER, tol=1e-13):
        """The FD orders between the steps eps_order, where both errors clear
        the integrator noise amplified by the quotient (tol/(2 eps)); at that
        floor the quotient is flat in eps and an order means nothing."""
        out = []
        for i, a in enumerate(self.analytic):
            errs = [abs(self.fd[e][i] - a) for e in eps_order]
            floors = [20.0 * tol / (2.0 * e) * max(1.0, abs(a)) for e in eps_order]
            if errs[0] > floors[0] and errs[1] > floors[1]:
                out.append(np.log(errs[0] / errs[1]) / np.log(eps_order[0] / eps_order[1]))
        return out


def _probe_values(vv, probes, tol):
    """{probe: value} on one potential: one order-0 integrate_many over the
    distinct plain lambda, and one Newton batch per relocated kind."""
    vals = {}
    for kind in (None, "chi_D", "chi_p"):
        mine = [(lam, w) for lam, w in probes if (w if w in ("chi_D", "chi_p") else None) == kind]
        lams = list(dict.fromkeys(lam for lam, _ in mine))
        if kind and lams:
            roots = _newton_batch(vv, lams, kind, tol=tol)[0]
            vals.update(((s, kind), complex(r)) for s, r in zip(lams, roots))
        elif lams:
            res = integrate_many(vv, lams, order=0, tol=tol)
            for lam, w in mine:
                r = res.single(lams.index(lam))
                vals[lam, w] = complex(r.Mgrave[w] if isinstance(w, tuple) else getattr(r, w))
    return vals


def fd_evaluate(v, table, keys, dirs, eps_list, tol):
    """The FD cases named by keys, with kernels at tol, their pairings with
    dirs and their central quotients at each eps.  lambda_n^+ cases are left
    out where the table collapsed the gap (lambda_n^- = lambda_n^+).

    Each v +- eps d is built once, every distinct probe is read on it at
    once, and it is freed before the next is built.  A quotient is bit for
    bit fd_directional's with a scalar_fn that reads its probe alone.
    """
    cases = []
    gm_half = None  # the Floquet kernels at 1.7, shared by the Delta and delta cases
    for quantity, n in keys:
        if quantity in ("Delta", "delta"):
            gm_half = gm_half or grad_monodromy(v, 1.7, tol=tol)
            combine, what = ((np.add, "Delta") if quantity == "Delta"
                             else (np.subtract, "delta_anti"))
            cases.append(FDCase(quantity, n, _half_trace_kernel(gm_half, combine), (1.7, what)))
        elif quantity == "M":
            gm = grad_monodromy(v, 2.3, tol=tol)
            cases += [FDCase(f"M{i + 1}{j + 1}", n, k, (2.3, (i, j))) for (i, j), k in gm.items()]
        elif quantity in ("mu", "m4"):
            mu = complex(table.mu[n + table.n_max])
            kern, what = ((grad_dirichlet(v, mu, tol=tol), "chi_D") if quantity == "mu"
                          else (grad_m4_at_dirichlet(v, mu, tol=tol), (1, 1)))
            cases.append(FDCase(quantity, n, kern, (mu, what)))
        elif table.lam_minus[n + table.n_max] != table.lam_plus[n + table.n_max]:
            # lambda_plus and lambda_plus_via_delta, open gaps
            lam = complex(table.lam_plus[n + table.n_max])
            grad = grad_periodic if quantity == "lambda_plus" else grad_periodic_via_delta
            cases.append(FDCase(quantity, n, grad(v, lam, tol=tol), (lam, "chi_p")))
    probes = list(dict.fromkeys(c.probe for c in cases))
    for c in cases:
        c.analytic, c.fd = [c.kernel.pair(d) for d in dirs], {eps: [] for eps in eps_list}
    for d in dirs:
        for eps in eps_list:
            plus, minus = (_probe_values(perturbed(v, d, t), probes, tol) for t in (eps, -eps))
            for c in cases:
                c.fd[eps].append((plus[c.probe] - minus[c.probe]) / (2.0 * eps))
    return cases


def grad_deltas_fd_report(v, table, cfg):
    """FD verification of the SUITE_FD_CASES kernels at one potential, with
    cfg.seed seeded directions.

    Returns {"max_rel", "order_dev", "zero_delta_norm"}; of the
    "order_cases" (case, direction) pairs, "unresolved" are below FD_FLOOR
    (see FDCase.error) and "order_measured" had an FD order that cleared the
    noise floor.  order_dev is the largest |order - 2| over those: a kernel
    error shows as an order below 2, or above it where it cancels part of the
    eps^2 truncation error.  It is nan where no pair was measured, which
    fails the gradient_fd_order gate.
    """
    # FD quotients amplify integrator error by 1/(2 eps); run this block at
    # the tight spectral tolerance so the eps^2 truncation stays visible
    tol = cfg.spectral_tol
    dirs = seeded_directions(cfg.seed, 3)
    cases = fd_evaluate(v, table, SUITE_FD_CASES, dirs, (FD_EPS, *FD_EPS_ORDER), tol)
    errs, unresolved = zip(*(c.error() for c in cases))
    orders = [o for c in cases for o in c.orders(tol=tol)]
    # d Delta at the zero potential vanishes identically
    zd = 0.0
    for lam in (0.9, 1.7, 3.3):
        k0 = grad_discriminant(Potential.zero(), lam, tol=tol)
        zd = max(zd, k0.l2_norm(), *(abs(k0.pair(d)) for d in dirs))
    order_dev = max(abs(o - 2.0) for o in orders) if orders else np.nan
    return {"max_rel": float(np.max(errs)), "order_dev": float(order_dev),
            "zero_delta_norm": zd, "order_measured": len(orders),
            "order_cases": len(cases) * len(dirs), "unresolved": sum(unresolved)}
