"""L2-gradient kernels of the Floquet data and eigenvalues, with FD oracles.

Every gradient is one GradientKernel, a quadrature kernel over the
recorded x-path of the fundamental solution: a multiplier acting on qdot, a
coefficient of P(pdot), and a boundary term multiplying qdot(0).  The
gradient of an eigenvalue takes the eigenvalue itself.  The pairing is the
real (non-conjugated) L2 pairing on [0,1].  Kernels built from M(x) are generally not 1-periodic, so the
pairings use Gauss-Legendre quadrature (spectrally accurate for the smooth
integrands at hand) rather than the periodic trapezoidal rule.

Central finite differences of the corresponding scalars, recomputed at
perturbed potentials, serve as the independent oracle for every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monodromy import integrate, omega
from .potential import Potential, R2, Z2
from .spectrum import _newton_batch

__all__ = [
    "GradientKernel",
    "grad_monodromy",
    "grad_discriminant",
    "grad_antidiscriminant",
    "grad_dirichlet",
    "grad_periodic",
    "grad_periodic_via_delta",
    "grad_m4_at_dirichlet",
    "seeded_directions",
    "perturbed",
    "fd_directional",
    "fd_rel_error",
    "zero_potential_delta_kernels",
]

GL_NODES_DEFAULT = 192


def _gauss_legendre(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
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
        return np.sqrt(
            float(np.sum(self.weights * np.abs(self.q_kernel) ** 2))
            + float(np.sum(self.weights * np.abs(self.p_kernel) ** 2))
        )


def _path_data(v, lam, tol, n_nodes):
    x, w = _gauss_legendre(n_nodes)
    res = integrate(v, lam, order=1, tol=tol, path_nodes=x)
    emq, eq = v.exp_q_at(x)
    return x, w, res, res.path, emq, eq


def _minv(path):
    """Inverse of M(x) from the Wronskian identity det M = 1."""
    inv = np.empty_like(path)
    inv[..., 0, 0] = path[..., 1, 1]
    inv[..., 0, 1] = -path[..., 0, 1]
    inv[..., 1, 0] = -path[..., 1, 0]
    inv[..., 1, 1] = path[..., 0, 0]
    return inv


def grad_monodromy(v, lam, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Gradient kernels of the four entries of the Floquet matrix,
    {(i, j): kernel}.  The d/dx qdot part is integrated by parts into the
    q-multiplier and the EV_0 boundary term, which is zero on the diagonal."""
    x, w, res, path, emq, eq = _path_data(v, lam, tol, n_nodes)
    Mg = res.Mgrave
    Minv = _minv(path)
    E = np.zeros_like(path)
    E[:, 0, 1] = eq
    E[:, 1, 0] = emq
    ZE = lam * np.broadcast_to(Z2, path.shape) + (1.0 / (16.0 * lam)) * E
    q_mat = -0.5 * (Mg @ (Minv @ ZE @ path))
    p_mat = -0.25j * np.einsum("ab,pbc,cd,pde->pae", Mg, Minv, R2, path)
    boundary = 0.5 * np.array([[0.0, Mg[0, 1]], [-Mg[1, 0], 0.0]], dtype=complex)
    return {
        (i, j): GradientKernel(x, w, q_mat[:, i, j], p_mat[:, i, j], complex(boundary[i, j]))
        for i in range(2)
        for j in range(2)
    }


def _half_trace_kernel(v, lam, combine, tol, n_nodes):
    """The kernel of combine(M_11, M_22)/2 from the diagonal Floquet kernels."""
    gm = grad_monodromy(v, lam, tol=tol, n_nodes=n_nodes)
    k1, k4 = gm[0, 0], gm[1, 1]
    return GradientKernel(
        k1.x,
        k1.weights,
        0.5 * combine(k1.q_kernel, k4.q_kernel),
        0.5 * combine(k1.p_kernel, k4.p_kernel),
    )


def grad_discriminant(v, lam, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """The kernel of Delta = (m1 + m4)/2; vanishes at v=0."""
    return _half_trace_kernel(v, lam, np.add, tol, n_nodes)


def grad_antidiscriminant(v, lam, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """The kernel of the anti-discriminant delta = (m1 - m4)/2."""
    return _half_trace_kernel(v, lam, np.subtract, tol, n_nodes)


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


def grad_dirichlet(v, mu, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Kernel of the Dirichlet eigenvalue mu,
    d mu = (m1(mu)/chi_D'(mu)) Grad{M_2}{mu}."""
    x, w, res, path, emq, eq = _path_data(v, mu, tol, n_nodes)
    chiD_dot = res.Mgrave_dot[0, 1]
    _require_simple(chiD_dot, mu, "Dirichlet")
    pref = res.Mgrave[0, 0] / chiD_dot
    qk, pk = _grad_expr(path[:, 0, 1], path[:, 1, 1], mu, emq, eq)
    return GradientKernel(x, w, pref * qk, pref * pk)


def grad_periodic(v, lam, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Kernel of the simple periodic eigenvalue lam.

    The eigenfunction route: with m2 = chi_D(lam) != 0 the eigenfunction is
    m2 M_1 - delta M_2 and d lam = -(1/(2 Delta_dot m2)) Grad{...}; with
    m3 != 0 it is m3 M_2 + delta M_1 and d lam = (1/(2 Delta_dot m3)) Grad{...}.
    """
    x, w, res, path, emq, eq = _path_data(v, lam, tol, n_nodes)
    dd = res.Delta_dot
    _require_simple(dd, lam, "periodic")
    g2, g3 = res.Mgrave[0, 1], res.Mgrave[1, 0]
    delta = res.delta_anti
    M1 = path[:, :, 0]
    M2 = path[:, :, 1]
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


def grad_periodic_via_delta(v, lam, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Chain-rule route d lam = -d Delta / Delta_dot, as a cross-check."""
    k = grad_discriminant(v, lam, tol=tol, n_nodes=n_nodes)
    dd = integrate(v, lam, order=1, tol=tol).Delta_dot
    _require_simple(dd, lam, "periodic")
    return GradientKernel(k.x, k.weights, -k.q_kernel / dd, -k.p_kernel / dd)


def grad_m4_at_dirichlet(v, mu, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Kernel of m4(lambda) at the fixed Dirichlet eigenvalue lambda = mu:
    -m3 Grad{M_2} + (m4/4)(Grad{M_1+M_2} - Grad{M_1-M_2})."""
    x, w, res, path, emq, eq = _path_data(v, mu, tol, n_nodes)
    _require_simple(res.Mgrave_dot[0, 1], mu, "Dirichlet")
    g3, g4 = res.Mgrave[1, 0], res.Mgrave[1, 1]
    M1 = path[:, :, 0]
    M2 = path[:, :, 1]
    q2, p2 = _grad_expr(M2[:, 0], M2[:, 1], mu, emq, eq)
    qs, ps = _grad_expr(M1[:, 0] + M2[:, 0], M1[:, 1] + M2[:, 1], mu, emq, eq)
    qd, pd = _grad_expr(M1[:, 0] - M2[:, 0], M1[:, 1] - M2[:, 1], mu, emq, eq)
    qk = -g3 * q2 + (g4 / 4.0) * (qs - qd)
    pk = -g3 * p2 + (g4 / 4.0) * (ps - pd)
    return GradientKernel(x, w, qk, pk)


# ---------------------------------------------------------------------------
# finite-difference oracles


def seeded_directions(seed=0, count=3, Kf=4, grid_size=64):
    """Reproducible band-limited real directions with unit H1 norm."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = {}
        p = {}
        for k in range(0, Kf + 1):
            q[k] = complex(rng.standard_normal(), rng.standard_normal() if k else 0.0)
            p[k] = complex(rng.standard_normal(), rng.standard_normal() if k else 0.0)
        d = Potential.from_modes(q, p, Kf=Kf, grid_size=grid_size)
        nrm = d.h1_norm()
        d = Potential(
            d.q_coeffs / nrm, d.p_coeffs / nrm, d.Kf, d.grid_size, d.real
        )
        out.append(d)
    return out


def perturbed(v: Potential, direction: Potential, t: float) -> Potential:
    """The potential v + t*direction (band limits merged)."""
    Kf = max(v.Kf, direction.Kf)

    def pad(c, k0):
        out = np.zeros(2 * Kf + 1, dtype=complex)
        out[Kf - k0 : Kf + k0 + 1] = c
        return out

    return Potential(
        pad(v.q_coeffs, v.Kf) + t * pad(direction.q_coeffs, direction.Kf),
        pad(v.p_coeffs, v.Kf) + t * pad(direction.p_coeffs, direction.Kf),
        Kf,
        max(v.grid_size, direction.grid_size, 4 * Kf),
        v.real and direction.real,
    )


def fd_directional(scalar_fn, v, direction, eps):
    """Central difference of scalar_fn along the direction."""
    return (scalar_fn(perturbed(v, direction, eps)) - scalar_fn(perturbed(v, direction, -eps))) / (
        2.0 * eps
    )


def fd_rel_error(analytic, fd):
    """The gradient_fd error of one direction: relative where the pairing or
    its FD quotient exceeds 1e-8, absolute (at the noise scale) where both
    vanish."""
    scale = max(abs(analytic), abs(fd))
    return abs(fd - analytic) / scale if scale > 1e-8 else abs(fd - analytic)


def _fd_case(
    scalar_fn,
    analytic,
    v,
    dirs,
    eps_rel=1e-4,
    eps_order=(0.1, 0.03),
    tol=1e-13,
):
    """(max fd_rel_error at eps_rel, the FD convergence orders measured)
    over directions.

    The convergence order is measured between the step sizes eps_order,
    large enough that the eps^2 truncation error dominates, and only counted
    when both errors clear the integrator noise amplified by the difference
    quotient (tol/(2 eps)); at the floor the quotient is flat in eps and an
    order reading would be meaningless.
    """
    max_rel, orders = 0.0, []
    for d in dirs:
        ana = analytic(d)
        max_rel = max(max_rel, fd_rel_error(ana, fd_directional(scalar_fn, v, d, eps_rel)))
        errs = [abs(fd_directional(scalar_fn, v, d, e) - ana) for e in eps_order]
        floors = [20.0 * tol / (2.0 * e) * max(1.0, abs(ana)) for e in eps_order]
        if errs[0] > floors[0] and errs[1] > floors[1]:
            orders.append(np.log(errs[0] / errs[1]) / np.log(eps_order[0] / eps_order[1]))
    return max_rel, orders


def grad_deltas_fd_report(v, table, cfg):
    """FD verification of all section-level gradient kernels at one potential.

    Returns {"max_rel", "order_dev", "zero_delta_norm"} over the
    discriminant/anti-discriminant, the Floquet entries, mu_1, lambda_1^+ by
    both routes, and m4 at mu_1, with cfg.seed seeded directions, and
    "order_measured" of "order_cases" (case, direction) pairs whose FD order
    cleared the noise floor.  order_dev is the largest |order - 2| over the
    measured pairs: a kernel error shows as an order below 2, or above it
    where it cancels part of the eps^2 truncation error.  It is nan where no
    pair was measured, which fails the gradient_fd_order gate.
    """
    # FD quotients amplify integrator error by 1/(2 eps); run this block at
    # the tight spectral tolerance so the eps^2 truncation stays visible
    tol = cfg.spectral_tol
    dirs = seeded_directions(cfg.seed, 3)

    def at(lam, get):
        return lambda vv: complex(get(integrate(vv, lam, order=0, tol=tol)))

    def relocated(lam, kind):  # the eigenvalue near lam, found again by Newton
        return lambda vv: complex(_newton_batch(vv, [lam], kind, tol=1e-13)[0])

    lam_a, lam_b, mu1 = 1.7, 2.3, table.mu_n(1)
    cases = [
        (grad_discriminant(v, lam_a, tol=tol), at(lam_a, lambda r: r.Delta)),
        (grad_antidiscriminant(v, lam_a, tol=tol), at(lam_a, lambda r: r.delta_anti)),
    ]
    gm = grad_monodromy(v, lam_b, tol=tol)
    cases += [(gm[ij], at(lam_b, lambda r, ij=ij: r.Mgrave[ij])) for ij in gm]
    cases.append((grad_dirichlet(v, mu1, tol=tol), relocated(mu1, "chi_D")))
    if abs(table.gamma(1)) > 1e-6:  # lambda_1^+ unless the gap is numerically closed
        lam1p = table.lam_pm(1)[1]
        cases += [
            (grad_periodic(v, lam1p, tol=tol), relocated(lam1p, "chi_p")),
            (grad_periodic_via_delta(v, lam1p, tol=tol), relocated(lam1p, "chi_p")),
        ]
    cases.append((grad_m4_at_dirichlet(v, mu1, tol=tol), at(mu1, lambda r: r.Mgrave[1, 1])))
    max_rel, orders = 0.0, []
    for kern, scalar_fn in cases:
        rel, case_orders = _fd_case(scalar_fn, kern.pair, v, dirs)
        max_rel = max(max_rel, rel)
        orders += case_orders
    # d Delta at the zero potential vanishes identically
    zd = 0.0
    for lam in (0.9, 1.7, 3.3):
        k0 = grad_discriminant(Potential.zero(), lam, tol=tol)
        zd = max(zd, k0.l2_norm(), *(abs(k0.pair(d)) for d in dirs))
    order_dev = max(abs(o - 2.0) for o in orders) if orders else np.nan
    return {"max_rel": max_rel, "order_dev": float(order_dev),
            "zero_delta_norm": zd, "order_measured": len(orders),
            "order_cases": len(cases) * len(dirs)}
