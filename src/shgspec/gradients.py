"""L2-gradient kernels of the Floquet data and eigenvalues, with FD oracles.

Every gradient is represented as a quadrature kernel over the recorded
x-path of the fundamental solution: a multiplier part acting on qdot, a
coefficient of d/dx qdot, a coefficient of P(pdot), and a boundary term
multiplying qdot(0).  The pairing is the real (non-conjugated) L2 pairing
on [0,1].  Kernels built from M(x) are generally not 1-periodic, so the
pairings use Gauss-Legendre quadrature (spectrally accurate for the smooth
integrands at hand) rather than the periodic trapezoidal rule.

Central finite differences of the corresponding scalars, recomputed at
perturbed potentials, serve as the independent oracle for every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monodromy import integrate
from .potential import Potential, R2, Z2

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
    "zero_potential_delta_kernels",
]

GL_NODES_DEFAULT = 192


def _gauss_legendre(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class GradientKernel:
    """Sampled gradient kernel; pairs with a direction (qdot, pdot)."""

    x: np.ndarray
    weights: np.ndarray
    q_kernel: np.ndarray | None = None
    q_deriv_kernel: np.ndarray | None = None
    p_kernel: np.ndarray | None = None
    boundary_term: complex = 0.0

    def pair(self, direction: Potential) -> complex:
        total = 0.0 + 0.0j
        if self.q_kernel is not None:
            total += np.sum(self.weights * self.q_kernel * direction.q_at(self.x))
        if self.q_deriv_kernel is not None:
            total += np.sum(
                self.weights * self.q_deriv_kernel * direction.dq_at(self.x)
            )
        if self.p_kernel is not None:
            total += np.sum(self.weights * self.p_kernel * direction.Pp_at(self.x))
        if self.boundary_term != 0.0:
            total += self.boundary_term * direction.q0()
        return complex(total)

    def l2_norm(self) -> float:
        out = 0.0
        for k in (self.q_kernel, self.q_deriv_kernel, self.p_kernel):
            if k is not None:
                out += float(np.sum(self.weights * np.abs(k) ** 2))
        return np.sqrt(out)


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


def grad_monodromy(v, lam, form="deriv", tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Gradient kernels of the four entries of the Floquet matrix.

    form="deriv" uses the d/dx-coefficient representation; form="boundary"
    integrates by parts and carries the EV_0 boundary term with a pure
    multiplier kernel.  Both pair identically with any direction.
    Returns a dict {"q": 2x2 kernels, "p": 2x2 kernels}.
    """
    x, w, res, path, emq, eq = _path_data(v, lam, tol, n_nodes)
    Mg = res.Mgrave
    Minv = _minv(path)
    E = np.zeros_like(path)
    E[:, 0, 1] = eq
    E[:, 1, 0] = emq
    TR = np.einsum("ab,pbc,cd,pde->pae", Mg, Minv, R2, path)
    TE = Mg @ (Minv @ E @ path)

    p_mat = -0.25j * TR
    if form == "deriv":
        q_deriv_mat = -0.25j * TR
        q_mult_mat = -(1.0 / (16.0 * lam)) * TE
        boundary = np.zeros((2, 2), dtype=complex)
    elif form == "boundary":
        ZE = lam * np.broadcast_to(Z2, path.shape) + (1.0 / (16.0 * lam)) * E
        q_mult_mat = -0.5 * (Mg @ (Minv @ ZE @ path))
        q_deriv_mat = None
        boundary = 0.5 * np.array(
            [[0.0, Mg[0, 1]], [-Mg[1, 0], 0.0]], dtype=complex
        )
    else:
        raise ValueError("form must be 'deriv' or 'boundary'")

    out = {"q": {}, "p": {}}
    for i in range(2):
        for j in range(2):
            out["p"][(i, j)] = GradientKernel(x, w, p_kernel=p_mat[:, i, j])
            out["q"][(i, j)] = GradientKernel(
                x,
                w,
                q_kernel=q_mult_mat[:, i, j],
                q_deriv_kernel=None if q_deriv_mat is None else q_deriv_mat[:, i, j],
                boundary_term=complex(boundary[i, j]),
            )
    return out


def _half_trace_kernels(v, lam, combine, tol, n_nodes):
    """(d_q, d_p) of combine(M_11, M_22)/2 from the boundary-form Floquet
    kernels, whose diagonal boundary terms are zero."""
    gm = grad_monodromy(v, lam, form="boundary", tol=tol, n_nodes=n_nodes)
    (q1, q4), (p1, p4) = ((gm[f][0, 0], gm[f][1, 1]) for f in ("q", "p"))
    qk = 0.5 * combine(q1.q_kernel, q4.q_kernel)
    pk = 0.5 * combine(p1.p_kernel, p4.p_kernel)
    return (
        GradientKernel(q1.x, q1.weights, q_kernel=qk),
        GradientKernel(p1.x, p1.weights, p_kernel=pk),
    )


def grad_discriminant(v, lam, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """(d_q Delta, d_p Delta) as multiplier kernels; vanishes at v=0."""
    return _half_trace_kernels(v, lam, np.add, tol, n_nodes)


def grad_antidiscriminant(v, lam, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """(d_q delta, d_p delta) for the anti-discriminant (m1 - m4)/2."""
    return _half_trace_kernels(v, lam, np.subtract, tol, n_nodes)


def zero_potential_delta_kernels(lam, x):
    """Closed-form d_q delta and d_p delta at v=0 on the sample points x."""
    from .monodromy import omega

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


def grad_dirichlet(v, n, mu=None, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Gradient kernel of the n-th Dirichlet eigenvalue,
    d mu = (m1(mu)/chi_D'(mu)) Grad{M_2}{mu}."""
    from .spectrum import locate_dirichlet

    if mu is None:
        mu = locate_dirichlet(v, n, tol=max(tol, 1e-13))
    x, w, res, path, emq, eq = _path_data(v, mu, tol, n_nodes)
    chiD_dot = res.Mgrave_dot[0, 1]
    if abs(chiD_dot) < SIMPLE_EV_FLOOR * (1.0 + abs(mu)):
        raise ValueError("gradient undefined at multiple Dirichlet eigenvalue")
    pref = res.Mgrave[0, 0] / chiD_dot
    qk, pk = _grad_expr(path[:, 0, 1], path[:, 1, 1], mu, emq, eq)
    return GradientKernel(x, w, q_kernel=pref * qk, p_kernel=pref * pk), mu


def grad_periodic(v, n, which, lam=None, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Gradient kernel of a simple periodic eigenvalue lambda_n^+-.

    The eigenfunction route: with m2 = chi_D(lam) != 0 the eigenfunction is
    m2 M_1 - delta M_2 and d lam = -(1/(2 Delta_dot m2)) Grad{...}; with
    m3 != 0 it is m3 M_2 + delta M_1 and d lam = (1/(2 Delta_dot m3)) Grad{...}.
    """
    from .spectrum import locate_periodic

    if lam is None:
        pair = locate_periodic(v, n, tol=max(tol, 1e-13))
        lam = pair[0] if which in ("-", -1) else pair[1]
    x, w, res, path, emq, eq = _path_data(v, lam, tol, n_nodes)
    dd = res.Delta_dot
    if abs(dd) < SIMPLE_EV_FLOOR * (1.0 + abs(lam)):
        raise ValueError("gradient undefined at multiple periodic eigenvalue")
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
    return GradientKernel(x, w, q_kernel=pref * qk, p_kernel=pref * pk), lam


def grad_periodic_via_delta(v, n, which, lam=None, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Chain-rule route d lam = -d Delta / Delta_dot, as a cross-check."""
    from .spectrum import locate_periodic

    if lam is None:
        pair = locate_periodic(v, n, tol=max(tol, 1e-13))
        lam = pair[0] if which in ("-", -1) else pair[1]
    kq, kp = grad_discriminant(v, lam, tol=tol, n_nodes=n_nodes)
    dd = integrate(v, lam, order=1, tol=tol).Delta_dot
    if abs(dd) < SIMPLE_EV_FLOOR * (1.0 + abs(lam)):
        raise ValueError("gradient undefined at multiple periodic eigenvalue")
    return (
        GradientKernel(kq.x, kq.weights, q_kernel=-kq.q_kernel / dd),
        GradientKernel(kp.x, kp.weights, p_kernel=-kp.p_kernel / dd),
        lam,
    )


def grad_m4_at_dirichlet(v, n, mu=None, tol=1e-11, n_nodes=GL_NODES_DEFAULT):
    """Gradient of m4(lambda) at fixed lambda = mu_n:
    -m3 Grad{M_2} + (m4/4)(Grad{M_1+M_2} - Grad{M_1-M_2})."""
    from .spectrum import locate_dirichlet

    if mu is None:
        mu = locate_dirichlet(v, n, tol=max(tol, 1e-13))
    x, w, res, path, emq, eq = _path_data(v, mu, tol, n_nodes)
    if abs(res.Mgrave_dot[0, 1]) < SIMPLE_EV_FLOOR * (1.0 + abs(mu)):
        raise ValueError("gradient undefined at multiple Dirichlet eigenvalue")
    g3, g4 = res.Mgrave[1, 0], res.Mgrave[1, 1]
    M1 = path[:, :, 0]
    M2 = path[:, :, 1]
    q2, p2 = _grad_expr(M2[:, 0], M2[:, 1], mu, emq, eq)
    qs, ps = _grad_expr(M1[:, 0] + M2[:, 0], M1[:, 1] + M2[:, 1], mu, emq, eq)
    qd, pd = _grad_expr(M1[:, 0] - M2[:, 0], M1[:, 1] - M2[:, 1], mu, emq, eq)
    qk = -g3 * q2 + (g4 / 4.0) * (qs - qd)
    pk = -g3 * p2 + (g4 / 4.0) * (ps - pd)
    return GradientKernel(x, w, q_kernel=qk, p_kernel=pk), mu


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


def _fd_case(
    scalar_fn,
    analytic,
    v,
    dirs,
    eps_rel=1e-4,
    eps_order=(0.1, 0.03),
    tol=1e-13,
):
    """(max relative error at eps_rel, min observed order, directions whose
    order was measured) over directions; the order is inf when none was.

    The convergence order is measured between the step sizes eps_order,
    large enough that the eps^2 truncation error dominates, and only counted
    when both errors clear the integrator noise amplified by the difference
    quotient (tol/(2 eps)); at the floor the quotient is flat in eps and an
    order reading would be meaningless.
    """
    max_rel, min_order, measured = 0.0, np.inf, 0
    for d in dirs:
        ana = analytic(d)
        fd_small = fd_directional(scalar_fn, v, d, eps_rel)
        if max(abs(ana), abs(fd_small)) > 1e-8:
            max_rel = max(max_rel, abs(fd_small - ana) / max(abs(ana), abs(fd_small)))
        else:  # vanishing pairing: compare absolutely at the noise scale
            max_rel = max(max_rel, abs(fd_small - ana))
        errs = [abs(fd_directional(scalar_fn, v, d, e) - ana) for e in eps_order]
        floors = [20.0 * tol / (2.0 * e) * max(1.0, abs(ana)) for e in eps_order]
        if errs[0] > floors[0] and errs[1] > floors[1]:
            measured += 1
            min_order = min(
                min_order,
                np.log(errs[0] / errs[1]) / np.log(eps_order[0] / eps_order[1]),
            )
    return max_rel, min_order, measured


def grad_deltas_fd_report(v, table, cfg):
    """FD verification of all section-level gradient kernels at one potential.

    Returns {"max_rel", "min_order", "zero_delta_norm"} aggregated over the
    discriminant/anti-discriminant, the Floquet entries, mu_1, lambda_1^+ by
    both routes, and m4 at mu_1, with cfg.seed seeded directions, and
    "order_measured" of "order_cases" (case, direction) pairs whose FD order
    cleared the noise floor; min_order is nan where none did, which fails
    the gradient_fd_order gate.
    """
    from .spectrum import _newton_batch

    # FD quotients amplify integrator error by 1/(2 eps); run this block at
    # the tight spectral tolerance so the eps^2 truncation stays visible
    tol = cfg.spectral_tol
    dirs = seeded_directions(cfg.seed, 3)
    max_rel, min_order, measured, cases = 0.0, np.inf, 0, 0

    def fold(rel, order, n_measured):
        nonlocal max_rel, min_order, measured, cases
        max_rel = max(max_rel, rel)
        min_order = min(min_order, order)
        measured += n_measured
        cases += len(dirs)

    lam_a, lam_b = 1.7, 2.3
    kq, kp = grad_discriminant(v, lam_a, tol=tol)
    fold(
        *_fd_case(
            lambda vv: complex(integrate(vv, lam_a, order=0, tol=tol).Delta),
            lambda d: kq.pair(d) + kp.pair(d),
            v,
            dirs,
        )
    )
    kq, kp = grad_antidiscriminant(v, lam_a, tol=tol)
    fold(
        *_fd_case(
            lambda vv: complex(integrate(vv, lam_a, order=0, tol=tol).delta_anti),
            lambda d: kq.pair(d) + kp.pair(d),
            v,
            dirs,
        )
    )
    gm = grad_monodromy(v, lam_b, form="boundary", tol=tol)
    for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
        fold(
            *_fd_case(
                lambda vv, i=i, j=j: complex(
                    integrate(vv, lam_b, order=0, tol=tol).Mgrave[i, j]
                ),
                lambda d, i=i, j=j: gm["q"][(i, j)].pair(d) + gm["p"][(i, j)].pair(d),
                v,
                dirs,
            )
        )
    # Dirichlet eigenvalue mu_1
    mu1 = table.mu_n(1)
    kern, mu1 = grad_dirichlet(v, 1, mu=mu1, tol=tol)
    fold(
        *_fd_case(
            lambda vv: complex(_newton_batch(vv, [mu1], "chi_D", tol=1e-13)[0]),
            lambda d: kern.pair(d),
            v,
            dirs,
        )
    )
    # periodic eigenvalue lambda_1^+ (skip if the gap is numerically closed)
    if abs(table.gamma(1)) > 1e-6:
        lam1p = table.lam_pm(1)[1]
        kern, lam1p = grad_periodic(v, 1, "+", lam=lam1p, tol=tol)
        kq2, kp2, _ = grad_periodic_via_delta(v, 1, "+", lam=lam1p, tol=tol)
        fd_fn = lambda vv: complex(_newton_batch(vv, [lam1p], "chi_p", tol=1e-13)[0])
        fold(*_fd_case(fd_fn, lambda d: kern.pair(d), v, dirs))
        fold(*_fd_case(fd_fn, lambda d: kq2.pair(d) + kp2.pair(d), v, dirs))
    # m4 at fixed lambda = mu_1
    kern4, _ = grad_m4_at_dirichlet(v, 1, mu=mu1, tol=tol)
    fold(
        *_fd_case(
            lambda vv: complex(integrate(vv, mu1, order=0, tol=tol).Mgrave[1, 1]),
            lambda d: kern4.pair(d),
            v,
            dirs,
        )
    )
    # d Delta at the zero potential vanishes identically
    zd = 0.0
    for lam in (0.9, 1.7, 3.3):
        kq0, kp0 = grad_discriminant(Potential.zero(), lam, tol=tol)
        zd = max(zd, kq0.l2_norm(), kp0.l2_norm())
        zd = max(zd, max(abs(kq0.pair(d) + kp0.pair(d)) for d in dirs))
    return {"max_rel": max_rel, "min_order": float(min_order) if measured else np.nan,
            "zero_delta_norm": zd, "order_measured": measured, "order_cases": cases}
