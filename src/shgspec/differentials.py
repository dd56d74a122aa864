"""Assembly and Newton solution of the contour-integral normalization system.

For index n >= 0 the unknowns are the roots sigma_{1,k} (k != n) and
sigma_{2,k} of the candidate differential numerator

    psi_n(lambda) = -(1/pi_n) (1/f_{n,2}(inf)) f_{n,1}(lambda) f_{n,2}(lambda),

    f_{n,1} = prod_{k != n} (sigma_{1,k} - lambda)/pi_k,
    f_{n,2} = prod_k (sigma_{2,k} + 1/(16 lambda))/pi_k,

each the f1 resp. f2 of a NodeFamily (roots_products) over the roots, and
the equations demand vanishing contour integrals of psi_n/sqrt_c(chi_p)
over Gamma_{1,m} (m != n) and Gamma_{2,m} (all m):

    F_{1,m} = (n-m)        oint_{Gamma_{1,m}} psi_n/sqrt_c(chi_p) dlambda,
    F_{2,m} = 16 pi_m^2 pi_n oint_{Gamma_{2,m}} psi_n/sqrt_c(chi_p) dlambda.

A root at the tau of a closed gap (gamma = 0; beyond the table all are)
cancels the node of sqrt_c(chi_p), and its row vanishes: the unknowns are
the open gaps' roots but sigma_{1,n}, one row each, the rest stay at their
tau.  The Jacobian inserts 1/(sigma_{1,r}-lambda), resp.
1/(sigma_{2,r}+1/(16 lambda)) - 1/sigma_{2,r}, under the same integrals.
One psi sweep over the (rows, nodes) array of contour nodes gives the
residual as one row sum; the Jacobian contracts the same terms with the
(rows, nodes, unknowns) array of inserted factors in one batched product,
formed only at the iterates a Newton step starts from.  The solve is plain
Newton on the packed vector u of the unknowns; a converged root whose
lambda-plane image lies outside the contour of its own row is refused.

psi_n is a function of its state (n, sigma_1, sigma_2, C_n): the solve
calls it with its trial states and forms C_n = 1/f_{n,2}(inf), psi
evaluation and the normalization checks read a solution's, and only the
solve builds a SigmaWorkspace.  On a contour the nodes and sqrt_c(chi_p)
depend on the table, K and the contour alone, so the table's evaluator
(SpectrumTable.evaluator) computes them once per contour and keeps them for
the solves of every n and every normalization check.  psi_n, psi_{-n} and
sqrt_c(chi_p) carry the same zero-potential tails, which node_product leaves
out of both sides of every quotient psi/sqrt_c(chi_p) (tail = 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .potential import family_var, pi_k, to_pair
from .roots_products import NodeFamily

__all__ = [
    "SigmaSolution",
    "SigmaWorkspace",
    "solve_sigma",
    "eval_psi",
    "verify_normalization",
    "psi_negative",
    "verify_negative_normalization",
]

COND_LIMIT = 1e12
# the normalization checks' contours: the isolating circles, radii times this,
# so that they are not the contours the solve integrated over
CONTOUR_SCALE = 1.5


@dataclass(eq=False)
class SigmaSolution:
    """Converged root families of psi_n and solver diagnostics."""

    n: int
    K: int
    sigma1: np.ndarray  # (2K+1,); at k = n and in closed gaps the tau
    sigma2: np.ndarray  # (2K+1,)
    residual_norm: float
    newton_iters: int
    C_n: complex
    clamp_events: int = 0  # always 0, no iterate is clamped; the benchmark reads it

    def to_json(self, normalization_max_dev=None) -> str:
        return json.dumps(
            {
                "n": self.n,
                "K": self.K,
                "sigma1": [to_pair(z) for z in self.sigma1],
                "sigma2": [to_pair(z) for z in self.sigma2],
                "residual": self.residual_norm,
                "iters": self.newton_iters,
                "C_n": to_pair(self.C_n),
                "clamp_events": self.clamp_events,
                "normalization_max_dev": normalization_max_dev,
            }
        )


def _evaluator(table, K):
    """The table's evaluator of truncation K, which must cover its range."""
    if K < table.n_max:
        raise ValueError("truncation K must be >= the table range N_max")
    return table.evaluator(K)


def _psi(n, roots, C_n, z, tail=None):
    """psi_n(z) = -(C_n/pi_n) f_{n,1}(z) f_{n,2}(z) over the NodeFamily roots
    of its sigma; tail as in node_product (1 leaves out the zero-potential
    tails that sqrt_c(chi_p) shares)."""
    return (-C_n / pi_k(n)) * roots.f(z, skip=n, tail=tail)


def _solution_psi(sol, tail=None):
    """z -> psi_n(z) of the solution sol, its stored C_n included."""
    roots = NodeFamily(sol.sigma1, sol.sigma2, sol.K)
    return lambda z: _psi(sol.n, roots, sol.C_n, z, tail)


def _contour_terms(psi, ev, specs):
    """Nodes z and terms psi/sqrt_c(chi_p) dz on the contours specs (maybe
    none) as (contours, nodes) arrays.  psi is bare and called once, on all
    nodes; nodes, weights and bare sqrt_c(chi_p) are those ev keeps."""
    kept = [ev.on_contour(spec) for spec in specs]
    z, dz, chip = (np.array(a) for a in zip(*kept)) if kept else np.empty((3, 0, 0))
    return z, psi(z.ravel()).reshape(z.shape) / chip * dz


class SigmaWorkspace:
    """The unknowns of the solve for one n, the roots of the open gaps but
    sigma_{1,n}, its residual rows and the table's evaluator of truncation K."""

    def __init__(self, table, iso, n, K):
        if abs(n) > K:
            raise ValueError(f"index n = {n} lies beyond the truncation K = {K}")
        ev = self.evaluator = _evaluator(table, K)
        self.n, self.K = int(n), int(K)
        self.ks = ks = np.arange(-K, K + 1)
        self.taus = taus = ev.roots
        # the unknown roots of each family; row (j, m) belongs to root (j, m)
        self.open1, self.open2 = (taus.gamma1 != 0) & (ks != n), taus.gamma2 != 0
        self.m1 = np.count_nonzero(self.open1)  # u splits into sigma_1 and sigma_2 there
        m1, m2 = ks[self.open1], ks[self.open2]
        ms = [(1, m) for m in m1.tolist()] + [(2, m) for m in m2.tolist()]
        specs = iso.contours(1, m1) + iso.contours(2, m2)
        self.rows = [(j, m, spec) for (j, m), spec in zip(ms, specs)]
        self.pref = np.concatenate([self.n - m1, 16.0 * pi_k(m2) ** 2 * pi_k(self.n)])

    # -- state vector mapping ------------------------------------------------

    def pack(self, sigma1, sigma2):
        return np.concatenate([sigma1[self.open1], sigma2[self.open2]])

    def unpack(self, u):
        sigma1, sigma2 = self.taus.sigma1.astype(complex), self.taus.sigma2.astype(complex)
        sigma1[self.open1], sigma2[self.open2] = u[: self.m1], u[self.m1 :]
        return sigma1, sigma2

    def initial_state(self):
        return self.pack(self.taus.sigma1, self.taus.sigma2)

    def roots_at(self, u):
        """The roots at u as a NodeFamily, and there C_n = 1/f_{n,2}(inf),
        whose tail at 0 is the evaluator's."""
        roots = NodeFamily(*self.unpack(u), self.K)
        return roots, complex(1.0 / roots.f2_inf(tail=self.evaluator.tail_zero))

    # -- residual and Jacobian -------------------------------------------------

    def residual_and_jacobian(self, u):
        """The residual F at u, and a function that forms the Jacobian Q at u
        from the same g dz terms, for the iterates a Newton step starts from."""
        roots, C_n = self.roots_at(u)
        psi = lambda z: _psi(self.n, roots, C_n, z, 1.0)
        z, gdz = _contour_terms(psi, self.evaluator, [r[2] for r in self.rows])
        F = self.pref * np.sum(gdz, axis=1)

        def jacobian():
            s1, s2, zc = u[: self.m1], u[self.m1 :], z[..., None]
            B = np.concatenate([1.0 / (s1 - zc), 1.0 / (s2 + 1.0 / (16.0 * zc)) - 1.0 / s2], axis=2)
            return self.pref[:, None] * (gdz[:, None] @ B)[:, 0]

        return F, jacobian


def solve_sigma(table, iso, n, K, tol=1e-9, max_iter=12) -> SigmaSolution:
    """Newton solve of F^n = 0 on the packed state u from the tau initializer.

    Each iteration takes the full step u - Q^{-1} F and evaluates the
    residual there once; the Jacobian is formed only where a step starts.
    Without an open gap (v = 0) there is no unknown and no Newton step;
    otherwise convergence in a handful of iterations is the expected behavior
    for potentials in the solvable neighborhood.  A solve that does not reach
    tol in max_iter steps, meets an ill-conditioned Jacobian, or converges to
    a root whose lambda-plane image family_var(j, sigma_{j,m}) lies outside
    the contour Gamma_{j,m} of its row raises a RuntimeError.
    """
    ws = SigmaWorkspace(table, iso, n, K)
    u, iters = ws.initial_state(), 0
    F, jacobian = ws.residual_and_jacobian(u)
    while (rnorm := float(np.linalg.norm(F))) > tol:
        if iters >= max_iter:
            raise RuntimeError(
                f"Newton did not reach tol={tol:g} in {max_iter} iterations "
                f"(residual {rnorm:.3e}); outside solvable neighborhood"
            )
        Q = jacobian()
        cond = np.linalg.cond(Q)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise RuntimeError(
                f"Jacobian conditioning {cond:.3e} beyond limit; "
                "outside solvable neighborhood"
            )
        u = u - np.linalg.solve(Q, F)
        F, jacobian = ws.residual_and_jacobian(u)
        iters += 1
    lam = np.concatenate([u[: ws.m1], family_var(2, u[ws.m1 :])])
    for (j, m, spec), x in zip(ws.rows, lam):
        if not abs(x - spec.center) < spec.radius:
            raise RuntimeError(f"root sigma_({j},{m}) converged outside its contour Gamma_({j},{m}) "
                               f"(lambda = {x:.6g}); outside solvable neighborhood")
    roots, C_n = ws.roots_at(u)
    return SigmaSolution(n, K, roots.sigma1, roots.sigma2, rnorm, iters, C_n)


def eval_psi(sol: SigmaSolution, lam):
    """psi_n(lambda) of a converged solution, zero-potential tails included."""
    return _solution_psi(sol)(lam)


def _normalization(psi, ev, iso, K, nodes, one):
    """The matrix {(j,m): (1/2 pi) oint_{Gamma_{j,m}} psi/sqrt_c(chi_p)} over
    both contour families, |m| <= K, and its largest deviation from 1 at the
    entry one, from 0 elsewhere.  psi and sqrt_c(chi_p) are both bare, the
    latter the evaluator ev's values on each contour; psi is called once, on
    the nodes of all contours."""
    keys = [(j, m) for j in (1, 2) for m in range(-K, K + 1)]
    nodes = iso.nodes + 32 if nodes is None else nodes
    specs = [spec for j in (1, 2)
             for spec in iso.contours(j, np.arange(-K, K + 1), nodes, CONTOUR_SCALE)]
    vals = np.sum(_contour_terms(psi, ev, specs)[1], axis=1) / (2.0 * np.pi)
    mat = dict(zip(keys, vals.tolist()))
    dev = max(abs(val - float(key == one)) for key, val in mat.items())
    return mat, dev


def verify_normalization(sol: SigmaSolution, table, iso, nodes=None):
    """Normalization integrals on fresh contours (radii scaled by
    CONTOUR_SCALE) of nodes points each, iso.nodes + 32 by default.

    Returns the matrix {(j,m): (1/2 pi) oint psi_n/sqrt_c(chi_p)} and the
    maximum deviation from delta_{nm} (family 1) resp. 0 (family 2), also
    on the closed gaps' contours, whose rows the solve does not form.
    """
    psi, ev = _solution_psi(sol, tail=1.0), _evaluator(table, sol.K)
    return _normalization(psi, ev, iso, sol.K, nodes, (1, sol.n))


def _require_positive(sol):
    if sol.n < 1:
        raise ValueError("psi_{-n} is defined for n >= 1")


def psi_negative(sol_reflected: SigmaSolution, lam):
    """psi_{-n}(lambda, q, p) := psi_n(1/(16 lambda), -q, p) / (16 lambda^2).

    sol_reflected must be the solution for index n >= 1 at the reflected
    potential (-q, p).
    """
    _require_positive(sol_reflected)
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    return eval_psi(sol_reflected, 1.0 / (16.0 * lam)) / (16.0 * lam**2)


def verify_negative_normalization(sol_reflected, table_reflected, iso_reflected, table, iso,
                                  nodes=None):
    """Normalization of psi_{-n} over the contours of the base potential
    (nodes as in verify_normalization, from the base iso): zero over
    Gamma_{1,m}, delta_{-n,m} over Gamma_{2,m}.  Like psi_negative
    it raises a ValueError for n < 1.  It reads sqrt_c(chi_p) from the base
    table's evaluator, as verify_normalization does on the same contours;
    table_reflected and iso_reflected are not read."""
    _require_positive(sol_reflected)
    s, ev = sol_reflected, _evaluator(table, sol_reflected.K)
    # zero_tail is even: psi_n's tails at 1/(16 z) are sqrt_c(chi_p)'s at z
    psi_n = _solution_psi(s, tail=1.0)
    psi = lambda z: psi_n(1.0 / (16.0 * z)) / (16.0 * z**2)
    return _normalization(psi, ev, iso, s.K, nodes, (2, -s.n))
