"""Localization and labeling of the spectral data.

Periodic eigenvalues lambda_n^+- are the roots of chi_p = Delta^2 - 1,
Dirichlet eigenvalues mu_n the roots of chi_D, and lambda_dot_n the roots of
d Delta/d lambda, all certified by argument-principle counts and refined by
Newton iteration on the exact monodromy functions.  The module also builds
the isolating neighborhoods (discs U_n, U_* and contours Gamma_{j,m}) on
which every contour integral downstream lives.  Every two-index reader (slot
(j, m) of family j = 1, 2: SpectrumTable.family and the contours of
IsolatingNeighborhoods) derives from one array map, _slots, and the
family variable potential.family_var.  Counting and trace-formula circles
propagate one node per mirror pair of their nodes (_on_contour).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .monodromy import KINDS, TOL_RANGE, integrate_many, lam_zero
from .potential import Potential, family_var, from_pair, to_pair
from .quadrature import ContourSpec, winding_number
from .roots_products import CanonicalRootEvaluator

__all__ = [
    "CountReport",
    "DiscFamily",
    "SpectrumTable",
    "IsolatingNeighborhoods",
    "order_le",
    "count_annulus",
    "build_table",
    "build_isolating",
    "certify_counts",
    "delta_sign_check",
    "trace_formula_tau",
]

ORDER_TIE_TOL = 1e-12
DOUBLE_ROOT_TOL = 1e-10
NEWTON_MAX_ITER = 40
NEWTON_NOISE = 2.0  # Newton takes |f| within this many times its noise as a root
ISOLATION = {"chi_p": 2, "chi_D": 1, "ddelta": 1}  # the roots in each U_n


def order_le(a, b):
    """The order on C+: compare moduli first (tied within ORDER_TIE_TOL), then
    Im; elementwise on arrays, a bool for two numbers."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    d = np.abs(a) - np.abs(b)
    le = (d < -ORDER_TIE_TOL) | ((d <= ORDER_TIE_TOL) & (a.imag <= b.imag))
    return bool(le) if le.ndim == 0 else le


# ---------------------------------------------------------------------------
# domains D_n, B_n, A_N


def _mobius_disc(center, radius):
    """Image of the disc |z - c| < r (0 outside) under z -> 1/(16 z);
    elementwise on arrays of centres and radii."""
    c = np.asarray(center, dtype=complex)
    r = np.asarray(radius, dtype=float)
    d = np.abs(c) ** 2 - r**2
    if np.any(d <= 0):
        raise ValueError("disc contains the origin; reciprocal image not a disc")
    return np.conj(c) / (16.0 * d), r / (16.0 * d)


class DiscFamily:
    """The reference discs D_n and balls B_n used for root counting."""

    @staticmethod
    def D(n):
        """D_0 around 1/4, D_n around n*pi (n>=1), D_{-n} = reciprocal image;
        elementwise on an array of n."""
        n = np.asarray(n)
        c = np.where(n == 0, 0.25 + 0j, np.abs(n) * np.pi + 0j)
        r = np.where(n == 0, 1.0 / (4.0 * np.pi), np.pi / 3.0)
        neg = n < 0
        c[neg], r[neg] = _mobius_disc(c[neg], r[neg])
        return c, r

    @staticmethod
    def B_radius(n):
        if n == 0:
            return np.pi / 2.0
        if n > 0:
            return n * np.pi + np.pi / 2.0
        return 1.0 / (16.0 * (abs(n) * np.pi + np.pi / 2.0))


# ---------------------------------------------------------------------------
# argument-principle counting


def _on_contour(v, specs, order, tol):
    """Monodromy data of the given order on every node of each contour in specs
    (one BatchResult each), from one integrate_many over one node per orbit of
    each circle's symmetries: M(-lam) = S M(lam) S, S = diag(1, -1), for every
    potential (jet j takes (-1)^j) and M(conj lam) = conj M(lam) for
    real-flagged ones.  On theta_k = 2 pi k / N they pair k with -k (centre on
    the real axis), k + N/2 (centre 0) and N/2 - k (centre on the imaginary
    axis); a centre off an axis by less than the nodes' rounding is on it."""
    plans = []
    for spec in specs:
        N, c, k = spec.nodes, complex(spec.center), np.arange(spec.nodes)
        axis = 1e-15 * (abs(c) + spec.radius)
        re, im, even = abs(c.imag) <= axis, abs(c.real) <= axis, N % 2 == 0
        maps = [((-k) % N, False, True, v.real and re),  # (node map, -lam, conj, holds)
                ((k + N // 2) % N, True, False, even and re and im),
                ((N // 2 - k) % N, True, True, even and v.real and im)]
        src, neg, cj = k.copy(), np.zeros(N, bool), np.zeros(N, bool)
        for node, n, conj, holds in maps:  # each map is an involution
            take = holds & (node < src)
            src[take], neg[take], cj[take] = node[take], n, conj
        plans.append((spec.points()[0], src, neg, cj, np.flatnonzero(src == k)))
    res = integrate_many(v, np.concatenate([z[r] for z, *_, r in plans]), order=order, tol=tol)
    sgn = (-1.0) ** np.arange(order + 1).reshape(-1, 1, 1, 1) * np.array([[1, -1], [-1, 1]])
    out, start = [], 0
    for z, src, neg, cj, reps in plans:
        part, start = res.single(start + np.searchsorted(reps, src)), start + reps.size
        J = np.where(cj[:, None, None], part.jets.conj(), part.jets)
        part.lams, part.jets = z, np.where(neg[:, None, None], sgn * J, J)
        out.append(part)
    return out


class CountReport(dict):
    """certify_counts' {n: {kind: count}, "star": count} or count_annulus'
    {kind: count}.  Its trace lists per contour (label, nodes, tol, quad, prop)
    from _count, labelled n or "star" for a disc and N or -N for the annulus
    circle of radius DiscFamily.B_radius(+-N); miss sums |count - expected|."""


def _count(v, contours, tol):
    """The CountReport {label: {kind: count}} of contours, a list of (label,
    ContourSpec, {kind: expected count}).  Each rung propagates the contours
    still unresolved in one order-2 _on_contour; the first takes each at its
    own nodes and tol TOL_RANGE[1], and each of at most three more doubles the
    nodes and divides tol by 100, never below tol.  A contour is resolved when
    winding_number vouches for each kind, given the kind's (f, f', noise)
    from BatchResult.scalar as they are; one that no rung resolves raises."""
    counts, rows, todo, rung_tol = {}, {}, contours, TOL_RANGE[1]
    for rung in range(4):
        left, specs = [], [spec for _, spec, _ in todo]
        for (label, spec, want), res in zip(todo, _on_contour(v, specs, 2, rung_tol)):
            try:
                got = {k: winding_number(spec, *res.scalar(k)) for k in want}
            except ValueError:
                if rung == 3:
                    raise
                left.append((label, ContourSpec(spec.center, spec.radius, 2 * spec.nodes), want))
                continue
            counts[label] = {k: c for k, (c, _, _) in got.items()}
            budget = np.max([b for *_, b in got.values()], axis=0).tolist()
            rows[label] = (label, spec.nodes, rung_tol, *budget)
        if not left:
            break
        todo, rung_tol = left, max(tol, rung_tol / 100.0)
    report = CountReport((label, counts[label]) for label, *_ in contours)
    report.trace = [rows[label] for label, *_ in contours]
    report.miss = sum(abs(counts[label][k] - n)
                      for label, _, want in contours for k, n in want.items())
    return report


def count_annulus(v: Potential, N: int, tol=1e-11) -> CountReport:
    """Root counts of chi_p, chi_D and Delta_dot in the annulus A_N.

    In the working neighborhood A_N holds 4+8N, 2+4N and 4+4N roots: its
    outer circle winds 4N+2, 2N+1 and 2N+1 times and its inner one -(4N+2),
    -(2N+1) and -(2N+3), as at the zero potential.  Each circle starts at
    max(128, 48N) nodes (_count) and, centred at 0, propagates half of them,
    about a quarter for real potentials.
    """
    winds = {N: (4 * N + 2, 2 * N + 1, 2 * N + 1), -N: (-4 * N - 2, -2 * N - 1, -2 * N - 3)}
    rep = _count(v, [(n, ContourSpec(0.0, DiscFamily.B_radius(n), max(128, 48 * N)),
                      dict(zip(KINDS, w))) for n, w in winds.items()], tol)
    report = CountReport({k: rep[N][k] - rep[-N][k] for k in KINDS})
    report.trace, report.miss = rep.trace, rep.miss
    return report


# ---------------------------------------------------------------------------
# Newton localization (batched over indices)


def _newton_batch(v, seeds, kind, tol=1e-12, first=None):
    """Batched Newton on a monodromy scalar; an element stops on a step below
    1e-13 (1 + |lambda|) or on |f| within NEWTON_NOISE times its noise
    (BatchResult.scalar), and one that does neither in NEWTON_MAX_ITER steps
    raises.  Returns the roots and a BatchResult of each element's last
    propagation, one step from its root; first, a BatchResult at the seeds,
    stands in for the first propagation."""
    lam = np.array(seeds, dtype=complex)
    active = np.ones(lam.size, dtype=bool)
    order = 2 if kind == "ddelta" else 1
    res, last = first, None
    for it in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        if it or res is None:
            res = integrate_many(v, lam[idx], order=order, tol=tol)
        last = res if last is None else _merged(last, idx, res)
        f, df, noise = res.scalar(kind)
        step = f / df
        cap = np.minimum(0.5, 0.2 * np.abs(lam[idx]) + 1e-4)
        big = np.abs(step) > cap
        if big.any():
            step[big] *= cap[big] / np.abs(step[big])
        lam[idx] = lam[idx] - step
        done = np.abs(step) <= 1e-13 * (1.0 + np.abs(lam[idx]))
        done |= np.abs(f) <= NEWTON_NOISE * noise
        active[idx[done]] = False
    if active.any():
        raise RuntimeError(
            f"Newton localization for {kind} did not converge at indices "
            f"{np.flatnonzero(active)}"
        )
    return lam, last


def _merged(res, idx, part):
    """The BatchResult res with its entries idx taken from part (a copy); a
    jet order that part lacks is dropped."""
    out = copy.copy(part)
    out.lams, out.jets, out.steps, out.err = (
        a.copy() for a in (res.lams, res.jets[: len(part.jets)], res.steps, res.err))
    out.lams[idx], out.jets[:, idx], out.steps[idx], out.err[idx] = (
        part.lams, part.jets, part.steps, part.err)
    return out


def _periodic_pair_from_ddot(v, lam_dots, res, tol=1e-13):
    """Quadratic model of chi_p at the Delta_dot roots, then Newton polish.

    chi_p'(lam_dot)=0, so chi_p ~ chi_p(ld) + chi_p''(ld)(lam-ld)^2/2 with
    chi_p'' = 2(Delta_dot^2 + Delta*Delta_ddot); the two roots sit at
    ld +- h, h = sqrt(-2 chi_p / chi_p'').  The model reads res, the Delta_dot
    Newton's last order-2 result, one sub-1e-13 step from each ld; centred on
    ld, h^2 moves by that step squared.  The squared half-width h^2 is
    measured down to the integrator noise; below the larger of the noise and
    DOUBLE_ROOT_TOL (1 + |ld|) / |omega'(ld)|^2 the pair is a double
    eigenvalue.  The noise is chi_p's as BatchResult.scalar states it,
    rounding floor included.  Newton polish on chi_p is only applied to
    well-open gaps, where the roots are comfortably simple; for barely-open
    gaps the quadratic model is already more accurate than Newton on a
    nearly double root can be.
    """
    lam_dots = np.asarray(lam_dots, dtype=complex)
    chi, _, noise = res.scalar("chi_p")
    chi_dd = 2.0 * (res.Delta_dot**2 + res.Delta * res.Delta_ddot)
    h2 = -2.0 * chi / chi_dd
    h = np.sqrt(h2 + 0j)
    scale = 1.0 + np.abs(lam_dots)
    # both decisions measure h on the local scale omega', which is about
    # 1/(16 lambda^2) near the reciprocal end
    freq = np.abs(1.0 + 1.0 / (16.0 * lam_dots**2))
    dbl = np.abs(h2) < np.maximum(DOUBLE_ROOT_TOL * scale / freq**2,
                                  25.0 * noise / np.abs(chi_dd))
    minus = np.where(dbl, lam_dots, lam_dots - h)
    plus = np.where(dbl, lam_dots, lam_dots + h)
    polish = (~dbl) & (np.abs(h) * freq > 1e-4 * scale)
    if polish.any():
        seeds = np.concatenate([minus[polish], plus[polish]])
        polished = _newton_batch(v, seeds, "chi_p", tol=tol)[0]
        k = polished.size // 2
        minus[polish] = polished[:k]
        plus[polish] = polished[k:]
    # enforce the C+ listing order
    swap = ~order_le(minus, plus)
    minus[swap], plus[swap] = plus[swap].copy(), minus[swap].copy()
    return minus, plus


# ---------------------------------------------------------------------------
# the spectrum table


def _slots(j, ms):
    """The single indices n and signs s of the two-index slots (j, m), m in
    the array ms.

    Family 1 is n = |m|, s = sgn m; family 2 is family 1 read through the
    involution lambda -> -1/(16 lambda): n = -|m|, s = -sgn m (sgn 0 = +1).
    In the lambda plane slot (j, m) holds s times the data of n, gap
    endpoints swapped when s = -1.
    """
    ms = np.asarray(ms)
    sgn = np.where(ms >= 0, 1, -1)
    if j == 1:
        return np.abs(ms), sgn
    if j == 2:
        return -np.abs(ms), -sgn
    raise ValueError("j must be 1 or 2")


@dataclass(eq=False)
class SpectrumTable:
    """Labeled spectral data for |n| <= n_max, with zero-potential surrogates
    beyond (used only as product tails)."""

    n_max: int
    lam_minus: np.ndarray  # index n+n_max
    lam_plus: np.ndarray
    mu: np.ndarray
    lam_dot: np.ndarray
    lam_dot_star: complex
    real_potential: bool = True
    q0: complex = 0.0  # q(0), enters the Dirichlet constraint product
    _evaluators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # read-only copies: the cached evaluators derive from these arrays
        for name in ("lam_minus", "lam_plus", "mu", "lam_dot"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            setattr(self, name, arr)

    def evaluator(self, K: int) -> CanonicalRootEvaluator:
        """The CanonicalRootEvaluator of truncation K, built on first request;
        it keeps the sqrt_c(chi_p) values of every contour it evaluated."""
        if K not in self._evaluators:
            self._evaluators[K] = CanonicalRootEvaluator(self, K)
        return self._evaluators[K]

    def family(self, quantity: str, j: int, K: int) -> np.ndarray:
        """The slots k = -K..K of two-index family j, read from the arrays at
        their single indices (_slots), with the zero-potential surrogates
        lam_zero(n) beyond n_max: "gap2" the gap's lambda-plane ends (lo, hi),
        one row per slot; "tau2" and "gamma2" the midpoint and width of
        lambda_{j,k}^-+, the family-j variables of lo and hi; "mu2" and
        "lam_dot2" the family-j variable of mu and of lambda_dot."""
        n, s = _slots(j, np.arange(-K, K + 1))
        i, pos = np.clip(n + self.n_max, 0, 2 * self.n_max), s > 0
        inside = np.abs(n) <= self.n_max
        lm, lp, mu, ld = (np.where(inside, a[i], lam_zero(n) + 0j)
                          for a in (self.lam_minus, self.lam_plus, self.mu, self.lam_dot))
        lo, hi = np.where(pos, lm, -lp), np.where(pos, lp, -lm)
        if quantity == "gap2":
            return np.stack([lo, hi], axis=1)
        if quantity in ("tau2", "gamma2"):
            plus, minus = family_var(j, hi), family_var(j, lo)
            return 0.5 * (plus + minus) if quantity == "tau2" else plus - minus
        x = {"mu2": mu, "lam_dot2": ld}[quantity]
        return family_var(j, np.where(pos, x, -x))

    def truncated(self, n_max: int) -> "SpectrumTable":
        """A view with a smaller tabulated range (surrogates beyond)."""
        if n_max > self.n_max:
            raise ValueError("cannot extend a table by truncation")
        sl = slice(self.n_max - n_max, self.n_max + n_max + 1)
        return SpectrumTable(
            n_max,
            self.lam_minus[sl],
            self.lam_plus[sl],
            self.mu[sl],
            self.lam_dot[sl],
            self.lam_dot_star,
            self.real_potential,
            self.q0,
        )

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        pairs = lambda arr: [to_pair(z) for z in arr]
        ns = range(-self.n_max, self.n_max + 1)
        return json.dumps(
            {
                "N_max": self.n_max,
                "real": bool(self.real_potential),
                "q0": to_pair(self.q0),
                "lambda": [{"n": n, "minus": to_pair(lm), "plus": to_pair(lp)}
                           for n, lm, lp in zip(ns, self.lam_minus, self.lam_plus)],
                "mu": pairs(self.mu),
                "lambda_dot": pairs(self.lam_dot),
                "lambda_dot_star": to_pair(self.lam_dot_star),
                "tau": pairs(0.5 * (self.lam_minus + self.lam_plus)),
                "gamma": pairs(self.lam_plus - self.lam_minus),
            }
        )

    @staticmethod
    def from_json(text: str) -> "SpectrumTable":
        """The table of to_json's text; a ValueError unless its rows cover
        each n in -N..N once, mu and lambda_dot hold 2N+1 entries each and
        every value is finite."""
        d = json.loads(text)
        N = int(d["N_max"])
        rows = sorted(d["lambda"], key=lambda row: row["n"])
        pairs = lambda zs: np.array([from_pair(z) for z in zs], dtype=complex)
        lam_minus, lam_plus = (pairs(row[k] for row in rows) for k in ("minus", "plus"))
        mu, ld = pairs(d["mu"]), pairs(d["lambda_dot"])
        star, q0 = from_pair(d["lambda_dot_star"]), from_pair(d.get("q0", [0.0, 0.0]))
        ns = [row["n"] for row in rows]
        if ns != list(range(-N, N + 1)) or {mu.size, ld.size} != {2 * N + 1}:
            raise ValueError(f"a table needs one row for each n in -{N}..{N} and {2 * N + 1} "
                             "mu and lambda_dot entries")
        if not np.all(np.isfinite(np.r_[lam_minus, lam_plus, mu, ld, star, q0])):
            raise ValueError("non-finite value in the spectrum table")
        return SpectrumTable(N, lam_minus, lam_plus, mu, ld, star, bool(d.get("real", True)), q0)


def build_table(v: Potential, n_max: int, tol=1e-12) -> SpectrumTable:
    """Localize all spectral data for |n| <= n_max and label it.

    One Newton batch finds the Delta_dot roots and lambda_dot_star (seed i/4);
    its last order-2 result feeds the quadratic model of the periodic pairs
    and the first step of the Dirichlet Newton, so no lambda is propagated
    twice.  All Newton runs are batched over the index range.
    """
    v.validate()
    ns = np.arange(-n_max, n_max + 1)
    roots, res = _newton_batch(v, np.append(lam_zero(ns), 0.25j), "ddelta", tol=tol)
    lam_dots, ld_star, res = roots[:-1], complex(roots[-1]), res.single(slice(-1))
    minus, plus = _periodic_pair_from_ddot(v, lam_dots, res, tol=tol)
    mus = _newton_batch(v, res.lams, "chi_D", tol=tol, first=res)[0]
    if ld_star.imag < 0:
        ld_star = -ld_star
    for arr in (minus, plus, mus, lam_dots):
        bad = ~((arr.real > 0) | ((np.abs(arr.real) < 1e-12) & (arr.imag > 0)))
        if bad.any():
            raise RuntimeError(
                f"eigenvalue left the right half-plane at n="
                f"{np.flatnonzero(bad) - n_max}; outside working neighborhood"
            )
    # distinct indices hold distinct roots (on v1-v3 6e-2 apart, relative)
    a = np.abs(lam_dots)
    sep = np.abs(lam_dots[:, None] - lam_dots) / np.maximum(a[:, None], a)
    sep[np.tril_indices(ns.size)] = np.inf
    i, k = np.unravel_index(np.argmin(sep), sep.shape)
    if sep[i, k] <= 1e-8:
        raise RuntimeError(
            f"the Delta_dot roots at n = {ns[i]} and n = {ns[k]} agree to "
            f"{sep[i, k]:.1e} relative; outside working neighborhood"
        )
    return SpectrumTable(
        n_max,
        minus,
        plus,
        mus,
        lam_dots,
        ld_star,
        v.real,
        v.q0(),
    )


def delta_sign_check(v: Potential, table: SpectrumTable, tol=1e-11):
    """max_n |Delta(lambda_n^+-) - (-1)^n| over the table (real potentials)."""
    ns = np.arange(-table.n_max, table.n_max + 1)
    # a closed gap lists lambda^- = lambda^+: each endpoint is propagated once
    lams, at = np.unique(np.r_[table.lam_minus, table.lam_plus], return_inverse=True)
    res = integrate_many(v, lams, order=0, tol=tol)
    signs = np.concatenate([(-1.0) ** ns, (-1.0) ** ns])
    return float(np.max(np.abs(res.Delta[at] - signs)))


# ---------------------------------------------------------------------------
# isolating neighborhoods


@dataclass(eq=False)
class IsolatingNeighborhoods:
    """Discs U_n (|n| <= n_max, the arrays centers and radii), the disc U_* and
    the contours Gamma_{j,m}, the one two-index reader of the sigma layer."""

    n_max: int
    centers: np.ndarray  # U_n centers, index n+n_max
    radii: np.ndarray
    star_center: complex
    star_radius: float
    c_const: float
    contour_centers: np.ndarray  # Gamma_m circle data, single-index
    contour_radii: np.ndarray
    nodes: int = 64

    def _at(self, ns):
        """Centres and radii of the discs U_n and of the contour circles Gamma_n
        of the single indices ns (an array), with the zero-potential surrogates
        beyond n_max: D_n, and the circle of radius pi/5 around lam_zero(n),
        each read through z -> 1/(16 z) for n < 0."""
        ns = np.asarray(ns)
        ours = (self.centers, self.radii, self.contour_centers, self.contour_radii)
        i = ns + self.n_max  # clipped, and overwritten with the surrogates beyond n_max
        out = [a.take(i, mode="clip") for a in ours]
        far = np.abs(ns) > self.n_max
        if far.any():
            n = ns[far]
            gc, gr = lam_zero(np.abs(n)) + 0j, np.full(n.shape, np.pi / 5.0)
            gc[n < 0], gr[n < 0] = _mobius_disc(gc[n < 0], gr[n < 0])
            for a, b in zip(out, (*DiscFamily.D(n), gc, gr)):
                a[far] = b
        return out

    def contours(self, j, ms, nodes=None, scale=1.0) -> list[ContourSpec]:
        """The contours Gamma_{j,m}, m in the array ms: Gamma_n of the single
        index, mirrored where s = -1, of radius times scale and nodes nodes
        (self.nodes by default)."""
        n, s = _slots(j, ms)
        c, r = self._at(n)[2:]
        return [ContourSpec(complex(z), float(x) * scale, nodes or self.nodes)
                for z, x in zip(np.where(s > 0, c, -c), r)]


def _disc_row(table, s):
    """The discs (centres, radii) of n = 0, s, 2s, ..., s N_max (s = +-1),
    built in the coordinate of their end: lambda for s = 1, 1/(16 lambda) for
    s = -1, where the clusters sit near |n| pi.  Each disc is centred on its
    cluster's hull, the real span of lambda_n^+-, mu_n and lambda_dot_n, with
    one-third neighbor clearance; the hulls of n = -s and s (N_max + 1), the
    latter a zero-potential surrogate, only serve as neighbors.
    """
    N = table.n_max
    xs = np.array([table.lam_minus, table.lam_plus, table.mu, table.lam_dot]).real
    ends = lam_zero(np.array([-N - 1, N + 1]))
    ns = s * np.arange(-1, N + 2)  # the row's hulls, neighbors included
    lo, hi = (np.r_[ends[0], f(xs, axis=0), ends[1]][ns + N + 1] for f in (np.min, np.max))
    if s < 0:
        lo, hi = 1.0 / (16.0 * hi), 1.0 / (16.0 * lo)
    left, right = lo[1:-1] - hi[:-2], lo[2:] - hi[1:-1]
    g = np.minimum(left, right)
    if np.any(g <= 0):
        i = int(np.argmax(g <= 0)) + 1  # the first hull to meet a neighbor, k
        k = i - 1 if left[i - 1] == g[i - 1] else i + 1
        gaps = np.abs(table.lam_plus - table.lam_minus)
        gam, wide = np.r_[0.0, gaps, 0.0][ns + N + 1], int(np.argmax(gaps))
        raise ValueError(
            f"cluster hulls of n = {ns[i]} and n = {ns[k]} overlap (|gamma| = "
            f"{gam[i]:.3g} and {gam[k]:.3g}; widest gap |gamma_{wide - N}| = "
            f"{gaps[wide]:.3g}); isolating neighborhoods not constructible"
        )
    return 0.5 * (lo + hi)[1:-1], 0.5 * (hi - lo)[1:-1] + g / 3.0


def build_isolating(
    v: Potential, table: SpectrumTable, nodes=64
) -> IsolatingNeighborhoods:
    """Construct discs U_n, U_* and contours Gamma_m satisfying (I-1)-(I-5).

    They depend on the table alone: v is not read, and stays only for the
    callers' (v, table) call shape.  The two ends follow one rule
    (_disc_row): discs for n >= 0 are built on the real axis, discs for
    n <= 0 in the reciprocal coordinate 1/(16 lambda) and mapped back, U_0
    taken from the n >= 0 row.  One pair test over both rows, the n <= 0 row
    led by the image of U_0, checks (I-2) and (I-3) and gives the
    separation constant c.  Contours are circles centered at the gap
    midpoints with radius r = min(max(2|gamma|, clearance/3), 0.62 clearance),
    inside U_n.  r > |gamma|/2 is enforced, so each contour encloses its gap
    and |gamma^2 / 4 (tau - lambda)^2| < 1 on it (<= 1/16 where the cap does
    not bind); a ValueError names the first n where it fails.
    """
    N = table.n_max
    (pc, pr), (rc, rr) = _disc_row(table, 1), _disc_row(table, -1)
    # the image of U_0 leads the n <= 0 row
    rc[0], rr[0] = (z.real for z in _mobius_disc(pc[0], pr[0]))
    mc, mr = _mobius_disc(rc[:0:-1], rr[:0:-1])
    centers, radii = np.r_[mc, pc], np.r_[mr, pr]  # n = -N..N

    # achieved separation constant c for (I-2), (I-3), (I-5)
    c_req = 1.0
    m, n = np.triu_indices(N + 1, 1)
    for s, (c, r) in ((1, (pc, pr)), (-1, (rc, rr))):
        d = np.abs(c[m] - c[n]) - r[m] - r[n]
        if np.any(d <= 0):
            i = np.argmax(d <= 0)
            raise ValueError(f"the discs of n = {s * m[i]} and n = {s * n[i]} overlap")
        c_req = np.max(np.r_[c_req, (n - m) / d, d / (n - m)])

    # U_*: disc on the positive imaginary axis around lambda_dot_star
    star = complex(table.lam_dot_star)
    dists = np.abs(star - centers)
    star_radius = min(0.5 * star.imag, 0.5 * np.min(dists - radii))
    if star_radius <= 0:
        raise ValueError("U_* not constructible; lambda_dot_star too close to U_n")
    d = dists - star_radius - radii
    if np.any(d <= 0):
        raise ValueError("U_* intersects a U_n")
    c_req = max(c_req, np.max(1.0 / d))

    # contours around the single-index gaps
    ccent = 0.5 * (table.lam_minus + table.lam_plus)
    gam = np.abs(table.lam_plus - table.lam_minus)
    clear = radii - np.abs(ccent - centers)
    crad = np.minimum(np.maximum(2.0 * gam, clear / 3.0), 0.62 * clear)
    if np.any(crad <= 0.5 * gam):
        i = np.argmax(crad <= 0.5 * gam)
        raise ValueError(f"the contour of n = {i - N} (radius {crad[i]:.3g}) misses its gap "
                         f"(|gamma| = {gam[i]:.3g}); contours not constructible")

    iso = IsolatingNeighborhoods(
        N,
        centers,
        radii,
        star,
        float(star_radius),
        float(c_req),
        ccent,
        crad,
        nodes,
    )
    _check_inclusion(table, iso)
    return iso


def _check_inclusion(table, iso):
    """(I-1): gap, mu_n and lambda_dot_n inside U_n; lambda_dot_star in U_*."""
    pts = np.array([table.lam_minus, table.lam_plus, table.mu, table.lam_dot])
    out = np.abs(pts - iso.centers) >= iso.radii
    if out.any():
        i = np.argmax(out.any(axis=0))
        raise ValueError(f"(I-1) violated at n={i - iso.n_max}: "
                         f"{complex(pts[out[:, i], i][0])} outside U_n")
    if abs(table.lam_dot_star - iso.star_center) >= iso.star_radius:
        raise ValueError("(I-1) violated: lambda_dot_star outside U_*")


def certify_counts(v, table, iso, n_range, tol=1e-11):
    """Argument-principle counts of the chi_p, chi_D and Delta_dot roots in
    each U_n, n in n_range ({n: {kind: count}}), and of the Delta_dot roots
    in U_* (key "star"), as measured, with their miss from ISOLATION and 1.
    Each disc is counted at 0.98 of its radius from 32 nodes on (_count, down
    to tol at most; iso.nodes plays no part): 17 of them propagated for a
    real potential (centres on an axis), all for a complex one."""
    ns = np.asarray(n_range, dtype=int)
    discs = [(n, (c, r), ISOLATION) for n, c, r in zip(ns.tolist(), *iso._at(ns)[:2])]
    discs.append(("star", (iso.star_center, iso.star_radius), {"ddelta": 1}))
    report = _count(v, [(n, ContourSpec(complex(c), float(r) * 0.98, 32), want)
                        for n, (c, r), want in discs], tol)
    report["star"] = report["star"]["ddelta"]
    return report


# ---------------------------------------------------------------------------
# trace formula


def trace_formula_tau(v: Potential, contours, tol=1e-11):
    """[(tau_n, gamma_n^2)] on each of contours, all propagated in one
    _on_contour, from the argument-principle moments

        (lambda_n^+)^k + (lambda_n^-)^k
            = (1/2 pi i) oint lambda^k 2 Delta Delta_dot/(Delta^2-1) dlambda.
    """
    out = []
    for contour, res in zip(contours, _on_contour(v, contours, 1, tol)):
        z, dz = contour.points()
        f, df, _ = res.scalar("chi_p")
        m1, m2 = (np.sum(w * (df / f) * dz) / (2j * np.pi) for w in (z, z * z))
        out.append((complex(m1 / 2.0), complex(2.0 * m2 - m1 * m1)))
    return out
