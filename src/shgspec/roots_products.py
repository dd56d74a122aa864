"""Standard roots, canonical square roots and infinite-product representations.

The standard root of the quadratic gap factor is

    w_{1,n}(lambda) = (tau_{1,n} - lambda) * sqrt+(1 - gamma_{1,n}^2 /
                      (4 (tau_{1,n} - lambda)^2)),

analytic off the gap segment G_{1,n}; w_{2,n} is the same expression in the
reciprocal variable mu = -1/(16 lambda) with the (2,n) nodes.

Every product here is one call of node_product: the truncated product over
|k| <= K of (node_k - x)/pi_k, or of standard roots w_k(x)/pi_k, optionally
with one factor removed, closed by the exact zero-potential tail

    prod_{|k|>K} (t_k - z)/pi_k
        = [-sin(z) / prod_{|k|<=K} (k pi - z)/pi_k] * R_K(z),

where t_k are the zero-potential gap midpoints (omega(t_k) = k pi) and the
correction R_K = prod_{k>K} (z^2-t_k^2)/(z^2-k^2 pi^2) is summed to machine
precision with Hurwitz-zeta tail estimates.  The first factor is the sine
product over the integer lattice; R_K accounts for t_k - k pi = O(1/k).
The caller passes the product's own variable x: lambda, mu = -1/(16 lambda),
or 0 for the reciprocal end.  NodeFamily pairs the two products of one node
family, f = f1 f2, and covers the canonical roots sqrt_c(chi_p) (standard-root
factors), f_{1,n}, the product forms of chi_p, chi_D and dDelta/dlambda and
their constraint identities, the node family of the interpolation and psi_n
in differentials.  A quotient of
two products over the same variable needs no tail: both carry the same one,
so it is left out of both (tail = 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .monodromy import lam_zero, tau_zero
from .potential import family_var, pi_k

__all__ = [
    "zero_tail",
    "node_product",
    "standard_root",
    "f1n",
    "NodeFamily",
    "CanonicalRootEvaluator",
    "sign_tables",
    "verify_product_reps",
    "constraint_products",
    "interpolate_reconstruct",
    "product_chi_p",
    "product_chi_D",
    "product_delta_dot",
]

_TAIL_M_EXTRA = 64
# bound on the remainder-series terms zero_tail leaves out, below the ~1e-12
# the tail is good to
_TAIL_TOL = 1e-13
_TAIL_M_MAX = 1 << 18  # |z| up to about 1.6e5
_TAIL_BLOCK = 1 << 18  # (point, factor) pairs per block of the R_K product
# pi = _PI_HI + _PI_LO: pi rounded to 24 bits, and the rest to double precision
_PI_HI = 3.1415927410125732
_PI_LO = -8.742278000372485e-08


def _omitted_terms_bound(r, a):
    """Bound on the terms of zero_tail's remainder series that are left out.

    The series run over powers of r = |z/pi|^2/a^2 < 1 with a = M + 1; the
    first stops after j = 5, the second after j = 3, the third after j = 4.
    With zeta(s, a) <= a^-s (1 + a/(s-1)) the terms left out are bounded by
    geometric series in r.
    """
    first = r**6 / (1 - r) * (1 + a / 13) / a**2 / (8 * np.pi**2)
    second = (
        r**4 * (5 - 4 * r) / (1 - r) ** 2 * (1 + a / 11) / a**4 / (128 * np.pi**4)
    )
    third = r**5 / (1 - r) * (1 + a / 13) / a**4 / (256 * np.pi**4)
    return first + second + third


def _tail_cutoff(rho2, K):
    """Per point, the smallest M = K + 64 * 2^j whose omitted remainder terms
    are bounded by _TAIL_TOL at |z/pi|^2 = rho2 (an array); M = K + 64 for
    |z| up to about 0.21 (K + 65) pi.  The bound grows with rho2, so when
    the largest rho2 takes M = K + 64 every point does: that common case is
    decided in Python floats.  A nan or inf rho2 fails it and counts as 0."""
    M = K + _TAIL_M_EXTRA
    top = float(np.max(rho2, initial=0.0)) / (M + 1.0) ** 2
    if top <= 0.5 and _omitted_terms_bound(top, M + 1.0) <= _TAIL_TOL:
        return np.full(rho2.shape, M)
    rho2 = np.nan_to_num(rho2, posinf=0.0)
    Ms = np.zeros(rho2.shape, dtype=int)
    while not Ms.all():
        if M > _TAIL_M_MAX:
            far = np.pi * float(rho2[Ms == 0].max()) ** 0.5
            raise ValueError(f"|z| = {far:.3g} beyond the range of the tail closure")
        a = M + 1.0
        r = rho2 / a**2
        ok = (r <= 0.5) & (_omitted_terms_bound(np.minimum(r, 0.5), a) <= _TAIL_TOL)
        Ms[ok & (Ms == 0)] = M
        M = K + 2 * (M - K)
    return Ms


def _as_batch(x):
    """x, or a single point twice over: numpy reduces one contiguous column of
    factors in another order than many, so a point alone would round apart."""
    return np.repeat(x, 2) if x.size == 1 else x


def zero_tail(z, K: int):
    """prod over |k| > K of (t_k - z)/pi_k with t_k the zero-potential nodes.

    Vectorized in z; exact to ~1e-12 relative.  z must stay away from the
    tail lattice points k pi, |k| > K.  The product runs explicitly up to
    k = M, chosen per point from |z| (_tail_cutoff), and the remainder
    beyond M is summed as a series; each value is bit for bit the same
    alone as inside any batch.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    # beyond the truncation ring the sine factor and R_K trade zeros against
    # poles; that is well-conditioned except essentially on a lattice node
    near = np.abs(z.real - np.pi * np.rint(z.real / np.pi)) < 1e-12
    big = np.abs(z) > (K + 0.45) * np.pi
    if np.any(big & near & (np.abs(z.imag) < 1e-12)):
        raise ValueError("tail evaluation on a lattice node beyond the ring")
    Ms = _tail_cutoff(np.abs(z / np.pi) ** 2, K)
    out = np.empty_like(z)
    for M in np.unique(Ms).tolist():
        at = Ms == M
        zm, rows = z[at], max(1, _TAIL_BLOCK // (M - K))
        out[at] = np.concatenate(
            [_zero_tail_upto(zm[i : i + rows], K, M) for i in range(0, zm.size, rows)]
        )
    return out


def _zero_tail_upto(z, K, M):
    """zero_tail with the explicit product over K < k <= M."""
    size, z = z.size, _as_batch(z)
    ks = np.arange(-K, K + 1)
    piks = pi_k(ks)
    # k pi - z in two parts: k PI_HI is exact, and so is k PI_HI - z near the
    # lattice point, where the float k pi would cost its ulp against k pi - z
    ks = ks[:, None]  # factors on the leading axis, points contiguous
    P = np.prod(((ks * _PI_HI - z) + ks * _PI_LO) / piks[:, None], axis=0)
    sin_part = np.where(z == 0, 1.0, -np.sin(z) / np.where(P == 0, 1.0, P))

    kk = np.arange(K + 1, M + 1)[:, None]
    t2 = lam_zero(kk) ** 2
    a2 = (kk * np.pi) ** 2
    zz = z**2
    R = np.prod((zz - t2) / (zz - a2), axis=0)

    # remainder of log R over k > M: sum d_k/(a_k^2 - z^2) - (1/2) sum (...)^2,
    # d_k = t_k^2 - k^2 pi^2 = 1/8 - 1/(256 k^2 pi^2) + O(k^-4), each
    # 1/(a_k^2 - z^2) expanded in powers of (z/(k pi))^2
    w2 = (z / np.pi) ** 2
    zeta = _hurwitz_zeta(np.arange(2, 14, 2), M + 1)  # zeta(2j + 2, M + 1)
    S1 = sum(w2**j * zeta[j] for j in range(6)) / np.pi**2
    S2 = sum(w2**j * zeta[j + 1] for j in range(5))
    S1b = sum((j + 1) * w2**j * zeta[j + 1] for j in range(4)) / np.pi**4
    logrem = 0.125 * S1 - S2 / (256.0 * np.pi**4) - 0.5 * (1.0 / 64.0) * S1b
    return (sin_part * R * np.exp(logrem))[:size]


def _sroot(tau, gamma, z):
    """(tau - z) sqrt+(1 - gamma^2/(4 (tau-z)^2)); branch cut on the gap only.

    z exactly at a collapsed node (gamma = 0, z = tau) is a regular zero.
    """
    d = tau - z
    dd = 4.0 * d * d
    safe = np.where(dd == 0, 1.0, dd)
    # named: numpy multiplies into a large temporary in place, rounding otherwise
    root = np.sqrt(1.0 - gamma**2 / safe + 0j)
    return d * root


def _rows(ns, n_max):
    """The rows ns + n_max of the single indices ns of a table of range n_max;
    an index beyond it, whose row would wrap or overrun, is refused."""
    far = np.extract(np.abs(ns) > n_max, ns)
    if far.size:
        raise ValueError(f"index n = {far[0]} beyond the table range N_max = {n_max}")
    return np.add(ns, n_max)


def standard_root(j: int, n: int, lam, table):
    """The standard root w_{j,n}(lambda) for the given spectrum table."""
    x, i = family_var(j, np.asarray(lam, dtype=complex)), _rows(n, table.n_max)
    tau, gamma = (table.family(q, j)[i] for q in ("tau2", "gamma2"))
    return _sroot(tau, gamma, x)


@functools.lru_cache(maxsize=None)
def _inv_pi(K):
    """The complex 1/pi_k, k = -K..K, read-only: w_k times it is the value
    numpy's complex division by the real pi_k gives."""
    inv = (1.0 / pi_k(np.arange(-K, K + 1))).astype(complex)
    inv.setflags(write=False)
    return inv


def node_product(nodes, x, K: int, gammas=None, tail=None, skip=None):
    """prod over |k| <= K, k != skip, of w_k(x)/pi_k, times zero_tail(x, K).

    nodes[k + K] is the node of index k.  w_k(x) is the linear factor
    nodes_k - x, or the standard root _sroot(nodes_k, gammas_k, x) when gap
    widths gammas are given.  x is the variable of the product itself:
    lambda, mu = -1/(16 lambda), or 0 for the reciprocal end.  tail, when
    given, is zero_tail(x, K), computed once by a caller that shares it
    between products, or 1 for the bare truncated product; skip, one index
    or one per point, sets that factor to 1 (exactly the product without
    it).  Vectorized in x; a point alone gets the bits it gets inside a batch.
    """
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    # factors on the leading axis, points contiguous
    nodes, xb = nodes[:, None], _as_batch(x)
    w = nodes - xb if gammas is None else _sroot(nodes, gammas[:, None], xb)
    w *= _inv_pi(K)[:, None]
    if skip is not None:
        if np.max(np.abs(skip)) > K:  # a negative index would wrap around
            raise ValueError(f"skip index beyond the truncation K = {K}")
        if np.ndim(skip):  # one index per point
            w[_as_batch(np.asarray(skip)) + K, np.arange(w.shape[1])] = 1.0
        else:
            w[skip + K] = 1.0
    if tail is None:
        tail = zero_tail(x, K)
    return np.prod(w, axis=0)[: x.size] * tail


def f1n(table, n, lam):
    """f_{1,n}(lambda) = (1/pi_n) prod_{m != n} w_{1,m}(lambda)/pi_m; n is one
    index or one per point."""
    return table.evaluator().roots.f1(lam, skip=n) / pi_k(n)


class CanonicalRootEvaluator:
    """The branch-consistent square root sqrt_c of chi_p, from those of
    chi_{p,1} and chi_{p,2}.

    Its nodes are the table's, |k| <= K = n_max: roots is their NodeFamily
    of standard roots, the tau with the gap widths gamma, whose f = f1 f2 is
    sqrt_c(chi_1) sqrt_c(chi_2).  All evaluators are vectorized over lambda
    and pure; on_contour keeps the nodes, weights and values of each contour.
    """

    def __init__(self, table):
        if table.n_max < 1:
            raise ValueError("the table's range N_max must be >= 1")
        self.K = K = table.n_max
        t1, t2, g1, g2 = (table.family(q, j) for q in ("tau2", "gamma2") for j in (1, 2))
        self.roots = NodeFamily(t1, t2, K, g1, g2)
        # branch ambiguity exists only at endpoints of open gaps (the table's
        # lambda^- != lambda^+; beyond it every gap is closed), +- each, as the
        # two slots of a single index mirror each other; collapsed gaps are
        # removable points of the root
        lo, hi = table.lam_minus, table.lam_plus
        ends = np.concatenate([lo[lo != hi], hi[lo != hi]])
        self._gap_ends = np.concatenate([ends, -ends])
        self.tail_zero = complex(zero_tail(0.0, self.K)[0])
        # sqrt_c(chi_{p,1}), the product of all w_{1,k}/pi_k, at 0
        self.chi1_zero = complex(self.roots.f1(0.0, tail=self.tail_zero)[0])
        self._on_contour = {}  # ContourSpec -> (z, dz, _bare_chip(z)) on its nodes

    def chip(self, lam, check_gaps: bool = True):
        """sqrt_c of chi_p = i * sqrt_c(chi_1) sqrt_c(chi_2) / sqrt_c(chi_1)(0)."""
        return 1j * self.roots.f(self._off_ends(lam, check_gaps)) / self.chi1_zero

    def _bare_chip(self, lam):
        """chip without its tails zero_tail(lam, K) zero_tail(-1/(16 lam), K):
        the quotients psi/sqrt_c(chi_p) of differentials, whose numerators
        carry the same two tails, leave them out of both."""
        return 1j * self.roots.f(self._off_ends(lam, True), tail=1.0) / self.chi1_zero

    def _off_ends(self, lam, check_gaps):
        """lam as a complex array; with check_gaps, refused within 1e-10 of an
        open gap's endpoint, where the branch is ambiguous."""
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        if check_gaps and np.any(np.abs(lam[:, None] - self._gap_ends[None, :]) < 1e-10):
            raise ValueError("lambda within 1e-10 of a gap endpoint: branch ambiguous")
        return lam

    def on_contour(self, spec):
        """The nodes z, weights dz and _bare_chip values of the contour spec,
        computed on the first request and kept (read-only): they depend on
        the table and the contour alone."""
        if spec not in self._on_contour:
            z, dz = spec.points()
            kept = (z, dz, self._bare_chip(z))
            for a in kept:
                a.setflags(write=False)
            self._on_contour[spec] = kept
        return self._on_contour[spec]

    def chip_from_below(self, lam_real, seg_len):
        """Gap-interior values as the limit from below, Im lambda -> 0^-, at
        1e-7 of seg_len (one, or one per point) below the axis."""
        eps = 1e-7 * np.maximum(seg_len, 1e-30)
        lam = np.atleast_1d(np.asarray(lam_real, dtype=complex)) - 1j * eps
        return self.chip(lam, check_gaps=False)


# ---------------------------------------------------------------------------
# sign tables (real potentials)


def sign_tables(v, table):
    """Verify the sign conventions of sqrt_c(chi_p) and f_{1,n} on the real axis.

    Checks, at three samples per band or gap, for a real potential:
      * between consecutive gaps on the positive axis (both families),
        (-1)^n Im sqrt_c(chi_p) > 0 with n the index of the right-hand gap;
      * inside open gaps approached from below, (-1)^(n+1) sqrt_c(chi_p) > 0,
        for the 1- and 2-family alike (skipped where the table collapsed the
        gap, lambda^- = lambda^+);
      * (-1)^n f_{1,n} > 0 between the flanking gaps of index n.
    Returns a report dict; raises nothing, failures are listed.
    """
    if not v.real:
        raise ValueError("sign tables are defined for real potentials")
    N = table.n_max
    ev = table.evaluator()
    failures = []

    def judge(kind, js, ns, xs, signed):
        """One failure per row of samples xs whose signed values are not all
        positive, at its least positive sample; returns the rows checked."""
        for j, n, x, s in zip(js, ns, xs, signed):
            if not np.all(s > 0):
                failures.append((kind, int(j), int(n), x[np.argmin(s)]))
        return len(xs)

    def samples(a, b, t0, t1):
        """Three points of each interval [a, b], at t0, (t0 + t1)/2 and t1 of it."""
        return a[:, None] + (b - a)[:, None] * np.linspace(t0, t1, 3)

    # (i) inter-band signs between the positive-axis gaps in their order: the
    # gap of single index n is slot (1, n) for n >= 0 and slot (2, n) for n < 0
    minus, plus = table.lam_minus.real, table.lam_plus.real
    order = np.argsort(minus, kind="stable")
    a, b, n = plus[order[:-1]], minus[order[1:]], order[1:] - N
    a, b, n = (x[b - a > 0] for x in (a, b, n))
    xs = samples(a, b, 0.15, 0.85)
    vals = ev.chip(xs.ravel().astype(complex)).reshape(xs.shape)
    checked = judge("interband", np.where(n >= 0, 1, 2), n, xs, (-1.0) ** n[:, None] * vals.imag)

    # (ii) gap-interior signs, from below, in the open gaps (lambda^- != lambda^+)
    gaps = [table.family("gap2", j) for j in (1, 2)]  # (lo, hi) of slots -N..N
    lo, hi = np.concatenate(gaps).T
    js, n = np.repeat([1, 2], 2 * N + 1), np.tile(np.arange(-N, N + 1), 2)
    opened = lo != hi
    lo, hi, js, n = (x[opened] for x in (lo, hi, js, n))
    xs = samples(lo.real, hi.real, 0.2, 0.8)
    vals = ev.chip_from_below(xs.ravel(), np.repeat(np.abs(hi - lo), 3)).reshape(xs.shape)
    checked += judge("gap-interior", js, n, xs, (-1.0) ** (n[:, None] + 1) * vals.real)

    # (iii) f_{1,n} between flanking gaps
    n = np.arange(-N + 1, N)
    xs = samples(gaps[0][:-2, 1].real, gaps[0][2:, 0].real, 0.1, 0.9)
    vals = f1n(table, np.repeat(n, 3), xs.ravel().astype(complex)).reshape(xs.shape)
    checked += judge("f1n", np.ones_like(n), n, xs, (-1.0) ** n[:, None] * vals.real)

    return {"checked": checked, "skipped": int(np.count_nonzero(~opened)), "failures": failures}


# ---------------------------------------------------------------------------
# product representations


def product_chi_p(table, lam):
    """chi_p by its product representation -c_p chi_{p,1} chi_{p,2}: the
    square of sqrt_c(chi_p), since w_k^2 = (lambda_k^+ - x)(lambda_k^- - x)."""
    return table.evaluator().chip(lam, check_gaps=False) ** 2


def product_chi_D(table, lam):
    """chi_D by its product representation -c_D chi_{D,1} chi_{D,2}."""
    mus = NodeFamily.from_table(table, "mu2")
    return -mus.f(lam) / mus.f2_inf()


def product_delta_dot(table, lam):
    """Delta_dot by its product representation
    c * (1 - lam_dot_*^2/lam^2) * Ddot_1 * Ddot_2."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    dots = NodeFamily.from_table(table, "lam_dot2")
    star = table.lam_dot_star
    return (1.0 - star**2 / lam**2) * dots.f(lam) / dots.f2_inf()


def constraint_products(table):
    """The three constraint identities over the table's range, each -> 1.

    Each is a node family's product at 0 over its product at infinity,
    f1(0)/f2(inf) = prod_k sigma_{1,k}/sigma_{2,k}: with the reciprocity
    sigma_{2,k} ~ 1/(16 sigma_{1,k}) each factor pairs lambda_n with
    16 lambda_{-n}.  The periodic identity is that of the standard roots,
    squared (w_k(0)^2 = lambda_k^+ lambda_k^-); the Dirichlet one carries
    e^{-q(0)}, since chi_{D,2}(inf) = e^{-q(0)} chi_{D,1}(0); the Delta_dot one
    carries -16 lambda_dot_*^2.  Both products are at the variable 0, so the
    quotient leaves their common tail zero_tail(0, n_max) out (tail = 1).
    """
    ratio = lambda fam: complex(fam.f1(0.0, tail=1.0)[0]) / fam.f2_inf(tail=1.0)
    return {
        "periodic": ratio(table.evaluator().roots) ** 2,
        "dirichlet": np.exp(-table.q0) * ratio(NodeFamily.from_table(table, "mu2")),
        "delta_dot": -16.0 * table.lam_dot_star**2
        * ratio(NodeFamily.from_table(table, "lam_dot2")),
    }


# off-gap sample points of verify_product_reps
PRODUCT_SAMPLE_LAMBDAS = np.array(
    [0.7, 1.9, 2.6 + 0.3j, 4.1, 5.6 - 0.2j, 7.3, 8.8 + 0.4j, 10.2, 0.11, 11.9]
)


def verify_product_reps(v, table, K, tol_ode=1e-11):
    """Relative residuals of the three product representations against the
    integrator at PRODUCT_SAMPLE_LAMBDAS, all from one propagation: one dict
    per truncation k <= n_max in the sequence K, read on table.truncated(k)."""
    from .monodromy import integrate_many

    lams = PRODUCT_SAMPLE_LAMBDAS
    res = integrate_many(v, lams, order=1, tol=tol_ode)
    rel = lambda a, b: float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)))
    return [{
        "chi_p": rel(product_chi_p(t, lams), res.chi_p),
        "chi_D": rel(product_chi_D(t, lams), res.chi_D),
        "delta_dot": rel(product_delta_dot(t, lams), res.Delta_dot),
    } for t in map(table.truncated, K)]


# ---------------------------------------------------------------------------
# interpolation (residue reconstruction on the node family)


@dataclass(frozen=True, eq=False)
class NodeFamily:
    """Two node sequences sigma_{1,k}, sigma_{2,k} (|k| <= K) with
    zero-potential tails; kappa_{2,k} = -1/(16 sigma_{2,k}).  With gap widths
    gamma1, gamma2 the factors are the standard roots w_k instead of the
    linear sigma_k - x."""

    sigma1: np.ndarray
    sigma2: np.ndarray
    K: int
    gamma1: np.ndarray | None = None
    gamma2: np.ndarray | None = None

    def __post_init__(self):
        n = 2 * self.K + 1
        arrays = (self.sigma1, self.sigma2, self.gamma1, self.gamma2)
        if any(a is not None and a.shape != (n,) for a in arrays):
            raise ValueError("node arrays must cover k = -K..K")
        if np.count_nonzero(self.sigma1) + np.count_nonzero(self.sigma2) < 2 * n:
            raise ValueError("nodes must be nonzero")

    @property
    def ks(self):
        return np.arange(-self.K, self.K + 1)

    @property
    def kappa2(self):
        return -1.0 / (16.0 * self.sigma2)

    @staticmethod
    def from_table(table, quantity="tau2") -> "NodeFamily":
        """The linear-factor family of one table accessor (SpectrumTable.family)."""
        return NodeFamily(table.family(quantity, 1), table.family(quantity, 2), table.n_max)

    def padded(self, W: int) -> "NodeFamily":
        """The same f1, f2 and f with the tail nodes tau_zero(k), K < |k| <= W,
        written out in both sequences and the family closed at W (a family
        of linear factors, as the interpolation's)."""
        out = np.arange(self.K + 1, W + 1)
        pad = lambda s: np.concatenate([tau_zero(-out[::-1]), s, tau_zero(out)])
        return NodeFamily(pad(self.sigma1), pad(self.sigma2), W)

    def f1(self, z, skip=None, tail=None):
        """prod_k w_{1,k}(z)/pi_k, the factor skip removed; tail as in node_product."""
        return node_product(self.sigma1, z, self.K, self.gamma1, tail, skip)

    def f2(self, z, tail=None):
        """prod_k w_{2,k}(-1/(16 z))/pi_k; tail as in node_product."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return node_product(self.sigma2, -1.0 / (16.0 * z), self.K, self.gamma2, tail)

    def f2_inf(self, tail=None) -> complex:
        """f2 at z = inf, the product at mu = 0; tail as in node_product."""
        return complex(node_product(self.sigma2, 0.0, self.K, self.gamma2, tail)[0])

    def f(self, z, skip=None, tail=None):
        """f1 f2, the factor skip of f1 removed; tail as in node_product."""
        return self.f1(z, skip, tail) * self.f2(z, tail)

    def fdot_at_nodes(self):
        """d/dz [f1 f2] at every sigma_{1,n} and at every kappa_{2,n}, for a
        family of linear factors.

        At a node only its own factor vanishes, so f' there is the product
        with that factor removed: per family one node_product over the nodes
        with a per-point skip, and one f1 or f2 call.
        """
        piks, s1, k2 = pi_k(self.ks), self.sigma1, self.kappa2
        at_sigma1 = -self.f1(s1, skip=self.ks) / piks * self.f2(s1)
        dfactor = -1.0 / (16.0 * k2**2) / piks
        f2_removed = node_product(self.sigma2, -1.0 / (16.0 * k2), self.K, skip=self.ks)
        return at_sigma1, self.f1(k2) * f2_removed * dfactor


def interpolate_reconstruct(nodes: NodeFamily, phi_sigma1, phi_kappa2, z, phi_fn=None):
    """Residue-sum reconstruction of an analytic function from its node values:

        phi(z) ~= f(z) sum_n [phi(sigma_{1,n})/f'(sigma_{1,n}) / (z - sigma_{1,n})
                              + phi(kappa_{2,n})/f'(kappa_{2,n}) / (z - kappa_{2,n})]

    The sum over |n| <= K uses the supplied node values.  When phi_fn is
    given, the family is padded with its zero-potential tail nodes up to
    |n| <= 3K, which leaves f unchanged, and one call of
    phi_fn on the array of tail nodes supplies their values.  Each weight
    1/f'(node) is computed once per call (the barycentric form); z may be an
    array, and a scalar z gives a complex.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    phi1, phi2 = phi_sigma1, phi_kappa2
    if phi_fn is not None:
        K = nodes.K
        nodes = nodes.padded(3 * K)
        tail = np.abs(nodes.ks) > K
        ring = np.concatenate([nodes.sigma1[tail], nodes.kappa2[tail]])
        phi1, phi2 = np.zeros((2, tail.size), dtype=complex)
        phi1[~tail], phi2[~tail] = phi_sigma1, phi_kappa2
        phi1[tail], phi2[tail] = np.split(np.asarray(phi_fn(ring)), 2)
    allnodes = np.concatenate([nodes.sigma1, nodes.kappa2])
    d = np.abs(allnodes[:, None] - allnodes[None, :])
    np.fill_diagonal(d, np.inf)
    if d.min() < 1e-12:
        raise ValueError("node collision: nodes must be pairwise distinct")
    dz = z[:, None] - allnodes
    if np.min(np.abs(dz)) < 1e-12:
        raise ValueError("z coincides with a node")
    coef = np.concatenate([phi1, phi2]) / np.concatenate(nodes.fdot_at_nodes())
    total = nodes.f(z) * np.sum(coef / dz, axis=1)
    return complex(total[0]) if scalar else total
