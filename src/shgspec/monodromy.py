"""Fundamental solution M(x,lambda,v) of the reduced Lax system and its
Floquet data.

The 2x2 system is

    dM/dx = L(x, lambda) M,   M(0) = I,
    L = J (lambda - A(x) - B(x)^2/lambda)
      = [[w/4, lambda - e^q/(16 lambda)], [-lambda + e^-q/(16 lambda), -w/4]],

with w = P p + q_x.  L is traceless, so det M = 1.

It is propagated by the sixth-order Magnus scheme of Blanes, Casas, Oteo &
Ros (Phys. Rep. 470, 2009) on a uniform grid of N steps.  Each step samples
L at its three Gauss points and forms the commutator combination Omega; the
step map is exp(Omega) = cosh(s) I + sinh(s)/s Omega with s^2 = -det Omega,
which is exact for a traceless 2x2 generator.  lambda enters L only through
lambda J and 1/lambda, so Omega is a Laurent polynomial in lambda: its
diagonal has the even powers -4..2, its off-diagonal entries the odd powers
-5..3.  Those coefficients do not depend on lambda; they are built once per
potential and step count and cached on the potential (up to CACHE_STEPS
steps; beyond that they are computed block by block as needed).  They come
from the three Gauss-point combinations alpha_1..3 of each step, which are
sums over the Fourier modes k of the fields w/4, -e^q/16 and e^-q/16: for
the step [x, x + h] and theta = pi k h,

    alpha_i = sum_k c_k w_i(k, h) e^{2 pi i k (x + h/2)},
    w_1 = h,  w_2 = (2 sqrt 15 / 3) i h sin(sqrt 15 theta / 5),
    w_3 = -(40/3) h sin^2(sqrt 15 theta / 10),

so no difference of nearly equal node values is formed.  On a cached
uniform grid the sums over all steps are one inverse FFT of length N of the
weighted coefficients folded mod N; the steps a path node splits, and the
blocks of a grid beyond CACHE_STEPS, take the sums directly.  For each batch
of lambda, Omega and its lambda-jets are one matrix product of the
coefficients with the powers of lambda.  The step maps are multiplied as a
tree, vectorised over lambda, in chunks of at most BLOCK (lambda x step)
elements; a chunk's large arrays live in a workspace that is kept for the
process (three buffers of at least 12 BLOCK complex per thread), not taken
afresh for each chunk, so the kernel's steady speed does not depend on the
allocator's mmap and trim thresholds.

Step count.  Every lambda is propagated twice, on N and on N/2 steps.  For
a sixth-order scheme the difference divided by 2^6 - 1 estimates the error
of the N-step result; where it exceeds tol/3, N is doubled (the N-step
result becomes the half-grid one) until it does not.  The error depends on
the size of the potential, not only on its band limit, so the first N is a
guess,

    N = STEP_CONST (2 pi K_f)^(1/5) max(|omega|, 2 pi K_f)^(4/5) tol^(-1/6),

with omega(lambda) = lambda - 1/(16 lambda) and K_f the band limit (see
step_count).  On potentials of amplitude up to about 0.1 it meets tol/3
without doubling; on cosines of amplitude 1 and 2, some lambda at the
reciprocal end need one and two doublings.  The estimate covers the
truncation error only.  Rounding adds up to about 5e-17 N relative error,
which it does not see; at tol = 1e-13 that exceeds tol from |omega| of
about 300 on (2.6e-13 there at v = 0), and N is not doubled where the
estimate is below ROUNDING N, the floor of BatchResult.scalar's noise.

lambda-derivatives.  order=1 and order=2 carry the Taylor jets (M, M', M''/2)
in lambda through Omega, the exponential and the step products.  The result
is the exact derivative of the discrete map, not a separately integrated
variational system, so Newton's f/f' sees a consistent pair.

At the zero potential L does not depend on x, every commutator vanishes and
M(x,lambda,0) = E_{omega(lambda)}(x) holds to rounding at any N; those closed
forms serve as the oracle for the propagator.
"""

from __future__ import annotations

import threading
from math import factorial, prod

import numpy as np

from .potential import Potential, _phases, p_multiplier

__all__ = [
    "omega",
    "E_nu",
    "BatchResult",
    "KINDS",
    "closed_form_zero",
    "integrate",
    "integrate_many",
    "lam_zero",
    "tau_zero",
    "step_count",
]

LAM_MIN = 1e-8
LAM_MAX = 1e8
# the monodromy functions whose roots are the spectral data (BatchResult.scalar)
KINDS = ("chi_p", "chi_D", "ddelta")
DEFAULT_TOL = 1e-11
# the tolerances integrate_many accepts, also the range of RunConfig.ode_tol
TOL_RANGE = (1e-13, 1e-6)

# first guess N = STEP_CONST (2 pi K_f)^(1/5) max(|omega|, 2 pi K_f)^(4/5)
# tol^(-1/6), before rounding up
STEP_CONST = 0.3
# (lambda x step) elements propagated at once; bounds the temporaries
BLOCK = 2048
# largest step count whose fields are cached on the potential (~260 B a step:
# x, h and 15 complex Laurent coefficients of Omega)
CACHE_STEPS = 2**16
# powers of lambda in Omega's packed coefficients: the diagonal entry has the
# even powers -4..2 (its fifth coefficient is a zero pad), the off-diagonal
# entries the odd powers -5..3
POWERS = ((-4, -2, 0, 2), (-5, -3, -1, 1, 3), (-5, -3, -1, 1, 3))
# times the step count of a lambda may be doubled to meet tol
MAX_DOUBLINGS = 6
# relative rounding error per step: the product of N step maps carries up to
# about 5e-17 N of it (zero potential, |omega| up to 3000), so a truncation
# estimate below ROUNDING N is not worth more steps, which add rounding
ROUNDING = 1e-17
# power series of cosh sqrt z, sinh sqrt z / sqrt z and the latter's first two
# derivatives, used for |z| <= SERIES_RADIUS (truncation below 1e-19 there)
SERIES_RADIUS = 0.25
SERIES_COEFFS = [
    [1.0 / factorial(2 * k) for k in range(9)],
    [1.0 / factorial(2 * k + 1) for k in range(9)],
    [(k + 1) / factorial(2 * k + 3) for k in range(9)],
    [(k + 2) * (k + 1) / factorial(2 * k + 5) for k in range(9)],
]


def omega(lam):
    """omega(lambda) = lambda - 1/(16 lambda); frequency of the free rotation."""
    lam = np.asarray(lam, dtype=complex)
    return lam - 1.0 / (16.0 * lam)


def E_nu(nu, x):
    """Rotation matrix E_nu(x) = [[cos nu x, sin nu x], [-sin nu x, cos nu x]]."""
    nu = np.asarray(nu, dtype=complex)
    x = np.asarray(x, dtype=complex)
    c = np.cos(nu * x)
    s = np.sin(nu * x)
    out = np.empty(np.broadcast(c, s).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -s
    out[..., 1, 1] = c
    return out


def lam_zero(n):
    """Zero-potential periodic eigenvalue in C+ (double root of chi_p):
    the C+ solution of omega(lambda) = n*pi, i.e. (n pi + sqrt(n^2 pi^2 + 1/4))/2.
    For n < 0 that sum cancels; there it is 1/(8 (sqrt(n^2 pi^2 + 1/4) + |n| pi)).
    """
    n = np.asarray(n, dtype=float)
    r = np.sqrt((n * np.pi) ** 2 + 0.25)
    return np.where(n >= 0, (n * np.pi + r) / 2.0, 0.125 / (r + np.abs(n) * np.pi))


def tau_zero(k):
    """Zero-potential two-index gap midpoints: tau_{j,k}(0) for j=1,2 (equal).

    For k >= 0 this is lam_zero(k); for k < 0 it is -lam_zero(-k), consistent
    with tau_{j,-k} = -tau_{j,k}.
    """
    k = np.asarray(k)
    return np.where(k >= 0, lam_zero(np.abs(k)), -lam_zero(np.abs(k)))


def _check_lambda(lams):
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    a = np.abs(lams)
    if not np.all((a >= LAM_MIN) & (a <= LAM_MAX)):  # NaN lies in no annulus
        raise ValueError(
            f"|lambda| outside working annulus [{LAM_MIN:g}, {LAM_MAX:g}]; "
            "use the reciprocity map lambda -> -1/(16 lambda) instead"
        )
    return lams


class BatchResult:
    """Monodromy data at one lambda or at a batch of them.

    jets holds the lambda-Taylor coefficients M(1, lambda), M' and M''/2 up
    to the integrated order: (K, 2, 2) at one lambda and (K, L, 2, 2) for a
    batch.  Mgrave and Mgrave_dot are views of jets[0] and jets[1],
    Mgrave_ddot is 2 jets[2]; each is None where its order was not
    integrated.  path holds samples (n_nodes, 2, 2) resp. (L, n_nodes, 2, 2)
    of M(x) at path_x.  The derived scalars are 0-d resp. (L,).
    """

    def __init__(self, lams, jets, path=None, path_x=None, steps=None, err=None):
        self.lams = lams
        self.jets = jets
        self.path = path
        self.path_x = path_x
        self.steps = steps  # propagation steps per lambda (work counter)
        self.err = err  # estimated relative error per lambda

    def single(self, i) -> "BatchResult":
        """The one-lambda result of batch entry i; an index array or slice i
        gives the batch of the entries it selects."""
        at = lambda a: None if a is None else a[i]
        return BatchResult(self.lams[i], self.jets[:, i], at(self.path), self.path_x,
                           at(self.steps), at(self.err))

    def _jet(self, order):
        """d^order M(1, lambda) / dlambda^order."""
        if order >= len(self.jets):
            raise ValueError(f"lambda-derivative of order {order} was not integrated")
        return 2.0 * self.jets[2] if order == 2 else self.jets[order]

    Mgrave = property(lambda self: self.jets[0])
    Mgrave_dot = property(lambda self: self._jet(1) if len(self.jets) > 1 else None)
    Mgrave_ddot = property(lambda self: self._jet(2) if len(self.jets) > 2 else None)

    @property
    def Delta(self):
        return 0.5 * (self.Mgrave[..., 0, 0] + self.Mgrave[..., 1, 1])

    @property
    def delta_anti(self):
        return 0.5 * (self.Mgrave[..., 0, 0] - self.Mgrave[..., 1, 1])

    @property
    def Delta_dot(self):
        M = self._jet(1)
        return 0.5 * (M[..., 0, 0] + M[..., 1, 1])

    @property
    def Delta_ddot(self):
        M = self._jet(2)
        return 0.5 * (M[..., 0, 0] + M[..., 1, 1])

    @property
    def chi_p(self):
        return self.Delta**2 - 1.0

    @property
    def chi_D(self):
        return self.Mgrave[..., 0, 1]

    def scalar(self, kind):
        """(f, df/dlambda, noise of f) for kind "chi_p" (Delta^2 - 1), "chi_D"
        (M_12) or "ddelta" (Delta_dot): the one rule for how far propagation
        can have moved f.  Each lambda's relative error e is its estimate err
        floored at the rounding level ROUNDING steps, the floor of
        integrate_many's doubling rule, so e > 0.  e bounds each entry of jet
        j by e m_j, m_j = max(1, max |jet j|) (_defect), so chi_D carries
        e m_0, Delta_dot e m_1 and chi_p 2 |Delta| e m_0 <= 2 e m_0^2."""
        e = np.maximum(self.err, ROUNDING * self.steps)
        m = lambda j: np.maximum(1.0, np.abs(self.jets[j]).max(axis=(-2, -1)))
        if kind == "chi_p":
            return self.chi_p, 2.0 * self.Delta * self.Delta_dot, 2.0 * e * m(0) ** 2
        if kind == "chi_D":
            return self.chi_D, self._jet(1)[..., 0, 1], e * m(0)
        if kind == "ddelta":
            return self.Delta_dot, self.Delta_ddot, e * m(1)
        raise ValueError(f"unknown monodromy function {kind!r}")


def closed_form_zero(lam, order=2) -> BatchResult:
    """Exact monodromy data at the zero potential, for one lambda or an array.

    Delta = cos(omega), chi_D = sin(omega),
    Delta_dot = -(1 + 1/(16 lambda^2)) sin(omega).
    """
    lams = _check_lambda(lam)
    om = omega(lams)
    omp = (1.0 + 1.0 / (16.0 * lams**2))[:, None, None]  # d omega / d lambda
    ompp = (-1.0 / (8.0 * lams**3))[:, None, None]
    M = E_nu(om, 1.0)
    dE = np.empty_like(M)  # d E_omega(1) / d omega
    dE[:, 0, 0] = dE[:, 1, 1] = -M[:, 0, 1]
    dE[:, 0, 1] = M[:, 0, 0]
    dE[:, 1, 0] = -M[:, 0, 0]
    jets = [M, omp * dE, 0.5 * (ompp * dE - omp**2 * M)]  # M, M', M''/2
    res = BatchResult(lams, np.stack(jets[: order + 1]))
    return res.single(0) if np.ndim(lam) == 0 else res


def step_count(v: Potential, lams, tol: float) -> np.ndarray:
    """First Magnus step count N per lambda for the requested tolerance.

    N is the smallest m 2^e (m = 4..7, e >= 1) that is at least
    STEP_CONST (2 pi K_f)^(1/5) max(|omega(lambda)|, 2 pi K_f)^(4/5)
    tol^(-1/6).  The constant and the exponent 4/5 come from a sweep over
    v1-v3 against grids eight times finer, |omega| from 0.5 to 1500 at both
    ends, 5% and 30% off-axis: the error constant falls as |omega| grows, so
    N grows more slowly than |omega|, and the worst case (reciprocal end at
    |omega| = 2 pi K_f) stays at 0.2 tol.  The rounding keeps the number of
    distinct N in a batch small, keeps N even for the half-grid error
    estimate, and each decade of tol still moves N by a factor
    10^(1/6) ~ 1.47.  integrate_many doubles N where the estimate says this
    first guess misses tol.
    """
    band = 2.0 * np.pi * v.Kf
    scale = np.maximum(np.abs(omega(lams)), band)
    n = np.maximum(STEP_CONST * band**0.2 * scale**0.8 * tol ** (-1.0 / 6.0), 8.0)
    e = np.exp2(np.floor(np.log2(n / 4.0)))
    return (np.ceil(n / e) * e).astype(np.int64)


def _step_fields(v: Potential, n: int, path_x):
    """The propagation grid for step count n, in blocks of at most BLOCK
    uniform steps: per block the breakpoints x, step lengths h, the packed
    Laurent coefficients of Omega (see _block_fields), and the path nodes
    that end a step of the block (their indices into path_x and into x).

    The breakpoints are those of the uniform n-grid together with path_x.
    Cached on the potential up to CACHE_STEPS steps, with the alphas of the
    uniform steps from one inverse FFT (_uniform_alphas); beyond that each
    block is computed when it is needed, its alphas summed directly
    (_step_alphas), so memory stays flat and only time grows with n.
    """
    key = ("magnus", n, None if path_x is None else path_x.tobytes())
    if key in v._cache:
        return v._cache[key]
    if n > CACHE_STEPS:
        return (_block_fields(v, n, path_x, j0, min(j0 + BLOCK, n))
                for j0 in range(0, n, BLOCK))
    uniform = _uniform_alphas(v, n)
    v._cache[key] = [_block_fields(v, n, path_x, j0, min(j0 + BLOCK, n), uniform)
                     for j0 in range(0, n, BLOCK)]
    return v._cache[key]


def _field_coeffs(v: Potential):
    """Modes k and Fourier coefficients (3, modes) of the fields w/4, -e^q/16
    and e^-q/16, the potential parts of L's diagonal, (0,1) and (1,0) entries."""
    ks, cm, cp = v.exp_q_coeffs()
    ks = ks.astype(np.int64)
    k = np.union1d(v.modes, ks)
    C = np.zeros((3, k.size), dtype=complex)
    C[0, np.searchsorted(k, v.modes)] = 0.25 * (
        v.p_coeffs * p_multiplier(v.modes) + v.q_coeffs * (2j * np.pi * v.modes))
    at = np.searchsorted(k, ks)
    C[1, at], C[2, at] = -cp / 16.0, cm / 16.0
    return k, C


def _weights(theta):
    """alpha_i / h of one Fourier mode e^{2 pi i k x} over a step [x, x + h],
    times e^{-2 pi i k (x + h/2)}, for theta = pi k h: the Gauss-point
    combinations f(m), (sqrt 15 / 3)(f(r) - f(l)) and (10/3)(f(r) - 2 f(m) +
    f(l)) of the nodes l, m, r = m -+ (sqrt 15 / 10) h, in closed form."""
    r = np.sqrt(15.0) / 5.0
    return np.stack([np.ones_like(theta), (2.0 * np.sqrt(15.0) / 3.0) * 1j * np.sin(r * theta),
                     (-40.0 / 3.0) * np.sin(0.5 * r * theta) ** 2])


def _uniform_alphas(v: Potential, n: int):
    """alpha_i / h (3, 3, n) of every step of the uniform n-grid, alpha_i as
    (diagonal, (0,1), (1,0)) entries: step j's sum over the modes,
    sum_k C_k w_i(pi k / n) e^{pi i k / n} e^{2 pi i k j / n}, is one inverse
    FFT of length n of the weighted coefficients folded mod n."""
    k, C = _field_coeffs(v)
    theta = np.pi * k / n
    A = np.zeros((3, 3, n), dtype=complex)
    np.add.at(A, (slice(None), slice(None), k % n),
              (_weights(theta) * np.exp(1j * theta))[:, None] * C)
    return np.fft.ifft(A, axis=-1, norm="forward")


def _step_alphas(v: Potential, x, h):
    """alpha_i / h (3, 3, steps) of the steps [x, x + h], the same mode sums
    as _uniform_alphas taken directly, in chunks of BLOCK // 4 steps: the
    phases e^{2 pi i k (x + h/2)} form a (modes x steps) matrix."""
    k, C = _field_coeffs(v)
    kmax = int(np.abs(k).max())
    out = np.empty((3, 3, h.size), dtype=complex)
    for i in range(0, h.size, BLOCK // 4):
        s = slice(i, i + BLOCK // 4)
        ph = _phases(x[s] + 0.5 * h[s], kmax)[k + kmax]
        out[..., s] = np.matmul(C, _weights(np.pi * np.multiply.outer(k, h[s])) * ph)
    return out


def _block_fields(v: Potential, n: int, path_x, j0: int, j1: int, uniform=None):
    """One block of _step_fields: uniform steps j0..j1-1 of the n-grid.

    uniform, if given, holds the alphas of every uniform step of the n-grid
    (_uniform_alphas); the steps a path node splits, and all steps without
    it, are summed directly.  coef[e, step, i] is the coefficient of
    lambda^POWERS[e][i] in entry e of Omega, e = 0 the diagonal entry, 1 and
    2 the (0,1) and (1,0) entries.
    """
    x = np.arange(j0, j1 + 1) / n
    hit = at = None
    if path_x is not None:
        hit = np.flatnonzero((path_x > x[0]) & (path_x <= x[-1]))
        xu, x = x, np.union1d(x, path_x[hit])
        at = np.searchsorted(x, path_x[hit])  # M(x[j]) is the product of j steps
    h = np.diff(x)
    if uniform is None:
        alphas = _step_alphas(v, x[:-1], h)
    elif path_x is None:
        alphas = uniform[..., j0:j1]
    else:
        pos = np.searchsorted(x, xu)
        whole = np.flatnonzero(np.diff(pos) == 1)  # uniform steps no node splits
        split = np.ones(h.size, dtype=bool)
        split[pos[whole]] = False
        alphas = np.empty((3, 3, h.size), dtype=complex)
        alphas[..., pos[whole]] = uniform[..., j0 + whole]
        alphas[..., split] = _step_alphas(v, x[:-1][split], h[split])
    return x, h, _laurent(h, h * alphas), hit, at


def _laurent(h, alphas):
    """Omega's packed Laurent coefficients (3, steps, 5) from the alphas
    (3, 3, steps), each alpha_i a (diagonal, (0,1), (1,0)) triple of
    coefficients of lambda^0, lambda^-1, lambda^-1; the lambda J part of L
    enters alpha_1 only."""
    a1, a2, a3 = (({0: c[0]}, {-1: c[1]}, {-1: c[2]}) for c in alphas)
    a1[1][1], a1[2][1] = h, -h
    c1 = _lcomm(a1, a2)
    c2 = _lcomm(a1, _lcomb((2.0, a3), (1.0, c1)))
    om = _lcomb(
        (1.0, a1),
        (1.0 / 12.0, a3),
        (1.0 / 240.0, _lcomm(_lcomb((-20.0, a1), (-1.0, a3), (1.0, c1)),
                             _lcomb((1.0, a2), (-1.0 / 60.0, c2)))),
    )
    coef = np.zeros((3, h.size, 5), dtype=complex)
    for e, entry in enumerate(om):
        for p, c in entry.items():
            coef[e, :, (p - POWERS[e][0]) // 2] = c
    return coef


# Laurent polynomials in lambda are dicts {power: coefficient array over the
# steps}; a traceless 2x2 one is the triple (a, b, c) = [[a, b], [c, -a]].
# The diagonal a holds only even powers and b, c only odd ones, and only the
# powers present are multiplied, so no product of zero coefficients is formed.
_ONE = {0: 1.0}


def _lbil(*terms):
    """sum of s X Y over the (s, X, Y) terms, X and Y Laurent polynomials."""
    Z = {}
    for s, X, Y in terms:
        for p, c in X.items():
            for r, d in Y.items():
                Z[p + r] = Z[p + r] + c * (s * d) if p + r in Z else c * (s * d)
    return Z


def _lcomb(*terms):
    """sum of s X over the (s, X) terms, X traceless Laurent triples."""
    return tuple(_lbil(*((s, X[e], _ONE) for s, X in terms)) for e in range(3))


def _lcomm(X, Y):
    """[X, Y] of traceless Laurent triples: [diag, off] and [off, diag] are
    off-diagonal, [off, off] is diagonal, [diag, diag] = 0."""
    (xa, xb, xc), (ya, yb, yc) = X, Y
    return (_lbil((1.0, xb, yc), (-1.0, xc, yb)),
            _lbil((2.0, xa, yb), (-2.0, xb, ya)),
            _lbil((2.0, xc, ya), (-2.0, xa, yc)))


def _omega_jets(coef, lams, K, out=None):
    """Jets (K, 3, steps, lams) of Omega from its packed Laurent coefficients:
    Omega_k = sum_p C(p, k) C_p lambda^(p - k), one stacked matmul (into
    out, if given)."""
    p = np.array([POWERS[0] + (0,), *POWERS[1:]])  # the pad's coefficient is 0
    binom = np.stack([np.ones_like(p), p, p * (p - 1) // 2])[:K]  # C(p, k)
    k = np.arange(K)[:, None, None, None]
    return np.matmul(coef, binom[..., None] * lams ** (p[..., None] - k), out=out)


def _pairs(K):
    """Index pairs (i, j) with i + j < K: the terms of a truncated jet product."""
    return [(i, j) for i in range(K) for j in range(K - i)]


# Jets are laid out as (K, 2, 2, lams, steps): the step axis is last and
# contiguous, so that every numpy operation of the exponential and of the
# product tree runs its inner loop over the steps of a chunk (up to BLOCK)
# rather than over its few lambda.  On full blocks _mul makes one broadcast
# per pair of jets: one over all K^2 pairs builds temporaries that fall out of
# cache and is several times slower.  Small arrays (the upper levels of the
# product tree) are bound by per-call overhead instead, so _mul broadcasts
# over all pairs there.
#
# A chunk's large arrays (the Omega jets and their steps-last copy, the step
# maps, the lower levels of the product tree, the prefix products and
# the products' two temporaries: up to 12 BLOCK complex, 384 KB, each) live in
# a _Workspace kept for the process.  Taken fresh for every chunk, arrays of
# 128 KB or more come from glibc's mmap, and every chunk page-faults on them,
# unless an earlier free of a larger array has raised glibc's mmap and trim
# thresholds.


class _Workspace(threading.local):
    """Three flat complex scratch buffers per thread, reused by every chunk
    of every call.  Buffers 0 and 1 alternate along the chain of a chunk's
    arrays: each array goes into the buffer its input does not lie in
    (apart).  Buffer 2 holds _mul's temporaries."""

    def __init__(self):
        self.buffers = [np.empty(0, dtype=complex) for _ in range(3)]

    def array(self, i, shape):
        """A C-contiguous array of the given shape over buffer i; its content
        is whatever the buffer held.  A buffer grows (to at least 12 BLOCK
        elements) when the shape does not fit.  Buffers start on a 64-byte
        boundary (malloc gives 16): the kernel measured 1-2% faster so."""
        size = prod(shape)
        if self.buffers[i].size < size:
            n = max(size, 12 * BLOCK)
            b = np.empty(n + 3, dtype=complex)
            lead = -b.ctypes.data % 64 // 16
            self.buffers[i] = b[lead : lead + n]
        return self.buffers[i][:size].reshape(shape)

    def apart(self, X, shape):
        """array() over whichever of buffers 0 and 1 X does not lie in."""
        return self.array(int(np.may_share_memory(X, self.buffers[0])), shape)


_WORK = _Workspace()


def _mul(A, B, work):
    """Jet of the matrix product A B for 2x2 jets stored as (K, 2, 2, ...);
    on large arrays the product is taken from the workspace, apart from A
    (B lies in A's buffer or outside the workspace)."""
    K = A.shape[0]
    if A[0, 0, 0].size <= 256:
        # P[i, j, r, t] = A[i, r, 0] B[j, 0, t] + A[i, r, 1] B[j, 1, t]
        P = A[:, None, :, :1] * B[None, :, None, 0]
        P += A[:, None, :, 1:] * B[None, :, None, 1]
        C = P[:, 0]
        for i, j in _pairs(K):
            if j:
                C[i + j] += P[i, j]
        return C
    C = work.apart(A, np.broadcast_shapes(A.shape, B.shape))
    C.fill(0.0)
    t, u = work.array(2, (2,) + C[0].shape)
    for i, j in _pairs(K):
        # t[r, s] = A[i, r, 0] B[j, 0, s] + A[i, r, 1] B[j, 1, s]
        np.multiply(A[i, :, :1], B[j, None, 0], out=t)
        np.multiply(A[i, :, 1:], B[j, None, 1], out=u)
        t += u
        C[i + j] += t
    return C


def _cosh_sinhc(z, K):
    """c = cosh sqrt z, S = sinh sqrt z / sqrt z, and S', S'' as needed for
    order K - 1 jets; power series for |z| <= SERIES_RADIUS."""
    out = [np.empty_like(z) for _ in range(K + 1)]
    small = np.abs(z) <= SERIES_RADIUS
    zs = z[small]
    for f, coef in zip(out, SERIES_COEFFS):
        acc = np.full_like(zs, coef[-1])
        for a in coef[-2::-1]:
            acc *= zs
            acc += a
        f[small] = acc
    big = ~small
    if big.any():
        zb = z[big]
        r = np.sqrt(zb)
        fb = [np.cosh(r), np.sinh(r) / r]
        fb.append((fb[0] - fb[1]) / (2.0 * zb))
        fb.append((fb[1] - 6.0 * fb[2]) / (4.0 * zb))
        for f, g in zip(out, fb):
            f[big] = g
    return out


def _exp_jet(W, work):
    """Jets (K, 2, 2, ...) of exp(W) = c I + S W for a traceless jet W, in
    the workspace apart from W."""
    K = W.shape[0]
    z = np.zeros_like(W[:, 0])  # jets of -det W = a^2 + b c
    for i, j in _pairs(K):
        z[i + j] += W[i, 0] * W[j, 0] + W[i, 1] * W[j, 2]
    f = _cosh_sinhc(z[0], K)
    cj, sj = [f[0]], [f[1]]
    if K > 1:  # chain rule; c' = S/2, c'' = S'/2
        cj.append(0.5 * f[1] * z[1])
        sj.append(f[2] * z[1])
    if K > 2:
        cj.append(0.5 * f[1] * z[2] + 0.25 * f[2] * z[1] ** 2)
        sj.append(f[2] * z[2] + 0.5 * f[3] * z[1] ** 2)
    E = work.apart(W, (K, 2, 2) + W.shape[2:])
    # S W = (S a, S b, S c) accumulates in the entries (1,1), (0,1), (1,0)
    E4 = E.reshape((K, 4) + W.shape[2:])
    E4[:, 1:] = 0.0
    for i, j in _pairs(K):
        E4[i + j, 1:3] += sj[i] * W[j, 1:]
        E4[i + j, 3] += sj[i] * W[j, 0]
    for k in range(K):
        np.add(cj[k], E4[k, 3], out=E4[k, 0])
        np.subtract(cj[k], E4[k, 3], out=E4[k, 3])
    return E


def _tree(E, work):
    """Ordered product E[.., n-1] ... E[.., 0] over the step axis (the last);
    its large levels alternate between the workspace's buffers."""
    while E.shape[-1] > 1:
        m = E.shape[-1] // 2
        P = _mul(E[..., 1 : 2 * m : 2], E[..., 0 : 2 * m : 2], work)
        E = P if E.shape[-1] == 2 * m else np.concatenate([P, E[..., 2 * m :]], axis=-1)
    return E[..., 0]


def _scan(E, work):
    """Prefix products E[.., k] ... E[.., 0] for every k over the step axis
    (the last; Hillis-Steele), in place of E."""
    d = 1
    while d < E.shape[-1]:
        E[..., d:] = _mul(E[..., d:], E[..., :-d], work)
        d *= 2
    return E


def _propagate(v: Potential, n: int, lams, K: int, path_x=None):
    """Jets (K, 2, 2, lams) of M(1) on the n-step grid, and M at path_x.

    The blocks of the grid run in order; within a block the lambda are taken
    in chunks so that a chunk holds at most BLOCK (lambda x step) elements,
    whose step maps are jets (K, 2, 2, lams, steps), computed in _WORK.
    """
    M = np.zeros((K, 2, 2, lams.size), dtype=complex)
    M[0, 0, 0] = M[0, 1, 1] = 1.0
    path = None
    if path_x is not None:
        path = np.empty((lams.size, path_x.size, 2, 2), dtype=complex)
        path[:, path_x == 0.0] = np.eye(2)
    for x, h, coef, hit, at in _step_fields(v, n, path_x):
        lc = max(1, BLOCK // h.size)
        for c in range(0, lams.size, lc):
            sl = slice(c, c + lc)
            m = lams[sl].size
            # _omega_jets' matmul gives (K, 3, steps, lams), and a gemm of
            # another shape rounds differently: copy it once with steps last
            R = _omega_jets(coef, lams[sl], K, out=_WORK.array(0, (K, 3, h.size, m)))
            W = _WORK.apart(R, (K, 3, m, h.size))
            np.copyto(W, R.swapaxes(2, 3))
            E = _exp_jet(W, _WORK)
            if hit is None or hit.size == 0:
                M[..., sl] = _mul(_tree(E, _WORK), M[..., sl], _WORK)
                continue
            pre = _mul(_scan(E, _WORK), M[..., sl, None], _WORK)
            path[sl, hit] = pre[0][..., at - 1].transpose(2, 3, 0, 1)
            M[..., sl] = pre[..., -1]
    return M, path


def _defect(A, B):
    """Largest entry difference of each lambda's jets, relative to
    max(1, |entries|) of the jet it belongs to; A, B are (K, 2, 2, lams)."""
    d = np.abs(A - B).max(axis=(1, 2))
    return np.max(d / np.maximum(1.0, np.abs(A).max(axis=(1, 2))), axis=0)


def integrate_many(
    v: Potential,
    lams,
    order: int = 1,
    tol: float = DEFAULT_TOL,
    path_nodes=None,
) -> BatchResult:
    """Monodromy data for a batch of lambda.

    order=1 adds d/dlam M, order=2 also the second derivative.  path_nodes, if
    given, is an array of x in [0,1] at which M(x) is recorded (used by the
    gradient kernels); they become breakpoints of the grid, so M(x) there is
    a prefix product of the step maps.

    Each lambda starts at step_count steps and is also propagated on the
    half grid; the difference, divided by 2^6 - 1, estimates the error of
    the full-grid result.  Where the estimate exceeds tol/3 (and the
    rounding level ROUNDING N) the step count is doubled, and the previous
    result becomes the half-grid one, up to MAX_DOUBLINGS times.  The step
    count and the error estimate of each lambda are returned as
    BatchResult.steps and BatchResult.err.  A lambda whose M overflows
    (|Im omega| beyond about 709) raises a ValueError naming it.
    """
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError(f"tol must lie in {list(TOL_RANGE)}")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    lams = _check_lambda(lams)
    path_x = None
    if path_nodes is not None:
        path_x = np.atleast_1d(np.asarray(path_nodes, dtype=float))
        if np.any(path_x < 0.0) or np.any(path_x > 1.0):
            raise ValueError("path_nodes must lie in [0, 1]")
    K = order + 1
    steps = step_count(v, lams, tol)
    M = np.zeros((K, 2, 2, lams.size), dtype=complex)
    path = None if path_x is None else np.empty((lams.size, path_x.size, 2, 2), complex)
    err = np.full(lams.size, np.inf)
    todo = np.arange(lams.size)
    for doubling in range(MAX_DOUBLINGS + 1):
        for n in np.unique(steps[todo]):
            idx = todo[steps[todo] == n]
            fine, fine_path = _propagate(v, int(n), lams[idx], K, path_x)
            bad = ~np.isfinite(fine).all(axis=(0, 1, 2))
            if bad.any():  # M overflows (|Im omega| beyond ~709): no doubling helps
                raise ValueError(f"monodromy not finite at lambda = {lams[idx][bad][0]}")
            if doubling:
                half = M[..., idx]
            else:
                half = _propagate(v, int(n) // 2, lams[idx], K)[0]
            err[idx] = _defect(fine, half) / (2**6 - 1)
            M[..., idx] = fine
            if path is not None:
                path[idx] = fine_path
        todo = todo[~(err[todo] <= np.maximum(tol / 3.0, ROUNDING * steps[todo]))]
        if todo.size == 0 or doubling == MAX_DOUBLINGS:
            break
        steps[todo] *= 2
    return BatchResult(lams, np.moveaxis(M, -1, 1), path, path_x, steps, err)


def integrate(
    v: Potential,
    lam,
    order: int = 1,
    tol: float = DEFAULT_TOL,
    path_nodes=None,
) -> BatchResult:
    """Monodromy data at a single lambda; see integrate_many."""
    res = integrate_many(v, [lam], order=order, tol=tol, path_nodes=path_nodes)
    return res.single(0)

