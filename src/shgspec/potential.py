"""Periodic potentials v=(q,p) on the unit torus and their field evaluations.

A potential is stored as a pair of truncated Fourier series

    q(x) = sum_{|k|<=Kf} q_k e^{2 pi i k x},    p(x) likewise.

All downstream field evaluations (q, dq/dx, the smoothing operator P applied
to p, exp(+-q)) are spectral: derivatives and the Fourier multiplier
P = sqrt(1 - d_x^2) act diagonally on coefficients, and exp(+-q) is expanded
by FFT once per potential, on a grid fine enough to resolve it, and then
evaluated anywhere by trigonometric interpolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Potential",
    "Z2",
    "R2",
    "pi_k",
    "family_var",
    "p_multiplier",
    "to_pair",
    "from_pair",
]

# constant 2x2 matrices of the Lax operator
Z2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
R2 = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)

REAL_SYM_TOL = 1e-14
# the e^{+-q} grid N = 64 * 2^j: its modes at |k| >= N/4 at most EXPQ_TAIL of the largest
EXPQ_TAIL, EXPQ_MAX_GRID = 1e-15, 2**14


def pi_k(k):
    """Normalizing denominators of the infinite products: k*pi, except 1 at k=0."""
    k = np.asarray(k, dtype=float)
    return np.where(k == 0, 1.0, k * np.pi)


def family_var(j, lam):
    """The variable of node family j: lambda for j = 1, -1/(16 lambda) for j = 2.

    Both maps are involutions, so the same call takes a family-j node back to
    the lambda-plane."""
    if j == 1:
        return lam
    if j == 2:
        return -1.0 / (16.0 * lam)
    raise ValueError("j must be 1 or 2")


def p_multiplier(k):
    """Fourier symbol of P = sqrt(1 - d_x^2) at frequency k (period 1)."""
    k = np.asarray(k, dtype=float)
    return np.sqrt(1.0 + 4.0 * np.pi**2 * k**2)


def to_pair(z):
    """The JSON form [re, im] of a complex number."""
    z = complex(z)
    return [z.real, z.imag]


def from_pair(pair):
    """The complex number of a JSON [re, im] pair."""
    re, im = pair
    return complex(re, im)


def _as_coeff_array(coeffs, Kf):
    out = np.zeros(2 * Kf + 1, dtype=complex)
    if isinstance(coeffs, dict):
        for k, c in coeffs.items():
            if abs(int(k)) > Kf:
                raise ValueError(f"mode {k} outside band limit Kf={Kf}")
            out[int(k) + Kf] = c
    else:
        arr = np.asarray(coeffs, dtype=complex)
        if arr.shape != (2 * Kf + 1,):
            raise ValueError(f"expected {2*Kf+1} coefficients, got {arr.shape}")
        out[:] = arr
    return out


@dataclass(frozen=True, eq=False)
class Potential:
    """Band-limited periodic potential v=(q,p), coefficients indexed k=-Kf..Kf."""

    q_coeffs: np.ndarray
    p_coeffs: np.ndarray
    Kf: int
    real: bool = True
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @staticmethod
    def from_modes(q=None, p=None, Kf=None, real=True) -> "Potential":
        """Build from {frequency: coefficient} maps (missing modes are zero)."""
        q = dict(q or {})
        p = dict(p or {})
        if Kf is None:
            Kf = max([abs(int(k)) for k in list(q) + list(p)] + [1])
        if real:
            # fill conjugate partners so real maps may list only k >= 0
            for coeffs in (q, p):
                for k in list(coeffs):
                    if -int(k) not in coeffs:
                        coeffs[-int(k)] = np.conj(coeffs[k])
        v = Potential(_as_coeff_array(q, Kf), _as_coeff_array(p, Kf), Kf, real)
        v.validate()
        return v

    @staticmethod
    def zero() -> "Potential":
        return Potential.from_modes({}, {}, Kf=1)

    @staticmethod
    def cosine(amplitude_q=0.1, mode=1, amplitude_p=0.0) -> "Potential":
        """Real potential q = a*cos(2 pi m x), p = b*cos(2 pi m x)."""
        return Potential.from_modes(
            {mode: amplitude_q / 2.0, -mode: amplitude_q / 2.0},
            {mode: amplitude_p / 2.0, -mode: amplitude_p / 2.0},
            Kf=max(mode, 1),
        )

    def validate(self):
        if not (
            np.all(np.isfinite(self.q_coeffs)) and np.all(np.isfinite(self.p_coeffs))
        ):
            raise ValueError("non-finite Fourier coefficient")
        if self.real:
            for c in (self.q_coeffs, self.p_coeffs):
                if np.max(np.abs(c[::-1] - np.conj(c))) > REAL_SYM_TOL:
                    raise ValueError(
                        "potential flagged real but coefficients are not "
                        "conjugate-symmetric"
                    )

    # -- involutions -------------------------------------------------------

    def reflected(self) -> "Potential":
        """The reciprocity image (q,p) -> (-q,p); exact on coefficients."""
        return Potential(-self.q_coeffs.copy(), self.p_coeffs.copy(), self.Kf, self.real)

    # -- pointwise evaluation ----------------------------------------------

    @property
    def modes(self):
        return np.arange(-self.Kf, self.Kf + 1)

    def q_at(self, x):
        return _trig_eval(self.q_coeffs, self.modes, x)

    def dq_at(self, x):
        return _trig_eval(self.q_coeffs * (2j * np.pi * self.modes), self.modes, x)

    def Pp_at(self, x):
        return _trig_eval(self.p_coeffs * p_multiplier(self.modes), self.modes, x)

    def w_at(self, x):
        """The off-diagonal Lax field w = P p + q_x."""
        return self.Pp_at(x) + self.dq_at(x)

    def q0(self):
        """q(0), the boundary value entering the EV_0 gradient terms."""
        return complex(np.sum(self.q_coeffs))

    def exp_q_coeffs(self):
        """Fourier coefficients of (exp(-q), exp(q)), cached: the FFT on the
        smallest grid N = 64 * 2^j, N >= 4 Kf, on which both series are resolved
        (modes at |k| >= N/4 at most EXPQ_TAIL of their largest).  A non-finite
        sample, or no such N up to EXPQ_MAX_GRID, raises a ValueError."""
        if "expq" not in self._cache:
            n = 64
            while True:
                qx = self.q_at(np.arange(n) / n)
                em, ep = np.exp(-qx), np.exp(qx)
                if not np.all(np.isfinite(em) & np.isfinite(ep)):
                    raise ValueError(f"exp(+-q) is not finite on the {n}-point grid")
                cm, cp = np.fft.fft(em) / n, np.fft.fft(ep) / n
                ks = np.fft.fftfreq(n, d=1.0 / n)
                tail = np.abs(ks) >= n / 4
                if n >= 4 * self.Kf and all(np.abs(c[tail]).max() <= EXPQ_TAIL * np.abs(c).max()
                                            for c in (cm, cp)):
                    break
                if n >= EXPQ_MAX_GRID:
                    raise ValueError(f"exp(+-q) is not resolved on {n} points")
                n *= 2
            # drop numerically negligible modes; shortens interpolation sums
            keep = (np.abs(cm) + np.abs(cp)) > 1e-17 * max(1.0, np.abs(cp).max(), np.abs(cm).max())
            self._cache["expq"] = (ks[keep], cm[keep], cp[keep])
        return self._cache["expq"]

    def exp_q_at(self, x):
        """(exp(-q)(x), exp(q)(x)) by spectral interpolation of the cached series."""
        ks, cm, cp = self.exp_q_coeffs()
        f = _trig_eval(np.stack([cm, cp]), ks.astype(int), x)
        return f[0], f[1]

    def h1_norm(self) -> float:
        m = p_multiplier(self.modes) ** 2
        return float(
            np.sqrt(
                np.sum(m * np.abs(self.q_coeffs) ** 2)
                + np.sum(m * np.abs(self.p_coeffs) ** 2)
            )
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "real": bool(self.real),
                "Kf": int(self.Kf),
                "q": [to_pair(c) for c in self.q_coeffs],
                "p": [to_pair(c) for c in self.p_coeffs],
            }
        )

    @staticmethod
    def from_json(text: str) -> "Potential":
        d = json.loads(text)
        Kf = int(d["Kf"])
        q = np.array([from_pair(c) for c in d["q"]])
        p = np.array([from_pair(c) for c in d["p"]])
        v = Potential(
            _as_coeff_array(q, Kf),
            _as_coeff_array(p, Kf),
            Kf,
            bool(d.get("real", True)),
        )
        v.validate()
        return v


def _phases(x, kmax):
    """e^{2 pi i k x} for k = -kmax..kmax, shape (2 kmax + 1,) + x.shape.

    Powers of e^{2 pi i x} by repeated multiplication (relative error about
    k eps): one complex exponential per point instead of one per point and
    mode."""
    e1 = np.exp(2j * np.pi * np.asarray(x, dtype=float))
    ph = np.empty((2 * kmax + 1,) + e1.shape, dtype=complex)
    ph[kmax] = 1.0
    for k in range(1, kmax + 1):
        np.multiply(ph[kmax + k - 1], e1, out=ph[kmax + k, ...])
        np.conjugate(ph[kmax + k], out=ph[kmax - k, ...])
    return ph


def _trig_eval(coeffs, modes, x):
    """sum_k coeffs[..., k] e^{2 pi i modes[k] x}, shape coeffs.shape[:-1] + x.shape."""
    kmax = int(np.max(np.abs(modes)))
    return np.tensordot(coeffs, _phases(x, kmax)[modes + kmax], axes=(-1, 0))
