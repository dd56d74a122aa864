"""Run configuration and the versioned threshold table.

All tolerances live here in one place so the verification suite and the CLI
share a single source of truth.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .potential import Potential

# thresholds keyed by check id, in the order verification.run_suite reports
THRESHOLDS = {
    "monodromy_zero_closed_forms": 1e-8,
    "monodromy_wronskian": 1e-9,
    "monodromy_evenness": 1e-9,
    "monodromy_real_symmetry": 1e-10,
    "zero_spectrum": 1e-9,
    "counting_annulus": 0.5,
    "counting_discs": 0.5,
    "reciprocity": 1e-7,
    "reality_confinement": 1e-7,
    "product_reps": 1e-4,
    "product_reps_monotone": 0.5,
    "constraint_products": 1e-4,
    "canonical_zero": 1e-7,
    "canonical_symmetries": 1e-7,
    "sign_tables": 0.5,
    "gradient_fd": 1e-5,
    "gradient_fd_order": 0.1,  # max |FD order - 2| over the measured cases
    "gradient_zero_delta": 1e-9,
    "sigma_solve_residual": 1e-9,
    "sigma_newton_iters": 10.5,
    "normalization": 1e-6,
    "gap_confinement": 1e-8,
    "sigma_tau_estimate": 5.0,
    "normalization_negative": 1e-6,
    "interpolation": 1e-5,
    "trace_formula": 1e-7,
    "lamdot_refined": 10.0,
    "constraint_monotone": 0.5,
}


def _int_list(vals, lo, hi) -> bool:
    """vals is a non-empty list or tuple of ints (not bools) in lo..hi."""
    return isinstance(vals, (list, tuple)) and len(vals) > 0 and all(
        isinstance(k, int) and not isinstance(k, bool) and lo <= k <= hi for k in vals
    )


@dataclass
class RunConfig:
    """Knobs shared by the CLI and the verification suite."""

    n_max: int = 16
    K: int = 16
    nodes: int = 64
    newton_tol: float = 1e-9
    newton_max_iter: int = 12
    ode_tol: float = 1e-11
    spectral_tol: float = 1e-13
    seed: int = 0
    out_format: str = "json"
    product_K_list: tuple = (8, 16, 24, 32)
    differentials_n_list: tuple = (0, 1, 2)
    thresholds: dict = field(default_factory=lambda: dict(THRESHOLDS))

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("N_max must be >= 0")
        if self.K < self.n_max:
            raise ValueError("K must be >= N_max")
        if self.nodes < 8:
            raise ValueError("nodes must be >= 8")
        for name in ("newton_tol", "ode_tol", "spectral_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not _int_list(self.product_K_list, 1, float("inf")):
            raise ValueError("product_K_list must be a non-empty list of ints >= 1")
        if not _int_list(self.differentials_n_list, 0, self.K):
            raise ValueError(
                f"differentials_n_list must be a non-empty list of ints in 0..{self.K}"
            )

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a run configuration is a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(f"unknown run configuration keys: {', '.join(unknown)}")
        thr = dict(THRESHOLDS)
        given = d.pop("thresholds", {})
        unknown = sorted(set(given) - set(THRESHOLDS))
        if unknown:
            raise ValueError(f"unknown threshold ids: {', '.join(unknown)}")
        thr.update(given)
        cfg = RunConfig(**d)
        cfg.thresholds = thr
        return cfg

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def seeded_ensemble():
    """The fixed test potentials of the verification suite: two real, one
    genuinely complex but close to real."""
    v1 = Potential.cosine(0.1)
    v2 = Potential.from_modes({1: 0.025, 2: 0.015j}, {1: 0.01}, Kf=2)
    v3 = Potential.from_modes(
        {1: 0.03 + 0.002j, -1: 0.03, 2: 0.008, -2: 0.008 - 0.003j},
        {1: 0.012 + 0.004j, -1: 0.012, -2: 0.005j},
        Kf=2,
        real=False,
    )
    return [v1, v2, v3]
