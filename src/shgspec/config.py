"""Run configuration and the versioned threshold table.

THRESHOLDS is the one place a gate's threshold is read, by the suite and the
CLI alike; RunConfig holds only the five values the CLI flags set.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from numbers import Real
from typing import ClassVar

from .monodromy import TOL_RANGE
from .potential import Potential

# thresholds keyed by check id; verification.run_suite reports in this order
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


@dataclass
class RunConfig:
    """The values the CLI flags set; the tolerances no flag sets are constants."""

    n_max: int = 16
    nodes: int = 64
    ode_tol: float = 1e-11
    seed: int = 0
    out_format: str = "json"

    newton_tol: ClassVar[float] = 1e-9
    newton_max_iter: ClassVar[int] = 12
    spectral_tol: ClassVar[float] = 1e-13

    def __post_init__(self):
        for name in ("n_max", "nodes", "seed"):
            if type(getattr(self, name)) is not int:  # refuses True and 6.5 alike
                raise ValueError(f"{name} must be an integer")
        if not isinstance(self.ode_tol, Real) or not TOL_RANGE[0] <= self.ode_tol <= TOL_RANGE[1]:
            raise ValueError(f"ode_tol must be a number in {list(TOL_RANGE)}")
        if self.out_format not in ("json", "csv"):
            raise ValueError('out_format must be "json" or "csv"')
        if self.n_max < 2:  # the sigma system is solved for n = 0, 1, 2
            raise ValueError("N_max must be >= 2")
        if self.nodes < 8:
            raise ValueError("nodes must be >= 8")

    @property
    def K(self) -> int:
        """The product truncation: the table's own range n_max."""
        return self.n_max

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a run configuration is a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ValueError(f"unknown run configuration keys: {', '.join(unknown)}")
        return RunConfig(**d)

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
