"""Numerical toolkit for the periodic spectrum, canonical roots and
normalized differentials of the sinh-Gordon Lax operator on the torus."""

from .potential import Potential
from .monodromy import (
    BatchResult,
    closed_form_zero,
    integrate,
    integrate_many,
    omega,
)
from .quadrature import ContourSpec, contour_integral
from .spectrum import (
    IsolatingNeighborhoods,
    SpectrumTable,
    build_isolating,
    build_table,
    count_annulus,
    trace_formula_tau,
)
from .roots_products import (
    CanonicalRootEvaluator,
    NodeFamily,
    interpolate_reconstruct,
    sign_tables,
    standard_root,
    verify_product_reps,
)
from .differentials import (
    SigmaSolution,
    eval_psi,
    psi_negative,
    solve_sigma,
    verify_normalization,
)
from .config import RunConfig
from .verification import run_suite

__version__ = "0.1.0"
