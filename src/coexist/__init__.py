"""Numerical toolkit for co-existence of states in semilinear elliptic
Dirichlet problems: locates the bifurcation point on the trivial branch,
verifies the simple-eigenvalue bifurcation conditions, computes the
branch derivatives mu_s(0) and mu_ss(0), classifies the local geometry
into nine types, and validates the classification by tracing the
nontrivial branch.
"""

__version__ = "0.1.0"

from .continuation import (
    Branch,
    BranchFit,
    BranchPoint,
    fit_consistency,
    fit_local_expansion,
    solve_at_amplitude,
    trace_branch,
)
from .diagnostics import (
    AnalysisResult,
    BifurcationDiagnostics,
    CoexistenceSide,
    CoexistenceType,
    TableRow,
    diagnose,
    eigendata,
    psi_k_table,
    run_analysis,
)
from .errors import CoexistError, ConfigError, ConvergenceError
from .mesh import DomainSpec
from .nonlinearity import NonlinearityModel, apply, apply_derivative, derivative_at_zero
from .operators import Laplacian, bordered_solve

__all__ = [
    "__version__",
    "DomainSpec",
    "Laplacian",
    "bordered_solve",
    "NonlinearityModel",
    "derivative_at_zero",
    "apply",
    "apply_derivative",
    "CoexistenceType",
    "CoexistenceSide",
    "BifurcationDiagnostics",
    "AnalysisResult",
    "TableRow",
    "eigendata",
    "diagnose",
    "run_analysis",
    "psi_k_table",
    "BranchPoint",
    "BranchFit",
    "Branch",
    "solve_at_amplitude",
    "trace_branch",
    "fit_local_expansion",
    "fit_consistency",
    "CoexistError",
    "ConfigError",
    "ConvergenceError",
]
