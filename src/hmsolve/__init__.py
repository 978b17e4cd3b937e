"""Solvers and benchmarks for variational inclusions 0 in A(u) + M(u).

The inclusion is solved through the resolvent (H + lam*M)^{-1}, which turns
it into the fixed-point equation x = F(x) with F(x) = R[H x - lam*A x].
Four iterative schemes, their contraction/feasibility analysis and a
convergence-rate comparison harness are provided, all verified numerically
on problems with known solutions.
"""

from .analysis import (
    contraction_factor,
    envelope,
    equivalence_audit,
    feasible_lambda,
    optimal_lambda,
    rate_compare,
)
from .operators import (
    AffineLinear,
    DiagonalNonlinear,
    InconsistentConstantsError,
    OperatorConstants,
    ScaledIdentity,
    ShiftedSubdifferential,
    UnsupportedOperatorError,
    catalog_constants,
)
from .problems import gen_scalar_affine, gen_soft_threshold, gen_spd_linear
from .resolvent import ResolventDivergenceError, ResolventEngine
from .schemes import (
    IterationTrace,
    ProblemInstance,
    StepSequence,
    StoppingRule,
    as_vector,
    casting,
    make_step_sequence,
    run_fh,
    run_mann,
    run_new,
    run_scheme,
    run_zgy,
)

__version__ = "0.1.0"
