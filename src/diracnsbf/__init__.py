"""Dirac-system solver based on Neumann series of Bessel functions.

The canonical system B Y' + Q(x) Y = lambda Y on [0, b] is solved through
the Fourier-Legendre expansion of its transmutation kernel: the expansion
coefficients come out of one recursion driven by quadratures against the
lambda = 0 fundamental matrix, and the truncated series then evaluates
U(lambda, x) with accuracy uniform in the spectral parameter, which is
what makes large eigenvalue sets computable without accuracy loss at high
index.
"""

from .dirac import (
    B_MAT,
    HomogeneousSolution,
    Potential,
    ResidualError,
    apply_S,
    dirac_residual,
    free_solution,
    fundamental_solution_zero,
    invert_unimodular,
)
from .exprparse import ParseError, evaluate, parse
from .formal_powers import (
    FormalPowerSet,
    ParticularSolution,
    build_formal_powers,
    build_particular_solution,
    kernel_coeffs_via_mapping,
    mapped_coefficients,
    phi_psi,
    sign_calibration,
)
from .gauge import diagonal_to_canonical, rotate_boundary_blocks, rotation
from .grid import Grid, GridMismatchError, differentiate, indefinite_integral
from .kernel import (
    DEFAULT_TRUNCATION,
    GoursatResiduals,
    KernelCoefficients,
    TruncationReport,
    auto_truncation,
    build_coefficients,
    goursat_residuals,
    kernel_eval,
)
from .solution import (
    IvpSolution,
    NsbfEvaluator,
    build_evaluator,
    evaluate_U,
    solve_ivp,
)
from .special import (
    LegendreMonomialTable,
    bessel_pair_batch,
    legendre_eval,
    legendre_monomial_coeffs,
)
from .spectral import (
    BoundaryCondition,
    EigenvalueRecord,
    ScanOptions,
    char_function,
    refine_root,
    scan_eigenvalues,
)
from .zs import (
    ZsEvaluator,
    ZsPotential,
    build_zs_evaluator,
    evaluate_Z,
    zs_ode_residual,
    zs_to_dirac,
)

__version__ = "0.1.0"
