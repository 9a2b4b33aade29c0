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
    HomogeneousSolution,
    Potential,
    ResidualError,
    apply_S,
    free_solution,
    fundamental_solution_zero,
    invert_unimodular,
)
from .exprparse import ParseError, evaluate, parse
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
    evaluate_U,
    solve_ivp,
)
from .special import bessel_pair_batch
from .spectral import (
    BoundaryCondition,
    ScanResult,
    char_function,
    scan_eigenvalues,
)
from .zs import ZsPotential, evaluate_Z, zs_to_dirac

__version__ = "0.1.0"
