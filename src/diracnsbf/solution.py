"""Truncated series evaluation of U(lambda, x) and its lambda-derivative.

With the kernel coefficients C_n in hand, the fundamental matrix of the
Dirac system is the Bessel series

    U(lambda, x) = U0(lambda, x) + sum_{n=0}^{N} Kt_n(x) j_n(lambda x),

where the folded coefficients Kt absorb the parity signs and the B factor
of the odd terms (Kt_n = 2 (-1)^(n/2) C_n for even n and
2 (-1)^((n+1)/2) C_n B for odd n).  Both evaluators take the
KernelCoefficients the build returns, whose `folded` property forms Kt
on the first evaluation and keeps it.  The lambda-derivative follows from the
Bessel derivative identities and is assembled from j_n(z) and j_n(z)/z so
that lambda = 0 needs no limit handling anywhere.  `evaluate_U` is the one
evaluator: lambda and x broadcast against each other, and every point
shares one Bessel pass.  The dtype follows the inputs: a lambda whose
imaginary part is exactly zero is taken as real, and a real lambda on a
real potential (float64 Kt) evaluates in float64 from the Bessel pass to
the solve residual, bit for bit the real part of the complex evaluation;
any complex input keeps the complex path.
"""

from dataclasses import dataclass

import numpy as np

from .dirac import (
    _real_if_real,
    dirac_residual_nodes,
    free_solution,
    free_solution_dlambda,
)
from .grid import families_at
from .special import bessel_pair_batch

__all__ = [
    "IvpSolution",
    "evaluate_U",
    "solve_ivp",
]


@dataclass(frozen=True)
class IvpSolution:
    """Initial-value solution samples Y(lambda, x_i) = U^N(lambda, x_i) c."""

    lam: complex
    c: np.ndarray
    Y: np.ndarray
    residual_nodes: np.ndarray  # per-node norm of B Y' + Q Y - lambda Y

    @property
    def residual(self):
        """Max interior-node residual norm."""
        return float(np.max(self.residual_nodes[1:-1]))


def evaluate_U(coeffs, lam, x, derivative=False):
    """U^N(lambda, x), and dU^N/dlambda with derivative=True.

    lam and x broadcast against each other (0 <= x <= b); each result has
    the broadcast shape + (2, 2).  All points share one Bessel pass, since
    j_n(z) and j_n(z)/z are generated together.  Per order the derivative
    weights are
        even n:  x (n j_n(z)/z - j_{n+1}(z))
        odd n:   x (j_{n-1}(z) - (n+1) j_n(z)/z)
    with z = lambda x; the j_n(z)/z factors are exact at z = 0, so the
    apparent 1/lambda singularity never materializes.  Off-grid x takes
    piecewise-cubic interpolation of the folded coefficients.  The results
    are float64 for a real lambda and float64 folded coefficients.
    """
    (lam,) = _real_if_real(lam)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > coeffs.grid.b * (1 + 1e-12)):
        raise ValueError("x outside [0, b]")
    N = coeffs.N
    z = lam * x
    shape = (N + 2,) + z.shape
    jn, jz = (a.reshape(shape) for a in bessel_pair_batch(z.ravel(), N + 1))
    Kt = families_at(coeffs.grid, coeffs.folded, x)
    U = free_solution(lam, x) + np.einsum("n...,n...ij->...ij", jn[: N + 1], Kt)
    if not derivative:
        return U
    n = np.arange(N + 1).reshape((N + 1,) + (1,) * z.ndim)
    prev = np.concatenate((np.zeros_like(jn[:1]), jn[:N]))
    w = np.where(
        n % 2 == 0,
        x * (n * jz[: N + 1] - jn[1 : N + 2]),
        x * (prev - (n + 1) * jz[: N + 1]),
    )
    dU = free_solution_dlambda(lam, x) + np.einsum("n...,n...ij->...ij", w, Kt)
    return U, dU


def solve_ivp(coeffs, lam, c):
    """Initial-value solution Y(lambda, x_i) = U^N(lambda, x_i) c.

    Y is float64 when lambda, c and the potential are real.
    """
    (lam,) = _real_if_real(lam)
    (c,) = _real_if_real(np.reshape(c, 2))
    U = evaluate_U(coeffs, lam, coeffs.grid.nodes)
    # written out: a real stacked matmul rounds unlike the complex one
    Y = U[..., 0] * c[0] + U[..., 1] * c[1]
    resid = dirac_residual_nodes(Y, coeffs.potential, lam)
    return IvpSolution(lam=complex(lam), c=c, Y=Y, residual_nodes=resid)
