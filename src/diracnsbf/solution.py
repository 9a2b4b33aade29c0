"""Truncated series evaluation of U(lambda, x) and its lambda-derivative.

With the kernel coefficients C_n in hand, the fundamental matrix of the
Dirac system is the Bessel series

    U(lambda, x) = U0(lambda, x) + sum_{n=0}^{N} Kt_n(x) j_n(lambda x),

where the folded coefficients Kt absorb the parity signs and the B factor
of the odd terms (Kt_n = 2 (-1)^(n/2) C_n for even n and
2 (-1)^((n+1)/2) C_n B for odd n).  The lambda-derivative follows from the
Bessel derivative identities and is assembled from j_n(z) and j_n(z)/z so
that lambda = 0 needs no limit handling anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .dirac import (
    B_MAT,
    dirac_residual_nodes,
    free_solution,
    free_solution_dlambda,
)
from .grid import cubic_interp
from .special import bessel_pair_batch

__all__ = [
    "NsbfEvaluator",
    "IvpSolution",
    "build_evaluator",
    "evaluate_U",
    "evaluate_U_end",
    "evaluate_U_nodes",
    "evaluate_dU_dlambda",
    "solve_ivp",
]


@dataclass(frozen=True)
class NsbfEvaluator:
    """Precomputed folded coefficients for fast sweeps over lambda."""

    coeffs: object
    Ktilde: np.ndarray  # (N + 1, M + 1, 2, 2)

    @property
    def grid(self):
        return self.coeffs.grid

    @property
    def N(self):
        return self.coeffs.N

    @property
    def b(self):
        return self.coeffs.grid.b


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


def build_evaluator(coeffs):
    """Fold parity signs and the B factor into per-order coefficients."""
    N = coeffs.N
    Kt = np.empty((N + 1,) + coeffs.coeff(0).shape, dtype=complex)
    for n in range(N + 1):
        if n % 2 == 0:
            Kt[n] = 2.0 * (-1.0) ** (n // 2) * coeffs.coeff(n)
        else:
            Kt[n] = 2.0 * (-1.0) ** ((n + 1) // 2) * (coeffs.coeff(n) @ B_MAT)
    return NsbfEvaluator(coeffs=coeffs, Ktilde=Kt)


def _coeffs_at(ev, x):
    """Folded coefficients at one x: node row or cubic interpolation."""
    grid = ev.grid
    t = x / grid.h
    i = int(round(t))
    if abs(t - i) < 1e-9 and 0 <= i <= grid.M:
        return ev.Ktilde[:, i]
    vals = np.empty((ev.N + 1, 2, 2), dtype=complex)
    for n in range(ev.N + 1):
        vals[n] = cubic_interp(grid, ev.Ktilde[n], x)[0]
    return vals


def _point_values(ev, lams, x):
    """U^N(lambda, x) and dU^N/dlambda(lambda, x) for a 1-D array of lambdas.

    Both come from one batched Bessel pass, since j_n(z) and j_n(z)/z are
    generated together.  Per order the derivative weights are
        even n:  x (n j_n(z)/z - j_{n+1}(z))
        odd n:   x (j_{n-1}(z) - (n+1) j_n(z)/z)
    with z = lambda x; the j_n(z)/z factors are exact at z = 0, so the
    apparent 1/lambda singularity never materializes.  Each result has
    shape (len(lams), 2, 2).
    """
    x = float(x)
    if not 0.0 <= x <= ev.b * (1 + 1e-12):
        raise ValueError("x outside [0, b]")
    lams = np.asarray(lams, dtype=complex)
    Kt = _coeffs_at(ev, x)
    N = ev.N
    jn, jz = bessel_pair_batch(lams * x, N + 1)
    n = np.arange(N + 1)[:, None]
    prev = np.concatenate((np.zeros_like(jn[:1]), jn[:N]))
    w = np.where(
        n % 2 == 0,
        x * (n * jz[: N + 1] - jn[1 : N + 2]),
        x * (prev - (n + 1) * jz[: N + 1]),
    )
    U = free_solution(lams, x) + np.einsum("nm,nij->mij", jn[: N + 1], Kt)
    dU = free_solution_dlambda(lams, x) + np.einsum("nm,nij->mij", w, Kt)
    return U, dU


def evaluate_U(ev, lam, x):
    """U^N(lambda, x) at a single point, 0 <= x <= b."""
    return _point_values(ev, [lam], x)[0][0]


def evaluate_dU_dlambda(ev, lam, x):
    """d/dlambda of U^N(lambda, x) at a single point, finite at lambda = 0."""
    return _point_values(ev, [lam], x)[1][0]


def evaluate_U_end(ev, lams):
    """U^N(lambda, b) and dU^N/dlambda(lambda, b) for a 1-D array of lambdas,
    from one batched Bessel pass; each has shape (len(lams), 2, 2)."""
    return _point_values(ev, lams, ev.b)


def evaluate_U_nodes(ev, lam):
    """U^N(lambda, x_i) on every grid node, vectorized over the nodes."""
    x = ev.grid.nodes
    jn, _ = bessel_pair_batch(lam * x, ev.N + 1)
    out = free_solution(lam, x)
    out += np.einsum("nm,nmij->mij", jn[: ev.N + 1], ev.Ktilde)
    return out


def solve_ivp(ev, lam, c):
    """Initial-value solution Y(lambda, x_i) = U^N(lambda, x_i) c."""
    c = np.asarray(c, dtype=complex).reshape(2)
    U = evaluate_U_nodes(ev, lam)
    Y = U @ c
    resid = dirac_residual_nodes(Y, ev.coeffs.potential, lam)
    return IvpSolution(lam=complex(lam), c=c, Y=Y, residual_nodes=resid)
