"""Zakharov-Shabat / AKNS systems through the canonical Dirac machinery.

The ZS-AKNS system V' = Q_zs V + i lambda s3 V with

    Q_zs = [[0, nu], [conj(nu), 0]],    s3 = diag(1, -1),

maps to a canonical Dirac problem with potential entries p = Im nu,
q = -Re nu; the ZS fundamental matrix is the constant conjugation
Z(lambda, x) = A^-1 U(lambda, x) A with A = [[i, -i], [1, 1]].  The series
coefficients of Z are the conjugated kernel coefficients (even orders
A^-1 C_n A, odd orders A^-1 C_n B A); they are materialized only for
coefficient dumps, while evaluation reuses the Dirac evaluator directly.
"""

from dataclasses import dataclass

import numpy as np

from .dirac import Potential, _b_right, fundamental_solution_zero
from .grid import check_same_grid, differentiate
from .kernel import build_coefficients
from .solution import build_evaluator, evaluate_U

__all__ = [
    "A_MAT",
    "A_INV",
    "SIGMA3",
    "ZsPotential",
    "ZsEvaluator",
    "zs_to_dirac",
    "build_zs_evaluator",
    "evaluate_Z",
    "zs_series_coefficients",
    "zs_ode_residual",
]

A_MAT = np.array([[1j, -1j], [1.0, 1.0]], dtype=complex)
A_INV = np.array([[-0.5j, 0.5], [0.5j, 0.5]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class ZsPotential:
    """Sampled complex ZS potential nu on the grid."""

    grid: object
    nu: np.ndarray
    nu_fn: object = None

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=complex)
        check_same_grid(self.grid, nu)
        if not np.all(np.isfinite(nu)):
            raise ValueError("nu samples must be finite")
        object.__setattr__(self, "nu", nu)

    @classmethod
    def from_function(cls, grid, nu_fn):
        nu = np.broadcast_to(
            np.asarray(nu_fn(grid.nodes), dtype=complex), (grid.size,)
        ).copy()
        return cls(grid, nu, nu_fn=nu_fn)

    @property
    def matrices(self):
        """Q_zs(x_i) = [[0, nu], [conj(nu), 0]]."""
        out = np.zeros((self.grid.size, 2, 2), dtype=complex)
        out[:, 0, 1] = self.nu
        out[:, 1, 0] = np.conj(self.nu)
        return out


def zs_to_dirac(zs):
    """Canonical Dirac potential with p = Im nu, q = -Re nu."""
    p_fn = q_fn = None
    if zs.nu_fn is not None:
        p_fn = lambda x: np.imag(zs.nu_fn(x)) + 0j
        q_fn = lambda x: -np.real(zs.nu_fn(x)) + 0j
    return Potential(
        zs.grid,
        zs.nu.imag.astype(complex),
        (-zs.nu.real).astype(complex),
        p_fn=p_fn,
        q_fn=q_fn,
    )


@dataclass(frozen=True)
class ZsEvaluator:
    """Conjugation wrapper around the Dirac series evaluator."""

    zs: ZsPotential
    inner: object

    @property
    def grid(self):
        return self.zs.grid

    @property
    def N(self):
        return self.inner.N


def build_zs_evaluator(zs, N):
    Q = zs_to_dirac(zs)
    hom = fundamental_solution_zero(Q)
    return ZsEvaluator(zs=zs, inner=build_evaluator(build_coefficients(Q, hom, N)))


def evaluate_Z(zev, lam, x):
    """Z(lambda, x) = A^-1 U(lambda, x) A;  Z(lambda, 0) = I.

    lam and x broadcast as in `evaluate_U`.
    """
    return A_INV @ evaluate_U(zev.inner, lam, x) @ A_MAT


def zs_series_coefficients(zev):
    """Conjugated series coefficients of Z, one (2, 2) block per order.

    Order n holds A^-1 C_n A for even n and A^-1 C_n B A for odd n, so
    that Z = A^-1 U0 A + sum_n (+-2) (conjugated C_n) j_n(lambda x) with
    the same parity sign pattern as the canonical series.
    """
    K = zev.inner.coeffs.coeffs.astype(complex)
    K[1::2] = _b_right(K[1::2])
    return A_INV @ K @ A_MAT


def zs_ode_residual(zev, lam):
    """Max interior-node norm of Z' - Q_zs Z - i lambda s3 Z."""
    grid = zev.grid
    Z = evaluate_Z(zev, lam, grid.nodes)
    dZ = differentiate(grid, Z)
    R = dZ - zev.zs.matrices @ Z - 1j * lam * (SIGMA3 @ Z)
    return float(np.max(np.linalg.matrix_norm(R[1:-1], ord=2)))
