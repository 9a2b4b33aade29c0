"""Zakharov-Shabat / AKNS systems through the canonical Dirac machinery.

The ZS-AKNS system V' = Q_zs V + i lambda s3 V with

    Q_zs = [[0, nu], [conj(nu), 0]],    s3 = diag(1, -1),

maps to a canonical Dirac problem with potential entries p = Im nu,
q = -Re nu; the ZS fundamental matrix is the constant conjugation
Z(lambda, x) = A^-1 U(lambda, x) A with A = [[i, -i], [1, 1]], so
evaluation reuses the Dirac evaluator directly.
"""

from dataclasses import dataclass

import numpy as np

from .dirac import Potential, fundamental_solution_zero
from .grid import check_same_grid
from .kernel import build_coefficients
from .solution import build_evaluator, evaluate_U

__all__ = [
    "A_MAT",
    "A_INV",
    "ZsPotential",
    "ZsEvaluator",
    "zs_to_dirac",
    "build_zs_evaluator",
    "evaluate_Z",
]

A_MAT = np.array([[1j, -1j], [1.0, 1.0]], dtype=complex)
A_INV = np.array([[-0.5j, 0.5], [0.5j, 0.5]], dtype=complex)


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


def zs_to_dirac(zs):
    """Canonical Dirac potential with p = Im nu, q = -Re nu (real for any nu)."""
    p_fn = q_fn = None
    if zs.nu_fn is not None:
        p_fn = lambda x: np.imag(zs.nu_fn(x))
        q_fn = lambda x: -np.real(zs.nu_fn(x))
    return Potential(zs.grid, zs.nu.imag, -zs.nu.real, p_fn=p_fn, q_fn=q_fn)


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
