"""Zakharov-Shabat / AKNS systems through the canonical Dirac machinery.

The ZS-AKNS system V' = Q_zs V + i lambda s3 V with

    Q_zs = [[0, nu], [conj(nu), 0]],    s3 = diag(1, -1),

maps to a canonical Dirac problem with potential entries p = Im nu,
q = -Re nu; the ZS fundamental matrix is the constant conjugation
Z(lambda, x) = A^-1 U(lambda, x) A with A = [[i, -i], [1, 1]].  So a ZS
problem is built like any other, from the potential zs_to_dirac(zs), and
evaluate_Z conjugates what evaluate_U gives for those coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .dirac import Potential
from .grid import check_same_grid
from .solution import evaluate_U

__all__ = [
    "A_MAT",
    "A_INV",
    "ZsPotential",
    "zs_to_dirac",
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


def evaluate_Z(coeffs, lam, x):
    """Z(lambda, x) = A^-1 U(lambda, x) A;  Z(lambda, 0) = I.

    coeffs are the kernel coefficients of zs_to_dirac(zs); lam and x
    broadcast as in `evaluate_U`.
    """
    return A_INV @ evaluate_U(coeffs, lam, x) @ A_MAT
