"""Canonical Dirac system data and its lambda = 0 machinery.

The system under study is B Y' + Q(x) Y = lambda Y on [0, b] with

    B = [[0, 1], [-1, 0]],    Q = [[p, q], [q, -p]],

p, q complex-valued.  This module holds the potential, the free solution
(Q = 0), the fundamental matrix U(0, x) of the homogeneous system with its
inverse obtained from unimodularity, the variation-of-parameters operator
S that solves B Y' + Q Y = H with Y(0) = 0, and finite-difference residual
diagnostics used throughout the test surface.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (
    Grid,
    check_same_grid,
    cubic_interp,
    differentiate,
    indefinite_integral,
)

__all__ = [
    "B_MAT",
    "I2",
    "ResidualError",
    "Potential",
    "HomogeneousSolution",
    "free_solution",
    "fundamental_solution_zero",
    "invert_unimodular",
    "apply_S",
    "apply_A",
    "dirac_residual",
    "dirac_residual_nodes",
    "matrix_norm",
]

B_MAT = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


# RK4 refinement of each grid cell used by fundamental_solution_zero.
_SUBSTEPS = 10


class ResidualError(RuntimeError):
    """Solve came out above tolerance; the grid needs refinement."""


def matrix_norm(a):
    """Spectral norm, batched over leading axes."""
    return np.linalg.matrix_norm(a, ord=2)


@dataclass(frozen=True)
class Potential:
    """Sampled trace-free symmetric potential Q = [[p, q], [q, -p]].

    Optional callables provide off-grid values (used by the refined-mesh
    ODE integrator); tabulated potentials fall back to local cubic
    interpolation of the node values.
    """

    grid: Grid
    p: np.ndarray
    q: np.ndarray
    p_fn: object = field(default=None, repr=False, compare=False)
    q_fn: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=complex)
        q = np.asarray(self.q, dtype=complex)
        check_same_grid(self.grid, p)
        check_same_grid(self.grid, q)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("potential samples must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def zero(cls, grid):
        z = np.zeros(grid.size, dtype=complex)
        return cls(grid, z, z.copy(), p_fn=lambda x: np.zeros_like(x, dtype=complex),
                   q_fn=lambda x: np.zeros_like(x, dtype=complex))

    @classmethod
    def constant(cls, grid, p, q):
        return cls(
            grid,
            np.full(grid.size, p, dtype=complex),
            np.full(grid.size, q, dtype=complex),
            p_fn=lambda x, _p=p: np.full_like(x, _p, dtype=complex),
            q_fn=lambda x, _q=q: np.full_like(x, _q, dtype=complex),
        )

    @classmethod
    def from_functions(cls, grid, p_fn, q_fn):
        # constant expressions may come back 0-d; broadcast per node
        p = np.broadcast_to(
            np.asarray(p_fn(grid.nodes), dtype=complex), (grid.size,)
        ).copy()
        q = np.broadcast_to(
            np.asarray(q_fn(grid.nodes), dtype=complex), (grid.size,)
        ).copy()
        return cls(grid, p, q, p_fn=p_fn, q_fn=q_fn)

    @cached_property
    def matrices(self):
        """Q(x_i) as an (M + 1, 2, 2) array."""
        out = np.empty((self.grid.size, 2, 2), dtype=complex)
        out[:, 0, 0] = self.p
        out[:, 0, 1] = self.q
        out[:, 1, 0] = self.q
        out[:, 1, 1] = -self.p
        return out

    @cached_property
    def sup_norm(self):
        return float(np.max(matrix_norm(self.matrices)))

    def values_at(self, x):
        """(p(x), q(x)) off-grid, from the callables when available."""
        x = np.asarray(x, dtype=float)
        if self.p_fn is not None and self.q_fn is not None:
            return (
                np.broadcast_to(np.asarray(self.p_fn(x), dtype=complex), x.shape),
                np.broadcast_to(np.asarray(self.q_fn(x), dtype=complex), x.shape),
            )
        return (
            cubic_interp(self.grid, self.p, x),
            cubic_interp(self.grid, self.q, x),
        )


def free_solution(lam, x):
    """Free fundamental matrix [[cos lx, -sin lx], [sin lx, cos lx]].

    lam and x broadcast; the result has the broadcast shape + (2, 2).
    """
    z = np.asarray(lam * np.asarray(x), dtype=complex)
    c, s = np.cos(z), np.sin(z)
    out = np.empty(z.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def free_solution_dlambda(lam, x):
    """d/dlambda of the free solution, closed form.

    lam and x broadcast; the result has the broadcast shape + (2, 2).
    """
    z = np.asarray(lam * np.asarray(x), dtype=complex)
    c, s = np.cos(z), np.sin(z)
    x = np.asarray(x)
    out = np.empty(np.shape(z) + (2, 2), dtype=complex)
    out[..., 0, 0] = -x * s
    out[..., 0, 1] = -x * c
    out[..., 1, 0] = x * c
    out[..., 1, 1] = -x * s
    return out


def invert_unimodular(a, tol=1e-6):
    """Inverse of (a batch of) 2x2 matrices with det = 1, by adjugate.

    [[a, b], [c, d]] -> [[d, -b], [-c, a]]; a determinant drifting beyond
    tol from 1 is rejected since the adjugate would silently stop being
    the inverse.
    """
    a = np.asarray(a, dtype=complex)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if np.max(np.abs(det - 1.0)) > tol:
        raise ValueError("matrix is not unimodular within tolerance")
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    return out


@dataclass(frozen=True)
class HomogeneousSolution:
    """U(0, x) with U(0, 0) = I, plus its adjugate inverse, per node."""

    grid: Grid
    U: np.ndarray
    Uinv: np.ndarray

    @property
    def det_defect(self):
        det = self.U[:, 0, 0] * self.U[:, 1, 1] - self.U[:, 0, 1] * self.U[:, 1, 0]
        return float(np.max(np.abs(det - 1.0)))


def _mul2(a, b):
    """Batched 2x2 product a @ b, written out entry by entry.

    Much cheaper than a stacked `@`, which dispatches one tiny matrix
    product per node; broadcasting over the leading axes as `@` does.
    """
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _b_left(X):
    """B X for a batch of 2x2 matrices: the rows swapped, the new second negated."""
    out = np.empty_like(X)
    out[..., 0, :] = X[..., 1, :]
    out[..., 1, :] = -X[..., 0, :]
    return out


def _b_right(X):
    """X B for a batch of 2x2 matrices: the columns swapped, the new first negated."""
    out = np.empty_like(X)
    out[..., :, 0] = -X[..., :, 1]
    out[..., :, 1] = X[..., :, 0]
    return out


def _coefficient_samples(Q, substeps):
    """B Q(x) on the refinement needed by the RK4 sweep (h/substeps/2)."""
    grid = Q.grid
    n_fine = 2 * grid.M * substeps
    x = np.linspace(0.0, grid.b, n_fine + 1)
    p, q = Q.values_at(x)
    A = np.empty((n_fine + 1, 2, 2), dtype=complex)
    # B Q = [[q, -p], [-p, -q]]
    A[:, 0, 0] = q
    A[:, 0, 1] = -p
    A[:, 1, 0] = -p
    A[:, 1, 1] = -q
    return A


def _rk4_step_maps(A, h):
    """D_k of every RK4 step u -> (I + D_k) u of u' = A u, in one expression.

    Step k uses the samples a0, am, a1 = A[2k], A[2k + 1], A[2k + 2]; the
    classical stages expand to

        D = h/6 [(a0 + 4 am + a1) + h (am a0 + am^2 + a1 am)
                 + h^2/2 (am^2 a0 + a1 am^2) + h^3/4 a1 am^2 a0].

    A = B Q is trace-free, so am^2 = (p^2 + q^2) I exactly (also in
    floating point), which leaves three genuine 2x2 products.
    """
    a0, am, a1 = A[0:-1:2], A[1::2], A[2::2]
    s = (am[:, 0, 0] ** 2 + am[:, 0, 1] ** 2)[:, None, None]  # am^2 = s I
    ends = a0 + a1
    D = 4.0 * am + ends + h * (_mul2(am, a0) + _mul2(a1, am) + s * I2)
    D += (0.5 * h * h) * s * ends + (0.25 * h**3) * s * _mul2(a1, a0)
    D *= h / 6.0
    return D


def _compose(Dl, De):
    """D of (I + Dl)(I + De): the later map on the left, I never formed."""
    return Dl + De + _mul2(Dl, De)


def fundamental_solution_zero(Q, substeps=_SUBSTEPS, check=True):
    """Fundamental matrix U(0, x) of B Y' + Q Y = 0, U(0, 0) = I.

    Classical fixed-step RK4 on a `substeps`-fold refinement of the grid
    (written as U' = B Q U), down-sampled to the grid nodes.  On this
    linear system every RK4 step is one fixed 2x2 map I + D_k, so all
    M * substeps maps are built in one batched expression, composed per
    cell, and turned into U(0, x_i) by a doubling (Hillis-Steele) prefix
    scan over the cells, log2(M) rounds of batched products.  The maps
    stay in I + D form throughout, (I + Dl)(I + De) = I + (Dl + De + Dl De),
    and I is added only when U is written: D is O(h) per step, so its
    rounding is relative to D rather than to 1.  A product of I + D
    matrices formed per step would carry the same O(eps) rounding of the
    identity into every step, which on a constant potential drifts
    instead of averaging out.  The inverse comes from the adjugate since
    det U(0, x) = 1 identically (the coefficient matrix B Q is
    trace-free).  With check=True the unimodularity defect and the
    finite-difference ODE residual are verified against a scale-aware
    tolerance; failure signals that the grid is too coarse for the
    potential.
    """
    grid = Q.grid
    A = _coefficient_samples(Q, substeps)
    D = _rk4_step_maps(A, grid.h / substeps).reshape(grid.M, substeps, 2, 2)
    cells = D[:, 0]
    for k in range(1, substeps):
        cells = _compose(D[:, k], cells)
    # after the round with offset d, cells[i] composes cells i - 2d + 1..i
    d = 1
    while d < grid.M:
        cells[d:] = _compose(cells[d:], cells[:-d])
        d *= 2
    U = np.empty((grid.size, 2, 2), dtype=complex)
    U[0] = I2
    U[1:] = cells + I2
    if check:
        det = U[:, 0, 0] * U[:, 1, 1] - U[:, 0, 1] * U[:, 1, 0]
        defect = float(np.max(np.abs(det - 1.0)))
        if defect > 1e-10:
            raise ResidualError(
                "det U(0, x) drifts from 1 by %.3e; refine the grid" % defect
            )
    hom = HomogeneousSolution(grid=grid, U=U, Uinv=invert_unimodular(U))
    if check:
        tol = 1e-8 * (1.0 + Q.sup_norm * grid.b)
        resid = homogeneous_residual(hom, Q)
        if resid > tol:
            raise ResidualError(
                "ODE residual %.3e exceeds %.3e; refine the grid" % (resid, tol)
            )
    return hom


def homogeneous_residual(hom, Q):
    """max interior-node norm of B U' + Q U for the computed U(0, x)."""
    dU = differentiate(hom.grid, hom.U)
    R = _b_left(dU) + _mul2(Q.matrices, hom.U)
    return float(np.max(matrix_norm(R[1:-1])))


def apply_S(H, hom):
    """Solution of B Y' + Q Y = H with Y(0) = 0, by variation of parameters.

    Y(x) = U(0, x) int_0^x U^{-1}(0, t) B^T H(t) dt  with  B^T = -B.
    """
    H = np.asarray(H, dtype=complex)
    check_same_grid(hom.grid, H)
    integrand = _mul2(hom.Uinv, -_b_left(H))
    return _mul2(hom.U, indefinite_integral(hom.grid, integrand))


def apply_A(grid, Y, Q):
    """The differential expression B Y' + Q Y, derivative by 6-point FD."""
    dY = differentiate(grid, Y)
    if Y.ndim == 2:  # vector-valued samples (n, 2)
        return (B_MAT @ dY[..., None])[..., 0] + (Q.matrices @ Y[..., None])[..., 0]
    return B_MAT @ dY + Q.matrices @ Y


def dirac_residual_nodes(Y, Q, lam):
    """Per-node norm of B Y' + Q Y - lambda Y (matrix or vector samples)."""
    grid = Q.grid
    Y = np.asarray(Y, dtype=complex)
    check_same_grid(grid, Y)
    R = apply_A(grid, Y, Q) - lam * Y
    if R.ndim == 2:
        return np.linalg.norm(R, axis=1)
    return matrix_norm(R)


def dirac_residual(Y, Q, lam):
    """Max interior-node norm of B Y' + Q Y - lambda Y."""
    return float(np.max(dirac_residual_nodes(Y, Q, lam)[1:-1]))
