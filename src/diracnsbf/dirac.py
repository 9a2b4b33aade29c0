"""Canonical Dirac system data and its lambda = 0 machinery.

The system under study is B Y' + Q(x) Y = lambda Y on [0, b] with

    B = [[0, 1], [-1, 0]],    Q = [[p, q], [q, -p]],

p, q complex-valued.  A potential whose p and q have exactly zero
imaginary parts is sampled in float64, and B Q, U(0, x) and S follow the
dtype of the samples; a nonzero imaginary part anywhere keeps them
complex.  This module holds the potential, the free solution
(Q = 0), the fundamental matrix U(0, x) of the homogeneous system, whose
inverse is its adjugate because det U(0, x) = 1, the
variation-of-parameters operator S that solves B Y' + Q Y = H with
Y(0) = 0, and finite-difference residual diagnostics used throughout the
test surface.

The RK4 step maps, their composition and S are written entry by entry on
contiguous vectors, one per matrix entry: B acts only through the sign
and the index of each term, never as an array product or a copy.  Each
entry keeps the operand order and signs of the stacked 2x2 form, so the
results are that form's bit for bit.
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
    "I2",
    "ResidualError",
    "Potential",
    "HomogeneousSolution",
    "free_solution",
    "fundamental_solution_zero",
    "apply_S",
    "apply_A",
    "dirac_residual_nodes",
    "matrix_norm",
]

I2 = np.eye(2)


# RK4 refinement of each grid cell used by fundamental_solution_zero.
_SUBSTEPS = 10

# Bounds of the drift of det U(0, x) from 1: checked, and unchecked, where
# the adjugate would stop being U^-1 (the ODE residual: ode_residual_tol).
DET_TOL, DET_TOL_UNCHECKED = 1e-10, 1e-6


class ResidualError(RuntimeError):
    """A build failed its own check; the grid needs refinement."""


def matrix_norm(a):
    """Spectral norm of 2x2 matrices, batched over leading axes, in closed form.

    The squared norm is the largest eigenvalue of the Hermitian A^H A,

        (c0 + c1)/2 + hypot((c0 - c1)/2, |b|),

    with c0, c1 the squared column norms and b = conj(a00) a01 + conj(a10) a11
    (the idea of LAPACK's DLAS2, with no SVD).  Both terms are nonnegative,
    so nothing cancels, also where the two singular values coincide, as they
    do for every Q = [[p, q], [q, -p]]; the form (s + sqrt(s^2 - 4|det|^2))/2
    would lose about half the digits there.  Each matrix is first divided by
    its largest real or imaginary part in magnitude (finite for every finite
    entry, unlike the modulus), so no finite input overflows or underflows;
    it multiplies by the reciprocal of that scale, as a complex quotient
    does, so a real matrix has the norm of its complex copy bit for bit.
    A scale at or below 2^-1024 has no finite reciprocal: such matrices are
    first lifted by 2^54, exactly, and their norms scaled back.  Against
    LAPACK's SVD the relative difference stays below 1.3e-15 on random,
    equal-singular-value, rank-1, 1e+-300-scaled and subnormal batches, to
    within a few units of 2^-1074 down to 5e-324.  Non-finite entries raise
    ValueError, as the SVD did, so that a NaN can never pass a
    `residual > tol` check.
    """
    a = np.asarray(a)
    if a.shape[-2:] != (2, 2):
        raise ValueError("expected 2x2 matrices, got shape %s" % (a.shape,))
    m = np.maximum(np.abs(a.real), np.abs(a.imag))
    m = np.maximum(m[..., 0], m[..., 1])  # elementwise: exact, no reduction
    scale = np.maximum(m[..., 0], m[..., 1])
    if not np.all(np.isfinite(scale)):
        raise ValueError("matrix entries must be finite")
    lift = (scale > 0) & (scale <= 2.0**-1024)
    if np.any(lift):
        k = np.where(lift, 2.0**54, 1.0)
        return matrix_norm(a * k[..., None, None]) / k
    u = a * (1.0 / np.where(scale > 0, scale, 1.0))[..., None, None]
    w = u.real**2 + u.imag**2
    c0 = w[..., 0, 0] + w[..., 1, 0]
    c1 = w[..., 0, 1] + w[..., 1, 1]
    b = np.conj(u[..., 0, 0]) * u[..., 0, 1] + np.conj(u[..., 1, 0]) * u[..., 1, 1]
    return scale * np.sqrt(0.5 * (c0 + c1) + np.hypot(0.5 * (c0 - c1), np.abs(b)))


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
        p, q = _real_if_real(self.p, self.q)
        check_same_grid(self.grid, p)
        check_same_grid(self.grid, q)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("potential samples must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def zero(cls, grid):
        return cls.constant(grid, 0.0, 0.0)

    @classmethod
    def constant(cls, grid, p, q):
        return cls(
            grid,
            np.full(grid.size, p),
            np.full(grid.size, q),
            p_fn=lambda x, _p=p: np.full(np.shape(x), _p),
            q_fn=lambda x, _q=q: np.full(np.shape(x), _q),
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
        out = np.empty((self.grid.size, 2, 2), dtype=self.p.dtype)
        out[:, 0, 0] = self.p
        out[:, 0, 1] = self.q
        out[:, 1, 0] = self.q
        out[:, 1, 1] = -self.p
        return out

    @cached_property
    def sup_norm(self):
        return float(np.max(matrix_norm(self.matrices)))

    def values_at(self, x):
        """(p(x), q(x)) off-grid, from the callables when available; real
        only when the node samples and all the values at x are."""
        x = np.asarray(x, dtype=float)
        if self.p_fn is None or self.q_fn is None:
            return (
                cubic_interp(self.grid, self.p, x),
                cubic_interp(self.grid, self.q, x),
            )
        p = np.broadcast_to(np.asarray(self.p_fn(x), dtype=complex), x.shape)
        q = np.broadcast_to(np.asarray(self.q_fn(x), dtype=complex), x.shape)
        if np.iscomplexobj(self.p):
            return p, q
        return _real_if_real(p, q)


def _real_if_real(*arrays):
    """The arrays as float64 when every imaginary part is exactly zero, else
    all as complex128."""
    arrays = [np.asarray(a, dtype=complex) for a in arrays]
    if any(a.imag.any() for a in arrays):
        return arrays
    return [a.real.copy() for a in arrays]


def free_solution(lam, x):
    """Free fundamental matrix [[cos lx, -sin lx], [sin lx, cos lx]].

    lam and x broadcast; the result has the broadcast shape + (2, 2) and
    the dtype of lam * x, float64 for a real product.
    """
    z = np.asarray(lam * np.asarray(x, dtype=float))
    c, s = np.cos(z), np.sin(z)
    out = np.empty(z.shape + (2, 2), dtype=z.dtype)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def free_solution_dlambda(lam, x):
    """d/dlambda of the free solution, closed form.

    lam and x broadcast; the result has the broadcast shape + (2, 2) and
    the dtype of lam * x.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(lam * x)
    c, s = np.cos(z), np.sin(z)
    out = np.empty(z.shape + (2, 2), dtype=z.dtype)
    out[..., 0, 0] = -x * s
    out[..., 0, 1] = -x * c
    out[..., 1, 0] = x * c
    out[..., 1, 1] = -x * s
    return out


def _det2(m):
    """det of (a batch of) 2x2 matrices."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def ode_residual_tol(Q):
    """Bound of the propagator's ODE residual on the potential Q."""
    return 1e-8 * (1.0 + Q.sup_norm * Q.grid.b)


@dataclass(frozen=True)
class HomogeneousSolution:
    """U(0, x) with U(0, 0) = I, per node, (M + 1, 2, 2)."""

    grid: Grid
    U: np.ndarray

    @cached_property
    def entries(self):
        """U and U^-1 entry-major, (2, 2, M + 1), made once for every apply_S;
        det U = 1, so U^-1 is the adjugate, copies and negations of U."""
        U = np.ascontiguousarray(self.U.transpose(1, 2, 0))
        Uinv = np.empty_like(U)
        Uinv[0, 0] = U[1, 1]
        Uinv[0, 1] = -U[0, 1]
        Uinv[1, 0] = -U[1, 0]
        Uinv[1, 1] = U[0, 0]
        return U, Uinv

    @cached_property
    def det_defect(self):
        """max |det U(0, x) - 1| over the nodes."""
        return float(np.max(np.abs(_det2(self.U) - 1.0)))


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


def _rk4_step_maps(p, q, h):
    """D_k of every RK4 step u -> (I + D_k) u of u' = A u, in one batch.

    A = B Q = [[q, -p], [-p, -q]] comes as the samples p and q; step k
    uses a0, am, a1 = A(x_2k), A(x_2k+1), A(x_2k+2), and the classical
    stages expand to

        D = h/6 [(a0 + 4 am + a1) + h (am a0 + am^2 + a1 am)
                 + h^2/2 (am^2 a0 + a1 am^2) + h^3/4 a1 am^2 a0].

    A is trace-free, so am^2 = (p^2 + q^2) I exactly (also in floating
    point), which leaves three genuine 2x2 products.  Everything is written
    entry by entry on the sample vectors, in the operand order and with
    the signs of the stacked 2x2 form, so D is that form's bit for bit.
    Returns D as a (2, 2, steps) array, one contiguous vector per entry.
    """
    n = (len(p) - 1) // 2
    # (a, b, c) = (q, -p, -q), the entries of A = [[a, b], [b, c]], each at
    # the samples a0, am and a1 of every step
    a0, am, a1 = zip(*([v[k : k + 2 * n : 2] for k in range(3)] for v in (q, -p, -q)))

    def product(x, y):
        # entries 00, 01 and 10 of x y; 11 is b b + c c = a a + b b bit for bit
        (xa, xb, xc), (ya, yb, yc) = x, y
        return xa * ya + xb * yb, xa * yb + xb * yc, xb * ya + xc * yb

    s = am[0] ** 2 + am[1] ** 2  # am^2 = s I
    ends = [u + v for u, v in zip(a0, a1)]  # a0 + a1, as (a, b, c)
    edge = [4.0 * u + e for u, e in zip(am, ends)]  # 4 am + a0 + a1
    m1, m2, m3 = product(am, a0), product(a1, am), product(a1, a0)
    # h (am a0 + a1 am + s I), s I rounded as s * I2: s * 1.0, s * 0.0
    mid = [h * ((m1[k] + m2[k]) + s * (1.0 if k == 0 else 0.0)) for k in range(3)]
    k2s, k3s = (0.5 * h * h) * s, (0.25 * h**3) * s
    D = np.empty((2, 2, n), dtype=s.dtype)
    # entry ij takes (a, b, c)[e] of A and the product entry k (11 is 00)
    for ij, e, k in (((0, 0), 0, 0), ((0, 1), 1, 1), ((1, 0), 1, 2), ((1, 1), 2, 0)):
        entry = (edge[e] + mid[k]) + (k2s * ends[e] + k3s * m3[k])
        np.multiply(entry, h / 6.0, out=D[ij])
    return D


def _compose(Dl, De):
    """D of (I + Dl)(I + De): the later map on the left, I never formed.

    Dl and De are entry-major, (2, 2, ...): one contiguous vector per entry.
    """
    return Dl + De + (Dl[:, :1] * De[:1] + Dl[:, 1:] * De[1:])


def fundamental_solution_zero(Q, check=True):
    """Fundamental matrix U(0, x) of B Y' + Q Y = 0, U(0, 0) = I.

    Classical fixed-step RK4 on a _SUBSTEPS-fold refinement of the grid
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
    instead of averaging out.  det U(0, x) = 1 identically (the
    coefficient matrix B Q is trace-free), so the inverse apply_S takes is
    the adjugate.  A determinant drift above DET_TOL_UNCHECKED always
    raises ResidualError, NaN included; with check=True the drift must stay
    within DET_TOL and the finite-difference ODE residual within
    ode_residual_tol(Q).  Failure signals that the grid is too coarse for
    the potential.
    """
    grid, substeps = Q.grid, _SUBSTEPS
    # p and q at every half step of the refinement
    p, q = Q.values_at(np.linspace(0.0, grid.b, 2 * grid.M * substeps + 1))
    D = _rk4_step_maps(p, q, grid.h / substeps).reshape(2, 2, grid.M, substeps)
    cells = D[..., 0]
    for k in range(1, substeps):
        cells = _compose(D[..., k], cells)
    # after the round with offset d, cell i composes cells i - 2d + 1..i
    d = 1
    while d < grid.M:
        cells[..., d:] = _compose(cells[..., d:], cells[..., :-d])
        d *= 2
    U = np.empty((grid.size, 2, 2), dtype=cells.dtype)
    U[0] = I2
    U[1:] = cells.transpose(2, 0, 1) + I2
    hom = HomogeneousSolution(grid=grid, U=U)
    if not hom.det_defect <= (DET_TOL if check else DET_TOL_UNCHECKED):
        raise ResidualError(
            "det of the propagator U(0, x) drifts from 1 by %.3e; refine the grid"
            % hom.det_defect
        )
    if check:
        tol = ode_residual_tol(Q)
        resid = float(np.max(dirac_residual_nodes(U, Q, 0.0)[1:-1]))
        if resid > tol:
            raise ResidualError(
                "ODE residual %.3e exceeds %.3e; refine the grid" % (resid, tol)
            )
    return hom


def apply_S(H, hom):
    """Solution of B Y' + Q Y = H with Y(0) = 0, by variation of parameters.

    Y(x) = U(0, x) int_0^x U^{-1}(0, t) B^T H(t) dt  with  B^T = -B,

    so the integrand has the entries Uinv[i,0] (-H[1,j]) + Uinv[i,1] H[0,j].
    H is node-major, (M + 1, 2, 2), in any layout; the integrand is formed
    entry-major and integrated uncopied, and the result is a node-major view.
    """
    H = np.asarray(H)
    check_same_grid(hom.grid, H)
    U, Uinv = hom.entries
    He = np.ascontiguousarray(H.transpose(1, 2, 0))
    integrand = Uinv[:, :1] * -He[1:] + Uinv[:, 1:] * He[:1]
    F = indefinite_integral(hom.grid, integrand.transpose(2, 0, 1)).transpose(1, 2, 0)
    return (U[:, :1] * F[:1] + U[:, 1:] * F[1:]).transpose(2, 0, 1)


def apply_A(grid, Y, Q):
    """B Y' + Q Y, Y' by 6-point FD, for vector (n, 2) or matrix (n, 2, 2)
    samples Y: rows y0 and y1, p and q broadcast over a trailing column axis."""
    dY = differentiate(grid, Y)
    p, q = (v.reshape(v.shape + (1,) * (Y.ndim - 2)) for v in (Q.p, Q.q))
    y0, y1 = Y[:, 0], Y[:, 1]
    return np.stack(
        [dY[:, 1] + (p * y0 + q * y1), -dY[:, 0] + (q * y0 - p * y1)], axis=1
    )


def dirac_residual_nodes(Y, Q, lam):
    """Per-node norm of B Y' + Q Y - lambda Y (matrix or vector samples)."""
    grid = Q.grid
    Y = np.asarray(Y)
    check_same_grid(grid, Y)
    R = apply_A(grid, Y, Q) - lam * Y
    if R.ndim == 2:
        return np.linalg.norm(R, axis=1)
    return matrix_norm(R)
