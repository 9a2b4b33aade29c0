"""Uniform grid on [0, b] with high-order quadrature and differentiation.

Every x-dependent quantity in the solver lives on one shared uniform grid
as an array of per-node values; matrix-valued functions are arrays of
shape (M + 1, 2, 2).  This module supplies the numerical substrate: an
indefinite integral built from a composite 6-point Newton-Cotes rule
(block size 5, exact for polynomials up to degree 5, observed order 6 on
smooth integrands), a 6-point finite-difference derivative, local cubic
interpolation, and the grid-compatibility check.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "GridMismatchError",
    "indefinite_integral",
    "differentiate",
    "cubic_interp",
    "families_at",
    "check_same_grid",
    "BLOCK",
]

BLOCK = 5  # nodes per quadrature block, minus one


class GridMismatchError(ValueError):
    """Operands sampled on different grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, b] into M cells (M + 1 nodes).

    M is rounded up to a multiple of the quadrature block size and must be
    at least 10 after rounding.
    """

    b: float
    M: int

    def __post_init__(self):
        if not (self.b > 0 and np.isfinite(self.b)):
            raise ValueError("interval length b must be positive and finite")
        m = int(self.M)
        if m % BLOCK:
            m += BLOCK - m % BLOCK
        if m < 10:
            raise ValueError("grid too small for the composite rule (need M >= 10)")
        object.__setattr__(self, "M", m)

    @cached_property
    def nodes(self):
        return np.linspace(0.0, self.b, self.M + 1)

    @property
    def h(self):
        return self.b / self.M

    @property
    def size(self):
        return self.M + 1


def check_same_grid(grid, *values):
    for v in values:
        if v.shape[0] != grid.size:
            raise GridMismatchError(
                "expected %d nodes, got %d" % (grid.size, v.shape[0])
            )


def _lagrange_rows():
    # Exact monomial coefficients (in the block variable s, units of h) of
    # the Lagrange basis polynomials through nodes 0..5, one row per node.
    # The weighted quadrature of the tests' formal-powers oracle reads them
    # too, so both rules interpolate a block alike.
    rows = []
    for j in range(BLOCK + 1):
        poly = [Fraction(1)]
        for m in range(BLOCK + 1):
            if m != j:
                # multiply by (s - m) / (j - m)
                lower = [Fraction(0)] + poly
                poly = [(lo - m * c) / (j - m) for lo, c in zip(lower, poly + [0])]
        rows.append(poly)
    return rows


_ROWS = _lagrange_rows()
# _W[k, j]: integral over [0, k] of basis polynomial j; row 5 is the
# classical 6-point closed Newton-Cotes rule.
_W = np.array(
    [
        [
            float(sum(c * Fraction(k) ** (i + 1) / (i + 1) for i, c in enumerate(row)))
            for row in _ROWS
        ]
        for k in range(BLOCK + 1)
    ]
)


def indefinite_integral(grid, f):
    """Cumulative integral F(x_i) = int_0^x_i f, per component.

    f has shape (M + 1, ...) in any memory layout, and F comes in the same
    one, so an entry-major view is integrated without a copy.  Within each
    block of 5 cells the partial integrals come from the block's degree-5
    interpolant, so the result is exact for polynomials up to degree 5 and
    F(0) = 0 exactly.
    """
    f = np.asarray(f)
    check_same_grid(grid, f)
    nblocks = grid.M // BLOCK
    cols = np.moveaxis(f, 0, -1)  # nodes last, a view
    lead = cols.shape[:-1]
    # nodes 0..4 of each block from a split of nodes 0..M-1, node 5 by a slice
    blocks = np.empty((BLOCK + 1,) + lead + (nblocks,), dtype=f.dtype)
    blocks[:BLOCK] = np.moveaxis(cols[..., :-1].reshape(lead + (nblocks, BLOCK)), -1, 0)
    blocks[BLOCK] = cols[..., BLOCK::BLOCK]
    # per-block partial integrals at offsets 1..5 (one matrix product over
    # all blocks and components), then block totals chained
    partial = np.tensordot(_W[1:], blocks, axes=(1, 0)) * grid.h
    starts = np.zeros(lead + (nblocks,), dtype=partial.dtype)
    np.cumsum(partial[-1, ..., :-1], axis=-1, out=starts[..., 1:])
    out = np.empty_like(f, dtype=partial.dtype)
    out[0] = 0.0
    # all offsets of all blocks in one add, through a split of nodes 1..M
    offsets = np.moveaxis(out, 0, -1)[..., 1:].reshape(lead + (nblocks, BLOCK))
    np.add(starts, partial, out=np.moveaxis(offsets, -1, 0))
    return out


def _fornberg(x0, nodes):
    """First-derivative weights at x0 for arbitrary nodes (Fornberg)."""
    n = len(nodes)
    c = np.zeros((n, 2))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                c[i, 1] = c1 * (c[i - 1, 0] - c5 * c[i - 1, 1]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            c[j, 1] = (c4 * c[j, 1] - c[j, 0]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, 1]


def _stencil_weights():
    # offsets -2..3 for interior nodes; one-sided stencils near the ends
    offs = np.arange(6, dtype=float)
    interior = _fornberg(2.0, offs)
    edge = [_fornberg(float(i), offs) for i in range(6)]
    return interior, edge


_D_INTERIOR, _D_EDGE = _stencil_weights()


def differentiate(grid, f):
    """Derivative of sampled values by 6-point finite differences.

    Interior nodes use the stencil i-2..i+3; the first and last nodes fall
    back to one-sided 6-point stencils.  Order 5 on smooth data.
    """
    f = np.asarray(f)
    check_same_grid(grid, f)
    n = grid.size
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    for j, w in enumerate(_D_INTERIOR):
        out[2 : n - 3] += w * f[j : n - 5 + j]
    # the edge stencils sum in the same order, so that real and complex
    # samples round alike (a matrix-vector product would not)
    for i, k in ((0, 0), (1, 1), (n - 3, 3), (n - 2, 4), (n - 1, 5)):
        ends = f[:6] if k < 2 else f[-6:]
        for j, w in enumerate(_D_EDGE[k]):
            out[i] += w * ends[j]
    # a reciprocal, as numpy divides a complex array by a real scalar
    return out * (1.0 / grid.h)


def cubic_interp(grid, values, x):
    """Piecewise-cubic (local 4-point Lagrange) interpolation at x.

    values has node-major shape (M + 1, ...); x may be scalar or 1-D.
    Matches the quadrature accuracy class for smooth data; x is clipped to
    [0, b].
    """
    values = np.asarray(values)
    check_same_grid(grid, values)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.clip(x, 0.0, grid.b) / grid.h
    i0 = np.clip(np.floor(t).astype(int) - 1, 0, grid.M - 3)
    s = t - i0
    out = np.zeros(x.shape + values.shape[1:], dtype=values.dtype)
    for j in range(4):
        w = np.ones_like(s)
        for m in range(4):
            if m != j:
                w *= (s - m) / (j - m)
        out += w.reshape(w.shape + (1,) * (values.ndim - 1)) * values[i0 + j]
    return out


def families_at(grid, values, x):
    """Order-major families values (K, M + 1, ...) at the points x.

    x must lie in [0, b].  The result has shape (K,) + x.shape +
    values.shape[2:].  A point on a node takes that node's row exactly;
    the other points share one cubic_interp across all K families.  When
    x is exactly grid.nodes in order, values itself is returned, uncopied.
    """
    x = np.asarray(x, dtype=float)
    if np.array_equal(x, grid.nodes):
        return values
    t = x / grid.h
    i = np.rint(t).astype(int)
    on = np.abs(t - i) < 1e-9
    out = np.take(values, np.where(on, i, 0), axis=1)
    if not on.all():
        off = cubic_interp(grid, np.moveaxis(values, 0, 1), x[~on])
        out[:, ~on] = np.moveaxis(off, 0, 1)
    return out
