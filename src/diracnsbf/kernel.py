"""Fourier-Legendre coefficients of the transmutation kernel.

The transmutation kernel K(x, t) relating the free and perturbed Dirac
systems expands as K(x, t) = sum_n x^{-1} C_n(x) P_n(t/x) on |t| <= x.
With theta_n(x) := x^n C_n(x) the coefficients satisfy one recursion
driven by the nonhomogeneous solver S:

    theta_0  = (U(0, x) - I) / 2
    theta_-1 = -theta_0 / x
    theta_n  = (2n+1)/(2n-3) [ x^2 theta_{n-2}
               + S[ -(2n-1) x B theta_{n-2} + (2n-3) theta_{n-1} B ] ]

so the whole family comes out of quadratures against U(0, x).  Truncation
quality is observable without knowing the exact kernel: plugging the
series into the characteristic boundary identities of the kernel's
Goursat problem (a commutator identity on t = x, an anticommutator
identity on t = -x) gives residuals

    delta_Q(x) = | Q(x) + x^{-1} sum_n [B C_n - C_n B] |
    delta_0(x) = | x^{-1} sum_n (-1)^n [B C_n + C_n B] |

whose sup-norms drive the automatic truncation-order choice.  Both decay
to the quadrature floor as N grows; the floor itself sits at the first
nodes (where a fixed-order rule resolves the least), so the truncation
choice monitors the outer half of the grid where the series is consumed.

Both builds, build_coefficients and auto_truncation, return one
KernelCoefficients: the potential and C_-1..C_N.  Every evaluator
(evaluate_U, solve_ivp, char_function, scan_eigenvalues, evaluate_Z,
kernel_eval) takes that object as it is; the folded series coefficients
are made from it on the first evaluation and kept with it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dirac import I2, ResidualError, _b_left, _b_right, apply_S, matrix_norm
from .grid import families_at
from .special import legendre_seq

__all__ = [
    "KernelCoefficients",
    "GoursatResiduals",
    "TruncationReport",
    "build_coefficients",
    "kernel_eval",
    "goursat_residuals",
    "auto_truncation",
    "DEFAULT_TRUNCATION",
]

# Paired with machine-precision eigenvalue behavior on smooth benchmark
# potentials; used when automatic truncation is disabled.
DEFAULT_TRUNCATION = 16

# Nodes with x below this fraction of b take the near-origin guard path.
_GUARD_FRACTION = 1e-3
# In-recursion sanitation: for n >= _SANITIZE_FROM the weighted averages
# behind C_n involve t^(n-1) factors that a fixed-order rule cannot
# resolve relative to their own size on roughly the first n^2 cells, and
# the junk would otherwise feed the next orders.  The true coefficient is
# far below working precision there (it vanishes like x^(n+1)), so those
# nodes are pinned to zero.
_SANITIZE_FROM = 4
_SANITIZE_CELLS = 0.75  # cut after ceil(_SANITIZE_CELLS * n^2) cells
_SANITIZE_CAP = 8  # never cut more than M / _SANITIZE_CAP cells


@dataclass(frozen=True)
class KernelCoefficients:
    """C_n for n = -1..N on the potential's grid: what every evaluator takes.

    K is indexed with an offset of one: row k holds order n = k - 1.  The
    grid, the order N and the folded coefficients of the Bessel series
    derive from the two fields.
    """

    potential: object
    K: np.ndarray

    @property
    def grid(self):
        return self.potential.grid

    @property
    def N(self):
        return len(self.K) - 2

    def coeff(self, n):
        """C_n(x) sampled on the grid."""
        if not -1 <= n <= self.N:
            raise IndexError("order %d outside -1..%d" % (n, self.N))
        return self.K[n + 1]

    @property
    def coeffs(self):
        """C_0..C_N as one (N + 1, M + 1, 2, 2) array."""
        return self.K[1:]

    @cached_property
    def folded(self):
        """Kt_n of the series U = U0 + sum_n Kt_n j_n(lambda x), made on
        first use: 2 (-1)^(n/2) C_n for even n, 2 (-1)^((n+1)/2) C_n B for
        odd n, as one (N + 1, M + 1, 2, 2) array."""
        n = np.arange(self.N + 1)
        Kt = self.coeffs.copy()
        Kt[1::2] = _b_right(Kt[1::2])
        Kt *= (2.0 * (-1.0) ** ((n + 1) // 2))[:, None, None, None]
        return Kt


@dataclass(frozen=True)
class GoursatResiduals:
    """Characteristic-identity residuals, per node x > 0 and their sups.

    sup_Q / sup_0 run over the whole grid; sup_Q_outer / sup_0_outer over
    x >= b/2, the region that bounds the evaluation error of the
    truncated series where it is actually used (the quadrature noise
    floor of the first few cells does not converge with N and would mask
    the truncation signal otherwise).
    """

    x: np.ndarray
    delta_Q: np.ndarray
    delta_0: np.ndarray
    sup_Q: float
    sup_0: float
    sup_Q_outer: float
    sup_0_outer: float


@dataclass(frozen=True)
class TruncationReport:
    """What auto-truncation looked at and whether it met the tolerance."""

    converged: bool
    N: int
    tol: float
    probes: list = field(default_factory=list)  # (N_probe, sup_Q, sup_0)


def _guard_weights(grid):
    """Near-origin guard: the guarded nodes, their source nodes and weights.

    Nodes with 0 < x below the guard fraction of b (where the weighted
    averages behind C_n carry the least quadrature information) are
    replaced by a degree-3 extrapolation from the first four trustworthy
    nodes; returns (guarded indices, first source index i0, the
    (n_guard, 4) Lagrange weights on nodes i0..i0+3).
    """
    x = grid.nodes
    cut = _GUARD_FRACTION * grid.b
    guard = np.nonzero((x > 0) & (x < cut))[0]
    i0 = int(np.argmax(x >= cut))
    xs = x[i0 : i0 + 4]
    w = np.ones((guard.size, 4))
    for j in range(4):
        for m in range(4):
            if m != j:
                w[:, j] *= (x[guard] - xs[m]) / (xs[j] - xs[m])
    return guard, i0, w


def build_coefficients(Q, hom, N):
    """C_-1..C_N by the recursive procedure.

    hom must be the fundamental solution built from Q.  The recursion is
    advanced in the C_n variables with the x^n weight moved inside the
    quadrature,

        C_n = (2n+1)/(2n-3) [ C_{n-2}
              + x^{-n} S[ t^{n-1} (-(2n-1) B C_{n-2} + (2n-3) C_{n-1} B) ] ],

    an exact rewriting of the theta_n form in which x^{-n} times the
    integral is a weighted average: round-off stays bounded by the
    integrand scale instead of being amplified by x^{-n} near the origin.
    Each order is written entry by entry, B C and C B as a sign and an
    index per term, bit for bit the stacked 2x2 form (_recursion_step).
    Raises ResidualError on NaN contamination, which indicates the grid
    cannot support the requested order.
    """
    if N < 0:
        raise ValueError("truncation order must be >= 0")
    return _finalize(Q, _recurse(Q, hom, N))


def _recurse(Q, hom, N, K=None):
    """Unguarded C_-1..C_N, continuing the unguarded orders K when given.

    Every order depends only on the two unguarded orders before it, so a
    continued family equals a direct one bit for bit.  Raises ResidualError
    on NaN contamination, which indicates the grid cannot support order N.
    """
    out = np.zeros((N + 2, Q.grid.size, 2, 2), dtype=hom.U.dtype)
    if K is None:
        out[1] = 0.5 * (hom.U - I2)
        out[0] = -out[1]
        start = 1
    else:
        out[: len(K)] = K
        start = len(K) - 1
    x = Q.grid.nodes
    xpow = x ** (start - 1)
    for n in range(start, N + 1):
        xpow = _recursion_step(out, n, x, xpow, hom)
    if not np.all(np.isfinite(out[start + 1 :])):
        raise ResidualError(
            "non-finite kernel coefficients at N=%d, M=%d; refine the grid or lower N"
            % (N, Q.grid.M)
        )
    return out


def sanitize_cells(n, M):
    """Number of leading cells pinned to zero for order n."""
    if n < _SANITIZE_FROM:
        return 0
    return min(int(np.ceil(_SANITIZE_CELLS * n * n)), M // _SANITIZE_CAP)


def _recursion_step(K, n, x, xpow, hom):
    """Write C_n into K[n + 1] from C_{n-2} and C_{n-1}; xpow is x^(n-1).

    B X = [[X10, X11], [-X00, -X01]] and X B = [[-X01, X00], [-X11, X10]]
    enter each entry as a sign and an index.  Returns x^n, the next xpow.
    """
    a = K[n - 1].transpose(1, 2, 0)  # C_{n-2}, entries first
    c = K[n].transpose(1, 2, 0)  # C_{n-1}
    al, be = -(2 * n - 1), 2 * n - 3
    # H = x^(n-1) (al B C_{n-2} + be C_{n-1} B)
    H = np.empty_like(a, order="C")
    H[0, 0] = al * a[1, 0] + be * -c[0, 1]
    H[0, 1] = al * a[1, 1] + be * c[0, 0]
    H[1, 0] = al * -a[0, 0] + be * -c[1, 1]
    H[1, 1] = al * -a[0, 1] + be * c[1, 0]
    H *= xpow
    S = apply_S(H.transpose(2, 0, 1), hom).transpose(1, 2, 0)
    # x^-n times S, as a complex quotient rounds it (a reciprocal, then a
    # product), so that a real build equals the real part of a complex one;
    # only past the cells pinned to zero below, where x^n is never subnormal
    xn = x**n
    cut = sanitize_cells(n, len(x) - 1) + 1
    S[..., cut:] *= 1.0 / xn[cut:]
    S += a
    np.multiply((2 * n + 1) / (2 * n - 3), S, out=K[n + 1].transpose(1, 2, 0))
    K[n + 1][:cut] = 0.0
    return xn


def _finalize(Q, K):
    # orders 1..N: the guard, and the exact limit C_n(0) = 0 at x = 0
    guard, i0, w = _guard_weights(Q.grid)
    Kg = K.copy()
    Kg[2:, 0] = 0.0
    Kg[2:, guard] = np.einsum("gj,njab->ngab", w, K[2:, i0 : i0 + 4])
    return KernelCoefficients(potential=Q, K=Kg)


def kernel_eval(coeffs, x, t):
    """Truncated kernel K^N(x, t) = sum_n x^{-1} C_n(x) P_n(t/x).

    x in (0, b], |t| <= x; off-grid x uses piecewise-cubic interpolation
    of the coefficient functions, one call across all orders (diagnostic
    accuracy class).
    """
    x = float(x)
    if not 0.0 < x <= coeffs.grid.b * (1 + 1e-12):
        raise ValueError("x must lie in (0, b]")
    t = float(t)
    if abs(t) > x * (1 + 1e-12):
        raise ValueError("|t| must not exceed x")
    Kx = families_at(coeffs.grid, coeffs.coeffs, x)
    P = legendre_seq(np.clip(t / x, -1.0, 1.0), coeffs.N)
    return np.einsum("n,nij->ij", P, Kx) / x


def _goursat_deltas(Qm, inv_x, orders, n0, total, alt):
    """delta_Q and delta_0 per node once C_n0, C_n0+1, ... (the rows of
    orders) are added to the plain sum total and the alternating sum alt.

    The sums are updated in place, order by order, here alone, so a sum
    over orders 0..N has the same bits wherever it is formed.  Both
    identities are linear in C_n, so B acts once on the sums instead of
    once per order; x^-1 multiplies, as in a complex quotient, so real and
    complex coefficients give the same residuals.
    """
    for n, Kn in enumerate(orders, n0):
        total += Kn
        if n % 2:
            alt -= Kn
        else:
            alt += Kn
    comm = _b_left(total) - _b_right(total)
    anti = _b_left(alt) + _b_right(alt)
    return matrix_norm(Qm + comm * inv_x), matrix_norm(anti * inv_x)


def goursat_residuals(coeffs):
    """delta_Q and delta_0 per node (x = 0 excluded) plus their sups.

    The sums over orders are formed order by order, as auto_truncation
    forms them, so the outer sups at a probed order equal its probe tuple
    bit for bit.
    """
    grid = coeffs.grid
    Kn = coeffs.coeffs[:, 1:]
    total, alt = np.zeros_like(Kn[0]), np.zeros_like(Kn[0])
    inv_x = 1.0 / grid.nodes[1:, None, None]
    dQ, d0 = _goursat_deltas(coeffs.potential.matrices[1:], inv_x, Kn, 0, total, alt)
    outer = grid.nodes[1:] >= 0.5 * grid.b
    return GoursatResiduals(
        x=grid.nodes[1:],
        delta_Q=dQ,
        delta_0=d0,
        sup_Q=float(dQ.max()),
        sup_0=float(d0.max()),
        sup_Q_outer=float(dQ[outer].max()),
        sup_0_outer=float(d0[outer].max()),
    )


def _probe_schedule(n_max):
    probes = [2, 4, 8]
    grow = True
    while probes[-1] < n_max:
        probes.append(probes[-1] * 3 // 2 if grow else probes[-1] * 4 // 3)
        grow = not grow
    return sorted({min(p, n_max) for p in probes})


def auto_truncation(Q, hom, tol, N_max=128):
    """Smallest truncation order whose Goursat residuals meet tol.

    Convergence is judged on the outer-region sups (see GoursatResiduals).
    Residuals are evaluated along a geometric probe schedule: each probe
    continues the unguarded recursion and adds its new orders, one by one,
    to the running Goursat sums of goursat_residuals, taking each order's
    sups once.  The guard writes no outer node, so a probe's tuple equals
    the outer sups goursat_residuals gives at that order bit for bit.
    Once a probe passes, the per-order sups locate the smallest
    sufficient order exactly; only that family is finalized, and it equals
    build_coefficients at that order bit for bit, whatever the schedule.
    Returns (coefficients, report); report.converged is False when even
    N_max misses the tolerance.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    outer = Q.grid.nodes >= 0.5 * Q.grid.b
    inv_x = 1.0 / Q.grid.nodes[outer, None, None]
    Qm = Q.matrices[outer]
    total, alt = np.zeros_like(Qm), np.zeros_like(Qm)
    level = []  # max(sup delta_Q, sup delta_0) of orders 0, 1, ...
    K = None
    report_probes = []
    for Np in _probe_schedule(N_max):
        K = _recurse(Q, hom, Np, K)
        for n in range(len(level), Np + 1):
            dQ, d0 = _goursat_deltas(Qm, inv_x, K[n + 1 : n + 2, outer], n, total, alt)
            sup_Q, sup_0 = np.max(dQ), np.max(d0)
            level.append(max(sup_Q, sup_0))
        report_probes.append((Np, float(sup_Q), float(sup_0)))
        if level[Np] <= tol:
            n_best = next(n for n, v in enumerate(level) if v <= tol)
            return _finalize(Q, K[: n_best + 2]), TruncationReport(
                converged=True, N=n_best, tol=tol, probes=report_probes
            )
    return _finalize(Q, K), TruncationReport(
        converged=False, N=Np, tol=tol, probes=report_probes
    )
