"""Formal powers and the mapping-property route to the kernel coefficients.

Given one solution (f, g) of the homogeneous system B Y' + Q Y = 0 with
both components nonvanishing and f(0) g(0) = 1, six scalar families
X, Y, Z (and tilded variants) are built by iterated quadratures:

    X0 = -int p / f^2,   Y0 = 1 + int p / g^2
    Zn = int (f^2 Xn + g^2 Yn)
    X(n+1) = -(n+1) int (g/f Yn + p/f^2 Zn)
    Y(n+1) =  (n+1) int (f/g Xn + p/g^2 Zn)

with the tilded set started from X~0 = 1 + int p / f^2, Y~0 = -int p/g^2.
Parity combinations of these families are the images of the monomial
vectors (x^k, 0) and (0, x^k) under the transmutation operator, which
yields the kernel coefficients through the Legendre monomial table:

    C_n(x) = (2n+1)/2 [ -I + sum_k l[n,k] x^-k eta_k(x) ],
    eta_k = (Phi_k | Psi_k).

This path never touches the production recursion, so agreement between
the two is a genuine cross-validation.  The overall sign prefactors of
the parity combinations are not taken on faith: they are calibrated
against the potential-free case, where the transmutation operator is the
identity and Phi_k = (x^k, 0) is forced.  The calibration found (and
recorded in `sign_calibration`) flips the odd-order Phi combinations.

The route lives with the tests, not in the package: the solver builds the
coefficients by the recursion alone, and this module is the reference the
test suite compares that recursion against.  It carries its own two
helpers, the Legendre monomial table (exact rational Bonnet rows) and a
cumulative quadrature that integrates a monomial weight t^k exactly.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from diracnsbf.dirac import I2, fundamental_solution_zero
from diracnsbf.grid import BLOCK, _lagrange_rows, check_same_grid, indefinite_integral
from diracnsbf.kernel import sanitize_cells

LEGENDRE_DEGREE_CAP = 64


@dataclass(frozen=True)
class LegendreMonomialTable:
    """Monomial coefficients l[n, k] with P_n(s) = sum_k l[n, k] s^k."""

    n_max: int
    coeffs: np.ndarray

    def row(self, n):
        return self.coeffs[n]


def legendre_monomial_coeffs(n_max):
    """Monomial coefficient table for P_0..P_{n_max}, n_max <= 64.

    Rows are built with exact rational arithmetic through the Bonnet
    recurrence and emitted as floats; the cap keeps the combinatorial
    coefficient growth well inside double range.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > LEGENDRE_DEGREE_CAP:
        raise ValueError("monomial table capped at degree %d" % LEGENDRE_DEGREE_CAP)
    rows = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for n in range(1, n_max):
        prev, cur = rows[n - 1], rows[n]
        nxt = [Fraction(0)] * (n + 2)
        for k, c in enumerate(cur):
            nxt[k + 1] += Fraction(2 * n + 1, n + 1) * c
        for k, c in enumerate(prev):
            nxt[k] -= Fraction(n, n + 1) * c
        rows.append(nxt)
    coeffs = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for k, c in enumerate(rows[n]):
            coeffs[n, k] = float(c)
    return LegendreMonomialTable(n_max=n_max, coeffs=coeffs)


# _LAGRANGE[j, i]: coefficient of s^i in the block's basis polynomial j.
_LAGRANGE = np.array([[float(c) for c in row] for row in _lagrange_rows()])
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(40)


def indefinite_integral_weighted(grid, k, f):
    """Cumulative weighted integral F(x_i) = int_0^x_i t^k f(t) dt.

    Only the sampled factor f is interpolated (degree-5 per block, as in
    the plain rule); the monomial weight t^k is carried exactly through a
    Gauss rule of ample order, so the result is exact for polynomial f up
    to degree 5 regardless of k.  This matters near the origin, where the
    product t^k f(t) itself is far beyond the resolution of any
    fixed-order rule in the first cells once k is moderately large.
    """
    f = np.asarray(f)
    check_same_grid(grid, f)
    if k == 0:
        return indefinite_integral(grid, f)
    if k < 0 or k != int(k):
        raise ValueError("weight exponent must be a nonnegative integer")
    h = grid.h
    nblocks = grid.M // BLOCK
    starts = grid.nodes[::BLOCK][:nblocks]
    blocks = np.empty((nblocks, BLOCK + 1) + f.shape[1:], dtype=f.dtype)
    for j in range(BLOCK + 1):
        blocks[:, j] = f[j::BLOCK][:nblocks]
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    # f at the Gauss points of [0, r] in block coordinates, each r = 1..5
    extra = (1,) * (f.ndim - 1)
    prev = np.zeros((nblocks,) + f.shape[1:], dtype=out.dtype)
    for r in range(1, BLOCK + 1):
        u = 0.5 * r * (_GAUSS_NODES + 1.0)
        basis = _LAGRANGE @ np.vander(u, BLOCK + 1, increasing=True).T  # (6, G)
        fg = np.einsum("nj...,jg->ng...", blocks, basis)
        w = (starts[:, None] + h * u[None, :]) ** k * _GAUSS_WEIGHTS[None, :]
        part = 0.5 * r * h * np.sum(w.reshape(w.shape + extra) * fg, axis=1)
        out[r::BLOCK][:nblocks] = part
        if r == BLOCK:
            block_totals = part
    np.cumsum(block_totals[:-1], axis=0, out=prev[1:])
    for r in range(1, BLOCK + 1):
        out[r::BLOCK][:nblocks] += prev
    return out


# Sweep of initial-value combinations c = (1, e^{i pi m/8} t); the unit
# candidate comes first so unproblematic potentials keep the simplest
# normalized pair, and the first candidate clearing the score threshold
# is taken (a deterministic, reproducible choice).
_SWEEP_T = (1.0, 0.25, 0.5, 2.0, 4.0)
_SWEEP_M = range(16)
_ACCEPT_SCORE = 0.02


@dataclass(frozen=True)
class ParticularSolution:
    """Nonvanishing solution pair (f, g) with f(0) g(0) = 1."""

    grid: object
    f: np.ndarray
    g: np.ndarray
    c: tuple

    @property
    def min_modulus(self):
        return float(min(np.min(np.abs(self.f)), np.min(np.abs(self.g))))


@dataclass(frozen=True)
class FormalPowerSet:
    """The six scalar families up to order N, sampled on the grid.

    X, Y, Z, Xt, Yt, Zt hold the plain families; the underscored arrays
    hold the x^k-scaled variants (X[k] / x^k and Z[k] / x^(k+1)) that the
    kernel-coefficient assembly consumes, built division-free.
    """

    grid: object
    N: int
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    Xt: np.ndarray
    Yt: np.ndarray
    Zt: np.ndarray
    X_s: np.ndarray
    Y_s: np.ndarray
    Xt_s: np.ndarray
    Yt_s: np.ndarray


def build_particular_solution(Q, hom=None):
    """Sweep for a nonvanishing combination of the fundamental columns.

    Candidates U(0, x) c are scored by the smaller of the two component
    min-moduli relative to the pair's scale; the first candidate above
    the acceptance threshold wins, otherwise the best one.  Real
    potentials with sign-changing solutions end up on a genuinely complex
    combination.
    """
    if hom is None:
        hom = fundamental_solution_zero(Q)
    best = None
    best_score = -1.0
    for m in _SWEEP_M:
        for t in _SWEEP_T:
            c = np.array([1.0, t * np.exp(1j * np.pi * m / 8.0)], dtype=complex)
            c = c / np.sqrt(c[0] * c[1])
            f = hom.U[:, 0, 0] * c[0] + hom.U[:, 0, 1] * c[1]
            g = hom.U[:, 1, 0] * c[0] + hom.U[:, 1, 1] * c[1]
            scale = np.sqrt(np.max(np.abs(f)) * np.max(np.abs(g)))
            score = min(np.min(np.abs(f)), np.min(np.abs(g))) / scale
            if score >= _ACCEPT_SCORE:
                return ParticularSolution(grid=Q.grid, f=f, g=g, c=(c[0], c[1]))
            if score > best_score:
                best_score = score
                best = ParticularSolution(grid=Q.grid, f=f, g=g, c=(c[0], c[1]))
    if best.min_modulus <= 0.0:
        raise ArithmeticError("no nonvanishing solution combination found in sweep")
    return best


def _weighted_average(grid, m, phi):
    """x^-(m+1) int_0^x s^m phi(s) ds, with the x = 0 limit phi(0)/(m+1).

    The integral carries the s^m weight exactly (product quadrature), so
    the average is accurate relative to phi's own scale all the way to
    the origin, where s^m phi is unresolvable by a plain fixed-order rule.
    """
    x = grid.nodes
    J = indefinite_integral_weighted(grid, m, phi)
    out = np.empty_like(J)
    out[0] = phi[0] / (m + 1)
    out[1:] = J[1:] / x[1:] ** (m + 1)
    return out


def build_formal_powers(ps, Q, N):
    """All six families up to order N by iterated indefinite integrals.

    Internally the recursion is advanced in the x^k-scaled variables
    (exactly equivalent: each step is a weighted average of the previous
    scaled level), which keeps near-origin errors on the scale of the
    values themselves; the plain families are recovered by multiplying
    the powers of x back.
    """
    if N < 0:
        raise ValueError("order must be >= 0")
    grid = ps.grid
    x = grid.nodes
    f, g, p = ps.f, ps.g, Q.p
    f2, g2 = f * f, g * g
    p_f2, p_g2 = p / f2, p / g2
    g_f, f_g = g / f, f / g
    shape = (N + 1, grid.size)
    Xs = np.zeros(shape, dtype=complex)
    Ys = np.zeros(shape, dtype=complex)
    Xts = np.zeros(shape, dtype=complex)
    Yts = np.zeros(shape, dtype=complex)
    Zs = np.zeros(shape, dtype=complex)
    Zts = np.zeros(shape, dtype=complex)
    Xs[0] = -indefinite_integral(grid, p_f2)
    Ys[0] = 1.0 + indefinite_integral(grid, p_g2)
    Xts[0] = 1.0 + indefinite_integral(grid, p_f2)
    Yts[0] = -indefinite_integral(grid, p_g2)
    for k in range(N + 1):
        Zs[k] = _weighted_average(grid, k, f2 * Xs[k] + g2 * Ys[k])
        Zts[k] = _weighted_average(grid, k, f2 * Xts[k] + g2 * Yts[k])
        if k == N:
            break
        Xs[k + 1] = -(k + 1) * _weighted_average(grid, k, g_f * Ys[k] + p_f2 * x * Zs[k])
        Ys[k + 1] = (k + 1) * _weighted_average(grid, k, f_g * Xs[k] + p_g2 * x * Zs[k])
        Xts[k + 1] = -(k + 1) * _weighted_average(
            grid, k, g_f * Yts[k] + p_f2 * x * Zts[k]
        )
        Yts[k + 1] = (k + 1) * _weighted_average(
            grid, k, f_g * Xts[k] + p_g2 * x * Zts[k]
        )
    X = Xs * x ** np.arange(N + 1)[:, None]
    Y = Ys * x ** np.arange(N + 1)[:, None]
    Xt = Xts * x ** np.arange(N + 1)[:, None]
    Yt = Yts * x ** np.arange(N + 1)[:, None]
    Z = Zs * x ** (np.arange(N + 1)[:, None] + 1)
    Zt = Zts * x ** (np.arange(N + 1)[:, None] + 1)
    for arr in (X, Y, Z, Xt, Yt, Zt):
        if not np.all(np.isfinite(arr)):
            raise ArithmeticError(
                "formal powers overflow at N=%d (f/g ratio too large)" % N
            )
    return FormalPowerSet(
        grid=grid, N=N, X=X, Y=Y, Z=Z, Xt=Xt, Yt=Yt, Zt=Zt,
        X_s=Xs, Y_s=Ys, Xt_s=Xts, Yt_s=Yts,
    )


def sign_calibration(k_max=7):
    """Per-parity sign table fixed by the potential-free case.

    For Q = 0 (f = g = 1, p = 0) the families reduce to monomial
    coefficient pairs obeying an exact integer recursion; the literal
    parity formulas must reproduce Phi_k = (x^k, 0) and Psi_k = (0, x^k).
    Any slot where they produce the negated monomial gets a -1, applied
    uniformly by parity (consistency across k is asserted).
    """
    a, b = 0, 1  # coefficients: X_k = a x^k, Y_k = b x^k
    at, bt = 1, 0
    table = {}
    for k in range(1, k_max + 1):
        a, b = -b, a
        at, bt = -bt, at
        if k % 2:
            lit_phi = (-1) ** ((k - 1) // 2) * a
            lit_psi = (-1) ** ((k - 1) // 2) * bt
            key_phi, key_psi = ("phi", "odd"), ("psi", "odd")
        else:
            lit_phi = (-1) ** (k // 2) * at
            lit_psi = (-1) ** (k // 2) * b
            key_phi, key_psi = ("phi", "even"), ("psi", "even")
        for key, lit in ((key_phi, lit_phi), (key_psi, lit_psi)):
            assert lit in (-1, 1)
            if key in table:
                assert table[key] == lit, "parity sign table inconsistent"
            else:
                table[key] = lit
    # literal outcome is +-1, so the correcting factor equals it
    return dict(table)


_CALIBRATION = None


def _calibration():
    global _CALIBRATION
    if _CALIBRATION is None:
        _CALIBRATION = sign_calibration()
    return _CALIBRATION


def _phi_psi_from(fp, ps, k, X, Y, Xt, Yt):
    f, g = ps.f, ps.g
    f0, g0 = f[0], g[0]
    cal = _calibration()
    if k % 2:
        sgn = (-1.0) ** ((k - 1) // 2)
        phi = cal[("phi", "odd")] * sgn * f0 * np.stack([f * X[k], g * Y[k]], axis=1)
        psi = cal[("psi", "odd")] * sgn * g0 * np.stack([f * Xt[k], g * Yt[k]], axis=1)
    else:
        sgn = (-1.0) ** (k // 2)
        phi = cal[("phi", "even")] * sgn * g0 * np.stack([f * Xt[k], g * Yt[k]], axis=1)
        psi = cal[("psi", "even")] * sgn * f0 * np.stack([f * X[k], g * Y[k]], axis=1)
    return phi, psi


def phi_psi(fp, ps, k):
    """Transmutation images of (x^k, 0) and (0, x^k), shape (M + 1, 2)."""
    if not 0 <= k <= fp.N:
        raise ValueError("order %d outside built range" % k)
    return _phi_psi_from(fp, ps, k, fp.X, fp.Y, fp.Xt, fp.Yt)


def kernel_coeffs_via_mapping(fp, ps, n, table=None):
    """C_n(x) from the mapping property, independent of the recursion.

    C_n = (2n+1)/2 [-I + sum_k l[n,k] x^-k (Phi_k | Psi_k)], assembled
    from the x^k-scaled families so no division by x^k ever happens; the
    near-origin sanitation matches the production path.
    """
    if table is None:
        table = legendre_monomial_coeffs(fp.N)
    grid = fp.grid
    acc = np.zeros((grid.size, 2, 2), dtype=complex)
    for k in range(n + 1):
        l = table.coeffs[n, k]
        if l == 0.0:
            continue
        phi, psi = _phi_psi_from(fp, ps, k, fp.X_s, fp.Y_s, fp.Xt_s, fp.Yt_s)
        acc += l * np.stack([phi, psi], axis=2)
    out = 0.5 * (2 * n + 1) * (acc - I2)
    # C_n(0) = 0 exactly, and the same dead zone as the production path
    out[: sanitize_cells(n, grid.M) + 1] = 0.0
    return out


def mapped_coefficients(Q, hom, N):
    """C_0..C_N by the mapping route alone, shape (N + 1, M + 1, 2, 2).

    Builds the particular solution from hom = U(0, x), the formal powers
    up to order N and the Legendre monomial table, then assembles every
    order with kernel_coeffs_via_mapping.
    """
    ps = build_particular_solution(Q, hom)
    fp = build_formal_powers(ps, Q, N)
    table = legendre_monomial_coeffs(N)
    return np.stack([kernel_coeffs_via_mapping(fp, ps, n, table) for n in range(N + 1)])
