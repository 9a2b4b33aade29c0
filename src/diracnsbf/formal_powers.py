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
"""

from dataclasses import dataclass

import numpy as np

from .dirac import I2, fundamental_solution_zero
from .grid import indefinite_integral, indefinite_integral_weighted
from .kernel import sanitize_cells
from .special import legendre_monomial_coeffs

__all__ = [
    "ParticularSolution",
    "FormalPowerSet",
    "build_particular_solution",
    "build_formal_powers",
    "phi_psi",
    "kernel_coeffs_via_mapping",
    "mapped_coefficients",
    "sign_calibration",
]

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
