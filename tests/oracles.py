"""Independent reference solutions used by the test suite only.

Everything here is deliberately built on different mathematics than the
library paths it checks: constant-coefficient problems use the closed-form
exponential of a traceless 2x2 matrix, the diagonal-potential benchmark
problem reduces to an exactly solvable Airy equation, and the
transmutation kernel is integrated directly along characteristics of its
defining hyperbolic system.  theta_n gives the x^n-weighted variables
the kernel recursion is stated in.  The stacked forms at the end are the
exception: they are the coefficient build as it was written on stacked
(n, 2, 2) arrays, with the adjugate inverse invert_unimodular, and the
automatic truncation as it was written per probe, which the library must
equal bit for bit, and so is the quadrature as it was written block
node by block node.
"""

import mpmath as mp
import numpy as np
from scipy import optimize
from scipy import special as sp

B = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def _sinhc(w):
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    safe = np.where(small, 1.0, w)
    out = np.where(small, 1.0 + w**2 / 6.0 + w**4 / 120.0, np.sinh(safe) / safe)
    return out


def expm_traceless(C, x):
    """exp(x C) for traceless 2x2 C: cosh(mu x) I + sinh(mu x)/mu * C."""
    C = np.asarray(C, dtype=complex)
    assert abs(C[0, 0] + C[1, 1]) < 1e-13
    mu2 = -(C[0, 0] * C[1, 1] - C[0, 1] * C[1, 0])
    mu = np.sqrt(mu2 + 0j)
    x = np.asarray(x, dtype=complex)
    w = mu * x
    out = np.cosh(w)[..., None, None] * I2 + (x * _sinhc(w))[..., None, None] * C
    return out


def const_q_solution(p, q, lam, x):
    """U(lambda, x) for constant p, q: exp(x (-lambda B + B Q))."""
    Q = np.array([[p, q], [q, -p]], dtype=complex)
    return expm_traceless(-lam * B + B @ Q, x)


def zs_const_solution(nu, lam, x):
    """Z(lambda, x) for a constant ZS potential: exp(x (Q_zs + i lam s3))."""
    G = np.array([[1j * lam, nu], [np.conj(nu), -1j * lam]], dtype=complex)
    return expm_traceless(G, x)


def central_dlambda(fn, lam, h=1e-5):
    return (fn(lam + h) - fn(lam - h)) / (2.0 * h)


SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def zs_potential(grid, nu_fn):
    """The ZS potential of nu_fn sampled on the nodes, nu_fn kept."""
    from diracnsbf.zs import ZsPotential

    nu = np.broadcast_to(np.asarray(nu_fn(grid.nodes), dtype=complex), (grid.size,))
    return ZsPotential(grid, nu.copy(), nu_fn=nu_fn)


def zs_coefficients(zs, N):
    """Kernel coefficients of a ZS potential, built from zs_to_dirac(zs)."""
    from diracnsbf.dirac import fundamental_solution_zero
    from diracnsbf.kernel import build_coefficients
    from diracnsbf.zs import zs_to_dirac

    Q = zs_to_dirac(zs)
    return build_coefficients(Q, fundamental_solution_zero(Q), N)


def zs_ode_residual(coeffs, lam):
    """Max interior-node norm of Z' - Q_zs Z - i lambda s3 Z, with Z' the
    grid's 6-point finite difference of the series Z; coeffs come from
    zs_coefficients, whose potential p = Im nu, q = -Re nu gives nu back."""
    from diracnsbf.dirac import matrix_norm
    from diracnsbf.grid import differentiate
    from diracnsbf.zs import evaluate_Z

    grid = coeffs.grid
    nu = -coeffs.potential.q + 1j * coeffs.potential.p
    Q_zs = np.zeros((grid.size, 2, 2), dtype=complex)
    Q_zs[:, 0, 1] = nu
    Q_zs[:, 1, 0] = np.conj(nu)
    Z = evaluate_Z(coeffs, lam, grid.nodes)
    dZ = differentiate(grid, Z)
    R = dZ - Q_zs @ Z - 1j * lam * (SIGMA3 @ Z)
    return float(np.max(matrix_norm(R[1:-1])))


# ---------------------------------------------------------------------------
# Benchmark spectral problem: B Z' + diag(-x, 1) Z = lam Z on [0, 1] with
# z1(0) = z1(1) = 0.  Eliminating z2 gives z1'' = (1 - lam)(lam + x) z1,
# which is exactly an Airy equation, so shooting has a closed form.  The
# elimination is degenerate at lam = 1, where (0, 1)^T is an eigenfunction
# of the first-order system; that eigenvalue is appended separately.
# ---------------------------------------------------------------------------


def airy_char(lam):
    """Shooting value z1(1) with z1(0) = 0, z1'(0) = 1 (up to sign)."""
    lam = np.asarray(lam, dtype=float)
    s = np.cbrt(1.0 - lam)
    z0 = s * lam
    z1 = s * (1.0 + lam)
    ai0, _, bi0, _ = sp.airy(z0)
    ai1, _, bi1, _ = sp.airy(z1)
    small = np.abs(s) < 1e-8
    safe = np.where(small, 1.0, s)
    return np.where(small, 1.0, np.pi * (ai0 * bi1 - bi0 * ai1) / safe)


def airy_root_mp(guess, dps=40):
    """The root of the shooting function airy_char nearest guess (|guess| > 1)
    as an mpmath number, polished at dps digits: far below double rounding."""

    def shoot(lam):
        s = mp.sign(1 - lam) * mp.cbrt(abs(1 - lam))
        z0, z1 = s * lam, s * (1 + lam)
        return (mp.airyai(z0) * mp.airybi(z1) - mp.airybi(z0) * mp.airyai(z1)) / s

    with mp.workdps(dps):
        return mp.findroot(shoot, mp.mpf(guess))


def airy_spectrum(lam_min, lam_max, scan_step=0.05):
    """All eigenvalues of the benchmark problem inside [lam_min, lam_max]."""
    grid = np.arange(lam_min, lam_max + scan_step, scan_step)
    vals = airy_char(grid)
    roots = []
    for k in range(len(grid) - 1):
        if vals[k] == 0.0:
            roots.append(grid[k])
        elif np.sign(vals[k]) != np.sign(vals[k + 1]):
            r = optimize.brentq(
                lambda t: float(airy_char(t)), grid[k], grid[k + 1], xtol=1e-13, rtol=8.9e-16
            )
            roots.append(r)
    if lam_min <= 1.0 <= lam_max:
        roots.append(1.0)
    roots = np.array(sorted(roots))
    # dedupe (lam = 1 could in principle coincide with a reduced root)
    keep = np.ones(len(roots), dtype=bool)
    keep[1:] = np.diff(roots) > 1e-9
    return roots[keep]


# ---------------------------------------------------------------------------
# Direct Goursat integration of the transmutation-kernel system
#   B K_x + K_t B = -Q(x) K  on |t| <= x
#   B K(x, x) - K(x, x) B = -Q(x),   B K(x, -x) + K(x, -x) B = 0.
# In characteristic variables xi = (x + t)/2, eta = (x - t)/2 and the
# component combinations s1 = k11 + k22, d1 = k11 - k22, s2 = k12 + k21,
# d2 = k12 - k21 the system decouples into transport equations
#   d/dxi  s1 =  q d1 - p s2        d/dxi  d2 =  p d1 + q s2
#   d/deta d1 =  q s1 + p d2        d/deta s2 = -p s1 + q d2
# with data s1 = d2 = 0 on xi = 0 and d1 = q(x), s2 = -p(x) on eta = 0.
# A trapezoidal march with corrector sweeps gives an O(h^2) desk-scale
# reference that never touches the production recursion.
# ---------------------------------------------------------------------------


def goursat_kernel(p_fn, q_fn, b, n=30, sweeps=4):
    """Kernel K on the lattice (xi, eta) = (i, j) b/n, i + j <= n.

    Returns (x, t, K) arrays of the lattice points and 2x2 kernel values.
    """
    h = b / n
    s1 = np.zeros((n + 1, n + 1))
    d1 = np.zeros_like(s1)
    s2 = np.zeros_like(s1)
    d2 = np.zeros_like(s1)
    idx = np.arange(n + 1)
    xi = idx * h
    x_of = xi[:, None] + xi[None, :]  # x = xi + eta
    p = p_fn(x_of)
    q = q_fn(x_of)
    d1[:, 0] = q_fn(xi)
    s2[:, 0] = -p_fn(xi)

    def rhs_xi(i, j):
        return q[i, j] * d1[i, j] - p[i, j] * s2[i, j], p[i, j] * d1[i, j] + q[i, j] * s2[i, j]

    def rhs_eta(i, j):
        return q[i, j] * s1[i, j] + p[i, j] * d2[i, j], -p[i, j] * s1[i, j] + q[i, j] * d2[i, j]

    for _ in range(sweeps):
        for i in range(1, n + 1):
            for j in range(0, n + 1 - i):
                f0 = rhs_xi(i - 1, j)
                f1 = rhs_xi(i, j)
                s1[i, j] = s1[i - 1, j] + 0.5 * h * (f0[0] + f1[0])
                d2[i, j] = d2[i - 1, j] + 0.5 * h * (f0[1] + f1[1])
        for j in range(1, n + 1):
            for i in range(0, n + 1 - j):
                g0 = rhs_eta(i, j - 1)
                g1 = rhs_eta(i, j)
                d1[i, j] = d1[i, j - 1] + 0.5 * h * (g0[0] + g1[0])
                s2[i, j] = s2[i, j - 1] + 0.5 * h * (g0[1] + g1[1])

    pts_x, pts_t, kmats = [], [], []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            x = xi[i] + xi[j]
            t = xi[i] - xi[j]
            k11 = 0.5 * (s1[i, j] + d1[i, j])
            k22 = 0.5 * (s1[i, j] - d1[i, j])
            k12 = 0.5 * (s2[i, j] + d2[i, j])
            k21 = 0.5 * (s2[i, j] - d2[i, j])
            pts_x.append(x)
            pts_t.append(t)
            kmats.append([[k11, k12], [k21, k22]])
    return np.array(pts_x), np.array(pts_t), np.array(kmats)


# ---------------------------------------------------------------------------
# The recursion's own variables theta_n = x^n C_n, in which the kernel
# module states it; the library advances C_n and needs neither.
# ---------------------------------------------------------------------------


def scale_by_nodes(scalars, f):
    """Per-node scalar multiple scalars[i] * f(x_i)."""
    from diracnsbf.grid import GridMismatchError

    scalars = np.asarray(scalars)
    f = np.asarray(f)
    if scalars.shape[0] != f.shape[0]:
        raise GridMismatchError("scalar factor on a different grid")
    return scalars.reshape(scalars.shape + (1,) * (f.ndim - 1)) * f


def theta_n(coeffs, n):
    """theta_n(x) = x^n C_n(x) sampled on the grid.

    theta_-1 = -C_0 / x, with the forced limit -B Q(0) / 2 at x = 0
    that follows from U(0, x) = I + B Q(0) x + O(x^2).
    """
    from diracnsbf.dirac import _b_left

    row = coeffs.coeff(n)
    x = coeffs.grid.nodes
    if n >= 0:
        return scale_by_nodes(x**n, row)
    out = np.empty_like(row)
    out[1:] = -coeffs.K[1][1:] / x[1:, None, None]
    out[0] = -0.5 * _b_left(coeffs.potential.matrices[0])
    return out


# ---------------------------------------------------------------------------
# The coefficient build on stacked (n, 2, 2) arrays: B as a signed row or
# column permutation (a copy), every 2x2 product through _mul2.  The
# library writes the same formulas entry by entry on contiguous vectors and
# must reproduce these bit for bit, for real and complex potentials alike.
# ---------------------------------------------------------------------------


def _mul2(a, b):
    """Batched 2x2 product a @ b, written out entry by entry, broadcasting
    over the leading axes as `@` does."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def stacked_step_maps(Q, substeps):
    """RK4 step maps D_k as one (steps, 2, 2) array, from the (2 steps + 1,
    2, 2) samples of A = B Q."""
    from diracnsbf.dirac import I2

    grid = Q.grid
    n_fine = 2 * grid.M * substeps
    p, q = Q.values_at(np.linspace(0.0, grid.b, n_fine + 1))
    A = np.empty((n_fine + 1, 2, 2), dtype=np.result_type(p, q))
    A[:, 0, 0] = q
    A[:, 0, 1] = -p
    A[:, 1, 0] = -p
    A[:, 1, 1] = -q
    h = grid.h / substeps
    a0, am, a1 = A[0:-1:2], A[1::2], A[2::2]
    s = (am[:, 0, 0] ** 2 + am[:, 0, 1] ** 2)[:, None, None]
    ends = a0 + a1
    D = 4.0 * am + ends + h * (_mul2(am, a0) + _mul2(a1, am) + s * I2)
    D += (0.5 * h * h) * s * ends + (0.25 * h**3) * s * _mul2(a1, a0)
    D *= h / 6.0
    return D


def invert_unimodular(a, tol=1e-6):
    """Inverse of (a batch of) 2x2 matrices with det = 1, by adjugate.

    [[a, b], [c, d]] -> [[d, -b], [-c, a]]; a determinant drifting beyond
    tol from 1 is rejected since the adjugate would silently stop being
    the inverse.
    """
    a = np.asarray(a)
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if not np.max(np.abs(det - 1.0)) <= tol:
        raise ValueError("matrix is not unimodular within tolerance")
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    out[..., 1, 1] = a[..., 0, 0]
    return out


def stacked_propagator(Q, substeps=10):
    """(U, Uinv) of U(0, x): the stacked step maps, composed per cell and
    by the doubling scan with stacked products, and the adjugate inverse."""
    from diracnsbf.dirac import I2

    def compose(Dl, De):
        return Dl + De + _mul2(Dl, De)

    grid = Q.grid
    D = stacked_step_maps(Q, substeps).reshape(grid.M, substeps, 2, 2)
    cells = D[:, 0]
    for k in range(1, substeps):
        cells = compose(D[:, k], cells)
    d = 1
    while d < grid.M:
        cells[d:] = compose(cells[d:], cells[:-d])
        d *= 2
    U = np.empty((grid.size, 2, 2), dtype=cells.dtype)
    U[0] = I2
    U[1:] = cells + I2
    return U, invert_unimodular(U)


def blockwise_indefinite_integral(grid, f):
    """grid.indefinite_integral as it was written with one strided gather
    per block node and one strided write per offset."""
    from diracnsbf.grid import BLOCK, _W

    f = np.asarray(f)
    nblocks = grid.M // BLOCK
    blocks = np.empty((BLOCK + 1, nblocks) + f.shape[1:], dtype=f.dtype)
    for j in range(BLOCK + 1):
        blocks[j] = f[j::BLOCK][:nblocks]
    partial = np.tensordot(_W[1:], blocks, axes=(1, 0)) * grid.h
    out = np.zeros_like(f, dtype=np.result_type(f.dtype, float))
    starts = np.zeros((nblocks,) + f.shape[1:], dtype=out.dtype)
    np.cumsum(partial[-1, :-1], axis=0, out=starts[1:])
    for k in range(1, BLOCK + 1):
        out[k::BLOCK] = starts + partial[k - 1]
    return out


def stacked_apply_S(H, hom):
    """S[H] = U int_0^x U^{-1} (-B H), with stacked products."""
    from diracnsbf.dirac import _b_left
    from diracnsbf.grid import indefinite_integral

    integrand = _mul2(invert_unimodular(hom.U), -_b_left(H))
    return _mul2(hom.U, indefinite_integral(hom.grid, integrand))


def stacked_recurse(Q, hom, N, K=None):
    """Unguarded C_-1..C_N by the stacked recursion step (same signature
    as kernel._recurse, so that it can stand in for it)."""
    from diracnsbf.dirac import I2, _b_left, _b_right
    from diracnsbf.kernel import sanitize_cells

    out = np.zeros((N + 2, Q.grid.size, 2, 2), dtype=hom.U.dtype)
    if K is None:
        out[1] = 0.5 * (hom.U - I2)
        out[0] = -out[1]
        start = 1
    else:
        out[: len(K)] = K
        start = len(K) - 1
    x = Q.grid.nodes
    for n in range(start, N + 1):
        prev2, prev1 = out[n - 1], out[n]
        Phi = -(2 * n - 1) * _b_left(prev2) + (2 * n - 3) * _b_right(prev1)
        Sval = stacked_apply_S(scale_by_nodes(x ** (n - 1), Phi), hom)
        xn = (x**n)[:, None, None]
        avg = Sval * np.divide(1.0, xn, out=np.zeros_like(xn), where=xn > 0.0)
        out[n + 1] = ((2 * n + 1) / (2 * n - 3)) * (prev2 + avg)
        out[n + 1][: sanitize_cells(n, Q.grid.M) + 1] = 0.0
    return out


# ---------------------------------------------------------------------------
# The automatic truncation order as it was written per probe: every probe
# finalizes its family and walks the residual profile of orders 0..N from
# scratch, and the 2x2 norm takes its scale by two reductions.  The library
# adds each order's residual once, on the unguarded family, with an
# elementwise scale; both must give these results bit for bit.
# ---------------------------------------------------------------------------


def reduction_matrix_norm(a):
    """dirac.matrix_norm with its scale taken by max reductions over each
    matrix's real and imaginary parts (no lift of subnormal scales)."""
    a = np.asarray(a)
    scale = np.maximum(
        np.abs(a.real).max(axis=(-2, -1)), np.abs(a.imag).max(axis=(-2, -1))
    )
    if not np.all(np.isfinite(scale)):
        raise ValueError("matrix entries must be finite")
    u = a * (1.0 / np.where(scale > 0, scale, 1.0))[..., None, None]
    w = u.real**2 + u.imag**2
    c0 = w[..., 0, 0] + w[..., 1, 0]
    c1 = w[..., 0, 1] + w[..., 1, 1]
    b = np.conj(u[..., 0, 0]) * u[..., 0, 1] + np.conj(u[..., 1, 0]) * u[..., 1, 1]
    return scale * np.sqrt(0.5 * (c0 + c1) + np.hypot(0.5 * (c0 - c1), np.abs(b)))


def _boundary_terms(total, alt):
    """B S - S B for the plain sum S and B T + T B for the alternating sum T."""
    from diracnsbf.dirac import _b_left, _b_right

    return _b_left(total) - _b_right(total), _b_left(alt) + _b_right(alt)


def per_probe_residual_profile(coeffs):
    """Outer-region sup delta_Q and sup delta_0 for every order n <= N."""
    grid = coeffs.grid
    outer = grid.nodes >= 0.5 * grid.b
    inv_x = 1.0 / grid.nodes[outer, None, None]
    Qm = coeffs.potential.matrices[outer]
    sup_Q = np.empty(coeffs.N + 1)
    sup_0 = np.empty(coeffs.N + 1)
    total = np.zeros_like(Qm)
    alt = np.zeros_like(Qm)
    for n in range(coeffs.N + 1):
        Kn = coeffs.coeff(n)[outer]
        total += Kn
        alt += (-1.0) ** n * Kn
        comm, anti = _boundary_terms(total, alt)
        sup_Q[n] = np.max(reduction_matrix_norm(Qm + comm * inv_x))
        sup_0[n] = np.max(reduction_matrix_norm(anti * inv_x))
    return sup_Q, sup_0


def per_probe_auto_truncation(Q, hom, tol, N_max=128):
    """(coefficients, probes) of kernel.auto_truncation, each probe
    finalized and profiled from order 0; a run that misses tol keeps the
    first order with the smallest residual."""
    from diracnsbf.kernel import _finalize, _probe_schedule, _recurse

    K = None
    probes = []
    for Np in _probe_schedule(N_max):
        K = _recurse(Q, hom, Np, K)
        coeffs = _finalize(Q, K.copy())
        sup_Q, sup_0 = per_probe_residual_profile(coeffs)
        probes.append((Np, float(sup_Q[Np]), float(sup_0[Np])))
        level = np.maximum(sup_Q, sup_0)
        if level[Np] <= tol:
            n_best = int(np.argmax(level <= tol))
            break
    else:
        n_best = int(np.argmin(level))
    return _finalize(Q, K[: n_best + 2]), np.array(probes, dtype=float)
