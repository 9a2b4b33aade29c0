"""Characteristic function, real-line eigenvalue scan, Newton refinement.

For the two-point condition A_left Y(0) + A_right Y(b) = 0 the eigenvalues
are the zeros of Delta(lambda) = det(A_left + A_right U(lambda, b)).  U and
dU/dlambda at x = b for any set of lambdas cost one batched Bessel pass;
real lambdas, a real potential and real blocks give Delta in float64.
The scan samples Delta alone, without its slope, on a uniform lambda grid,
checks there that Delta is real, and brackets its sign changes (plus
suspicious local minima of |Delta|).  All candidates are then refined
together by a lockstep safeguarded Newton iteration: each round evaluates
Delta and its lambda-derivative at every root still iterating with one
Bessel pass, while bisection fallbacks, tolerances and trust radii act per
root.  The surviving roots are indexed with index 0 anchored at the
smallest nonnegative eigenvalue.  Every function here takes the
KernelCoefficients of the build.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .dirac import _real_if_real
from .solution import evaluate_U

__all__ = [
    "BoundaryCondition",
    "ScanResult",
    "char_function",
    "scan_eigenvalues",
]


@dataclass(frozen=True)
class BoundaryCondition:
    """Coefficient blocks of A_left Y(0) + A_right Y(b) = 0.

    Each block is a constant 2x2 array or a callable lambda -> 2x2 (entire
    functions of the spectral parameter are allowed).  With constant
    blocks the characteristic function comes with its lambda-derivative
    and refinement takes Newton steps; a lambda-dependent block gives no
    derivative, and refinement takes false-position steps instead.
    """

    left: object
    right: object

    @classmethod
    def dirichlet(cls):
        """y1(0) = 0 and y1(b) = 0."""
        return cls(
            left=np.array([[1.0, 0.0], [0.0, 0.0]]),
            right=np.array([[0.0, 0.0], [1.0, 0.0]]),
        )

    def block(self, which, lam):
        """The block at lam, float64 when its imaginary part is exactly zero."""
        blk = self.left if which == "left" else self.right
        (out,) = _real_if_real(blk(lam) if callable(blk) else blk)
        return out

    @property
    def is_constant(self):
        return not (callable(self.left) or callable(self.right))


@dataclass(frozen=True)
class ScanResult:
    """The eigenvalues of a window in increasing order, one array per column.

    index is 0 at the smallest nonnegative eigenvalue and decreases
    leftward; residual is |Delta| at lam, iterations the refinement rounds
    the root took, and converged False for a root kept unconverged.
    """

    lam: np.ndarray
    index: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


# Default refinement tolerance of a local-minimum polish, relative to the
# median |Delta| on the scan grid.
_REFINE_RTOL = 1e-13
# A local minimum of |Delta| below this fraction of the median is polished.
_MINIMUM_RATIO = 1e-3
# Roots closer than this fraction of the scan step are one root.
_DEDUPE_FRACTION = 0.25


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def char_function(coeffs, bc, lams, derivative=True):
    """Delta(lambda) = det(A_left + A_right U^N(lambda, b)) and its slope.

    lams may be a scalar or an array of any shape, complex values
    included; delta and slope have its shape, from one Bessel pass, and
    are float64 for real lams, a real potential and real blocks.  The
    slope d Delta / d lambda is None when a block depends on lambda;
    derivative=False returns Delta alone, bitwise the same, without
    computing the slope.  d(det M) expands exactly in cofactors for 2x2
    matrices (equivalent to Jacobi's formula, with no conditioning caveat
    at singular M).
    """
    lams = np.asarray(lams)
    b = coeffs.grid.b
    if not bc.is_constant:
        U = evaluate_U(coeffs, lams, b)

        def stack(which):
            blocks = [bc.block(which, lam) for lam in lams.ravel()]
            return np.array(blocks).reshape(lams.shape + (2, 2))

        delta = _det2(stack("left") + stack("right") @ U)
        return (delta, None) if derivative else delta
    R = bc.block("right", 0.0)
    if not derivative:
        return _det2(bc.block("left", 0.0) + R @ evaluate_U(coeffs, lams, b))
    U, dU = evaluate_U(coeffs, lams, b, derivative=True)
    M = bc.block("left", 0.0) + R @ U
    dM = R @ dU
    slope = (
        dM[..., 0, 0] * M[..., 1, 1]
        + M[..., 0, 0] * dM[..., 1, 1]
        - dM[..., 0, 1] * M[..., 1, 0]
        - M[..., 0, 1] * dM[..., 1, 0]
    )
    return _det2(M), slope


def _refine_lockstep(coeffs, bc, a, b, fa, fb, tol, trust, max_iter):
    """Safeguarded Newton on many roots of Re Delta at once.

    Row k is a bracket [a_k, b_k] whose endpoint values fa_k, fb_k
    straddle a sign change or, where fa_k is NaN, a bare start a_k that
    must stay within trust_k of itself (b_k and fb_k are then unused).
    tol_k NaN selects the default tolerance.  Every round evaluates Delta
    and its slope at all rows still iterating with one Bessel pass, while
    the safeguards act on each row separately: a bracketed row stays inside
    its bracket, with bisection as the fallback step, except that a step
    within the lambda resolution 4 eps (1 + |lambda|) is taken as proposed,
    even onto or past an end, and ends the row; a bare start gives up,
    unconverged, once its iterates leave its trust radius, rather than
    report a far-away root.  An endpoint or start already satisfying
    |Delta| <= tol counts as converged with zero iterations.  A
    lambda-dependent block gives no slope: a bracket is then refined by
    false-position steps alone, and a bare start is returned unconverged.
    Returns the arrays (lam, residual, iterations, converged), one entry
    per row.
    """
    a, b, fa, fb, tol, trust = (
        np.array(v, dtype=float) for v in (a, b, fa, fb, tol, trust)
    )
    n = len(a)
    bracketed = ~np.isnan(fa)
    active = np.ones(n, dtype=bool)
    out_lam, out_res = np.empty(n), np.empty(n)
    out_it, out_ok = np.zeros(n, dtype=int), np.zeros(n, dtype=bool)

    def finish(rows, at, res, it, ok):
        out_lam[rows], out_res[rows] = at[rows], res[rows]
        out_it[rows] = it
        out_ok[rows] = np.broadcast_to(ok, n)[rows]
        active[rows] = False

    tol = np.where(
        np.isnan(tol) & bracketed,
        1e-13 * np.maximum(np.maximum(np.abs(fa), np.abs(fb)), 1e-300),
        tol,
    )
    at_a = bracketed & (np.abs(fa) <= tol)
    at_b = bracketed & ~at_a & (np.abs(fb) <= tol)
    if np.any(bracketed & ~at_a & ~at_b & (np.sign(fa) == np.sign(fb))):
        raise ValueError("bracket endpoints must straddle a sign change")
    finish(at_a, a, np.abs(fa), 0, True)
    finish(at_b, b, np.abs(fb), 0, True)

    lam = np.where(bracketed, 0.5 * (a + b), a)
    start = lam.copy()
    f, df = np.full(n, np.nan), np.full(n, np.nan)

    def move_to(new):
        """Evaluate the active rows at new (one Bessel pass), keep their
        brackets, and return the step lengths."""
        rows = active.copy()
        moved = np.abs(new - lam)
        lam[rows] = new[rows]
        delta, slope = char_function(coeffs, bc, lam[rows])
        f[rows] = delta.real
        df[rows] = np.nan if slope is None else slope.real
        lower = rows & bracketed & (np.sign(f) == np.sign(fa))
        upper = rows & bracketed & ~lower
        a[lower], fa[lower] = lam[lower], f[lower]
        b[upper], fb[upper] = lam[upper], f[upper]
        return moved

    if active.any():
        move_to(lam)
    tol = np.where(np.isnan(tol), 1e-13 * np.maximum(1.0, np.abs(f)), tol)
    best_res, best_lam = np.abs(f), lam.copy()
    finish(active & (best_res <= tol), lam, best_res, 0, True)

    for it in range(1, max_iter + 1):
        if not active.any():
            break
        new = np.full(n, np.nan)
        k = active & np.isfinite(df) & (df != 0.0)
        new[k] = lam[k] - f[k] / df[k]
        k = active & np.isnan(new) & bracketed & (fb != fa)
        new[k] = (a[k] * fb[k] - b[k] * fa[k]) / (fb[k] - fa[k])  # false position
        finish(active & np.isnan(new), best_lam, best_res, max_iter, False)
        # a step within the lambda resolution is taken even onto or past a
        # bracket end (bisecting would creep); step collapse then ends the row
        resolution = 4.0 * np.finfo(float).eps * (1.0 + np.abs(lam))
        inside = (np.minimum(a, b) < new) & (new < np.maximum(a, b))
        k = active & bracketed & ~inside & (np.abs(new - lam) > resolution)
        new[k] = 0.5 * (a[k] + b[k])
        far = active & ~bracketed & (np.abs(new - start) > trust)
        finish(far, best_lam, best_res, it, False)
        if not active.any():
            break
        moved = move_to(new)
        res = np.abs(f)
        k = active & (res < best_res)
        best_res[k], best_lam[k] = res[k], lam[k]
        finish(active & (res <= tol), lam, res, it, True)
        # step collapse: at a simple root this is convergence in lambda;
        # require the residual to at least sit at the double-root scale
        # of the lambda resolution
        collapse = active & (moved <= resolution)
        finish(collapse, lam, res, it, res <= 1e4 * tol)
    finish(active, best_lam, best_res, max_iter, False)
    return out_lam, out_res, out_it, out_ok


def _scan_window(coeffs, bc, lam_min, lam_max, step, max_iter):
    """Refined roots of Re Delta found on the scan grid of the window.

    Sign changes (and exact zeros) of the grid values are refined from
    their brackets, reusing the endpoint values; a bracketed root that
    does not converge is kept, flagged, and reported by a RuntimeWarning.
    Local minima of |Delta| without a sign change (possible even-order
    roots) get an unbracketed polish, kept only when it converges cleanly
    inside the window.  The grid takes Delta without its slope; grid
    values that are not real (|Im| above 1e-8 of max |Delta|) raise
    ArithmeticError before any refinement, since the scan brackets roots
    of a real function.
    """
    npts = max(2, int(np.ceil((lam_max - lam_min) / step)) + 1)
    grid = np.linspace(lam_min, lam_max, npts)
    vals = char_function(coeffs, bc, grid, derivative=False)
    im_level = np.max(np.abs(vals.imag))
    scale = max(np.max(np.abs(vals)), 1e-300)
    if im_level > 1e-8 * scale:
        raise ArithmeticError(
            "Delta is complex on the real axis (|Im|/|Delta| = %.2e); the scan "
            "finds the eigenvalues of problems with a real Delta only"
            % (im_level / scale)
        )
    f = vals.real
    sgn = np.sign(f)
    zero = sgn[:-1] == 0.0
    bra = np.flatnonzero(zero | (sgn[:-1] != sgn[1:]))
    zero = zero[bra]
    mag = np.abs(vals)
    floor = _MINIMUM_RATIO * np.median(mag)
    tol_min = _REFINE_RTOL * max(float(np.median(mag)), 1e-300)
    mid = mag[1:-1]
    mins = 1 + np.flatnonzero(
        (mid < mag[:-2])
        & (mid < mag[2:])
        & (mid < floor)
        & (sgn[:-2] == sgn[1:-1])
        & (sgn[1:-1] == sgn[2:])
    )
    nb, m, nan = len(bra), len(mins), np.nan
    lam, res, it, ok = _refine_lockstep(
        coeffs,
        bc,
        a=np.r_[grid[bra], grid[mins]],
        b=np.r_[grid[bra + 1], grid[mins]],
        fa=np.r_[np.where(zero, nan, f[bra]), np.full(m, nan)],
        fb=np.r_[f[bra + 1], np.full(m, nan)],
        tol=np.r_[np.full(nb, nan), np.full(m, tol_min)],
        trust=np.r_[np.full(nb, np.pi / coeffs.grid.b), np.full(m, 3.0 * step)],
        max_iter=max_iter,
    )
    failed = lam[:nb][~ok[:nb]]
    if failed.size:
        warnings.warn(
            "%d bracketed root(s) did not converge within %d iterations, kept "
            "unconverged at lambda = %s"
            % (failed.size, max_iter, ", ".join("%.15g" % v for v in failed)),
            RuntimeWarning,
            stacklevel=3,
        )
    polished = ok[nb:] & (lam_min <= lam[nb:]) & (lam[nb:] <= lam_max)
    keep = np.r_[np.ones(nb, dtype=bool), polished]
    return lam[keep], res[keep], it[keep], ok[keep]


def scan_eigenvalues(coeffs, bc, lam_min, lam_max, step=None, max_iter=80):
    """All real eigenvalues in [lam_min, lam_max], refined and indexed.

    Returns a ScanResult sorted by eigenvalue (a stable sort of the roots
    found); of roots closer than a quarter of the scan step the one with
    the smaller residual stays.  The smallest nonnegative eigenvalue
    carries index 0 and indices decrease leftward (when every eigenvalue
    is negative the rightmost one gets index -1).  An empty window warns
    and returns empty arrays.  The scan step defaults to pi / (10 b);
    max_iter bounds the refinement rounds.  A Delta that is not real on
    the scan grid raises ArithmeticError.
    """
    if not lam_min < lam_max:
        raise ValueError("need lam_min < lam_max")
    if step is None:
        step = np.pi / (10.0 * coeffs.grid.b)
    lam, res, it, ok = _scan_window(coeffs, bc, lam_min, lam_max, step, max_iter)
    kept = []
    for i in np.argsort(lam, kind="stable"):
        if kept and abs(lam[i] - lam[kept[-1]]) < _DEDUPE_FRACTION * step:
            if res[i] < res[kept[-1]]:
                kept[-1] = i
            continue
        kept.append(i)
    if not kept:
        warnings.warn("no eigenvalues found in the window", stacklevel=2)
    kept = np.array(kept, dtype=int)
    lam = lam[kept]
    index = np.arange(kept.size) - np.searchsorted(lam, 0.0)
    return ScanResult(lam, index, res[kept], it[kept], ok[kept])
