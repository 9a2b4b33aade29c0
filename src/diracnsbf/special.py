"""Spherical Bessel functions of complex argument and Legendre polynomials.

The series evaluator consumes two special-function families: spherical
Bessel functions j_n(z) for complex z (the argument is lambda*x, so both
tiny and large moduli occur in one sweep) and Legendre polynomials P_n(s)
on [-1, 1], both as point values and as monomial coefficient tables.

All spherical Bessel values come from one engine, `bessel_pair_batch`,
which returns j_n(z) and j_n(z)/z together so that the 1/lambda factors
of the derivative series cancel analytically and lambda = 0 needs no
special casing by callers.  Each argument takes one of three routes:

- |z| < 0.5: a truncated Maclaurin series per order.
- essentially real z with |z| >= 4 and n_max <= 0.75 |z|: upward
  recurrence from the closed forms of j_0 and j_1, which is stable below
  the turning point n ~ |z|.
- everything else: downward (Miller) recurrence, normalized against a
  closed form, followed by the upward pass on the orders n <= 0.75 |z|
  of the essentially real arguments.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "LegendreMonomialTable",
    "bessel_pair_batch",
    "legendre_eval",
    "legendre_seq",
    "legendre_monomial_coeffs",
    "LEGENDRE_DEGREE_CAP",
]

# Below this |z| the Maclaurin series replaces the recurrences.
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 16
# Miller starts _MILLER_PAD orders above n_max + |z|, plus a margin that
# covers the turning-point region of width ~|z|^(1/3).
_MILLER_PAD = 20
# Exact powers of two so rescaling during the downward pass is lossless.
_RESCALE_LIMIT = 2.0**830
_RESCALE_FACTOR = 2.0**-832

LEGENDRE_DEGREE_CAP = 64


def _series_pair(z, n_max):
    """Maclaurin j_n(z) and j_n(z)/z for small |z|.

    j_n(z) = z^n/(2n+1)!! * sum_k (-z^2/2)^k / (k! (2n+3)(2n+5)..(2n+2k+1)).
    Prefactors are built multiplicatively so large n underflows to zero
    instead of hitting an overflowing double factorial.  The n = 0 slot of
    the /z family is j_0(z)/z where z != 0 and 0 at z = 0 (no caller ever
    multiplies it by a nonzero weight there).
    """
    half_z2 = 0.5 * z * z
    jn = np.empty((n_max + 1,) + z.shape, dtype=complex)
    jz = np.empty_like(jn)
    pref = np.ones_like(z)
    prefz = np.zeros_like(z)
    for n in range(n_max + 1):
        if n == 1:
            prefz = np.full_like(z, 1.0 / 3.0)
            pref = pref * z / 3.0
        elif n > 1:
            prefz = prefz * z / (2 * n + 1)
            pref = pref * z / (2 * n + 1)
        term = np.ones_like(z)
        total = np.ones_like(z)
        for k in range(1, _SERIES_TERMS):
            term = term * (-half_z2) / (k * (2 * n + 2 * k + 1))
            total = total + term
        jn[n] = pref * total
        if n >= 1:
            jz[n] = prefz * total
    zero = z == 0
    safe = np.where(zero, 1.0, z)
    jz[0] = np.where(zero, 0.0, jn[0] / safe)
    return jn, jz


def _recurrence_jn(z, n_max):
    """j_0..j_{n_max} for arguments with |z| >= the series cutoff.

    Essentially real arguments (|Im z| <= 1e-8 |z|, |z| >= 4) take the
    orders n <= n_top = min(int(0.75 |z|), n_max) from upward recurrence
    started at the closed forms j_0 = sin(z)/z and
    j_1 = (sin z - z cos z)/z^2: below the turning point it is stable and
    accurate relative to the local values, also at the crossings.  When
    n_top = n_max that is the whole sequence.

    The other arguments, and the orders above n_top, come from one shared
    downward (Miller) pass.  It seeds an arbitrary tail at order
    n_max + pad + ceil|z| + ceil(4 |z|^(1/3)), with |z| the largest
    modulus among them, recurses j_{n-1} = (2n+1)/z j_n - j_{n+1} down to
    0, rescaling by an exact power of two whenever the carries grow, and
    normalizes against whichever closed form of j_0 and j_1 is larger in
    modulus; normalizing against a near-vanishing j_0 would amplify the
    O(eps/|z|) contamination of the raw sequence.
    """
    absz = np.abs(z)
    sinz = np.sin(z)
    j0 = sinz / z
    j1 = (sinz - z * np.cos(z)) / (z * z)
    real = (np.abs(z.imag) <= 1e-8 * absz) & (absz >= 4.0)
    n_top = np.where(real, np.minimum((0.75 * absz).astype(int), n_max), -1)
    out = np.empty((n_max + 1,) + z.shape, dtype=complex)

    miller = n_top < n_max
    if miller.any():
        zm = z[miller]
        amax = np.max(absz[miller])
        n_start = n_max + _MILLER_PAD + int(np.ceil(amax) + np.ceil(4 * amax ** (1 / 3)))
        jp = np.zeros_like(zm)
        jc = np.full_like(zm, 1e-30)
        raw = np.zeros((n_max + 2,) + zm.shape, dtype=complex)
        shift = np.zeros(zm.shape, dtype=np.int64)
        shift_at = np.zeros((n_max + 2,) + zm.shape, dtype=np.int64)
        for n in range(n_start, 0, -1):
            if n <= n_max + 1:
                raw[n] = jc
                shift_at[n] = shift
            jm = (2 * n + 1) / zm * jc - jp
            jp, jc = jc, jm
            big = (np.abs(jc.real) + np.abs(jc.imag)) > _RESCALE_LIMIT
            if big.any():
                jc = np.where(big, jc * _RESCALE_FACTOR, jc)
                jp = np.where(big, jp * _RESCALE_FACTOR, jp)
                shift = shift + big
        raw[0] = jc
        shift_at[0] = shift
        use_j1 = np.abs(j1[miller]) > np.abs(j0[miller])
        ref = np.where(use_j1, j1[miller], j0[miller])
        factor = ref / np.where(use_j1, raw[1], raw[0])
        # Entries stored before a later rescale carry extra powers of the
        # rescale factor; applying them may underflow to zero, which is the
        # correct double-precision value of such a coefficient.
        delta = shift[None, ...] - shift_at[: n_max + 1]
        out[:, miller] = raw[: n_max + 1] * factor * _RESCALE_FACTOR**delta

    if real.any():
        zu = z[real]
        top = n_top[real]
        up = np.empty((n_max + 1,) + zu.shape, dtype=complex)
        up[0] = j0[real]
        if n_max >= 1:
            up[1] = j1[real]
        # Columns with a low n_top may overflow past it; those entries are
        # discarded below.
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, int(top.max())):
                up[n + 1] = (2 * n + 1) / zu * up[n] - up[n - 1]
        keep = np.arange(n_max + 1)[:, None] <= top[None, :]
        out[:, real] = np.where(keep, up, out[:, real])
    return out


def bessel_pair_batch(z, n_max):
    """(j_n(z), j_n(z)/z) for n = 0..n_max over a 1-D array of arguments.

    Each output has shape (n_max + 1, len(z)).  Accurate to at least 12
    significant digits for |z| <= 1e3 and n_max <= 256; a value near a
    zero crossing is accurate relative to the amplitude of its sequence.
    At z = 0 the exact limits are returned:
    j_0 = 1, j_n = 0 for n >= 1, j_1/z = 1/3 and j_n/z = 0 for n >= 2.
    The n = 0 slot of the /z family holds j_0(z)/z for z != 0 and 0 at
    z = 0; every consumer weights it by a factor that vanishes there.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite Bessel argument in batch")
    jn = np.empty((n_max + 1,) + z.shape, dtype=complex)
    jz = np.empty_like(jn)
    small = np.abs(z) < _SERIES_CUTOFF
    if small.any():
        jn[:, small], jz[:, small] = _series_pair(z[small], n_max)
    if not small.all():
        zb = z[~small]
        jn_b = _recurrence_jn(zb, n_max)
        jn[:, ~small] = jn_b
        jz[:, ~small] = jn_b / zb
    return jn, jz


def legendre_eval(n, s):
    """P_n(s) by the three-term recurrence, s in [-1, 1] (scalar or array)."""
    if n < 0:
        raise ValueError("Legendre degree must be >= 0")
    s = np.asarray(s, dtype=float)
    if np.any(np.abs(s) > 1.0 + 1e-12):
        raise ValueError("Legendre argument outside [-1, 1]")
    out = legendre_seq(s, n)[n]
    if out.ndim == 0:
        return float(out)
    return out


def legendre_seq(s, n_max):
    """All of P_0(s)..P_{n_max}(s), shape (n_max + 1,) + shape(s)."""
    s = np.asarray(s, dtype=float)
    out = np.empty((n_max + 1,) + s.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = s
    for n in range(1, n_max):
        out[n + 1] = ((2 * n + 1) * s * out[n] - n * out[n - 1]) / (n + 1)
    return out


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
