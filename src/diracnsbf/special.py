"""Spherical Bessel functions of complex argument and Legendre polynomials.

The series evaluator consumes two special-function families: spherical
Bessel functions j_n(z) for complex z (the argument is lambda*x, so both
tiny and large moduli occur in one sweep) and Legendre polynomials P_n(s)
on [-1, 1] as value sequences.

All spherical Bessel values come from one engine, `bessel_pair_batch`,
which returns j_n(z) and j_n(z)/z together so that the 1/lambda factors
of the derivative series cancel analytically and lambda = 0 needs no
special casing by callers.  Each argument takes one of three routes:

- |z| < 0.5: a truncated Maclaurin series, vectorized over the orders.
- |z| >= 4 with |Im z| <= _UPWARD_IM_CAP: upward recurrence from the
  closed forms of j_0 and j_1 on the orders n <= 0.75 |z|, which is
  stable below the turning point n ~ |z| for complex z too.
- everything else, and the orders above 0.75 |z|: downward (Miller)
  recurrence from a start of the argument's own, normalized against a
  closed form.  Arguments with Im z == 0 run in float64, and no values
  depend on the rest of the batch.
"""

import numpy as np

__all__ = [
    "bessel_pair_batch",
    "legendre_seq",
]

# Below this |z| the Maclaurin series replaces the recurrences.
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 16
# Upward recurrence serves |z| >= 4 only while |Im z| <= this cap: its
# error relative to j_n grows like exp(n^2 |Im z| / |z|^2), at most
# exp(0.5625 cap) ~ 90 on the orders n <= 0.75 |z| it takes.
_UPWARD_IM_CAP = 8.0
# Miller starts _MILLER_PAD orders above n_max + |z|, plus a margin that
# covers the turning-point region of width ~|z|^(1/3).
_MILLER_PAD = 20
# Exact powers of two so rescaling during the downward pass is lossless.
# It checks every 8th order: 8 steps grow the carries by at most
# (4n + 3)^8 for |z| >= 0.5, far inside the 2^194 left above the limit.
_RESCALE_LIMIT = 2.0**830
_RESCALE_FACTOR = 2.0**-832


def _series_pair(z, n_max):
    """Maclaurin j_n(z) and j_n(z)/z for small |z|, all orders at once.

    j_n(z) = z^n/(2n+1)!! * sum_k (-z^2/2)^k / (k! (2n+3)(2n+5)..(2n+2k+1)).
    The prefactors are running products over the orders, so large n
    underflows to zero instead of hitting an overflowing double factorial;
    the sum loops over the series terms only.  The n = 0 slot of the /z
    family is j_0(z)/z where z != 0 and 0 at z = 0 (no caller ever
    multiplies it by a nonzero weight there).
    """
    odd = 2 * np.arange(n_max + 1)[:, None] + 1
    step = z / odd
    step[0] = 1.0
    pref = np.cumprod(step, axis=0)  # z^n / (2n+1)!!
    step[1:2] = 1.0 / 3.0
    prefz = np.cumprod(step, axis=0)  # z^(n-1) / (2n+1)!! for n >= 1
    minus_half_z2 = -0.5 * z * z
    term = np.ones_like(step)
    total = np.ones_like(step)
    for k in range(1, _SERIES_TERMS):
        term = term * minus_half_z2 / (k * (odd + 2 * k))
        total += term
    jn = pref * total
    jz = prefz * total
    zero = z == 0
    jz[0] = np.where(zero, 0.0, jn[0] / np.where(zero, 1.0, z))
    return jn, jz


def _span(mask):
    """Columns where mask holds: None, a slice if consecutive, else indices."""
    idx = np.flatnonzero(mask)
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(idx[0], idx[-1] + 1)
    return idx if idx.size else None


def _recurrence_jn(z, n_max):
    """j_0..j_{n_max} for a 1-D float64 or complex z with |z| >= the series cutoff.

    Arguments with |z| >= 4 and |Im z| <= _UPWARD_IM_CAP take the orders
    n <= n_top = min(int(0.75 |z|), n_max) from upward recurrence started
    at the closed forms j_0 = sin(z)/z and j_1 = (sin z - z cos z)/z^2,
    accurate relative to the amplitude of the sequence.  The rest comes
    from a downward (Miller) pass: each argument seeds an arbitrary tail
    at its own order n_max + pad + ceil|z| + ceil(4 |z|^(1/3)), joining
    the shared loop when it reaches that order, so no value depends on the
    batch.  The loop rescales by an exact power of two whenever the
    carries grow, and each column is normalized against whichever closed
    form of j_0 and j_1 is larger in modulus: a near-vanishing j_0 would
    amplify the O(eps/|z|) contamination of the raw sequence.  The
    arithmetic stays in the dtype of z, so real arguments run in float64.
    """
    absz = np.abs(z)
    sinz = np.sin(z)
    j0 = sinz / z
    cosz = np.cos(z)  # named: numpy swaps z * <big temporary>, not bitwise commutative
    j1 = (sinz - z * cosz) / (z * z)
    rz = 1.0 / z
    upward = (absz >= 4.0) & (np.abs(z.imag) <= _UPWARD_IM_CAP)
    n_top = np.where(upward, np.minimum((0.75 * absz).astype(int), n_max), -1)
    out = np.empty((n_max + 1,) + z.shape, dtype=z.dtype)

    m = np.flatnonzero(n_top < n_max)
    if m.size:
        start = n_max + _MILLER_PAD + (np.ceil(absz[m]) + np.ceil(4 * np.cbrt(absz[m])))
        # Columns in order of their start: the seeded ones are a suffix.
        order = np.argsort(start, kind="stable")
        m, start = m[order], start[order].astype(int)
        rm = rz[m]
        first = np.searchsorted(start, np.arange(start[-1] + 2)).tolist()
        jp = np.zeros_like(rm)
        jc = np.zeros_like(rm)
        raw = np.empty((n_max + 2,) + rm.shape, dtype=z.dtype)
        shift = np.zeros(rm.shape, dtype=np.int64)
        shift_at = np.empty((n_max + 2,) + rm.shape, dtype=np.int64)
        for n in range(start[-1], 0, -1):
            a = first[n]
            jc[a : first[n + 1]] = 1e-30
            if n <= n_max + 1:
                raw[n] = jc
                shift_at[n] = shift
            jp[a:] = (2 * n + 1) * rm[a:] * jc[a:] - jp[a:]
            jp, jc = jc, jp
            if n % 8 == 0 and (big := np.abs(jc[a:]) > _RESCALE_LIMIT).any():
                jc[a:] = np.where(big, jc[a:] * _RESCALE_FACTOR, jc[a:])
                jp[a:] = np.where(big, jp[a:] * _RESCALE_FACTOR, jp[a:])
                shift[a:] += big
        raw[0] = jc
        shift_at[0] = shift
        use_j1 = np.abs(j1[m]) > np.abs(j0[m])
        factor = np.where(use_j1, j1[m], j0[m]) / np.where(use_j1, raw[1], raw[0])
        # Entries stored before a later rescale carry extra powers of the
        # rescale factor; applying them may underflow to zero, which is the
        # correct double-precision value of such a coefficient.
        delta = shift[None, ...] - shift_at[: n_max + 1]
        out[:, m] = raw[: n_max + 1] * factor * _RESCALE_FACTOR**delta

    u = _span(upward)
    if u is not None:
        ru = rz[u]
        up = np.empty((n_max + 1,) + ru.shape, dtype=z.dtype)
        up[0] = j0[u]
        up[1:2] = j1[u]
        # Columns with a low n_top may overflow past it; those entries are
        # discarded below.
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, int(n_top[u].max())):
                up[n + 1] = (2 * n + 1) * ru * up[n] - up[n - 1]
        keep = np.arange(n_max + 1)[:, None] <= n_top[u]
        out[:, u] = np.where(keep, up, out[:, u])
    return out


def bessel_pair_batch(z, n_max):
    """(j_n(z), j_n(z)/z) for n = 0..n_max over a 1-D array of arguments.

    Each output has shape (n_max + 1, len(z)) and the dtype of z: float64
    for a real array, complex128 otherwise.  Tested
    against scipy to 1e-12 relative to the amplitude of the sequence for
    n_max <= 33 and to 6.8e-13 at n_max = 65, over real z and z with
    Im z = 1 up to |z| = 3e4, complex z on both sides of the upward cap
    and pure imaginary z; up to |z| = 1e3 and n_max = 256 every value
    above the underflow range has 12 significant digits.  An argument's
    values are those of a one-argument call, bit for bit, whatever the
    size of the batch and the other arguments in it; arguments with
    Im z == 0 run in float64.  At z = 0 the exact limits are returned:
    j_0 = 1, j_n = 0 for n >= 1, j_1/z = 1/3 and j_n/z = 0 for n >= 2.
    The n = 0 slot of the /z family holds j_0(z)/z for z != 0 and 0 at
    z = 0; every consumer weights it by a factor that vanishes there.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    z = np.ascontiguousarray(z, dtype=float if np.isrealobj(z) else complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite Bessel argument in batch")
    jn = np.empty((n_max + 1,) + z.shape, dtype=z.dtype)
    jz = np.empty_like(jn)
    series = np.abs(z) < _SERIES_CUTOFF
    real = z.imag == 0
    for zp, part in ((z.real.copy(), real), (z, ~real)):
        at = _span(part & series)
        if at is not None:
            jn[:, at], jz[:, at] = _series_pair(zp[at], n_max)
        at = _span(part & ~series)
        if at is not None:
            jn[:, at] = jn_b = _recurrence_jn(zp[at], n_max)
            jz[:, at] = jn_b / zp[at]
    return jn, jz


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
