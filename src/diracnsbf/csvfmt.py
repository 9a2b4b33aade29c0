"""Vectorized CSV formatting: exactly Python's ``"%.17g"`` for every value.

``format_tables`` turns the 2-D float tables of one file into CSV rows
with numpy alone, and formats no column twice.  Columns are classed by
their bits, so 0.0 and -0.0, or two NaN payloads, are never confused:

- constant (all values bitwise equal: the order column, the zero
  imaginary parts of a real kernel): formatted once by ``%``, its exact
  text, with no NUL padding, fills a slot of that width in every row;
- repeated (bitwise equal to the same column of the previous table of the
  same call, as the nodes of the coefficient file): its cells are kept at
  the first repeat and copied while it repeats;
- any other column is formatted as below, in blocks of whole rows.

Each row of a block holds every column at a fixed byte offset, and one
NUL compaction per block leaves the CSV text.

Each value with 1e-280 <= |v| <= 1e280 is scaled to its 17-digit integer
by a Dekker TwoProduct against a double-double table of powers of ten
(Dekker, "A floating-point technique for extending the available
precision", 1971).  The rounding is certified: the integer must have 17
digits and the fraction must lie at least ``_TIE_MARGIN`` from a tie; the
error of the double-double product is below 1e-14, so a certified value
rounds exactly as the decimal expansion of the double does.  Zeros are
exact.  Non-finite and out-of-range values, and the rare near-ties, are
formatted by ``%`` one at a time.

The digits are laid out by the ``%g`` rules (fixed notation for decimal
exponents X = -4..16, else ``d.ddde±XX``; trailing zeros and a bare point
dropped) in a fixed 32-byte cell per value, assembled from lookup-table
words; NUL bytes mark what is not printed:

    byte  1..6    "-" and, in fixed notation below 1, "0.", "0.0", ...,
                  ending at byte 6 (else "-" at byte 5)
    6..22         A: digit j at 6 + j, for j up to the last integer digit P
                  (P = X in fixed notation, 0 in "e" notation, -1 below 1)
    7 + P         decimal point
    7..23         B: digit j at 7 + j, for P < j < s, the digits printed
    24..28        exponent, ending at byte 28: "e-05", "e+100"
    29            "," or "\\n"

so that a cell holds at most two runs of printed bytes.
"""

import functools

import numpy as np

_U8 = np.dtype("<u8")
_CELL = 32
_BLOCK = 8192  # 32-byte slots per block of rows
_RANGE = 1e280  # |v| in [1/_RANGE, _RANGE]: no overflow or subnormal in the product
_TIE_MARGIN = 1e-6
_E_MIN, _E_MAX = -266, 298  # 16 - k for |k| <= 280, with room for a corrected k
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_FIXED = 21  # layouts: X + 4 for fixed notation (X = -4..16), 21 for "e" notation


@functools.cache
def _tables():
    """Read-only lookup tables, built on the first call (10-15 ms)."""
    from fractions import Fraction

    # 10^e as hi + lo, hi also split into two 26-bit halves for TwoProduct
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        exact = Fraction(10) ** e
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi = np.array(hi)
    t = hi * _SPLIT
    hh = t - (t - hi)
    powers = np.stack([hi, hh, hi - hh, np.array(lo)], axis=1)

    # the leading digit at byte 7 of word 0; "dddd" groups as the low and
    # the high half of a word; -2 x their trailing zeros (key units)
    d0w = (np.arange(48, 58, dtype=_U8)) << 56
    g = np.arange(10000)
    digits = 48 + (g[:, None] // 10 ** np.arange(3, -1, -1)) % 10
    dig4 = (digits.astype(_U8) << (8 * np.arange(4, dtype=_U8))).sum(axis=1, dtype=_U8)
    tz2 = -2 * sum((g % 10**i == 0).astype(np.int64) for i in range(1, 5))

    # per key = (layout, s, sign), s the count of digits printed: masks for
    # A and B and the constant bytes (sign, prefix, point) of the cell
    layout, s, sign = np.unravel_index(np.arange(22 * 17 * 2), (22, 17, 2))
    s = s + 1
    X = layout - 4
    P = np.where(layout == _FIXED, 0, np.maximum(X, -1))
    j = np.arange(17)
    masks = np.zeros((3, len(s), _CELL), np.uint8)
    masks[0, :, 6:23] = np.where(j <= P[:, None], 0xFF, 0)
    masks[1, :, 7:24] = np.where((j > P[:, None]) & (j < s[:, None]), 0xFF, 0)
    # the prefix "0.0..." of 1 - X bytes below 1, and the sign, end at byte 6
    for x in range(-4, 0):
        masks[2, X == x, 6 + x : 7] = np.frombuffer(b"0.000"[: 1 - x], np.uint8)
    masks[2, np.arange(len(s)), np.where(layout < 4, 5 + X, 5)] = np.where(sign, ord("-"), 0)
    dot = np.flatnonzero((P >= 0) & (s > P + 1))
    masks[2, dot, 7 + P[dot]] = ord(".")
    layouts = tuple(masks.view(_U8))

    # per decimal exponent X (index X + 300): the key of s = 17, positive,
    # and word 3 with the exponent right-aligned at byte 28
    X = np.arange(-300, 301)
    fixed = (X >= -4) & (X <= 16)
    exp_key = np.where(fixed, X + 4, _FIXED) * 34 + 32
    exp_word = np.zeros(len(X), _U8)
    for i in np.flatnonzero(~fixed):
        text = ("e%+03d" % X[i]).encode().rjust(5, b"\0").ljust(8, b"\0")
        exp_word[i] = np.frombuffer(text, _U8)[0]

    tables = (powers, d0w, dig4, dig4 << 32, tz2, *layouts, exp_key, exp_word)
    for table in tables:
        table.setflags(write=False)
    return tables


def _scaled(a, k, powers):
    """floor(a * 10^(16 - k)) as int64, and the fraction above it."""
    ph, bh, bl, pl = np.take(powers, 16 - k - _E_MIN, axis=0).T
    p = a * ph
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    lo = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * pl
    fl = np.floor(lo)
    return p.astype(np.int64) + fl.astype(np.int64), lo - fl


def _fill(v, sep, tables):
    """The cells of the values v, with the separator words sep, as a
    (len(v), 32) byte array."""
    powers, d0w, dig_lo, dig_hi, tz2, mask_a, mask_b, const, exp_key, exp_word = tables
    a = np.abs(v)
    fast = (a >= 1.0 / _RANGE) & (a <= _RANGE)
    a = np.where(fast, a, 1.0)  # laid out as 1, then replaced by the fallback

    # decimal exponent k and the 17-digit integer D = round(a * 10^(16 - k));
    # log10 may miss k by one near a power of ten
    k = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _scaled(a, k, powers)
    D = F + (frac > 0.5)
    digits17 = (F >= 10**16) & (D < 10**17)
    off = np.flatnonzero(~digits17)
    if off.size:
        k[off] += np.where(F[off] < 10**16, -1, 1)
        F[off], frac[off] = _scaled(a[off], k[off], powers)
        D[off] = F[off] + (frac[off] > 0.5)
        digits17[off] = (F[off] >= 10**16) & (D[off] < 10**17)
    ok = fast & digits17 & (np.abs(frac - 0.5) >= _TIE_MARGIN)
    zero = v == 0.0
    D[zero] = 0  # k is 0 there: "0", or "-0" with the sign
    ok |= zero

    # digit d0 and four groups of four: B holds digit j at byte 7 + j of the
    # cell, A the same bytes one lower
    d0 = D // 10**16
    r = D - d0 * 10**16
    hi8 = r // 10**8
    lo8 = r - hi8 * 10**8
    g1 = hi8 // 10**4
    g2 = hi8 - g1 * 10**4
    g3 = lo8 // 10**4
    g4 = lo8 - g3 * 10**4
    B = np.empty((v.size, 4), _U8)
    np.take(d0w, d0, out=B[:, 0], mode="clip")  # d0 > 9 only in fallback cells
    np.bitwise_or(np.take(dig_lo, g1), np.take(dig_hi, g2), out=B[:, 1])
    np.bitwise_or(np.take(dig_lo, g3), np.take(dig_hi, g4), out=B[:, 2])
    B[:, 3] = 0
    A = np.empty_like(B)
    a_bytes = A.view(np.uint8).reshape(-1)
    a_bytes[:-1] = B.view(np.uint8).reshape(-1)[1:]
    a_bytes[-1] = 0

    # key: the exponent's layout, the digits printed (17 less the trailing
    # zeros; a group counts only while all groups right of it are zero) and
    # the sign
    key = np.take(tz2, g4)
    i = np.flatnonzero(g4 == 0)
    for g in (g3, g2, g1):
        key[i] += np.take(tz2, g[i])
        i = i[g[i] == 0]
    k += 300
    key += np.take(exp_key, k)
    key += np.signbit(v)
    A &= np.take(mask_a, key, axis=0)
    B &= np.take(mask_b, key, axis=0)
    A |= B
    A |= np.take(const, key, axis=0)
    np.bitwise_or(np.take(exp_word, k), sep, out=A[:, 3])

    cell = A.view(np.uint8)
    for i in np.flatnonzero(~ok):
        text = ("%.17g" % v[i]).encode()
        cell[i, :29] = 0  # every byte before the separator
        cell[i, : len(text)] = np.frombuffer(text, np.uint8)
    return cell


def format_tables(tables):
    """Yield the CSV bytes of each 2-D float table of one file, each value
    exactly ``"%.17g" % v``, separated by "," and each row ended by "\\n".

    A constant column, and a column bitwise equal to the same column of
    the previous table, are formatted once (see the module docstring).
    """
    fmt = _tables()
    prev, kept = None, {}
    for table in tables:
        table = np.asarray(table, dtype=float)
        rows, cols = table.shape
        if table.size == 0:
            yield b""
            continue
        # the bits of each column, copied: the caller may reuse the table
        bits = np.array(table.T, order="C").view(_U8)
        constant = (bits == bits[:, :1]).all(axis=1)
        same = np.zeros(cols, bool)
        if prev is not None and prev.shape == bits.shape:
            same = (bits == prev).all(axis=1) & ~constant
        prev = bits
        reuse = [c for c in np.flatnonzero(same) if c in kept]
        # the cells of repeated columns; a first repeat is stored as it is filled
        kept = {
            c: kept[c] if c in reuse else np.empty((rows, _CELL), np.uint8)
            for c in np.flatnonzero(same)
        }
        fill = np.array([c for c in range(cols) if not constant[c] and c not in reuse], int)

        ends = np.where(np.arange(cols) < cols - 1, ord(","), ord("\n")).astype(_U8)
        texts = [("%.17g" % v).encode() + bytes([e]) for v, e in zip(table[0], ends)]
        width = np.where(constant, [len(t) for t in texts], _CELL)
        start = np.cumsum(width) - width
        # even blocks of whole rows, of about _BLOCK cells, keep the
        # temporaries small, so that they reuse freed memory instead of
        # faulting in fresh pages
        row_bytes = int(width.sum())
        blocks = -(-rows * row_bytes // (_BLOCK * _CELL))
        step = -(-rows // blocks)
        buf = np.empty((step, row_bytes), np.uint8)
        for c in np.flatnonzero(constant):
            buf[:, start[c] : start[c] + width[c]] = np.frombuffer(texts[c], np.uint8)
        sep = np.tile(ends[fill] << 40, step)
        chunks = []
        for r0 in range(0, rows, step):
            n = min(step, rows - r0)
            if fill.size:
                cells = _fill(table[r0 : r0 + n, fill].ravel(), sep[: n * fill.size], fmt)
                cells = cells.reshape(n, -1, _CELL)
            for j, c in enumerate(fill):
                buf[:n, start[c] : start[c] + _CELL] = cells[:, j]
                if c in kept:
                    kept[c][r0 : r0 + n] = cells[:, j]
            for c in reuse:
                buf[:n, start[c] : start[c] + _CELL] = kept[c][r0 : r0 + n]
            raw = buf[:n].reshape(-1)
            chunks.append(raw.tobytes().translate(None, b"\0"))
        yield b"".join(chunks)
