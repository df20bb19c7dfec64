"""Shortest round-trip text of many doubles at once, equal to ``repr``.

``format_rows(a)`` prints a 2-D float array as lines of comma-separated
cells, each cell byte for byte ``repr(float(cell))``.  The decimal is
found exactly with Jeon's Dragonbox algorithm ("Dragonbox: A New
Floating-Point Binary-to-Decimal Conversion Algorithm", 2020), nearest
to even, on uint64 arrays: the shortest decimal in the rounding interval
of the double, the closest one if there are several, the one with an even
last digit on a tie.  That is the decimal CPython's dtoa gives.  The text
is then laid out as ``float.__repr__`` lays it out: positional for a
decimal point position of -3..16, ``d.ddde[+-]XX`` otherwise.

Callers refuse non-finite values first; the kernel formats finite ones
only.  The tables are built on first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LE = np.dtype("<u8")       # the words whose bytes are the text
_M32 = _U(0xFFFFFFFF)
_M52 = _U((1 << 52) - 1)
_M63 = _U((1 << 63) - 1)
_CHUNK = 8192               # cells per pass: temporaries stay in cache
_SLOTS = 24                 # decimal point -3..16, then four exponent forms


@functools.cache
def _tables():
    # Per biased exponent bq at index bq; subnormals (bq = 0) take the
    # binary exponent of bq = 1.  With e that exponent of the integer
    # significand and m = floor(e log10 2) - 2, phi = hi 2^64 + lo is 10^-m
    # scaled into [2^127, 2^128) and rounded up, and beta = e + floor(-m
    # log2 10) lies in [6, 9] (Dragonbox's cache and beta).  The rounding
    # interval of a double, 2^e wide, is phi 2^(beta - 127) units of 10^m:
    # delta in [100, 998] is its integer part.  The 2046 bq share 617
    # values of m, so phi is computed once per m.
    e = np.maximum(np.arange(2047), 1) - 1075
    m = ((e * 315653) >> 20) - 2
    ms, of_m = np.unique(m, return_inverse=True)
    phi_hi, phi_lo = [], []
    for j in (-ms).tolist():
        shift = 127 - ((j * 1741647) >> 19)
        if j < 0:
            phi = -(-(1 << shift) // 10 ** -j)
        elif shift >= 0:
            phi = 10 ** j << shift
        else:
            phi = -(-(10 ** j) >> -shift)
        phi_hi.append(phi >> 64)
        phi_lo.append(phi & ((1 << 64) - 1))
    hi = np.array(phi_hi, dtype=_U).take(of_m)
    lo = np.array(phi_lo, dtype=_U).take(of_m)
    beta = (e + ((-m * 1741647) >> 19)).astype(_U)
    delta = hi >> (_U(63) - beta)
    # The top 64 bits of the fractions of the width and of half of it.
    delta_frac = (hi << (beta + _U(1))) | (lo >> (_U(63) - beta))
    half_frac = (hi << beta) | (lo >> (_U(64) - beta))
    k = m + 3                               # the exponent of z // 1000

    # Powers of two (t = 0): the decimal of repr, which is the definition
    # to match, for the shorter lower half of their interval; 0 10^1 for
    # zero, whose point is then at 1 as in 0.0.
    pow2_f, pow2_k = [0], [1]
    for text in map(repr, np.ldexp(1.0, np.arange(-1022, 1024)).tolist()):
        mant, _, exp = text.partition("e")
        whole, _, frac = mant.partition(".")
        pow2_f.append(int(whole + frac))
        pow2_k.append(int(exp or 0) - len(frac))
    pow2_f, pow2_k = np.array(pow2_f, dtype=_U), np.array(pow2_k)

    pow10 = 10 ** np.arange(18, dtype=_U)
    # A cell's source row: six little-endian words, 48 bytes,
    #   0..7    "-0.000" d0 "."
    #   8..39   "d.d.d.d." for each of the four groups of digits 1..16
    #   40..47  "0e" S E E E ",\n"   (S E E E: exponent sign and digits)
    # A cell's text is its row masked by the layout of its code, NULs
    # dropped; code = ((newline 2 + sign) 17 + digits - 1) _SLOTS + slot.
    group = np.arange(10000)
    text = np.full((10000, 8), ord("."), dtype=np.uint8)
    text[:, ::2] = 48 + group[:, None] // np.array([1000, 100, 10, 1]) % 10
    octs = text.view(_LE).reshape(-1)
    # Per decimal point position p at index p + 400: the exponent p - 1
    # as text, and the layout slot.
    p = np.arange(-400, 400)
    expo = p - 1
    sign = np.where(expo < 0, ord("-"), ord("+"))
    digits = np.abs(expo)[:, None] // np.array([100, 10, 1]) % 10
    expos = ((sign << 16) + ((48 + digits) << np.array([24, 32, 40])).sum(axis=1)).astype(_U)
    slots = np.where(p > 16, np.where(expo >= 100, 23, 22),
                     np.where(p < -3, np.where(expo <= -100, 21, 20), p + 3))
    head, tail = np.frombuffer(b"-0.000\0.0e\0\0\0\0,\n", dtype=_LE)
    # Significant digits of a 4-digit group, very negative for 0000.
    sig = np.select([group % 10 > 0, group % 100 > 0, group % 1000 > 0, group > 0],
                    [4, 3, 2, 1], -99)

    # The layout masks over (newline, sign, digits, slot, byte).
    sep, neg, nd, slot, pos = np.ix_(range(2), range(2), range(1, 18), range(_SLOTS),
                                     range(48))
    digit = np.where(pos == 6, 0, np.where((pos >= 8) & (pos < 40) & (pos % 2 == 0),
                                           (pos - 6) // 2, 99))
    point = slot - 3
    fixed = np.where(point <= 0,
                     (pos == 1) | (pos == 2) | ((pos >= 3) & (pos < 3 - point))
                     | (digit < nd),
                     (digit < np.maximum(nd, point))
                     | (pos == 2 * point + 5)
                     | ((point >= nd) & (pos == 40)))
    form = slot - 20                        # e-XX, e-XXX, e+XX, e+XXX
    sci = ((digit < nd) | np.isin(pos, (41, 42, 44, 45)) | ((nd > 1) & (pos == 7))
           | ((form % 2 == 1) & (pos == 43)))
    keep = (np.where(slot < 20, fixed, sci) | (pos == 46 + sep)
            | ((neg == 1) & (pos == 0)))
    layout = np.where(keep, np.uint8(0xFF), np.uint8(0)).reshape(-1, 48).view(_LE)
    return (beta, k, delta, hi, lo, delta_frac, half_frac, pow2_f, pow2_k, pow10, octs, expos,
            slots, head, tail, sig, layout)


def _mulhi(x0, x1, y):
    """The high 64 bits of x y for x = x1 2^32 + x0 < 2^63: x1 < 2^31, so
    no sum of 32-bit partial products below overflows."""
    y0, y1 = y & _M32, y >> _U(32)
    mid = x0 * y0
    mid >>= _U(32)
    mid += x1 * y0                  # < 2^32 + 2^63
    low = x0 * y1
    low += mid & _M32               # <= (2^32 - 1)^2 + 2^32 - 1
    mid >>= _U(32)
    mid += low >> _U(32)
    mid += x1 * y1
    return mid


def _parity(x, beta, hi, lo):
    """The parity of floor(x phi 2^(beta - 128)) for phi = hi 2^64 + lo,
    and whether it is an integer, from the top 64 bits of its fraction
    (Dragonbox's compute_mul_parity)."""
    high = x * hi + _mulhi(x & _M32, x >> _U(32), lo)
    low = x * lo
    return (((high >> (_U(64) - beta)) & _U(1)) == 1,
            ((high << beta) | (low >> (_U(64) - beta))) == 0)


def _decimals(bits, tables):
    """(f, k): the shortest decimal f 10^k of each finite double |bits|;
    f = 0 for zeros."""
    beta_t, k_t, delta_t, hi_t, lo_t, delta_frac_t, half_frac_t, pow2_f, pow2_k = tables[:9]
    t = bits & _M52
    bq = bits >> _U(52)
    i = bq.view(np.int64)
    # Significand c, 2^52 implicit for normals.
    c = t | (np.minimum(bq, _U(1)) << _U(52))
    beta, delta = beta_t.take(i), delta_t.take(i)
    hi, lo = hi_t.take(i), lo_t.take(i)

    # z: the right end of the interval, (2c + 1) 2^(e - 1) in units of
    # 10^m, from the upper 128 bits of the 64 x 128-bit product u phi;
    # u < 2^63, since 2c + 1 < 2^54 and beta <= 9.  frac holds the top 64
    # bits of z's fraction, which Jeon shows are 0 exactly when z is an
    # integer.
    two_c = c << _U(1)
    u = (two_c | _U(1)) << beta
    u0, u1 = u & _M32, u >> _U(32)
    carry = _mulhi(u0, u1, lo)
    frac = u * hi
    frac += carry
    z = _mulhi(u0, u1, hi)
    z += frac < carry
    f = z // _U(1000)
    r = z - f * _U(1000)
    # The multiple 1000 f of 10^m lies in the interval for r < delta, and
    # may for r = delta; an odd c leaves out the ends of its interval, so
    # r = 0 with z an integer is the right end itself.  Where 1000 f is
    # out, the closest multiple of 100 is taken instead (small).
    odd = (c & _U(1)) == 1
    right = (r == 0) & (frac == 0) & odd
    f -= right
    np.copyto(r, 1000, where=right)
    small = r > delta
    small |= right
    # r = delta: 1000 f is the left end z - delta rounded down, or one above
    # it, and in the interval if above: if z's fraction lies below delta's.
    # Fraction words that tie, or differ by one, leave it to Dragonbox's
    # parity product, which also tells whether the left end is 1000 f
    # itself, in the interval for an even c.  The comparisons run on every
    # cell: gathering the rare cells costs about as much, and arrays of
    # ever new small sizes stay in numpy's block cache, pinning a grown
    # heap (peak RSS of the density benchmark +9%).
    left = r == delta
    delta_frac = delta_frac_t.take(i)
    small |= left & (frac >= delta_frac)
    tie = np.flatnonzero(left & (frac - delta_frac <= _U(1)))
    if tie.size:
        x_odd, x_int = _parity(two_c.take(tie) - _U(1), beta.take(tie), hi.take(tie),
                               lo.take(tie))
        small[tie] = ~(x_odd | (x_int & ~odd.take(tie)))

    # The multiple of 100 closest to the middle z - delta / 2 is
    # 10 f + dist // 100, except that for dist a multiple of 100 (where
    # delta / 2 rounded down matters) it is one less if the middle's
    # integer part has the other parity: if z's fraction lies below that of
    # delta / 2.  Ties again take the parity product, which also finds a
    # middle that is an integer, halfway: then the even one of the two.
    dist = r - (delta >> _U(1))
    dist += _U(50)
    q = dist // _U(100)
    f_small = f * _U(10)
    f_small += q
    np.copyto(f, f_small, where=small)
    k = k_t.take(i)
    k -= small
    half = small & (dist == q * _U(100))
    half_frac = half_frac_t.take(i)
    f -= half & (frac < half_frac)
    tie = np.flatnonzero(half & (frac - half_frac <= _U(1)))
    if tie.size:
        y_odd, y_int = _parity(two_c.take(tie), beta.take(tie), hi.take(tie), lo.take(tie))
        f_tie = f_small.take(tie)
        f_tie -= (y_odd != ((dist.take(tie) & _U(1)) == 1)) | (y_int & ((f_tie & _U(1)) == 1))
        f[tie] = f_tie

    # Zeros and powers of two, whose lower neighbour is half as far.
    pow2 = t == 0
    if pow2.any():
        np.copyto(f, pow2_f.take(i), where=pow2)
        np.copyto(k, pow2_k.take(i), where=pow2)
    return f, k


def _format_chunk(x, ends, tables):
    """The text of the cells x, each followed by ',' or, where ends is
    True, by a newline."""
    pow10, octs, expos, slots, head, tail, sig, layout = tables[9:]
    bits = x.view(_U)
    f, point = _decimals(bits & _M63, tables)
    # The decimal point position, offset by 400 (a zero has length 0 and
    # k 1); f left-aligned to 17 digits d0 dddd dddd dddd dddd.
    length = np.searchsorted(pow10, f, side="right")
    point += length
    point += 400
    f *= pow10.take(17 - length)
    rest = f.view(np.int64)
    d0 = rest // 10 ** 16
    rest -= d0 * 10 ** 16
    hi = rest // 10 ** 8
    rest -= hi * 10 ** 8
    g0 = hi // 10 ** 4
    hi -= g0 * 10 ** 4
    g2 = rest // 10 ** 4
    rest -= g2 * 10 ** 4
    groups = (g0, hi, g2, rest)
    # The index of the last significant digit, 0..16.
    last = sig.take(g0)
    np.maximum(last, 0, out=last)
    for i in (1, 2, 3):
        last_i = sig.take(groups[i])
        last_i += 4 * i
        np.maximum(last, last_i, out=last)

    src = np.empty((x.size, 6), dtype=_LE)
    d0 += 48
    d0 <<= 48
    np.bitwise_or(d0.view(_U), head, out=src[:, 0])
    for i, g in enumerate(groups):
        src[:, i + 1] = octs.take(g)
    np.bitwise_or(expos.take(point), tail, out=src[:, 5])
    code = ends * 2
    code += (bits >> _U(63)).view(np.int64)
    code *= 17
    code += last
    code *= _SLOTS
    code += slots.take(point)
    src &= layout.take(code, axis=0)
    return src.tobytes().translate(None, b"\0")


def format_rows(a):
    """Yield the rows of a 2-D float array as text, in pieces of _CHUNK
    cells: the pieces join to lines of cells ``repr(float(v))`` separated by
    ',', each line ended by a newline.  Every value must be finite."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    cols = a.shape[1]
    tables = _tables()
    flat = a.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        chunk = flat[start:start + _CHUNK]
        ends = np.arange(start + 1, start + 1 + chunk.size) % cols == 0
        yield _format_chunk(chunk, ends, tables).decode("ascii")
