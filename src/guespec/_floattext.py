"""Shortest round-trip text of many doubles at once, equal to ``repr``.

``format_rows(a)`` prints a 2-D float array as lines of comma-separated
cells, each cell byte for byte ``repr(float(cell))``.  The decimal is
found exactly with Giulietti's Schubfach algorithm ("The Schubfach way to
render doubles", 2020) on uint64 arrays: the shortest decimal in the
rounding interval of the double, the closest one if there are several,
the one with an even last digit on a tie.  That is the decimal CPython's
dtoa gives.  The text is then laid out as ``float.__repr__`` lays it out:
positional for a decimal point position of -3..16, ``d.ddde[+-]XX``
otherwise.

Callers refuse non-finite values first; the kernel formats finite ones
only.  The tables are built on first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LE = np.dtype("<u8")       # the words whose bytes are the text
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_CHUNK = 8192               # cells per pass: temporaries stay in cache
_SLOTS = 24                 # decimal point -3..16, then four exponent forms


@functools.cache
def _tables():
    # Per biased exponent bq (subnormals take bq = 1) at index bq, and at
    # bq + 2048 for a power of two, whose lower neighbour is half as far.
    k_tab = np.zeros(4096, dtype=np.int64)
    h_tab = np.zeros(4096, dtype=_U)
    g1_tab = np.zeros(4096, dtype=_U)
    g0_tab = np.zeros(4096, dtype=_U)
    for bq in range(1, 2047):
        q = bq - 1075
        for narrow in (0, 1):
            # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) if narrow;
            # r = floor(log2(10^-k)).
            k = (q * 661971961083 - narrow * 274743187321) >> 41
            r = (-k * 913124641741) >> 38
            # g = floor(10^-k 2^(125 - r)) + 1, in [2^125, 2^126)
            if k > 0:
                g = (1 << (125 - r)) // 10 ** k
            elif r <= 125:
                g = 10 ** -k << (125 - r)
            else:
                g = 10 ** -k >> (r - 125)
            i = bq + 2048 * narrow
            k_tab[i] = k
            h_tab[i] = q + r + 2
            g1_tab[i] = (g + 1) >> 63
            g0_tab[i] = (g + 1) & ((1 << 63) - 1)

    pow10 = np.array([10 ** i for i in range(18)], dtype=_U)
    # A cell's source row: six little-endian words, 48 bytes,
    #   0..7    "-0.000" d0 "."
    #   8..39   "d.d.d.d." for each of the four groups of digits 1..16
    #   40..47  "0e" S E E E ",\n"   (S E E E: exponent sign and digits)
    # A cell's text is its row masked by the layout of its code, NULs
    # dropped; code = ((newline 2 + sign) 17 + digits - 1) _SLOTS + slot.
    octs = np.frombuffer("".join(".".join(f"{i:04d}") + "." for i in range(10000))
                         .encode(), dtype=_LE)
    expos = np.frombuffer("".join(f"\0\0{'-' if e < 0 else '+'}{abs(e):03d}\0\0"
                                  for e in range(-400, 400)).encode(), dtype=_LE)
    head, tail = np.frombuffer(b"-0.000\0.0e\0\0\0\0,\n", dtype=_LE)
    # Significant digits of a 4-digit group, very negative for 0000.
    sig = np.array([len(f"{i:04d}".rstrip("0")) if i else -99 for i in range(10000)],
                   dtype=np.int64)

    def at(i):                      # byte of digit i
        return 6 if i == 0 else 8 + 2 * (i - 1)

    layout = np.zeros((2, 2, 17, _SLOTS, 48), dtype=np.uint8)
    for sep in (0, 1):
        for neg in (0, 1):
            for nd in range(1, 18):
                for slot in range(_SLOTS):
                    keep = [46 + sep] + ([0] if neg else [])
                    if slot < 20:
                        point = slot - 3
                        if point <= 0:
                            keep += [1, 2] + list(range(3, 3 - point))
                            keep += [at(i) for i in range(nd)]
                        else:
                            keep += [at(i) for i in range(max(nd, point))]
                            keep.append(at(point - 1) + 1)
                            if point >= nd:
                                keep.append(40)
                    else:
                        form = slot - 20          # e-XX, e-XXX, e+XX, e+XXX
                        keep += [at(i) for i in range(nd)] + [41, 42, 44, 45]
                        if nd > 1:
                            keep.append(7)
                        if form % 2:
                            keep.append(43)
                    layout[sep, neg, nd - 1, slot, keep] = 0xFF
    layout = layout.reshape(-1, 48).view(_LE)
    return k_tab, h_tab, g1_tab, g0_tab, pow10, octs, expos, head, tail, sig, layout


def _rop(g1, g0, cp):
    """floor(g cp / 2^127) for g = g1 2^63 + g0, its last bit set if the
    part dropped is not 0 (Giulietti's rop).  g1, g0 < 2^63 and cp < 2^59,
    so no sum of 32-bit partial products below overflows."""
    b0, b1 = cp & _M32, cp >> _U(32)

    def mulhi(a):                   # the high 64 bits of a cp
        a0, a1 = a & _M32, a >> _U(32)
        mid = ((a0 * b0) >> _U(32)) + a0 * b1 + a1 * b0
        return a1 * b1 + (mid >> _U(32))

    z = ((g1 * cp) >> _U(1)) + mulhi(g0)
    vbp = mulhi(g1) + (z >> _U(63))
    return vbp | (((z & _M63) + _M63) >> _U(63))


def _decimals(bits, tables):
    """(f, k): the shortest decimal f 10^k of each finite double |bits|;
    f = 0 for zeros."""
    k_tab, h_tab, g1_tab, g0_tab = tables[:4]
    t = bits & _U((1 << 52) - 1)
    bq = bits >> _U(52)
    # Significand c, 2^52 implicit for normals; zeros take c = 1 and are
    # reset at the end.  Subnormals share the exponent of bq = 1.
    c = np.maximum(t | (np.minimum(bq, _U(1)) << _U(52)), _U(1))
    narrow = (t == 0) & (bq > 1)
    idx = np.maximum(bq, _U(1)).view(np.int64) + 2048 * narrow
    k, h = k_tab.take(idx), h_tab.take(idx)
    g1, g0 = g1_tab.take(idx), g0_tab.take(idx)

    # The rounding interval [vbl, vbr] around vb, scaled by 4 * 10^-k.
    cb = c << _U(2)
    vbl, vb, vbr = _rop(g1, g0, np.stack((cb - _U(2) + narrow, cb, cb + _U(2))) << h)
    out = c & _U(1)                     # an odd c leaves out its bounds
    vbl += out
    vbr -= out

    # s 10^k <= v < (s + 1) 10^k: the shortest decimals are among s, s + 1
    # and their one digit shorter neighbours.  Giulietti's Java code runs
    # the shorter test only for s >= 100 and scales the two tiniest
    # subnormals by 10, since Double.toString prints two digits at least;
    # repr prints 5e-324, and so does this test run for every s.
    s = vb >> _U(2)
    # Of s and s + 1, the one in the interval; if both are, the closer one,
    # on a tie the even one (vb = 4 s + r: s + 1 is closer for r = 3 and
    # ties for r = 2).
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    closer_t = (vb & _U(3)) + (s & _U(1)) > _U(2)
    f = s + np.where(uin != win, win, closer_t)
    # One digit shorter: at most one multiple of 10 lies in the interval.
    sp10 = s // _U(10) * _U(10)
    tp10 = sp10 + _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = tp10 << _U(2) <= vbr
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), f)
    f[bits == 0] = 0
    return f, k


def _format_chunk(x, ends, tables):
    """The text of the cells x, each followed by ',' or, where ends is
    True, by a newline."""
    pow10, octs, expos, head, tail, sig, layout = tables[4:]
    bits = x.view(_U)
    f, k = _decimals(bits & _M63, tables)
    # Left-align to 17 digits d0 dddd dddd dddd dddd.
    length = np.searchsorted(pow10, f, side="right")
    big = (f * pow10.take(17 - length)).view(np.int64)
    d0 = big // 10 ** 16
    rest = big - d0 * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    g1 = hi // 10 ** 4
    g3 = lo // 10 ** 4
    groups = (g1, hi - g1 * 10 ** 4, g3, lo - g3 * 10 ** 4)
    nd = np.maximum(sig.take(groups[0]) + 1, 1)
    for i in (1, 2, 3):
        np.maximum(nd, sig.take(groups[i]) + (4 * i + 1), out=nd)
    point = np.where(f == 0, 1, length + k)
    expo = point - 1
    slot = np.where(point > 16, np.where(expo >= 100, 23, 22),
                    np.where(point < -3, np.where(expo <= -100, 21, 20), point + 3))

    src = np.empty((x.size, 6), dtype=_LE)
    src[:, 0] = head | ((d0.view(_U) + _U(48)) << _U(48))
    for i, g in enumerate(groups):
        src[:, i + 1] = octs.take(g)
    src[:, 5] = tail | expos.take(expo + 400)
    code = ((ends * 2 + (bits >> _U(63)).view(np.int64)) * 17 + nd - 1) * _SLOTS + slot
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
