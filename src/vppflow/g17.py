"""%.17g of a float vector, vectorized: the bytes of FMT % v, value by value.

experiments.write_vtk imports this module at its first dump, so a run
that dumps nothing does not load it.
"""

import functools

import numpy as np

FMT = "%.17g"

# The 17 significant digits of x are the integer D = round(|x| 10^(16-X)),
# X its decimal exponent, rounded half-even on the exact binary value as
# Python's dtoa does. |x| 10^k is taken in double-double arithmetic: 10^k
# = hi + lo, each rounded from the exact Python integers, and Dekker's
# (1971) two-product splits |x| hi exactly into p + err. For |x| in
# [1e-250, 1e250] and the right X, p >= 10^16 > 2^53 is an integer and
# t = err + |x| lo is within 2^-46 of |x| 10^k - p, so D = p + floor(t) +
# (frac(t) > 1/2). Printed by FMT itself instead: a value whose rounding
# that bound leaves open (|frac(t) - 1/2| < 2^-30, exact ties included),
# whose estimate X = floor(log10 |x|) was one off, that is not finite or
# outside [1e-250, 1e250] (zeros aside), or with 10 <= |x| < 10^17 (1 <=
# X <= 16: the fixed notation puts digits before the point, which the
# records do not lay out).

CHUNK = 2048                # values per kernel call; even, so that
                            # (u, v) pairs never straddle two calls
_KMIN, _KMAX = -235, 267    # k = 16 - X over the kernel's range
_XMAX = 252                 # largest |X| of the exponent tables
_DEKKER = 134217729.0       # 2^27 + 1


@functools.cache
def _tables():
    """The kernel's read-only lookup tables, built at its first call.

    pow10[:, k - KMIN] holds hi, the Dekker halves of hi, and lo of 10^k.
    quads[g] is the four digits of g (< 10^4) as bytes, and quads[10^4 + g]
    the same with g's trailing zeros as NUL. heads[X + XMAX] is word 0 of a
    record (_format) without sign and first digit, heads[2 XMAX + 1]
    that of a zero, and heads[n + r], n = heads.size / 2, the same with the
    point after the first digit where the notation puts it. tails[X + XMAX]
    is "e%+03d" % X where FMT uses the exponent notation, else NUL. The
    words are int64: no character they hold exceeds 0x7f, so none is
    negative, and the kernel's integer work stays in one type.
    """
    his, los = [], []
    for k in range(_KMIN, _KMAX + 1):
        if k >= 0:
            exact = 10 ** k
            hi = float(exact)
            lo = float(exact - int(hi))
        else:
            den = 10 ** -k
            hi = 1 / den
            a, b = hi.as_integer_ratio()
            lo = (b - a * den) / (b * den)
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    c = _DEKKER * hi
    hi_hi = c - (c - hi)
    pow10 = np.stack((hi, hi_hi, hi - hi_hi, np.array(los)))

    g = np.arange(10000)
    quads = np.empty(20000, np.int64)
    full = quads[:10000]
    full[:] = 48 + g // 1000
    for bits, div in ((8, 100), (16, 10), (24, 1)):
        full |= (48 + g // div % 10) << bits
    kept = np.full(10000, 0xFFFFFFFF)
    for i in (1, 2, 3, 4):
        kept[g % 10 ** i == 0] >>= 8
    np.bitwise_and(full, kept, out=quads[10000:])

    head, point, tail = [], [], []
    for x in range(-_XMAX, _XMAX + 1):
        fixed = -4 <= x < 17
        head.append(b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
        point.append(x == 0 or not fixed)
        tail.append(b"" if fixed else b"e%+03d" % x)
    head.append(b"0")
    point.append(False)
    tail.append(b"")
    heads = np.frombuffer(b"".join(b"\0" + h.ljust(7, b"\0") for h in head), "<i8")
    heads = np.concatenate((heads, heads | np.array(point) * (46 << 56)))
    tails = np.frombuffer(b"".join(t.ljust(8, b"\0") for t in tail), "<i8")
    tables = (pow10, quads, heads, tails)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def write(fh, values, seps):
    """Write FMT % v + seps[i % len(seps)] for the i-th of values, a float
    vector whose length is a multiple of len(seps), to the binary file fh."""
    words = np.array([int.from_bytes(s, "little") << 8 * (8 - len(s)) for s in seps])
    for start in range(0, values.size, CHUNK):
        fh.write(_format(values[start:start + CHUNK], words))


def _digits(x):
    """(D, X, fallback) for each value of x: D its 17 significant digits as
    an int64, X its decimal exponent, and fallback where the rounding is
    left to FMT (zeros included), with D = 10^16 there."""
    pow10 = _tables()[0]
    a = np.abs(x)
    ok = (a >= 1e-250) & (a <= 1e250)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, hi_hi, hi_lo, lo = np.take(pow10, (16 - _KMIN) - e, axis=1)
    p = a * hi
    c = _DEKKER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    t = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    t += a * lo
    floor_t = np.floor(t)
    t -= floor_t
    f = p.astype(np.int64) + floor_t.astype(np.int64)
    d = f + (t > 0.5)
    fallback = ~ok | (np.abs(t - 0.5) < 2.0 ** -30) | (f < 10 ** 16) | (d > 10 ** 17)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    d[fallback] = 10 ** 16
    return d, e, fallback


def _format(x, seps):
    """FMT % v followed by its separator, for each v of x, as one bytes.

    seps holds the separators as words (write). Each value becomes a
    32-byte record of four little-endian words, NUL where no character
    goes: the sign, the "0.000" prefix of -4 <= X < 0 (or the "0" of a
    zero), the first digit and the point after it (word 0); digits 1 to
    16, with the trailing zeros of D as NUL (words 1 and 2); the exponent
    and the separator (word 3). The records are joined with their NULs
    deleted.
    """
    quads, heads, tails = _tables()[1:]
    d, e, fallback = _digits(x)
    zero = x == 0.0
    d[zero] = 0
    row = e + _XMAX
    row[zero] = 2 * _XMAX + 1

    upper = d // 10 ** 8
    lower = d - upper * 10 ** 8
    top = upper // 10 ** 4
    g2 = upper - top * 10 ** 4
    d0 = top // 10 ** 4
    g1 = top - d0 * 10 ** 4
    g3 = lower // 10 ** 4
    g4 = lower - g3 * 10 ** 4
    rec = np.empty((x.size, 4), "<i8")
    below = g4 == 0                 # digits 13..16 are all zeros, then 9..16, ...
    w = quads[g3 + below * 10 ** 4]
    w |= quads[g4 + 10 ** 4] << 32
    rec[:, 2] = w
    below &= g3 == 0
    w = quads[g1 + (below & (g2 == 0)) * 10 ** 4]
    w |= quads[g2 + below * 10 ** 4] << 32
    rec[:, 1] = w
    w = heads[row + ((w & 0xFF) != 0) * (heads.size // 2)]   # a point only before digit 1
    w |= (d0 + 48) * (d0 > 0) << 48
    w |= np.signbit(x) * 45
    rec[:, 0] = w
    w = tails[row]
    w.reshape(-1, seps.size)[...] |= seps
    rec[:, 3] = w

    fallback |= (e >= 1) & (e <= 16)
    fallback &= ~zero
    if fallback.any():
        text = np.array([FMT % v for v in x[fallback].tolist()], dtype="S24")
        rec[fallback, :3] = text.view("<i8").reshape(-1, 3)
        rec[fallback, 3] &= -1 << 40       # keep the separator
    return rec.tobytes().translate(None, b"\0")
