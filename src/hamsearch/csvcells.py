# CSV text from numpy: each float64 cell as Python's '%.17g' writes it, byte for
# byte, for blocks of whole rows. hamsearch._format_rows sends every CSV table
# of hamsearch.CSV_CELLS cells or more here and imports this module on first use.

from __future__ import annotations

import numpy as np


def csv_rows(rows, block_cells: int):
    """The CSV lines of a 2-D array's rows, yielded as one string per block of
    whole rows, about ``block_cells`` cells each."""
    width = rows.shape[1]
    step = max(1, block_cells // width)
    seps = np.tile(np.frombuffer(b"," * (width - 1) + b"\n", np.uint8), step)
    return (_csv_block(c.ravel(), seps[:c.size])
            for c in (np.asarray(rows[k:k + step], float) for k in range(0, len(rows), step)))


def _split(x):
    # x = hi + lo, each of at most 26 significant bits: Dekker's split.
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _two_product(a, b, a_parts, b_parts):
    # (p, e) with p + e = a x b exactly, given the splits of a and b: Dekker's TwoProduct.
    (a_hi, a_lo), (b_hi, b_lo) = a_parts, b_parts
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


# Tables of the CSV kernel, by s = 0...44, by a 4-digit group g, and by X + 28 for the
# decimal exponents X = -28...15. 10^s = _TEN[s] + _TEN_LO[s] exactly: the TwoProduct of
# 5^min(s, 22) and 5^max(s - 22, 0), two exact doubles (5^44 < 2^106), times 2^s.
_S = np.arange(45)
_FIVES = (5 ** np.minimum(_S, 22)).astype(float), (5 ** np.maximum(_S - 22, 0)).astype(float)
_TEN, _TEN_LO = (np.ldexp(part, _S) for part in _two_product(*_FIVES, *map(_split, _FIVES)))
_TEN_SPLIT = _split(_TEN)
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, 10000)  # the digits of g = 0...9999
# Of the 17 digits d1 d2..d5 d6..d9 d10..d13 d14..d17, the place of the last nonzero one
# when group k = 1...4 is g; 0 when g is 0000.
_LAST = np.max((_DIGITS != 0) * np.arange(1, 5, dtype=np.uint8)[:, None], axis=0)
_LAST = np.where(_LAST != 0, _LAST + np.arange(1, 17, 4, dtype=np.uint8)[:, None], 0)
_DIGITS += ord("0")
_X = np.arange(-28, 16)
_LEAD = np.where((_X < 0) & (_X >= -4) & (np.arange(5)[:, None] < 1 - _X),
                 np.frombuffer(b"0.000", np.uint8)[:, None], 0).astype(np.uint8)  # "0." to "0.000"
_EXP = np.where(_X < -4, np.stack([np.full_like(_X, 101), np.full_like(_X, 45), 48 + -_X // 10,
                                   48 + -_X % 10]), 0).astype(np.uint8)  # "e-05" to "e-28"
_INT = np.maximum(_X + 1, 0).astype(np.uint8)  # digits before the point: they stay if zeros
# The place of the digit that "." follows: 17 (none) for a "0.000" lead.
_POINT = np.where(_X < -4, 1, np.where(_X < 0, 17, _X + 1)).astype(np.uint8)
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def _csv_block(values, seps) -> str:
    # '%.17g' % v + sep for each value v and byte sep, in order. A cell whose digits are not
    # shown exact, or that lies outside the kernel's range, is marked and takes Python's
    # '%.17g'. Each phase is a function of its own, so its temporaries go when it returns.
    ok, x, digits = _digits(values)
    bad = np.flatnonzero(~ok)
    text = _slots(values, x, digits, seps, bad).T.tobytes().translate(None, b"\0")
    if len(bad):
        parts = text.split(b"\1")
        spelt = [b"%.17g" % v for v in values[bad].tolist()]
        text = b"".join(p for pair in zip(parts, spelt + [b""]) for p in pair)
    return text.decode("ascii")


def _digits(values):
    # (ok, X + 28, digits) for each value: digits = round(|v| x 10^s) with s = 16 - X and
    # X = floor(log10 |v|), the 17 significant digits, from a double-double product whose
    # error (under 1e-14) is far inside the tie guard; a zero has X = 0 and digits 0. ok is
    # false when v is not finite, |v| is outside [1e-28, 1e16) and not 0, log10 gives an X
    # off by one either way, or the fraction is within 2^-30 of 1/2.
    a = np.abs(values)
    ok = (a >= 1e-28) & (a < 1e16)
    zero = a == 0
    a[~ok] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    np.clip(x, -28, 15, out=x)
    x += 28
    s = 44 - x
    hi, lo = _two_product(a, np.take(_TEN, s), _split(a), [np.take(t, s) for t in _TEN_SPLIT])
    lo += a * np.take(_TEN_LO, s)
    top = hi + lo
    lo -= top - hi  # top + lo: the product, |lo| at most half an ulp of top
    ok &= (top > 1e16) | ((top == 1e16) & (lo >= 0))
    whole = np.floor(lo)
    lo -= whole
    digits = top.astype(np.int64)
    digits += (whole + (lo > 0.5)).astype(np.int64)
    ok &= (digits < 10 ** 17) & (np.abs(lo - 0.5) > 2.0 ** -30)
    digits[zero] = 0
    return ok | zero, x, digits


def _slots(values, x, digits, seps, bad):
    # The cells as 45 byte slots, one uint8 row each: sign, the "0.000" lead, 17 (digit,
    # point) pairs, "e-dd", separator; unused slots are 0. A bad cell keeps only its
    # separator and a 1 that marks its place.
    out = np.empty((45, len(values)), np.uint8)
    np.multiply(np.signbit(values), np.uint8(45), out=out[0])
    for j in range(5):
        np.take(_LEAD[j], x, out=out[1 + j])
    last = np.ones(len(values), np.uint8)
    for k in range(3, -1, -1):  # the 4-digit groups, from the right
        rest = digits // 10 ** 4
        group = digits - rest * 10 ** 4
        for j in range(4):
            np.take(_DIGITS[j], group, out=out[8 + 8 * k + 2 * j])
        np.maximum(last, np.take(_LAST[k], group), out=last)
        digits = rest
    np.take(_DIGITS[3], digits, out=out[6])
    out[6:40:2] *= _PLACES <= np.maximum(last, np.take(_INT, x))
    out[7:40:2] = 0
    point = np.take(_POINT, x)
    dotted = np.flatnonzero(point < last)
    out[5 + 2 * point[dotted], dotted] = 46
    for j in range(4):
        np.take(_EXP[j], x, out=out[40 + j])
    out[44] = seps
    out[:44, bad] = 0
    out[0, bad] = 1
    return out
