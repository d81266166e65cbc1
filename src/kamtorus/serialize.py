"""Canonical JSON/CSV emission: exactness and byte-stability over compactness.

Exact integers travel as decimal strings (explicitly unlimited precision);
floats use repr (shortest round-trip form); keys are sorted and separators
fixed so identical data always serializes to identical bytes.  Writes are
atomic: temp file in the target directory, then rename.

Integers convert to and from decimal by divide and conquer over the powers
10^m, m = L 2^j (Brent & Zimmermann, *Modern Computer Arithmetic*,
section 1.7): subquadratic where CPython 3.11's `str(int)` and `int(str)`
are quadratic, and every builtin call stays below CPython's 4,300-digit
int/str limit, so no caller has to lift it.  10^m = 5^m 2^m, so only the
powers of five are cached and the binary factor is a shift.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from .precision import int_divmod

#: Digits per leaf of the decimal conversions (CPython's limit is 4,300).
_LEAF_DIGITS = 2048


@functools.cache
def _pow5(j: int) -> int:
    """5^(L 2^j), L = `_LEAF_DIGITS`."""
    return 5 ** _LEAF_DIGITS if j == 0 else _pow5(j - 1) ** 2


def _divmod_pow10(x: int, j: int) -> tuple[int, int]:
    """divmod(x, 10^m) for x >= 0, m = L 2^j: x >> m = q 5^m + r' gives
    x = q 10^m + (r' 2^m + (x mod 2^m)), the remainder below 10^m."""
    m = _LEAF_DIGITS << j
    q, r = int_divmod(x >> m, _pow5(j))
    return q, r << m | x & ((1 << m) - 1)


def int_str(n: int) -> str:
    """Exactly str(n), for any size of n.

    n = hi 10^m + lo with m = L 2^j, the largest that the bit length of n
    shows to satisfy 10^m <= n, so hi has about as many digits as lo:
    str(hi) followed by the m digits of lo, zero-padded.
    """
    n = int(n)
    if n < 0:
        return "-" + int_str(-n)
    # 10^m < 2^(3.3220 m) <= 2^(bits - 1) <= n for every m this admits
    bits = n.bit_length()
    j = -1
    while (_LEAF_DIGITS << (j + 1)) * 33220 // 10000 + 1 < bits:
        j += 1
    if j < 0:
        return str(n)
    hi, lo = _divmod_pow10(n, j)
    return int_str(hi) + _padded_str(lo, j)


def _padded_str(x: int, j: int) -> str:
    """The L 2^j decimal digits of 0 <= x < 10^(L 2^j), zero-padded."""
    if j == 0:
        return str(x).zfill(_LEAF_DIGITS)
    hi, lo = _divmod_pow10(x, j - 1)
    return _padded_str(hi, j - 1) + _padded_str(lo, j - 1)


def parse_int(s) -> int:
    """The int of a decimal string with an optional leading '-', for any
    number of digits (an int passes through)."""
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        negative = s.startswith("-")
        digits = s[negative:]
        if digits.isdigit():
            value = _parse_digits(digits)
            return -value if negative else value
    raise ValueError(f"expected a decimal integer string, got {s!r}")


def _parse_digits(s: str) -> int:
    """int(s) for a string of digits: the last m = L 2^j digits, m the
    largest below len(s), and the rest, parsed apart and joined."""
    if len(s) <= _LEAF_DIGITS:
        return int(s)
    j = 0
    while _LEAF_DIGITS << (j + 1) < len(s):
        j += 1
    m = _LEAF_DIGITS << j
    return (_parse_digits(s[:-m]) * _pow5(j) << m) + _parse_digits(s[-m:])


def fraction_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def parse_fraction(s) -> Fraction:
    """The Fraction of a `fraction_str` string 'p/q' (p may be negative)."""
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        if slash:
            return Fraction(parse_int(num), parse_int(den))
    raise ValueError(f"expected a fraction string 'p/q', got {s!r}")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=1, ensure_ascii=True) + "\n"


def atomic_write_text(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def write_json(path, obj) -> Path:
    return atomic_write_text(path, canonical_dumps(obj))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
