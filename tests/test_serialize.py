"""Decimal conversion of exact integers, and no int/str digit limit set by
importing the package."""

import contextlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kamtorus import serialize

SRC = Path(__file__).resolve().parent.parent / "src"
LEAF = serialize._LEAF_DIGITS


@contextlib.contextmanager
def _unlimited_str_digits():
    """Lift CPython's int/str digit limit for the str() oracle only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _check(n: int, text: str) -> None:
    assert serialize.int_str(n) == text
    assert serialize.parse_int(text) == n


@pytest.mark.parametrize("k", [0, 1, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF,
                               4 * LEAF + 3, 100_000])
def test_powers_of_ten_and_their_predecessors(k):
    _check(10 ** k, "1" + "0" * k)
    if k:
        _check(10 ** k - 1, "9" * k)
        _check(-(10 ** k - 1), "-" + "9" * k)


def test_a_million_digits():
    k, j = 10 ** 6 - 1, 501_234
    n = 10 ** k + 10 ** j + 7
    _check(n, "1" + "0" * (k - j - 1) + "1" + "0" * (j - 1) + "7")


def test_sparse_digits():
    # n = sum d_e 10^e has a known decimal string without any conversion:
    # misplaced padding at any level of the split moves a nonzero digit
    rng = random.Random(1018)
    for digits in (3 * LEAF + 17, 60_000):
        places = {digits - 1: rng.randint(1, 9)}
        for _ in range(200):
            places[rng.randrange(digits)] = rng.randint(0, 9)
        n = sum(d * 10 ** e for e, d in places.items())
        text = "".join(str(places.get(e, 0)) for e in range(digits - 1, -1, -1))
        _check(n, text)
        _check(-n, "-" + text)


@settings(max_examples=30)
@given(st.sampled_from([1, LEAF * 3, LEAF * 4 - 1, 2 ** 15, 10 ** 5]),
       st.integers(0, 2 ** 32), st.booleans())
def test_int_str_matches_str(digits, seed, negative):
    n = random.Random(seed).randrange(10 ** digits)
    n = -n if negative else n
    with _unlimited_str_digits():
        text = str(n)
    _check(n, text)


def test_zero_and_small_values():
    for n in (0, 1, -1, 9, -10, 12345678901234567890):
        _check(n, repr(n))
    assert serialize.parse_int(7) == 7
    assert serialize.parse_int("-0") == 0
    assert serialize.parse_int("000123") == 123


@pytest.mark.parametrize("bad", ["", "-", "--5", "+5", " 5", "1.0", "0x10", "1e3", 5.0, None])
def test_parse_int_rejects(bad):
    with pytest.raises(ValueError):
        serialize.parse_int(bad)


def test_fraction_round_trip_beyond_the_digit_limit():
    x = Fraction(-(10 ** 9000) - 7, 3 ** 20000)
    text = serialize.fraction_str(x)
    assert text.count("/") == 1 and len(text) > 2 * 4300
    assert serialize.parse_fraction(text) == x
    assert serialize.parse_fraction("2/5") == Fraction(2, 5)
    for bad in ("0.4", "2", "2/", "/5", 2):
        with pytest.raises(ValueError):
            serialize.parse_fraction(bad)


IMPORT_PROBE = """
import importlib, json, pkgutil, sys
import mpmath
before = sys.get_int_max_str_digits()
prec = mpmath.mp.prec
import kamtorus.cli
for info in pkgutil.iter_modules(kamtorus.__path__):
    importlib.import_module("kamtorus." + info.name)
assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()
assert mpmath.mp.prec == prec, mpmath.mp.prec
from fractions import Fraction
from kamtorus import construction as con
from kamtorus.precision import DEFAULT_PRECISION, set_working_precision
set_working_precision(DEFAULT_PRECISION)
state = con.build(levels=6, schedule=con.GrowthSchedule(
    mode="toy", base=2, exponent_scale=Fraction(1, 8)))
assert max(v.bit_length() for v in state.q_bar) > 4300 * 4
data = json.loads(json.dumps(con.state_to_jsonable(state)))
assert con.state_from_jsonable(data) == state
assert sys.get_int_max_str_digits() == before == 4300, before
"""


def test_import_sets_no_digit_limit_and_toy6_round_trips():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
