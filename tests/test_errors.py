"""Typed errors: the context fields each carries and its diagnostic."""

from fractions import Fraction

import pytest

from kamtorus import cli
from kamtorus.errors import (DomainExhausted, ExponentOverflow,
                             OffsetBeyondRadius, OracleDivergence,
                             ResonanceDetected, StageDefect, StepDiverged)
from kamtorus.serialize import read_json

LEDGER = [[0, 4, "1.0430564428042069e-05", "0.05"]]

# (id, error class, constructor fields, diagnostic keys after "error" and
# "message", in order); each row keeps its id when rows come or go
CASES = [
    ("ResonanceDetected-0", ResonanceDetected, {"lattice_vector": (3, -1)},
     {"lattice_vector": [3, -1]}),
    ("ResonanceDetected-1", ResonanceDetected, {}, {}),
    ("ExponentOverflow-2", ExponentOverflow, {"exponent": Fraction(7, 3)},
     {"exponent": "7/3"}),
    ("ExponentOverflow-3", ExponentOverflow, {"exponent": Fraction(10 ** 40)},
     {"exponent": str(10 ** 40)}),
    ("ExponentOverflow-4", ExponentOverflow, {}, {}),
    ("StepDiverged-8", StepDiverged, {"ledger": LEDGER}, {"ledger": LEDGER}),
    ("StepDiverged-9", StepDiverged, {}, {}),
    ("StepDiverged-18", StepDiverged, {"stage": 3, "ledger": LEDGER},
     {"stage": 3, "ledger": LEDGER}),
    ("StageDefect-10", StageDefect,
     {"stage": 1, "ledger": LEDGER, "terms": {"check": "x", "bound": 1.5}},
     {"stage": 1, "ledger": LEDGER, "terms": {"check": "x", "bound": 1.5}}),
    ("StageDefect-11", StageDefect, {"stage": 0, "ledger": []},
     {"stage": 0, "ledger": []}),
    ("StageDefect-12", StageDefect, {}, {"stage": None}),
    ("OracleDivergence-13", OracleDivergence, {}, {}),
    ("DomainExhausted-14", DomainExhausted, {"stage": 2, "ledger": LEDGER},
     {"stage": 2, "ledger": LEDGER}),
    ("DomainExhausted-15", DomainExhausted, {}, {}),
    ("OffsetBeyondRadius-16", OffsetBeyondRadius,
     {"offset": 2.5e-5, "radius": 2.0e-5}, {"offset": 2.5e-5, "radius": 2.0e-5}),
    ("OffsetBeyondRadius-17", OffsetBeyondRadius, {"radius": 1.0},
     {"radius": 1.0}),
]


@pytest.mark.parametrize("cls, fields, keys", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_typed_error_diagnostic(cls, fields, keys, tmp_path):
    exc = cls("stage 0: something broke", **fields)
    for name, value in fields.items():
        assert getattr(exc, name) is value
    for name in set(cls.fields) - set(fields):
        assert getattr(exc, name) is None
    diag = exc.diagnostic()
    assert list(diag) == ["error", "message", *keys]
    assert diag == {"error": cls.__name__, "message": "stage 0: something broke",
                    **keys}
    # the CLI writes the same keys, plus the command, to diagnostic.json
    cli._write_diagnostic(type("Args", (), {"command": "x", "out_dir": tmp_path}), exc)
    assert read_json(tmp_path / "diagnostic.json") == dict(diag, command="x")


def test_typed_error_refuses_unknown_field():
    with pytest.raises(TypeError, match="stage"):
        ResonanceDetected("m", stage=2)
