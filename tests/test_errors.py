"""Typed errors: the context fields each carries and its diagnostic."""

from fractions import Fraction

import pytest

from kamtorus import cli
from kamtorus.errors import (DomainExhausted, ExponentOverflow, GridTooCoarse,
                             OracleDivergence, ResonanceDetected, StageDefect,
                             StepDiverged)
from kamtorus.serialize import read_json

LEDGER = [[0, 4, "1.0430564428042069e-05", "0.05"]]

# (error class, constructor fields, diagnostic keys after "error" and
# "message", in order)
CASES = [
    (ResonanceDetected, {"lattice_vector": (3, -1)}, {"lattice_vector": [3, -1]}),
    (ResonanceDetected, {}, {}),
    (ExponentOverflow, {"exponent": Fraction(7, 3)}, {"exponent": "7/3"}),
    (ExponentOverflow, {"exponent": Fraction(10 ** 40)}, {"exponent": str(10 ** 40)}),
    (ExponentOverflow, {}, {}),
    (GridTooCoarse, {"last_reliable_stage": 2}, {"last_reliable_stage": 2}),
    (GridTooCoarse, {"last_reliable_stage": 0}, {"last_reliable_stage": 0}),
    (GridTooCoarse, {}, {"last_reliable_stage": None}),
    (StepDiverged, {"ledger": LEDGER}, {"ledger": LEDGER}),
    (StepDiverged, {}, {}),
    (StageDefect, {"stage": 1, "ledger": LEDGER, "terms": {"check": "x", "bound": 1.5}},
     {"stage": 1, "ledger": LEDGER, "terms": {"check": "x", "bound": 1.5}}),
    (StageDefect, {"stage": 0, "ledger": []}, {"stage": 0, "ledger": []}),
    (StageDefect, {}, {"stage": None}),
    (OracleDivergence, {}, {}),
    (DomainExhausted, {"stage": 2, "ledger": LEDGER}, {"stage": 2, "ledger": LEDGER}),
    (DomainExhausted, {}, {}),
]


@pytest.mark.parametrize("cls, fields, keys", CASES,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(CASES)])
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
        StepDiverged("m", stage=2)
