"""Exception types shared across the library.

Guarded numerical failures (resonances, scan budgets, digit budgets,
contraction breakdowns) are first-class outcomes: they carry enough context
to be reported as machine-readable diagnostics by the CLI.
"""

from __future__ import annotations


class KamTorusError(Exception):
    """Base class for all library errors.

    A subclass names its context in `fields`, a map from field name to the
    conversion that makes the value JSON-ready (None: as it is).  Each field
    is a keyword argument of the constructor (default None), an attribute,
    and a key of `diagnostic()` after "error" and "message", in the order of
    `fields`.  A None field is left out of the diagnostic unless `always`
    names it.
    """

    fields: dict = {}
    always: tuple = ()

    def __init__(self, message, **context):
        unknown = set(context) - set(self.fields)
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field "
                            f"{', '.join(sorted(unknown))}")
        super().__init__(message)
        for name in self.fields:
            setattr(self, name, context.get(name))

    def diagnostic(self) -> dict:
        d = {"error": type(self).__name__, "message": str(self)}
        for name, convert in self.fields.items():
            value = getattr(self, name)
            if value is not None:
                d[name] = value if convert is None else convert(value)
            elif name in self.always:
                d[name] = None
        return d


class RationalTruncation(KamTorusError):
    """A continued-fraction remainder vanished before the requested depth."""


class ResonanceDetected(KamTorusError):
    """Some small divisor underflowed the working precision."""

    fields = {"lattice_vector": list}


class ScanTooLarge(KamTorusError):
    """A lattice scan would exceed the configured point budget."""


class ExponentOverflow(KamTorusError):
    """An exact floor of base**x would exceed the digit budget."""

    fields = {"exponent": str}


class OracleDivergence(KamTorusError):
    """A series oracle was requested outside its convergence radius."""


class OffsetBeyondRadius(KamTorusError):
    """A Taylor evaluation from the grid was given an offset beyond the
    radius its order was chosen for, or a radius that no order meets."""

    fields = {"offset": None, "radius": None}


class ContractionFailure(KamTorusError):
    """A fixed-point sweep failed to halve its residual."""


class StepDiverged(KamTorusError):
    """A KAM step increased the perturbation norm."""

    fields = {"stage": None, "ledger": None}


class StageDefect(KamTorusError):
    """A KAM stage broke its conjugacy identity H o f_k = f_(k-1) o H by
    more than the stage's error bound."""

    fields = {"stage": None, "ledger": None, "terms": None}
    always = ("stage",)


class DomainExhausted(KamTorusError):
    """The schedule column that a KAM stage reads as its next domain has a
    non-positive radius."""

    fields = {"stage": None, "ledger": None}


class SchemaMismatch(KamTorusError):
    """A CSV/JSON artifact does not conform to its documented schema."""
