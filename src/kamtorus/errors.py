"""Exception types shared across the library.

Guarded numerical failures (resonances, scan budgets, digit budgets,
contraction breakdowns) are first-class outcomes: they carry enough context
to be reported as machine-readable diagnostics by the CLI.
"""

from __future__ import annotations


class KamTorusError(Exception):
    """Base class for all library errors."""

    def diagnostic(self) -> dict:
        return {"error": type(self).__name__, "message": str(self)}


class RationalTruncation(KamTorusError):
    """A continued-fraction remainder vanished before the requested depth."""


class ResonanceDetected(KamTorusError):
    """Some small divisor underflowed the working precision."""

    def __init__(self, message, lattice_vector=None):
        super().__init__(message)
        self.lattice_vector = lattice_vector

    def diagnostic(self) -> dict:
        d = super().diagnostic()
        if self.lattice_vector is not None:
            d["lattice_vector"] = list(self.lattice_vector)
        return d


class ScanTooLarge(KamTorusError):
    """A lattice scan would exceed the configured point budget."""


class ExponentOverflow(KamTorusError):
    """An exact floor of base**x would exceed the digit budget."""

    def __init__(self, message, exponent=None):
        super().__init__(message)
        self.exponent = exponent

    def diagnostic(self) -> dict:
        d = super().diagnostic()
        if self.exponent is not None:
            d["exponent"] = str(self.exponent)
        return d


class GridTooCoarse(KamTorusError):
    """The direction-grid spacing exceeds a required neighborhood radius."""

    def __init__(self, message, last_reliable_stage=None):
        super().__init__(message)
        self.last_reliable_stage = last_reliable_stage

    def diagnostic(self) -> dict:
        d = super().diagnostic()
        d["last_reliable_stage"] = self.last_reliable_stage
        return d


class OracleDivergence(KamTorusError):
    """A series oracle was requested outside its convergence radius."""


class ContractionFailure(KamTorusError):
    """A fixed-point sweep failed to halve its residual."""


class StepDiverged(KamTorusError):
    """A KAM step increased the perturbation norm."""

    def __init__(self, message, ledger=None):
        super().__init__(message)
        self.ledger = ledger

    def diagnostic(self) -> dict:
        d = super().diagnostic()
        if self.ledger is not None:
            d["ledger"] = self.ledger
        return d


class StageDefect(KamTorusError):
    """A KAM stage broke its conjugacy identity H o f_k = f_(k-1) o H by
    more than the stage's error bound."""

    def __init__(self, message, stage=None, ledger=None, terms=None):
        super().__init__(message)
        self.stage = stage
        self.ledger = ledger
        self.terms = terms

    def diagnostic(self) -> dict:
        d = super().diagnostic()
        d["stage"] = self.stage
        if self.ledger is not None:
            d["ledger"] = self.ledger
        if self.terms is not None:
            d["terms"] = self.terms
        return d


class SchemaMismatch(KamTorusError):
    """A CSV/JSON artifact does not conform to its documented schema."""
