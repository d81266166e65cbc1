import mpmath
import pytest
from hypothesis import settings

from kamtorus.precision import DEFAULT_PRECISION, set_working_precision

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")
# importing kamtorus sets no precision, and some test modules build mpf
# parameters at collection, before any fixture runs
set_working_precision(DEFAULT_PRECISION)


@pytest.fixture(autouse=True)
def _default_precision():
    set_working_precision(DEFAULT_PRECISION)
    yield
    set_working_precision(DEFAULT_PRECISION)


@pytest.fixture
def golden():
    """(sqrt(5)-1)/2 at working precision."""
    return (mpmath.sqrt(5) - 1) / 2
