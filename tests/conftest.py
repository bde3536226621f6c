"""Fixtures shared by the test modules."""

import pytest

from cartier import Coefficient
from cartier import series

# the arithmetic of Coefficient: the references of tests/oracle.py are
# written in it, and the program runs none of it
COEFFICIENT_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "inverse",
)


@pytest.fixture
def no_coefficient_arithmetic(monkeypatch):
    """Every method of COEFFICIENT_ARITHMETIC raises AssertionError for the
    rest of the test."""

    def refuse(*args):
        raise AssertionError("Coefficient arithmetic in the program")

    for name in COEFFICIENT_ARITHMETIC:
        monkeypatch.setattr(Coefficient, name, refuse)


@pytest.fixture
def no_coefficient_view(monkeypatch):
    """series._coefficient, which builds every Coefficient of a series's or
    polynomial's coeffs view and of coefficient(j), raises AssertionError
    for the rest of the test."""

    def refuse(*args):
        raise AssertionError("Coefficient view built in the program")

    monkeypatch.setattr(series, "_coefficient", refuse)
