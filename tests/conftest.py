"""Shared fixtures for the repro test suite."""

import pytest

from repro.backends import get_backend
from repro.graycode.valid import all_valid_strings
from repro.ternary.trit import Trit
from repro.ternary.word import Word


@pytest.fixture(scope="session")
def valid4():
    """All 31 valid strings of width 4 (Table 2), ascending."""
    return all_valid_strings(4)


@pytest.fixture(scope="session")
def valid3():
    """All 15 valid strings of width 3, ascending."""
    return all_valid_strings(3)


@pytest.fixture(scope="session")
def two_bit_words():
    """All 9 words over {0,1,M} of width 2 (operator-table domain)."""
    trits = (Trit.ZERO, Trit.ONE, Trit.META)
    return [Word([a, b]) for a in trits for b in trits]


@pytest.fixture(params=["bigint", "native"])
def plane_backend(request):
    """A plane backend name: ``bigint``, and ``native`` where the C
    kernel built (elsewhere ``native`` is only the bigint fallback)."""
    if request.param == "native" and not get_backend("native").built:
        pytest.skip("C kernel not built on this host")
    return request.param
