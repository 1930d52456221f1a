import pytest

from dexsim import harness


@pytest.fixture
def wiring_constants(monkeypatch):
    """Sets ``harness``'s wiring constants, as ``wiring_constants(LIQUIDITY=2000)``,
    for the rest of one test.  The wiring memo's key does not hold them, so the
    memo is cleared on each change and after the test: a run wired from other
    amounts never reaches a later test."""

    def set_constants(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(harness, name, value)
        harness._wiring.cache_clear()

    yield set_constants
    harness._wiring.cache_clear()
