import sys

import pytest

from katolab import ResourceLimitError
from katolab._limits import DEFAULT_DIGIT_CAP, ENV_VAR, bit_cap, cap_str_digits, digit_cap, guard_int


def test_default_cap(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert digit_cap() == DEFAULT_DIGIT_CAP
    assert bit_cap() > 3 * DEFAULT_DIGIT_CAP


def test_env_override(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "12")
    assert digit_cap() == 12
    guard_int(10**11, "test value")
    with pytest.raises(ResourceLimitError, match="12 decimal digits"):
        guard_int(10**13, "test value")


def test_env_invalid(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "zero")
    with pytest.raises(ResourceLimitError):
        digit_cap()
    monkeypatch.setenv(ENV_VAR, "-3")
    with pytest.raises(ResourceLimitError):
        digit_cap()


def test_guard_passes_through(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert guard_int(-(10**20), "big negative") == -(10**20)
    assert guard_int(0) == 0


def test_cap_str_digits_raises_the_conversion_limit_and_restores_it(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    before = sys.get_int_max_str_digits()
    with cap_str_digits():
        assert sys.get_int_max_str_digits() > DEFAULT_DIGIT_CAP
        assert len(str(10**DEFAULT_DIGIT_CAP)) == DEFAULT_DIGIT_CAP + 1
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(KeyError), cap_str_digits():
        raise KeyError("restored on the way out")
    assert sys.get_int_max_str_digits() == before
