"""Entry-size guard shared by all exact-arithmetic code paths.

Monomial dynamics and repeated matrix products can square integer sizes per
step, so every routine that multiplies unbounded integers passes the largest
magnitude it produced through :func:`guard_int`, once per product or
elimination step.  The budget is expressed in decimal digits and can be
overridden with the ``KATOLAB_DIGIT_CAP`` environment variable.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager

DEFAULT_DIGIT_CAP = 100_000
ENV_VAR = "KATOLAB_DIGIT_CAP"

_BITS_PER_DIGIT = math.log2(10)


class ResourceLimitError(RuntimeError):
    """An exact value outgrew the configured digit budget."""


def digit_cap() -> int:
    """Return the active cap on decimal digits per integer.

    Reads ``KATOLAB_DIGIT_CAP`` on every call so tests and long-running
    processes can adjust it without re-importing.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_DIGIT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ResourceLimitError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ResourceLimitError(f"{ENV_VAR} must be positive, got {cap}")
    return cap


def bit_cap() -> int:
    return int(digit_cap() * _BITS_PER_DIGIT) + 1


def limit_error(context: str) -> ResourceLimitError:
    return ResourceLimitError(
        f"{context} exceeds {digit_cap()} decimal digits; "
        f"raise {ENV_VAR} to allow larger intermediates"
    )


def guard_int(value: int, context: str = "value") -> int:
    """Pass ``value`` through unchanged unless it exceeds the digit cap."""
    if value.bit_length() > bit_cap():
        raise limit_error(context)
    return value


@contextmanager
def cap_str_digits():
    """Let every integer under the digit cap convert to and from ``str``.

    Raises Python's int-to-str conversion limit past the cap (never below its
    default threshold) and restores the previous limit on exit.
    """
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max(digit_cap() + 1, sys.int_info.str_digits_check_threshold))
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)
