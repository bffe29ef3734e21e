"""Text and JSON wire formats for matrices, factor sequences, and points.

Text forms
    matrix   rows separated by ``;``, entries by ``,``        ``0,1;1,2``
    sequence ``n=<dim>:[j1,j2,...]``                           ``n=3:[2,3]``
    point    complex rationals separated by ``;``              ``1/2+0i;1/3+0i``

JSON forms
    matrix   ``{"n": 2, "rows": [[0, 1], [1, 2]]}``
    sequence ``{"n": 3, "indices": [2, 3]}``
    orbit    ``{"orbit": [["1/2+0i", ...], ...]}``

Parsers sniff a leading ``{`` to pick the JSON reading and raise
``ValueError`` with a human-readable message on malformed input, JSON
nested past the interpreter's recursion limit included; a message echoes
at most 60 characters of the input.  Numbers longer than
``KATOLAB_DIGIT_CAP`` allows are refused before they are converted, and
parsed values pass through the same guard as computed ones.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from ._limits import digit_cap, guard_int, limit_error
from .gaussrat import GaussianRational, Point
from .intmat import IntMatrix
from .words import FactorSeq

_DIGIT_RUN = re.compile(r"[0-9]+")
_ECHO_CHARS = 60


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut after 60 characters with a trailing ``…``."""
    text = repr(value)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "…"


def _refuse_long_numbers(text: str, context: str) -> None:
    """Refuse text holding a digit run no integer under the cap has."""
    if max(map(len, _DIGIT_RUN.findall(text)), default=0) > digit_cap() + 1:
        raise limit_error(context)


def _load_json(text: str):
    """``json.loads``, refusing input nested past the interpreter's recursion limit.

    ``json.JSONDecodeError`` (a ``ValueError``) passes through as it is.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


# -- matrices ------------------------------------------------------------------


def _entry(text: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise ValueError(f"not an integer entry: {_echo(text.strip())}") from None
    return guard_int(value, "matrix entry")


def _json_entry(e) -> int:
    if isinstance(e, bool) or not isinstance(e, int):
        raise ValueError(f"not an integer entry: {_echo(e)}")
    return guard_int(e, "matrix entry")


def parse_matrix(text: str) -> IntMatrix:
    text = text.strip()
    if not text:
        raise ValueError("empty matrix input")
    _refuse_long_numbers(text, "matrix entry")
    if text.startswith("{"):
        data = _load_json(text)
        if not isinstance(data, dict) or set(data) != {"n", "rows"}:
            raise ValueError('matrix JSON must have exactly the keys "n" and "rows"')
        n, rows = data["n"], data["rows"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError('"n" must be an integer')
        if not isinstance(rows, list) or len(rows) != n:
            raise ValueError('"rows" must list exactly n rows')
        checked = []
        for row in rows:
            if not isinstance(row, list) or len(row) != n:
                raise ValueError("each row must list exactly n integer entries")
            checked.append([_json_entry(e) for e in row])
        return IntMatrix(checked)
    return IntMatrix([[_entry(e) for e in r.split(",")] for r in text.split(";")])


def format_matrix_text(m: IntMatrix) -> str:
    return ";".join(",".join(str(e) for e in row) for row in m.rows)


def format_matrix_json(m: IntMatrix) -> dict:
    return {"n": m.n, "rows": m.to_rows()}


# -- factor sequences --------------------------------------------------------------

_SEQ_RE = re.compile(r"^n\s*=\s*(\d+)\s*:\s*\[([0-9,\s]*)\]$")


def parse_seq(text: str) -> FactorSeq:
    text = text.strip()
    if not text:
        raise ValueError("empty sequence input")
    _refuse_long_numbers(text, "sequence entry")
    if text.startswith("{"):
        data = _load_json(text)
        if not isinstance(data, dict) or set(data) != {"n", "indices"}:
            raise ValueError('sequence JSON must have exactly the keys "n" and "indices"')
        n, indices = data["n"], data["indices"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError('"n" must be an integer')
        if not isinstance(indices, list) or not all(
            isinstance(j, int) and not isinstance(j, bool) for j in indices
        ):
            raise ValueError('"indices" must be a list of integers')
    else:
        m = _SEQ_RE.match(text)
        if m is None:
            raise ValueError(f"not a factor sequence (expected like n=3:[2,3]): {_echo(text)}")
        n = int(m.group(1))
        inner = m.group(2).strip()
        if not inner:
            raise ValueError("a factor sequence needs at least one index")
        indices = [int(p) for p in inner.split(",")]
    guard_int(max(map(abs, (n, *indices))), "sequence entry")
    return FactorSeq(n, tuple(indices))


def format_seq_text(seq: FactorSeq) -> str:
    return f"n={seq.n}:[{','.join(str(j) for j in seq.indices)}]"


def format_seq_json(seq: FactorSeq) -> dict:
    return {"n": seq.n, "indices": list(seq.indices)}


# -- complex rational points ----------------------------------------------------------

def parse_complex(text: str) -> GaussianRational:
    """Parse ``a``, ``bi``, or ``a+bi`` with exact rational parts.

    The rational parts look like ``2``, ``-1/3`` or ``0.5`` (no exponent); a
    bare/signed ``i`` means coefficient one.
    """
    raw = text.strip().replace(" ", "")
    if not raw:
        raise ValueError("empty complex entry")
    _refuse_long_numbers(raw, "point coordinate")
    if "e" in raw.lower():  # Fraction would expand an exponent before any digit cap applies
        raise ValueError(f"not a complex rational: {_echo(text.strip())}")
    try:
        if not raw.endswith("i"):
            return GaussianRational(Fraction(raw))
        body = raw[:-1]
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-":
                re_text, im_text = body[:pos], body[pos:]
                break
        else:
            re_text, im_text = "", body
        if im_text in ("", "+"):
            im_part = Fraction(1)
        elif im_text == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(im_text)
        re_part = Fraction(re_text) if re_text else Fraction(0)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a complex rational: {_echo(text.strip())}") from None
    parts = (re_part.numerator, re_part.denominator, im_part.numerator, im_part.denominator)
    guard_int(max(map(abs, parts)), "point coordinate")
    return GaussianRational(re_part, im_part)


def _complex_text(z: GaussianRational) -> str:
    sign = "+" if z.im >= 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}i"


def format_complex(z: GaussianRational) -> str:
    """``a+bi`` text; every part under the digit cap prints, however long."""
    try:
        return _complex_text(z)
    except ValueError:  # a part past Python's int-to-str conversion limit
        str_digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(max(digit_cap() + 1, sys.int_info.str_digits_check_threshold))
        try:
            return _complex_text(z)
        finally:
            sys.set_int_max_str_digits(str_digits)


def parse_point(text: str) -> Point:
    text = text.strip()
    if not text:
        raise ValueError("empty point input")
    return tuple(parse_complex(part) for part in text.split(";"))


def format_point(z: Sequence[GaussianRational]) -> str:
    return ";".join(format_complex(c) for c in z)


# -- orbits -----------------------------------------------------------------------------


def format_orbit_json(points: Sequence[Point]) -> dict:
    return {"orbit": [[format_complex(c) for c in z] for z in points]}


def parse_orbit(text: str) -> list[Point]:
    data = _load_json(text)
    if not isinstance(data, dict) or set(data) != {"orbit"}:
        raise ValueError('orbit JSON must have exactly the key "orbit"')
    if not isinstance(data["orbit"], list):
        raise ValueError('"orbit" must be a list of points')
    out = []
    for entry in data["orbit"]:
        if not isinstance(entry, list) or not all(isinstance(c, str) for c in entry):
            raise ValueError("each orbit entry must be a list of complex strings")
        out.append(tuple(parse_complex(c) for c in entry))
    return out
