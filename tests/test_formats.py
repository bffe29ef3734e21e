import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import (
    FactorSeq,
    GaussianRational,
    IntMatrix,
    ResourceLimitError,
    format_complex,
    format_matrix_json,
    format_matrix_text,
    format_orbit_json,
    format_point,
    format_seq_json,
    format_seq_text,
    parse_complex,
    parse_matrix,
    parse_orbit,
    parse_point,
    parse_seq,
)
from katolab._limits import ENV_VAR

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)
points = st.lists(gaussians, min_size=1, max_size=4).map(tuple)
square_int_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-99, 99), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(IntMatrix)
)


# -- matrices ------------------------------------------------------------------------


def test_matrix_text_frozen():
    assert parse_matrix("0,1;1,2").rows == ((0, 1), (1, 2))
    assert parse_matrix(" 0 , 1 ; 1 , 2 ").rows == ((0, 1), (1, 2))
    assert format_matrix_text(IntMatrix([[0, 1], [1, 2]])) == "0,1;1,2"


def test_matrix_json_frozen():
    m = parse_matrix('{"n": 2, "rows": [[0, 1], [1, 2]]}')
    assert m.rows == ((0, 1), (1, 2))
    assert format_matrix_json(m) == {"n": 2, "rows": [[0, 1], [1, 2]]}


@settings(max_examples=60, deadline=None)
@given(square_int_matrices)
def test_matrix_roundtrips(m):
    assert parse_matrix(format_matrix_text(m)) == m
    assert parse_matrix(json.dumps(format_matrix_json(m))) == m


def test_matrix_malformed():
    for bad in (
        "",
        "a,b;c,d",
        "1,2;3",
        "1.5,2;3,4",
        '{"rows": [[1]]}',
        '{"n": 2, "rows": [[1, 2]]}',
        '{"n": 1, "rows": [[true]]}',
        '{"n": "2", "rows": [[1, 2], [3, 4]]}',
        '{"n": 2, "rows": [[1, 2], [3, "4"]]}',
        "{not json",
    ):
        with pytest.raises(ValueError):
            parse_matrix(bad)


# -- sequences ------------------------------------------------------------------------


def test_seq_text_frozen():
    seq = parse_seq("n=3:[2,3]")
    assert seq == FactorSeq(3, (2, 3))
    assert parse_seq("n = 3 : [ 2 , 3 ]") == seq
    assert format_seq_text(seq) == "n=3:[2,3]"


def test_seq_json_frozen():
    seq = parse_seq('{"n": 3, "indices": [2, 3]}')
    assert seq == FactorSeq(3, (2, 3))
    assert format_seq_json(seq) == {"n": 3, "indices": [2, 3]}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=10)
        )
    )
)
def test_seq_roundtrips(args):
    n, indices = args
    seq = FactorSeq(n, tuple(indices))
    assert parse_seq(format_seq_text(seq)) == seq
    assert parse_seq(json.dumps(format_seq_json(seq))) == seq


def test_seq_malformed():
    for bad in ("", "n=3:[]", "n=3:[0]", "n=3:[4]", "3:[1]", "n=3:(1,2)", '{"n": 3}'):
        with pytest.raises(ValueError):
            parse_seq(bad)


# -- complex values and points ------------------------------------------------------


def test_complex_frozen():
    assert parse_complex("1/2+0i") == GaussianRational(Fraction(1, 2))
    assert parse_complex("-3/4-2/5i") == GaussianRational(
        Fraction(-3, 4), Fraction(-2, 5)
    )
    assert parse_complex("2") == GaussianRational(2)
    assert parse_complex("2i") == GaussianRational(0, 2)
    assert parse_complex("i") == GaussianRational(0, 1)
    assert parse_complex("-i") == GaussianRational(0, -1)
    assert parse_complex("1/2+i") == GaussianRational(Fraction(1, 2), 1)
    assert parse_complex("1/2-i") == GaussianRational(Fraction(1, 2), -1)
    assert parse_complex(" 1/2 + 1/3 i ") == GaussianRational(
        Fraction(1, 2), Fraction(1, 3)
    )


def test_complex_format_signs():
    assert format_complex(GaussianRational(Fraction(1, 2))) == "1/2+0i"
    assert format_complex(GaussianRational(0, Fraction(-1, 3))) == "0-1/3i"
    assert format_complex(GaussianRational(-2, 5)) == "-2+5i"


@settings(max_examples=100, deadline=None)
@given(gaussians)
def test_complex_roundtrip(z):
    assert parse_complex(format_complex(z)) == z


def test_complex_malformed():
    for bad in ("", "one", "1/2+3", "1//2i", "2/0", "1/2 + 0j", "++2i", "1+2i3", "1e30000000+0i", "2e5i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_point_frozen():
    p = parse_point("1/2+0i;1/3+0i")
    assert p == (
        GaussianRational(Fraction(1, 2)),
        GaussianRational(Fraction(1, 3)),
    )
    assert format_point(p) == "1/2+0i;1/3+0i"
    with pytest.raises(ValueError):
        parse_point("")


@settings(max_examples=60, deadline=None)
@given(points)
def test_point_roundtrip(p):
    assert parse_point(format_point(p)) == p


# -- orbits ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(points, min_size=0, max_size=4))
def test_orbit_roundtrip(orbit):
    dumped = json.dumps(format_orbit_json(orbit))
    assert parse_orbit(dumped) == list(orbit)


def test_orbit_frozen():
    dumped = format_orbit_json([(GaussianRational(1),), (GaussianRational(0, 1),)])
    assert dumped == {"orbit": [["1+0i"], ["0+1i"]]}
    with pytest.raises(ValueError):
        parse_orbit('{"points": []}')


# -- the digit cap on parsed points ------------------------------------------------------


def test_point_parsers_apply_the_digit_cap(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "12")
    assert parse_point("1/1000000000000+0i") == (GaussianRational(Fraction(1, 10**12)),)
    for text in ("1/10000000000000+0i", "0+99999999999999i", "1/3+2/" + "7" * 20 + "i"):
        with pytest.raises(ResourceLimitError, match="12 decimal digits"):
            parse_point(text)
        with pytest.raises(ResourceLimitError, match=ENV_VAR):
            parse_orbit(json.dumps({"orbit": [[text]]}))
