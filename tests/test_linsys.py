import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab.linsys import system_nullity, system_rank


def test_known_small_systems():
    # x - y = 0 over {x, y}: rank 1, nullity 1
    assert system_rank(["x", "y"], [{"x": Fraction(1), "y": Fraction(-1)}]) == 1
    assert system_nullity(["x", "y"], [{"x": Fraction(1), "y": Fraction(-1)}]) == 1
    # dependent pair counts once
    eqs = [
        {"x": Fraction(1), "y": Fraction(-1)},
        {"x": Fraction(2), "y": Fraction(-2)},
    ]
    assert system_rank(["x", "y"], eqs) == 1
    # independent pair pins both variables
    eqs = [{"x": Fraction(1)}, {"x": Fraction(1), "y": Fraction(1)}]
    assert system_nullity(["x", "y"], eqs) == 0
    # all-zero equations contribute nothing
    assert system_rank(["x", "y"], [{}, {"x": Fraction(0)}]) == 0


def test_validation():
    with pytest.raises(ValueError):
        system_rank(["x", "x"], [])
    with pytest.raises(ValueError):
        system_rank(["x"], [{"y": Fraction(1)}])


def test_rank_matches_sympy_on_random_sparse_systems():
    rng = random.Random(41)
    for _ in range(25):
        nvars = rng.randint(1, 8)
        neqs = rng.randint(0, 10)
        variables = [f"v{i}" for i in range(nvars)]
        equations = []
        dense = []
        for _ in range(neqs):
            row = {}
            dense_row = [0] * nvars
            for j in range(nvars):
                if rng.random() < 0.4:
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if c:
                        row[f"v{j}"] = c
                        dense_row[j] = c
            equations.append(row)
            dense.append(dense_row)
        got = system_rank(variables, equations)
        expected = sympy.Matrix(dense).rank() if dense else 0
        assert got == expected
        assert system_nullity(variables, equations) == nvars - expected


# -- agreement with Fraction elimination ------------------------------------------------


def reference_rank(variables, equations) -> int:
    """Rank by Fraction elimination with monic pivots, over the same sparse rows."""
    index = {v: i for i, v in enumerate(variables)}
    pivots: dict[int, dict[int, Fraction]] = {}
    for eq in equations:
        row = {index[v]: Fraction(c) for v, c in eq.items() if c}
        while row:
            lead = min(row)
            if lead not in pivots:
                f = row[lead]
                pivots[lead] = {k: c / f for k, c in row.items()}
                break
            f = row[lead]
            for k, c in pivots[lead].items():
                row[k] = row.get(k, Fraction(0)) - f * c
            row = {k: c for k, c in row.items() if c}
    return len(pivots)


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(-(10**30), 10**30),
)


@st.composite
def sparse_systems(draw):
    nvars = draw(st.integers(1, 9))
    variables = [("v", i) for i in range(nvars)]
    rows = draw(st.lists(st.dictionaries(st.sampled_from(variables), coefficients, max_size=nvars), max_size=12))
    if draw(st.booleans()):  # repeat scaled copies of earlier rows: dependent equations
        rows += [{v: 3 * c for v, c in row.items()} for row in rows[: draw(st.integers(0, len(rows)))]]
    return draw(st.permutations(variables)), rows


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_fraction_free_rank_agrees_with_fraction_reference(system):
    variables, equations = system
    assert system_rank(variables, equations) == reference_rank(variables, equations)


@settings(max_examples=50, deadline=None)
@given(sparse_systems(), st.sampled_from(["duplicate", "unknown"]))
def test_fraction_free_rank_validation(system, fault):
    variables, equations = system
    if fault == "duplicate":
        with pytest.raises(ValueError, match="duplicate variables"):
            system_rank(variables + variables[:1], equations)
    else:
        with pytest.raises(ValueError, match="unknown variable"):
            system_rank(variables, equations + [{("w", 0): Fraction(1, 2)}])
