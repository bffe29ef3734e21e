import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab import (
    FactorSeq,
    IntMatrix,
    KatoRecognitionError,
    NotAProduct,
    NotKato,
    ResourceLimitError,
    compose_factors,
    cyclic_normal_form,
    elementary,
    erase_index,
    factorize,
    is_kato,
    positivity_power,
    recognize,
    standard_form,
    type_of,
)
import katolab.words
from katolab.words import column_precedes

from conftest import random_factor_seq, small_word_corpus

words = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, n), min_size=1, max_size=12),
    )
)


# -- elementary factors ---------------------------------------------------------------


def test_elementary_frozen():
    assert elementary(2, 1).rows == ((0, 1), (1, 1))
    assert elementary(2, 2).rows == ((1, 1), (0, 1))
    assert elementary(3, 2).rows == ((1, 0, 1), (0, 0, 1), (0, 1, 1))
    assert elementary(3, 3).rows == ((1, 0, 1), (0, 1, 1), (0, 0, 1))


def test_elementary_validation():
    with pytest.raises(ValueError):
        elementary(1, 1)
    with pytest.raises(ValueError):
        elementary(3, 0)
    with pytest.raises(ValueError):
        elementary(3, 4)


def test_elementary_determinant_sign():
    for n in range(2, 7):
        for j in range(1, n + 1):
            assert elementary(n, j).det() == (-1) ** (n - j)


def test_elementary_column_structure():
    # columns: standard basis vectors with e_j removed, then the all-ones vector
    for n in range(2, 6):
        for j in range(1, n + 1):
            cols = elementary(n, j).columns()
            expected = [
                tuple(int(r == i) for r in range(n)) for i in range(n) if i != j - 1
            ]
            expected.append((1,) * n)
            assert list(cols) == expected


def test_right_multiplication_column_law():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 5)
        b = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        j = rng.randint(1, n)
        prod = b * elementary(n, j)
        cols = list(b.columns())
        expected = [c for i, c in enumerate(cols) if i != j - 1]
        expected.append(tuple(sum(c[r] for c in cols) for r in range(n)))
        assert list(prod.columns()) == expected


# -- FactorSeq ----------------------------------------------------------------------


def test_factor_seq_validation():
    with pytest.raises(ValueError):
        FactorSeq(1, (1,))
    with pytest.raises(ValueError):
        FactorSeq(3, ())
    with pytest.raises(ValueError):
        FactorSeq(3, (0,))
    with pytest.raises(ValueError):
        FactorSeq(3, (4,))
    seq = FactorSeq(3, (2, 3))
    assert seq.k == 2
    assert seq.is_kato_word
    assert not FactorSeq(3, (3, 3)).is_kato_word


def test_compose_frozen():
    assert compose_factors(FactorSeq(2, (1, 2))).rows == ((0, 1), (1, 2))
    assert compose_factors(FactorSeq(3, (2, 3))).rows == (
        (1, 0, 2),
        (0, 0, 1),
        (0, 1, 2),
    )


def reference_compose(seq: FactorSeq) -> IntMatrix:
    """The dense product of the word's elementary factors, left to right."""
    out = elementary(seq.n, seq.indices[0])
    for j in seq.indices[1:]:
        out = out * elementary(seq.n, j)
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=14))
    )
)
def test_compose_matches_the_dense_product(args):
    seq = FactorSeq(args[0], tuple(args[1]))
    assert compose_factors(seq) == reference_compose(seq)


def test_compose_guards_each_new_column(monkeypatch):
    monkeypatch.setenv("KATOLAB_DIGIT_CAP", "5")
    assert compose_factors(FactorSeq(2, (1, 2) * 13)).rows == ((13860, 33461), (33461, 80782))
    long_word = FactorSeq(2, (1, 2) * 14)  # its last column passes 2**17
    with pytest.raises(ResourceLimitError) as got:
        compose_factors(long_word)
    with pytest.raises(ResourceLimitError) as want:
        reference_compose(long_word)
    assert str(got.value) == str(want.value)


# -- factorization ------------------------------------------------------------------


def test_factorize_frozen():
    assert factorize(IntMatrix([[0, 1], [1, 2]])).indices == (1, 2)


@settings(max_examples=200, deadline=None)
@given(words)
def test_factorize_roundtrip(args):
    n, indices = args
    seq = FactorSeq(n, tuple(indices))
    assert factorize(compose_factors(seq)) == seq


def test_factorize_roundtrip_exhaustive_small():
    for seq in small_word_corpus():
        assert factorize(compose_factors(seq)) == seq


def test_factorize_rejections():
    with pytest.raises(NotAProduct):
        factorize(IntMatrix([[2, 0], [0, 1]]))  # determinant 2
    with pytest.raises(NotAProduct):
        factorize(IntMatrix([[-1, 0], [0, 1]]))  # negative entry
    with pytest.raises(NotAProduct):
        factorize(IntMatrix.identity(3))  # empty word
    with pytest.raises(NotAProduct):
        factorize(IntMatrix([[1, 1], [1, 1]]))  # determinant 0
    with pytest.raises(ValueError):
        factorize(IntMatrix([[1, 0, 0], [0, 1, 0]]))  # not square
    # unimodular nonnegative but not a factor product
    with pytest.raises(NotAProduct):
        factorize(IntMatrix([[1, 2], [0, 1]]) * IntMatrix([[1, 0], [2, 1]]))


def reference_factorize(a: IntMatrix) -> FactorSeq:
    """The factorizer as it was before the single-position peel: every
    insertion position is tried at every step."""
    n = a.n
    if n < 2:
        raise NotAProduct("products of elementary factors need dimension >= 2")
    if any(x < 0 for row in a.rows for x in row):
        raise NotAProduct("a factor product has no negative entries")
    if a.det() not in (1, -1):
        raise NotAProduct("a factor product is unimodular")
    if a.is_identity():
        raise NotAProduct("the identity is the empty word; at least one factor is required")

    cols = list(a.columns())
    total = sum(x for col in cols for x in col)
    cap = total // (n - 1) + 1
    peeled: list[int] = []
    identity_cols = list(IntMatrix.identity(n).columns())
    while cols != identity_cols:
        if len(peeled) >= cap:
            raise NotAProduct("entry-sum budget exhausted without reaching the identity")
        head, last = cols[:-1], cols[-1]
        c = tuple(last[i] - sum(h[i] for h in head) for i in range(n))
        if any(x < 0 for x in c) or not any(c):
            raise NotAProduct("peeled column is not a valid factor column")
        for i in range(n - 2):
            if not column_precedes(head[i], head[i + 1]):
                raise NotAProduct("columns are not chain-ordered")
        positions = [
            q
            for q in range(n)
            if all(column_precedes(head[i], c) for i in range(q))
            and all(column_precedes(c, head[i]) for i in range(q, n - 1))
        ]
        if not positions:
            raise NotAProduct("peeled column fits no position in the column chain")
        if len(positions) > 1:
            raise AssertionError(f"insertion position is not unique: {positions}")
        q = positions[0]
        peeled.append(q + 1)
        cols = head[:q] + [c] + head[q:]
    return FactorSeq(n, tuple(reversed(peeled)))


def outcome(factorizer, a: IntMatrix):
    """The word, or the type and message of the recognition error."""
    try:
        return factorizer(a)
    except NotAProduct as exc:
        return type(exc), str(exc)


def composed(args) -> IntMatrix:
    n, indices = args
    return compose_factors(FactorSeq(n, tuple(indices)))


def perturbed(args) -> IntMatrix:
    word, changes = args
    rows = composed(word).to_rows()
    n = len(rows)
    for i, j, delta in changes:
        rows[i % n][j % n] += delta
    return IntMatrix(rows)


def sheared(args) -> IntMatrix:
    n, perm, shears = args
    a = IntMatrix([[int(perm[i] == j) for j in range(n)] for i in range(n)])
    for i, j, t in shears:
        i, j = i % n, j % n
        if i != j:
            a = a * IntMatrix([[int(r == s) + t * (r == i and s == j) for s in range(n)] for r in range(n)])
    return a


peel_inputs = st.one_of(
    words.map(composed),
    st.tuples(
        words,
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([-2, -1, 1, 2])),
            min_size=1,
            max_size=2,
        ),
    ).map(perturbed),
    st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(IntMatrix),
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.permutations(range(n)),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
                max_size=6,
            ),
        )
    ).map(sheared),
)


@settings(max_examples=600, deadline=None)
@given(peel_inputs)
def test_single_position_peel_matches_the_all_positions_search(a):
    assert outcome(factorize, a) == outcome(reference_factorize, a)


def test_peel_makes_at_most_3n_minus_4_order_tests_per_factor(monkeypatch):
    calls = 0

    def counting(v, w):
        nonlocal calls
        calls += 1
        return column_precedes(v, w)

    monkeypatch.setattr(katolab.words, "column_precedes", counting)
    rng = random.Random(17)
    for _ in range(200):
        seq = random_factor_seq(rng, n_range=(6, 6), k_range=(1, 12), kato_only=False)
        calls = 0
        assert factorize(compose_factors(seq)) == seq
        assert calls <= (3 * 6 - 4) * seq.k


@settings(max_examples=150, deadline=None)
@given(words)
def test_determinant_is_read_from_the_word(args):
    seq = FactorSeq(args[0], tuple(args[1]))
    if not seq.is_kato_word:
        return
    a = compose_factors(seq)
    assert recognize(a).det == a.det()
    # perron_data's 2x2 surd reads the block's determinant from the word
    assert recognize(a).det == recognize(a).form.b.det()


def test_factorize_accepts_pure_powers():
    seq = factorize(compose_factors(FactorSeq(3, (3, 3))))
    assert seq.indices == (3, 3)
    assert not seq.is_kato_word
    assert not is_kato(compose_factors(FactorSeq(3, (3, 3))))
    assert is_kato(IntMatrix([[0, 1], [1, 2]]))
    assert not is_kato(IntMatrix([[2, 0], [0, 1]]))


def test_exceptions_hierarchy():
    assert issubclass(NotAProduct, KatoRecognitionError)
    assert issubclass(NotKato, KatoRecognitionError)
    assert issubclass(KatoRecognitionError, ValueError)


def test_column_precedes_is_antisymmetric():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 5)
        v = tuple(rng.randint(0, 3) for _ in range(n))
        w = tuple(rng.randint(0, 3) for _ in range(n))
        assert not (column_precedes(v, w) and column_precedes(w, v))
        assert not column_precedes(v, v)


# -- type and standard form --------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(words)
def test_type_is_min_index_minus_one(args):
    n, indices = args
    seq = FactorSeq(n, tuple(indices))
    a = compose_factors(seq)
    if not seq.is_kato_word:
        with pytest.raises(NotKato):
            type_of(a)
        return
    assert type_of(a) == min(indices) - 1


@settings(max_examples=100, deadline=None)
@given(words)
def test_standard_form_blocks(args):
    n, indices = args
    seq = FactorSeq(n, tuple(indices))
    a = compose_factors(seq)
    if not seq.is_kato_word:
        return
    form = standard_form(a)
    assert form.n == n
    assert 0 <= form.l <= n - 2
    assert form.to_matrix() == a
    if form.l:
        assert form.line != (0,) * (n - form.l)
        for row in form.g:
            assert row == form.line
    else:
        assert form.line == ()


def test_standard_form_frozen():
    form = standard_form(compose_factors(FactorSeq(3, (2, 3))))
    assert form.l == 1
    assert form.line == (0, 2)
    assert form.b.rows == ((0, 1), (1, 2))
    assert form.g == ((0, 2),)


def test_standard_form_rejects_pure_power():
    with pytest.raises(NotKato):
        standard_form(compose_factors(FactorSeq(3, (3, 3, 3))))


# -- cyclic normal form ------------------------------------------------------------


def test_cyclic_normal_form_frozen():
    assert cyclic_normal_form(FactorSeq(3, (3, 1, 2))).indices == (1, 2, 3)
    assert cyclic_normal_form(FactorSeq(3, (2, 3))).indices == (2, 3)


@settings(max_examples=100, deadline=None)
@given(words)
def test_cyclic_normal_form_rotation_invariant(args):
    n, indices = args
    seq = FactorSeq(n, tuple(indices))
    norm = cyclic_normal_form(seq)
    rotations = [
        tuple(indices[i:] + indices[:i]) for i in range(len(indices))
    ]
    for rot in rotations:
        assert cyclic_normal_form(FactorSeq(n, rot)) == norm
    assert norm.indices in rotations
    assert norm.indices == min(rotations)


# -- positivity power ---------------------------------------------------------------


def test_positivity_power_frozen():
    assert positivity_power(IntMatrix([[1, 2], [2, 5]])) == 1
    assert positivity_power(compose_factors(FactorSeq(2, (1, 2)))) == 2
    assert positivity_power(compose_factors(FactorSeq(3, (2, 3)))) == 2


def test_positivity_power_minimal_and_bounded():
    rng = random.Random(9)
    for _ in range(40):
        seq = random_factor_seq(rng, n_range=(2, 5), k_range=(1, 6))
        a = compose_factors(seq)
        form = standard_form(a)
        p = positivity_power(a)
        assert 1 <= p <= a.n - form.l
        assert (form.b**p).is_positive()
        if p > 1:
            assert not (form.b ** (p - 1)).is_positive()


def test_positivity_power_rejects_pure_power():
    with pytest.raises(NotKato):
        positivity_power(compose_factors(FactorSeq(2, (2, 2))))


# -- erase_index --------------------------------------------------------------------


def test_erase_index_frozen():
    a34 = compose_factors(FactorSeq(4, (3, 4)))
    erased = erase_index(a34, 1)
    assert erased == compose_factors(FactorSeq(3, (2, 3)))


def test_erase_index_word_law():
    # erasing an allowed index maps the word (j1..jk) to (j1-1 .. jk-1)
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        seq = random_factor_seq(rng, n_range=(3, 6), k_range=(1, 6))
        l = min(seq.indices) - 1
        if l < 1:
            continue
        a = compose_factors(seq)
        for j in range(1, l + 1):
            erased = erase_index(a, j)
            lowered = FactorSeq(seq.n - 1, tuple(i - 1 for i in seq.indices))
            assert erased == compose_factors(lowered)
            assert factorize(erased) == lowered
        checked += 1


def test_erase_index_validation():
    a34 = compose_factors(FactorSeq(4, (3, 4)))
    with pytest.raises(ValueError):
        erase_index(a34, 0)
    with pytest.raises(ValueError):
        erase_index(a34, 3)  # l = 2, only 1..2 allowed
    b = IntMatrix([[1, 2], [2, 5]])
    with pytest.raises(ValueError):
        erase_index(b, 1)  # type 0 has nothing to erase
