"""Shared corpus builders for the test suite.

Everything takes an explicit ``random.Random`` so each test is reproducible
on its own.
"""

from __future__ import annotations

import random

from katolab import FactorSeq, IntMatrix, compose_factors, positivity_power


def random_factor_seq(
    rng: random.Random,
    n_range: tuple[int, int] = (2, 6),
    k_range: tuple[int, int] = (1, 12),
    kato_only: bool = True,
) -> FactorSeq:
    while True:
        n = rng.randint(*n_range)
        k = rng.randint(*k_range)
        seq = FactorSeq(n, tuple(rng.randint(1, n) for _ in range(k)))
        if not kato_only or seq.is_kato_word:
            return seq


def random_kato_matrix(rng: random.Random, **kwargs) -> IntMatrix:
    return compose_factors(random_factor_seq(rng, **kwargs))


def random_positive_type0(
    rng: random.Random,
    n_range: tuple[int, int] = (2, 4),
    k_range: tuple[int, int] = (1, 4),
) -> IntMatrix:
    """A strictly positive matrix of type 0: a word forced to use index 1,
    raised to its positivity power."""
    n = rng.randint(*n_range)
    k = rng.randint(*k_range)
    indices = [rng.randint(1, n) for _ in range(k)]
    indices[rng.randrange(k)] = 1
    a = compose_factors(FactorSeq(n, tuple(indices)))
    p = positivity_power(a)
    return a if p == 1 else a**p


def positive_block_power(seq: FactorSeq) -> list[list[int]]:
    """The first strictly positive power of the word's lower block.

    Computed with plain lists, so filters built on it do not lean on the code
    under test; its row sums bound the Perron root of that power from both
    sides.
    """
    rows = compose_factors(seq).to_rows()
    l = min(seq.indices) - 1
    b = [r[l:] for r in rows[l:]]
    power = b
    while not all(x > 0 for r in power for x in r):
        power = [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in power]
    return power


def small_word_corpus(n_values=(2, 3, 4), max_k: int = 3) -> list[FactorSeq]:
    """Every Kato word with the given dimensions and length, deterministically."""
    out = []
    for n in n_values:
        indices = [()]
        for _ in range(max_k):
            indices = [tup + (j,) for tup in indices for j in range(1, n + 1)]
            for tup in indices:
                seq = FactorSeq(n, tup)
                if seq.is_kato_word:
                    out.append(seq)
    return out
