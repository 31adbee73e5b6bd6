"""Permutations, set partitions, shuffles, and quasi-shuffles."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbx import (
    ConfigError,
    MonoidAlphabet,
    NCPoly,
    Permutation,
    SetPartition,
    Word,
    bilinear,
    canonical_cycles,
    is_shuffle_of,
    permutations,
    quasi_shuffle,
    quasi_shuffle_lower,
    quasi_shuffle_merge,
    quasi_shuffle_upper,
    set_partitions,
    shuffle,
    shuffle_lower,
    shuffle_sum,
    shuffle_upper,
    word_sum,
)
from rbx.polynomials import CPoly

BELL = [1, 2, 5, 15, 52, 203]


class TestPermutations:
    def test_one_line_rendering_and_call(self):
        p = Permutation((2, 5, 4, 3, 1))
        assert str(p) == "[2 5 4 3 1]"
        assert p.size == 5
        assert [p(i) for i in range(1, 6)] == [2, 5, 4, 3, 1]

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((2, 3))

    def test_lexicographic_enumeration(self):
        perms = list(permutations(3))
        assert len(perms) == 6
        assert perms[0] == Permutation((1, 2, 3))
        assert perms[-1] == Permutation((3, 2, 1))

    def test_degree_bounds(self):
        with pytest.raises(ConfigError):
            list(permutations(0))
        with pytest.raises(ConfigError):
            list(permutations(9))

    def test_canonical_cycles_worked_case(self):
        # each cycle written maximum-first, cycles ordered by first entry
        dec = canonical_cycles(Permutation((2, 5, 4, 3, 1)))
        assert str(dec) == "(4 3)(5 1 2)"
        assert dec.to_permutation() == Permutation((2, 5, 4, 3, 1))

    @settings(deadline=None, max_examples=60)
    @given(st.permutations(tuple(range(1, 7))))
    def test_cycles_round_trip(self, images):
        p = Permutation(tuple(images))
        assert canonical_cycles(p).to_permutation() == p


class TestSetPartitions:
    def test_bell_counts(self):
        for n, count in enumerate(BELL, start=1):
            assert len(set_partitions(n)) == count

    def test_all_distinct_and_cover(self):
        parts = set_partitions(4)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert sorted(i for b in p.blocks for i in b) == [1, 2, 3, 4]

    def test_blocks_normalised(self):
        p = SetPartition(((3, 1), (2,)))
        assert str(p) == "{1,3}{2}"
        assert p.block_count == 2
        assert p.blocks == ((1, 3), (2,))

    def test_size_bounds(self):
        with pytest.raises(ConfigError):
            set_partitions(0)
        with pytest.raises(ConfigError):
            set_partitions(9)


class TestMonoidAlphabet:
    def test_letters_compose_by_addition(self):
        alpha = MonoidAlphabet(4)
        assert alpha.combine(3, 4) == 7

    def test_word_enumeration(self):
        assert len(list(MonoidAlphabet(4).words(2))) == 4 + 16

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            MonoidAlphabet(0)


class TestShuffle:
    def test_counts_are_binomial(self):
        u, v = Word((1, 2)), Word((3, 4, 5))
        assert len(shuffle(u, v)) == math.comb(5, 2)

    def test_repeated_letters_keep_multiplicity(self):
        s = shuffle_sum(Word((1,)), Word((1,)))
        assert s == NCPoly({Word((1, 1)): Fraction(2)})

    def test_membership(self):
        u, v = Word((1, 2, 3, 4)), Word((5, 6, 7))
        assert is_shuffle_of(Word((1, 5, 2, 6, 7, 3, 4)), u, v)
        assert not is_shuffle_of(Word((1, 4, 2, 5, 6, 3, 7)), u, v)

    def test_half_products_recover_the_shuffle(self):
        u, v = Word((1, 2)), Word((3, 4))
        assert shuffle_upper(u, v) + shuffle_lower(u, v) == shuffle_sum(u, v)
        assert shuffle_upper(Word((1,)), Word((2,))) == NCPoly.from_word(Word((1, 2)))
        assert shuffle_lower(Word((1,)), Word((2,))) == NCPoly.from_word(Word((2, 1)))

    def test_half_products_need_a_letter_to_peel(self):
        with pytest.raises(ValueError):
            shuffle_upper(Word(), Word((1,)))
        with pytest.raises(ValueError):
            shuffle_lower(Word((1,)), Word())

    def test_empty_word_is_the_unit(self):
        w = Word((1, 2))
        assert shuffle_sum(w, Word()) == NCPoly.from_word(w)
        assert shuffle_sum(Word(), w) == NCPoly.from_word(w)


ALPHA = MonoidAlphabet(4)


class TestQuasiShuffle:
    def test_single_letters(self):
        got = quasi_shuffle(Word((1,)), Word((2,)), ALPHA)
        want = word_sum([Word((1, 2)), Word((2, 1)), Word((3,))])
        assert got == want

    def test_five_terms(self):
        got = quasi_shuffle(Word((2, 3)), Word((1,)), ALPHA)
        want = word_sum(
            [Word(w) for w in ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 3), (2, 4))]
        )
        assert got == want

    def test_three_way_split(self):
        u, v = Word((1, 2)), Word((2,))
        total = (
            quasi_shuffle_upper(u, v, ALPHA)
            + quasi_shuffle_lower(u, v, ALPHA)
            + quasi_shuffle_merge(u, v, ALPHA)
        )
        assert total == quasi_shuffle(u, v, ALPHA)

    def test_merge_needs_nonempty_words(self):
        with pytest.raises(ValueError):
            quasi_shuffle_merge(Word(), Word((1,)), ALPHA)
        with pytest.raises(ValueError):
            quasi_shuffle_upper(Word(), Word((1,)), ALPHA)
        with pytest.raises(ValueError):
            quasi_shuffle_lower(Word((1,)), Word(), ALPHA)


short_words = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(
    lambda ls: Word(tuple(ls))
)


@settings(deadline=None, max_examples=40)
@given(short_words, short_words)
def test_shuffle_sum_commutes(u, v):
    assert shuffle_sum(u, v) == shuffle_sum(v, u)


@settings(deadline=None, max_examples=25)
@given(short_words, short_words, short_words)
def test_shuffle_sum_associates(u, v, w):
    left = bilinear(shuffle_sum, shuffle_sum(u, v), NCPoly.from_word(w))
    right = bilinear(shuffle_sum, NCPoly.from_word(u), shuffle_sum(v, w))
    assert left == right


@settings(deadline=None, max_examples=25)
@given(short_words, short_words, short_words)
def test_quasi_shuffle_associates(u, v, w):
    op = lambda a, b: quasi_shuffle(a, b, ALPHA)
    left = bilinear(op, op(u, v), NCPoly.from_word(w))
    right = bilinear(op, NCPoly.from_word(u), op(v, w))
    assert left == right


def _hoffman_oracle(alpha: MonoidAlphabet):
    """The plain Hoffman recursion on polynomials: the oracle for quasi_shuffle.

    Memoized for one alphabet; the table goes with the function.
    """

    @functools.lru_cache(maxsize=None)
    def hoffman(u: Word, v: Word) -> NCPoly:
        if not len(u):
            return NCPoly.from_word(v)
        if not len(v):
            return NCPoly.from_word(u)
        a, b = u.letters[0], v.letters[0]
        ut, vt = Word(u.letters[1:]), Word(v.letters[1:])
        out = NCPoly.from_word(Word((a,))) * hoffman(ut, v)
        out = out + NCPoly.from_word(Word((b,))) * hoffman(u, vt)
        merged = Word((alpha.combine(a, b),))
        return out + NCPoly.from_word(merged) * hoffman(ut, vt)

    return hoffman


def _stored(p: NCPoly) -> tuple:
    return type(p), p.num, p.den, p.cap


def test_quasi_shuffle_matches_the_hoffman_recursion():
    alpha = MonoidAlphabet(4)
    words = [Word(())] + list(alpha.words(3))
    hoffman = _hoffman_oracle(alpha)
    for u, v in itertools.product(words, words):
        assert _stored(quasi_shuffle(u, v, alpha)) == _stored(hoffman(u, v))


def test_from_word_and_word_sum_store_what_the_constructor_stores():
    words = (Word(()), Word((3,)), Word((2, 1)), Word((1, 2, 1)))
    for cls, w in itertools.product((NCPoly, CPoly), words):
        assert _stored(cls.from_word(w)) == _stored(cls({w: Fraction(1)}))
    multiset = [Word((1, 2)), Word((1,)), Word((1, 2)), Word((2, 1, 3)), Word(())]
    counts = {}
    for w in multiset:
        counts[w] = counts.get(w, 0) + 1
    assert _stored(word_sum(multiset)) == _stored(NCPoly(counts))
