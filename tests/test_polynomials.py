"""Words and the free (non)commutative polynomial carriers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbx import CPoly, NCPoly, Word


class TestWord:
    def test_rejects_bad_letters(self):
        for bad in (0, -1, "a", 1.5):
            with pytest.raises(ValueError):
                Word((bad,))

    def test_concatenation_and_len(self):
        # words multiply by concatenation inside the polynomial product
        u, v, w = Word((1, 2)), Word((3,)), Word((1, 2, 3))
        assert NCPoly.from_word(u) * NCPoly.from_word(v) == NCPoly.from_word(w)
        assert NCPoly.from_word(u) * NCPoly.from_word(Word()) == NCPoly.from_word(u)
        assert (len(u), len(w), len(Word())) == (2, 3, 0)

    def test_ordering_is_graded_lex(self):
        # polynomials render their words shortest first, then lexicographically
        ws = [Word((2,)), Word((1, 1)), Word((1,)), Word(), Word((1, 2))]
        assert str(NCPoly({w: Fraction(1) for w in ws})) == "1 + x1 + x2 + x1x1 + x1x2"

    def test_str(self):
        assert str(Word((1, 2, 3))) == "x1x2x3"
        assert str(Word()) == "1"

    def test_hashable(self):
        assert len({Word((1,)), Word((1,)), Word((2,))}) == 2


class TestNCPoly:
    def test_product_concatenates(self):
        x1, x2 = NCPoly.letter(1), NCPoly.letter(2)
        assert x1 * x2 == NCPoly({Word((1, 2)): Fraction(1)})
        assert x1 * x2 != x2 * x1

    def test_zero_terms_dropped(self):
        p = NCPoly({Word((1,)): Fraction(0), Word((2,)): Fraction(3)})
        assert p.terms == {Word((2,)): Fraction(3)}
        assert NCPoly({Word((1,)): Fraction(0)}) == NCPoly.zero()

    def test_cap_truncates_construction_and_product(self):
        assert NCPoly({Word((1, 2, 3)): Fraction(1)}, cap=2) == NCPoly.zero(cap=2)
        p = NCPoly.letter(1, cap=2)
        q = p * p
        assert q.terms == {Word((1, 1)): 1}
        assert q * p == NCPoly.zero(cap=2)

    def test_mismatched_operands_raise(self):
        with pytest.raises(ValueError):
            NCPoly.letter(1) + NCPoly.letter(1, cap=4)
        with pytest.raises(ValueError):
            NCPoly.letter(1) * CPoly.letter(1)

    def test_str(self):
        p = NCPoly({Word((1, 2)): Fraction(2), Word((3,)): Fraction(-1, 2)})
        assert str(p) == "-1/2 x3 + 2 x1x2"
        assert str(NCPoly.zero()) == "0"
        assert str(NCPoly.one()) == "1"
        assert str(-NCPoly.letter(1)) == "-x1"
        assert str(NCPoly.letter(1) - NCPoly.letter(2)) == "x1 - x2"


class TestCPoly:
    def test_monomials_fold_to_sorted_words(self):
        p = CPoly({Word((2, 1)): Fraction(1), Word((1, 2)): Fraction(1)})
        assert p == CPoly({Word((1, 2)): Fraction(2)})

    def test_product_commutes(self):
        x1, x2 = CPoly.letter(1), CPoly.letter(2)
        assert x1 * x2 == x2 * x1

    def test_str_uses_exponents(self):
        p = CPoly({Word((1, 1, 2)): Fraction(3)})
        assert str(p) == "3 x1^2x2"


words = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(
    lambda ls: Word(tuple(ls))
)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polys(cls):
    return st.dictionaries(words, coeffs, max_size=3).map(lambda d: cls(d))


@settings(deadline=None, max_examples=50)
@given(polys(NCPoly), polys(NCPoly), polys(NCPoly))
def test_ncpoly_is_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@settings(deadline=None, max_examples=50)
@given(polys(CPoly), polys(CPoly))
def test_cpoly_commutes(p, q):
    assert p * q == q * p
