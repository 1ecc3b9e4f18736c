"""Property tests of the text round trips, driven by Hypothesis.

Each parser must read back exactly what the matching ``to_text`` prints,
for every polynomial and every algebra element, not only for the
hand-picked examples in test_poly and test_algebra.  Runs are derandomized
so that the suite gives the same verdict every time.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from takiffrep.algebra import AlgebraElement, Monomial, parse_word_expr
from takiffrep.poly import PolyHH, parse_poly

derandomized = settings(deadline=None, derandomize=True, database=None)

rationals = st.fractions(max_denominator=60)
polys = st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                        rationals, max_size=8).map(PolyHH)
# canonical monomials eb^n fb^a f^b hb^c h^d e^g, n < 0 in the localization
monomials = st.builds(Monomial, st.integers(-3, 3),
                      *[st.integers(0, 3)] * 5)
elements = st.dictionaries(monomials, rationals,
                           max_size=6).map(AlgebraElement)
# free-form expressions: signed terms, any letter order, aliases and powers
factors = st.sampled_from(("e", "f", "h", "eb", "fb", "hb", "ebar", "fbar",
                           "hbar", "eb^-1", "h^2", "fb^0"))
terms = st.tuples(st.sampled_from("+-"),
                  st.fractions(min_value=0, max_denominator=9),
                  st.lists(factors, max_size=4))
expressions = st.lists(terms, min_size=1, max_size=4).map(
    lambda ts: " ".join(f"{sign} {'*'.join([str(c), *word])}"
                        for sign, c, word in ts))


@derandomized
@given(polys)
def test_parse_poly_reads_back_to_text(p):
    assert parse_poly(p.to_text()) == p


@derandomized
@given(elements)
def test_parse_word_expr_reads_back_to_text(x):
    assert parse_word_expr(x.to_text(), localized=True) == x


@derandomized
@given(expressions)
def test_to_text_of_a_parsed_expression_reads_back(text):
    x = parse_word_expr(text, localized=True)
    assert parse_word_expr(x.to_text(), localized=True) == x

