"""Tests for the exact bivariate polynomial layer.

sympy is used as an independent oracle for the ring operations; the
package itself never imports it.
"""

import random
from fractions import Fraction

import pytest
import sympy

from samplers import random_poly

from takiffrep.poly import (NEG_INF, PolyHH, format_rational,
                            parse_poly, poly1_eval, poly1_to_polyhh,
                            random_rational, shifted_expand, to_rational)

H, HB = sympy.symbols("h hb")


def to_sympy(p):
    return sympy.Add(*(sympy.Rational(v) * H**i * HB**j
                       for (i, j), v in p.terms()), evaluate=True)


def from_sympy(expr):
    poly = sympy.Poly(sympy.expand(expr), H, HB)
    out = PolyHH.zero()
    for (i, j), c in poly.terms():
        out = out + PolyHH.term(i, j, Fraction(int(c.p), int(c.q)))
    return out


def test_zero_and_const():
    z = PolyHH.zero()
    assert z.is_zero()
    assert z.deg_hbar() is NEG_INF
    assert PolyHH.const(0) == z
    c = PolyHH.const(Fraction(3, 2))
    assert c.coeff(0, 0) == Fraction(3, 2)
    assert c.deg_hbar() == 0


def test_neg_inf_compares_below_everything():
    assert NEG_INF < 0
    assert NEG_INF < -10**9
    assert not (NEG_INF > 0)
    assert NEG_INF == NEG_INF
    with pytest.raises(ArithmeticError):
        -NEG_INF


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        PolyHH.term(-1, 0)
    with pytest.raises(ValueError):
        PolyHH.term(0, -2, 5)


def test_arithmetic_against_sympy():
    rng = random.Random(101)
    for _ in range(40):
        p = random_poly(rng, max_deg_h=4, max_deg_hbar=4)
        q = random_poly(rng, max_deg_h=4, max_deg_hbar=4)
        assert to_sympy(p + q) == sympy.expand(to_sympy(p) + to_sympy(q))
        assert to_sympy(p - q) == sympy.expand(to_sympy(p) - to_sympy(q))
        assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))


def test_shift_h_against_sympy():
    rng = random.Random(102)
    for _ in range(30):
        p = random_poly(rng)
        d = Fraction(rng.randint(-4, 4))
        want = sympy.expand(to_sympy(p).subs(H, H + sympy.Rational(d)))
        assert to_sympy(p.shift_h(d)) == want


def test_shift_hbar_against_sympy():
    rng = random.Random(103)
    for _ in range(30):
        p = random_poly(rng)
        d = random_rational(rng)
        want = sympy.expand(to_sympy(p).subs(HB, HB + sympy.Rational(d)))
        assert to_sympy(p.shift_hbar(d)) == want


def test_dbar_against_sympy():
    rng = random.Random(104)
    for _ in range(30):
        p = random_poly(rng)
        assert to_sympy(p.dbar()) == sympy.expand(sympy.diff(to_sympy(p), HB))


def test_shift_roundtrip():
    rng = random.Random(105)
    for _ in range(30):
        p = random_poly(rng)
        d = random_rational(rng)
        assert p.shift_h(d).shift_h(-d) == p
        assert p.shift_hbar(d).shift_hbar(-d) == p


def test_shift_is_ring_homomorphism():
    rng = random.Random(106)
    for _ in range(20):
        p = random_poly(rng, max_deg_h=3, max_deg_hbar=3)
        q = random_poly(rng, max_deg_h=3, max_deg_hbar=3)
        assert (p * q).shift_h(2) == p.shift_h(2) * q.shift_h(2)
        assert (p + q).shift_hbar(-3) == p.shift_hbar(-3) + q.shift_hbar(-3)


def test_int_shifts_of_int_polynomials_stay_ints():
    p = PolyHH._adopt({(2, 3): 5, (1, 0): -2, (0, 2): 1})
    for shifted in (p.shift_h(3), p.shift_hbar(-2), p.shift_hbar(1),
                    shifted_expand(p, (-1, 4))):
        assert all(type(v) is int for _, v in shifted.terms()), shifted
    assert PolyHH._adopt({(0, 2): 1}).shift_hbar(1) == \
        PolyHH({(0, 2): 1, (0, 1): 2, (0, 0): 1})
    # a zero shift is the polynomial itself
    assert p.shift_h(0) is p and p.shift_hbar(0) is p
    assert shifted_expand(p, (0, 0)) is p


def test_cancelling_sums_store_no_zero():
    p = PolyHH({(1, 0): Fraction(1, 2), (0, 1): 3})
    for zero in (p - p, p + (-p), -p + p):
        assert zero._c == {} and zero == PolyHH.zero()
    h, hb = PolyHH.h(), PolyHH.hbar()
    assert ((h + hb) - h)._c == {(0, 1): 1}
    assert (hb + (h - hb))._c == {(1, 0): 1}
    # an int coefficient cancels against the equal Fraction
    ints = PolyHH._adopt({(1, 0): 2, (0, 0): 1})
    assert (ints - PolyHH({(1, 0): 2}))._c == {(0, 0): 1}
    assert (ints + PolyHH({(1, 0): -2, (0, 0): -1})).is_zero()


def test_sums_of_int_polynomials_stay_int():
    p = PolyHH._adopt({(1, 0): 2, (0, 1): -1})
    q = PolyHH._adopt({(1, 0): 3, (0, 0): 1})
    for got in (p + q, p - q, q - p):
        assert {type(v) for _, v in got.terms()} == {int}
    assert (p + q)._c == {(1, 0): 5, (0, 1): -1, (0, 0): 1}


def test_eval_at():
    p = PolyHH.term(2, 1, 3) + PolyHH.const(Fraction(1, 2))
    # 3 h^2 hb + 1/2 at h=2, hb=-1
    assert p.eval_at(2, -1) == Fraction(-12) + Fraction(1, 2)


def test_shifted_expand_recenters_exactly():
    rng = random.Random(107)
    for _ in range(25):
        p = random_poly(rng)
        center = (random_rational(rng), random_rational(rng))
        exp = shifted_expand(p, center)
        assert exp.shift_h(-center[0]).shift_hbar(-center[1]) == p
        # constant coefficient of the expansion is the value at the center
        assert exp.coeff(0, 0) == p.eval_at(center[0], center[1])


def test_shifted_expand_example():
    # h*hb around (1, 2): (u+1)(v+2) = uv + 2u + v + 2
    exp = shifted_expand(PolyHH.term(1, 1), (1, 2))
    assert exp.coeff(0, 0) == 2
    assert exp.coeff(1, 0) == 2
    assert exp.coeff(0, 1) == 1
    assert exp.coeff(1, 1) == 1


def test_text_format():
    p = PolyHH.term(2, 1, Fraction(3, 2)) - PolyHH.const(1)
    assert p.to_text() == "3/2*h^2*hb^1 + -1*hb^0"
    assert PolyHH.zero().to_text() == "0"
    assert PolyHH.h().to_text() == "1*h^1"


def test_parse_poly_roundtrip():
    rng = random.Random(108)
    for _ in range(25):
        p = random_poly(rng)
        assert parse_poly(p.to_text()) == p
        compact = p.to_text().replace(" + -", "-").replace(" ", "")
        assert parse_poly(compact) == p


def test_parse_poly_tolerant_inputs():
    assert parse_poly("h") == PolyHH.h()
    assert parse_poly("hb - 2") == PolyHH.hbar() - PolyHH.const(2)
    assert parse_poly("-h^2*hb") == PolyHH.term(2, 1, -1)
    assert parse_poly("1/2*h + 1/2*h") == PolyHH.term(1, 0, 1)
    assert parse_poly("0") == PolyHH.zero()
    # a '-' right after a term separates terms, with or without spaces
    assert parse_poly("h-2") == PolyHH.h() - PolyHH.const(2)
    assert parse_poly("h^2*hb-1/2*h -3") == (
        PolyHH.term(2, 1) - PolyHH.term(1, 0, Fraction(1, 2)) - PolyHH.const(3))
    assert parse_poly("2*-h") == PolyHH.term(1, 0, -2)


def test_parse_poly_signs_and_exponents():
    # a dangling sign or exponent is refused, never read as -1 or h^1
    for text in ("h^", "-", "h - ", "+", "2*-", "h^*hb", "2*-*h"):
        with pytest.raises(ValueError):
            parse_poly(text)
    # the signs of a run multiply, and a sign after '^' is the exponent's
    assert parse_poly("- - h") == PolyHH.h()
    assert parse_poly("h - + 2") == PolyHH.h() - PolyHH.const(2)
    assert parse_poly("h - -2") == PolyHH.h() + PolyHH.const(2)
    assert parse_poly("h^+2") == PolyHH.term(2, 0)
    assert parse_poly("") == PolyHH.zero()
    with pytest.raises(ValueError, match="negative exponent"):
        parse_poly("hb^-1")


def test_from_hbar_coeffs_and_poly1():
    coeffs = (Fraction(1), Fraction(0), Fraction(2))  # 1 + 2 hb^2
    p = poly1_to_polyhh(coeffs)
    assert p == PolyHH.const(1) + PolyHH.term(0, 2, 2)
    assert poly1_eval(coeffs, Fraction(3)) == 19


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-4)) == "-4/1"
    assert format_rational(Fraction(0)) == "0/1"


def test_to_rational():
    assert to_rational(3) == Fraction(3)
    assert to_rational("5/7") == Fraction(5, 7)
    assert to_rational(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        to_rational(0.5)


def test_within_bidegree():
    p = PolyHH.term(3, 2)
    assert p.within_bidegree(3, 2)
    assert not p.within_bidegree(2, 2)
    assert not p.within_bidegree(3, 1)
    assert PolyHH.zero().within_bidegree(0, 0)
