"""Tests for straightening and the twisting substitution.

The bracket table and the closed-form straightening identities below were
worked out by hand; the random loops check structural properties
(idempotence, associativity, bracket compatibility) on top of them.
Test-only oracles check the fast paths: a whole-word bubble loop built from
that table and the localized rules, for normal_form, the letter-by-letter
substitution, for theta, with each letter's image written by hand or built
from commutators as conjugation by eb^-z, the per-z comparison of letter
pairs in Fraction arithmetic, for check_theta_automorphism, a sum of scaled
generators, for bracket, and the Fraction-coercing public constructor, for
from_word.  A letter count checks how canonical words are read into
exponents.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from takiffrep import algebra
from takiffrep.algebra import (_BRACKET, GENERATORS, LOCALIZED_LETTERS,
                               AlgebraElement, Monomial, _f_image_powers,
                               _reduce_word, _theta_zz, _word_to_monomial,
                               _zz_mul, bracket, check_theta_automorphism,
                               commutator, normal_form, parse_word_expr, theta)
from takiffrep.linalg import add_into

F = Fraction

# (x, y) -> [x, y] as a coefficient dict on generator names, [x,y] = xy - yx
BRACKET_TABLE = {
    ("e", "f"): {"h": 1},
    ("h", "e"): {"e": 2},
    ("h", "f"): {"f": -2},
    ("e", "fb"): {"hb": 1},
    ("eb", "f"): {"hb": 1},
    ("h", "eb"): {"eb": 2},
    ("hb", "e"): {"eb": 2},
    ("h", "fb"): {"fb": -2},
    ("hb", "f"): {"fb": -2},
    ("e", "eb"): {},
    ("h", "hb"): {},
    ("f", "fb"): {},
    ("eb", "fb"): {},
    ("eb", "hb"): {},
    ("fb", "hb"): {},
}


# canonical letter order; eb and its inverse share the first place
ORDER = {"eb": 0, "ebinv": 0, "fb": 1, "f": 2, "hb": 3, "h": 4, "e": 5}
# x*y = y*x + sum c*word for ORDER[x] > ORDER[y]: the brackets above, and
# the localized rules h*ebinv = ebinv*(h - 2), f*ebinv = ebinv*f + ebinv^2*hb;
# ebinv commutes with e, fb and hb
SWAP_RULES = {("h", "ebinv"): [(-2, ("ebinv",))],
              ("f", "ebinv"): [(1, ("ebinv", "ebinv", "hb"))],
              ("e", "ebinv"): [], ("fb", "ebinv"): [], ("hb", "ebinv"): []}
for (_x, _y), _br in BRACKET_TABLE.items():
    _sign = 1 if ORDER[_x] > ORDER[_y] else -1
    _key = (_x, _y) if _sign == 1 else (_y, _x)
    SWAP_RULES[_key] = [(_sign * c, (g,)) for g, c in _br.items()]


def straighten_oracle(word):
    """Bubble whole words into canonical order, with Fraction coefficients."""
    acc = {}
    stack = [(F(1), tuple(word))]
    while stack:
        coeff, w = stack.pop()
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if {x, y} == {"eb", "ebinv"}:
                stack.append((coeff, w[:i] + w[i + 2:]))
                break
            if ORDER[x] > ORDER[y]:
                stack.append((coeff, w[:i] + (y, x) + w[i + 2:]))
                for c, side in SWAP_RULES[(x, y)]:
                    stack.append((coeff * c, w[:i] + side + w[i + 2:]))
                break
        else:
            n = w.count("eb") - w.count("ebinv")
            mono = Monomial(n, *(w.count(x)
                                 for x in ("fb", "f", "hb", "h", "e")))
            acc[mono] = acc.get(mono, 0) + coeff
    return AlgebraElement(acc)


def as_coeff_dict(elem):
    out = {}
    for mono, c in elem.terms():
        word = mono.to_word()
        assert len(word) == 1, f"not a generator combination: {elem.to_text()}"
        out[word[0]] = c
    return out


def test_bracket_table():
    seen = set()
    for (x, y), want in BRACKET_TABLE.items():
        got = as_coeff_dict(bracket(x, y))
        assert got == {k: F(v) for k, v in want.items()}, (x, y)
        # antisymmetry
        got_rev = as_coeff_dict(bracket(y, x))
        assert got_rev == {k: -F(v) for k, v in want.items()}, (y, x)
        seen.add(frozenset((x, y)))
    assert len(seen) == 15


def _coeff_types(*elems):
    return {type(v) for x in elems for _, v in x.terms()}


def test_bracket_agrees_with_summed_generators():
    # the summed form of bracket, one scaled generator per _BRACKET term
    for x in GENERATORS:
        for y in GENERATORS:
            want = AlgebraElement.zero()
            for c, g in _BRACKET.get((x, y), ()):
                want = want + AlgebraElement.gen(g).scale(c)
            got = bracket(x, y)
            assert got == want and hash(got) == hash(want), (x, y)
            assert _coeff_types(got) <= {int}, (x, y)


def test_from_word_agrees_with_the_public_constructor():
    # the public constructor coerces every coefficient to a Fraction;
    # from_word must give the same element, and keep ints for an int coeff
    rng = random.Random(211)
    for _ in range(200):
        word = tuple(rng.choice(LOCALIZED_LETTERS)
                     for _ in range(rng.randint(0, 7)))
        c = (rng.randint(-3, 3) if rng.random() < 0.5
             else F(rng.randint(-9, 9), rng.randint(1, 9)))
        got = AlgebraElement.from_word(word, c)
        want = AlgebraElement({m: F(c) * v for m, v in _reduce_word(word)})
        assert got == want and hash(got) == hash(want), (word, c)
        assert got.to_text() == want.to_text()
        if type(c) is int:
            assert _coeff_types(got, normal_form(word, localized=True),
                                theta(c, word)) <= {int}, (word, c)


def test_bracket_rejects_nongenerators():
    with pytest.raises(ValueError):
        bracket("e", "ebinv")
    with pytest.raises(ValueError):
        bracket("x", "f")


def test_jacobi_identity_on_generators():
    for x in GENERATORS:
        for y in GENERATORS:
            for z in GENERATORS:
                a, b, c = (normal_form(g) for g in (x, y, z))
                total = (commutator(a, commutator(b, c))
                         + commutator(b, commutator(c, a))
                         + commutator(c, commutator(a, b)))
                assert total.is_zero(), (x, y, z)


def test_nf_ef():
    got = normal_form("e*f")
    want = AlgebraElement.from_word(("f", "e")) + AlgebraElement.gen("h")
    assert got == want


def test_nf_eh_closed_form():
    # e h^i = (h-2)^i e
    for i in range(5):
        got = normal_form(("e",) + ("h",) * i)
        want = AlgebraElement.gen("e")
        shift = normal_form("h") - AlgebraElement.one().scale(2)
        for _ in range(i):
            want = shift * want
        assert got == want, i


def test_nf_fh_closed_form():
    # f h = (h+2) f
    got = normal_form(("f", "h"))
    want = (normal_form("h") + AlgebraElement.one().scale(2)) * \
        AlgebraElement.gen("f")
    assert got == want


def test_nf_e_past_hb():
    # e hb = hb e - 2 eb   (and hb e is already slot-ordered)
    got = normal_form(("e", "hb"))
    want = AlgebraElement.from_word(("hb", "e")) \
        - AlgebraElement.gen("eb").scale(2)
    assert got == want
    assert normal_form(("hb", "e")) == AlgebraElement.from_word(("hb", "e"))


def test_nf_agrees_with_bubble_oracle():
    # words like the rewrite workload's: a few unbarred letters among barred
    # ones and eb^-1
    rng = random.Random(208)
    barred = ("eb", "fb", "hb", "ebinv")
    for _ in range(240):
        length = rng.randint(0, 11)
        unbarred = set(rng.sample(range(length),
                                  min(length, rng.randint(0, 5))))
        word = tuple(rng.choice(("f", "h", "e")) if i in unbarred
                     else rng.choice(barred) for i in range(length))
        got = normal_form(word, localized=True)
        assert got == straighten_oracle(word), word


def test_block_insertion_agrees_with_bubble_oracle():
    # x * y^k * R for every ordered letter pair with slot(x) > slot(y),
    # R a random canonical tail above the slot of y, so y^k is a whole block
    rng = random.Random(210)
    upper = ("fb", "f", "hb", "h", "e")
    for x in LOCALIZED_LETTERS:
        for y in LOCALIZED_LETTERS:
            if ORDER[x] <= ORDER[y]:
                continue
            for k in (1, 2, 3, 7):
                for _ in range(3):
                    tail = tuple(
                        g for g in upper if ORDER[g] > ORDER[y]
                        for _ in range(rng.randint(0, 1 if k == 7 else 2)))
                    word = (x,) + (y,) * k + tail
                    got = _reduce_word(word)
                    assert (AlgebraElement._adopt(dict(got))
                            == straighten_oracle(word)), word
                    assert {type(c) for _, c in got} == {int}, word


def product_oracle(a, b):
    """a * b with each pair of monomials straightened as one whole word."""
    acc = {}
    for m1, v1 in a._c.items():
        for m2, v2 in b._c.items():
            add_into(acc, v1 * v2, _reduce_word(m1.to_word() + m2.to_word()))
    return AlgebraElement._adopt(acc)


def test_product_agrees_with_per_pair_oracle():
    rng = random.Random(212)

    def word():
        return tuple(rng.choice(LOCALIZED_LETTERS)
                     for _ in range(rng.randint(0, 4)))

    def int_element():
        out = AlgebraElement.zero()
        for _ in range(rng.randint(1, 3)):
            out = out + AlgebraElement.from_word(word(), rng.randint(-5, 5))
        return out

    def fraction_element():
        return AlgebraElement({_word_to_monomial(word()):
                               F(rng.randint(-9, 9), rng.randint(1, 7))
                               for _ in range(rng.randint(1, 3))})

    for _ in range(120):
        a, b = int_element(), int_element()
        got = a * b
        assert got == product_oracle(a, b), (a, b)
        assert _coeff_types(got) <= {int}, (a, b)
        for x, y in ((a, fraction_element()), (fraction_element(), b),
                     (fraction_element(), fraction_element())):
            assert x * y == product_oracle(x, y), (x, y)


def test_word_to_monomial_counts_letters():
    rng = random.Random(209)
    for _ in range(300):
        word = tuple(rng.choice(LOCALIZED_LETTERS)
                     for _ in range(rng.randint(0, 12)))
        assert _word_to_monomial(word) == Monomial(
            word.count("eb") - word.count("ebinv"), word.count("fb"),
            word.count("f"), word.count("hb"), word.count("h"),
            word.count("e")), word
    for word in (("x",), ("e", "ebar"), ("h", "eb^-1")):
        with pytest.raises(ValueError, match="unknown letter"):
            _word_to_monomial(word)


def test_nf_long_eb_power_without_recursion():
    # h eb^n = eb^n (h + 2n), from [h, eb] = 2 eb
    n = 1500
    got = normal_form(("h",) + ("eb",) * n, localized=True)
    want = (AlgebraElement({Monomial(n, 0, 0, 0, 1, 0): 1})
            + AlgebraElement({Monomial(n, 0, 0, 0, 0, 0): 2 * n}))
    assert got == want


@pytest.mark.parametrize("word, want", [
    # f eb^n = eb^n f - n eb^(n-1) hb, from [f, eb] = -hb
    (("f",) + ("eb",) * 200,
     {Monomial(200, 0, 1, 0, 0, 0): 1, Monomial(199, 0, 0, 1, 0, 0): -200}),
    # f eb^-n = eb^-n f + n eb^-(n+1) hb, from the localized rule
    (("f",) + ("ebinv",) * 200,
     {Monomial(-200, 0, 1, 0, 0, 0): 1, Monomial(-201, 0, 0, 1, 0, 0): 200}),
    # e hb^n = hb^n e - 2n eb hb^(n-1), from [e, hb] = -2 eb
    (("e",) + ("hb",) * 200,
     {Monomial(0, 0, 0, 200, 0, 1): 1, Monomial(1, 0, 0, 199, 0, 0): -400}),
    # e f^n = f^n e + n f^(n-1) h - n(n-1) f^(n-1)
    (("e",) + ("f",) * 40,
     {Monomial(0, 0, 40, 0, 0, 1): 1, Monomial(0, 0, 39, 0, 1, 0): 40,
      Monomial(0, 0, 39, 0, 0, 0): -40 * 39}),
    # e h^n = (h - 2)^n e, from [e, h] = -2e
    (("e",) + ("h",) * 100,
     {Monomial(0, 0, 0, 0, i, 1): comb(100, i) * (-2) ** (100 - i)
      for i in range(101)}),
], ids=["f_eb200", "f_ebinv200", "e_hb200", "e_f40", "e_h100"])
def test_nf_long_block_in_closed_form(word, want):
    # one commutation per power of the block, with no recursion per power
    _reduce_word.cache_clear()
    started = time.perf_counter()
    got = normal_form(word, localized=True)
    assert time.perf_counter() - started < 2.0
    assert got._c == want
    assert _coeff_types(got) == {int}


def test_nf_many_unbarred_letters():
    word = ("e",) * 3 + ("f",) * 3 + ("ebinv",) * 2
    assert normal_form(word, localized=True) == straighten_oracle(word)
    # bubbling this word whole takes minutes; the fold takes milliseconds
    word = ("e",) * 6 + ("f",) * 6 + ("ebinv",) * 2
    _reduce_word.cache_clear()
    started = time.perf_counter()
    got = normal_form(word, localized=True)
    assert time.perf_counter() - started < 2.0
    assert got * normal_form(("eb", "eb")) == normal_form(word[:12])


def test_nf_output_is_slot_ordered():
    rng = random.Random(201)
    for _ in range(100):
        word = tuple(rng.choice(GENERATORS) for _ in range(rng.randint(0, 6)))
        for mono, _ in normal_form(word).terms():
            w = mono.to_word()
            slots = [LOCALIZED_LETTERS.index(x) if x != "ebinv" else 0
                     for x in w]
            # eb/ebinv occupy the same slot and never co-occur
            assert slots == sorted(slots), (word, w)


def test_nf_idempotent_random():
    rng = random.Random(202)
    for _ in range(100):
        word = tuple(rng.choice(LOCALIZED_LETTERS)
                     for _ in range(rng.randint(0, 6)))
        elem = normal_form(word, localized=True)
        assert normal_form(elem, localized=True) == elem


def test_product_associative_random():
    rng = random.Random(203)
    letters = LOCALIZED_LETTERS
    for _ in range(40):
        a = normal_form(tuple(rng.choice(letters) for _ in range(2)), True)
        b = normal_form(tuple(rng.choice(letters) for _ in range(2)), True)
        c = normal_form(tuple(rng.choice(letters) for _ in range(2)), True)
        assert (a * b) * c == a * (b * c)


def test_bracket_compatibility_random():
    rng = random.Random(204)
    for _ in range(60):
        x = rng.choice(GENERATORS)
        y = rng.choice(GENERATORS)
        lhs = normal_form((x, y)) - normal_form((y, x))
        assert lhs == bracket(x, y), (x, y)


def test_barred_casimir_is_central():
    # hb^2/2 + eb*fb + fb*eb commutes with every generator
    casimir = (normal_form(("hb", "hb")).scale(F(1, 2))
               + normal_form(("eb", "fb")).scale(2))
    for x in GENERATORS:
        assert commutator(normal_form(x), casimir).is_zero(), x


def test_localization_relations():
    one = AlgebraElement.one()
    assert normal_form(("eb", "ebinv"), localized=True) == one
    assert normal_form(("ebinv", "eb"), localized=True) == one
    # h ebinv = ebinv (h - 2)
    lhs = normal_form(("h", "ebinv"), localized=True)
    rhs = normal_form(("ebinv", "h"), localized=True) \
        - normal_form("ebinv", localized=True).scale(2)
    assert lhs == rhs
    # f ebinv = ebinv f + ebinv^2 hb
    lhs = normal_form(("f", "ebinv"), localized=True)
    rhs = normal_form(("ebinv", "f"), localized=True) \
        + normal_form(("ebinv", "ebinv", "hb"), localized=True)
    assert lhs == rhs


def test_localized_rules_derived_from_brackets_match_hand_rules():
    # the library derives its eb^-1 rules from x eb^-1 = eb^-1 x +
    # eb^-1 [eb, x] eb^-1; the hand-written SWAP_RULES entries are the oracle
    hand = {key: rules for key, rules in SWAP_RULES.items()
            if key[1] == "ebinv"}
    assert sorted(hand) == sorted((x, "ebinv") for x in
                                  ("fb", "f", "hb", "h", "e"))
    for key, rules in hand.items():
        assert algebra._COMM[key] == rules, key
    assert sorted(k for k in algebra._COMM if "ebinv" in k) == sorted(hand)


def test_ebinv_commutes_with_e_eb_hb_fb():
    for x in ("e", "eb", "hb", "fb"):
        lhs = normal_form((x, "ebinv"), localized=True)
        rhs = normal_form(("ebinv", x), localized=True)
        assert lhs == rhs, x


def test_ebinv_gating():
    with pytest.raises(ValueError):
        normal_form("ebinv")
    with pytest.raises(ValueError):
        normal_form(("e", "ebinv"))
    elem = normal_form("ebinv", localized=True)
    with pytest.raises(ValueError):
        normal_form(elem, localized=False)


def test_monomial_text_has_all_six_slots():
    m = Monomial(n=-1, a=0, b=1, c=2, d=0, g=0)
    assert m.to_text() == "eb^-1*fb^0*f^1*hb^2*h^0*e^0"
    elem = AlgebraElement.from_word(("ebinv", "f", "hb", "hb"))
    assert "eb^-1" in elem.to_text()


def test_parse_word_expr():
    assert parse_word_expr("e*f - f*e") == bracket("e", "f")
    assert parse_word_expr("2*h + h") == normal_form("h").scale(3)
    assert parse_word_expr("1/2*hb^2") == normal_form(("hb", "hb")).scale(F(1, 2))
    assert parse_word_expr("ebar*fbar") == normal_form(("eb", "fb"))
    got = parse_word_expr("eb^-1*hb", localized=True)
    assert got == normal_form(("ebinv", "hb"), localized=True)
    with pytest.raises(ValueError):
        parse_word_expr("eb^-1", localized=False)
    with pytest.raises(ValueError):
        parse_word_expr("f^-1", localized=True)
    with pytest.raises(ValueError):
        parse_word_expr("")
    # exponents past sys.maxsize are refused before any word is built
    for text in ("e^99999999999999999999", "eb^-99999999999999999999"):
        with pytest.raises(ValueError, match="exponent .* too large"):
            parse_word_expr(text, localized=True)
    # the signs of a run multiply; to_text writes "a + -2*b"
    assert parse_word_expr("e + -2*f") == normal_form("e") \
        - normal_form("f").scale(2)
    assert parse_word_expr("e - -f") == normal_form("e") + normal_form("f")
    assert parse_word_expr("e - +f") == normal_form("e") - normal_form("f")
    assert parse_word_expr("- - e") == normal_form("e")
    assert parse_word_expr("e - -f - h") == normal_form("e") \
        + normal_form("f") - normal_form("h")
    assert parse_word_expr("e - f + h") == normal_form("e") \
        - normal_form("f") + normal_form("h")
    for text in ("e^", "e^ ", "e^*f", "-", "+", "e -", "e + -"):
        with pytest.raises(ValueError):
            parse_word_expr(text)
    # a sign after '*' belongs to that factor
    assert parse_word_expr("2*-e") == normal_form("e").scale(-2)


def test_parse_word_expr_keeps_integral_coefficients_int():
    assert _coeff_types(parse_word_expr("hb^2 + 4*eb*fb"),
                        normal_form("e*f - f*e")) == {int}
    got = parse_word_expr("1/2*e + f")
    assert got == normal_form("e").scale(F(1, 2)) + normal_form("f")
    assert _coeff_types(got) == {F, int}


def test_theta_images():
    z = F(3)
    assert theta(z, "h") == normal_form("h") + AlgebraElement.one().scale(6)
    assert theta(z, "f") == normal_form("f", True) \
        - AlgebraElement.from_word(("ebinv", "hb"), F(3))
    for x in ("e", "eb", "fb", "hb", "ebinv"):
        assert theta(z, x) == normal_form(x, localized=True), x


def theta_oracle(z, elem, images=None):
    """Theta_z by substituting each letter's image and multiplying out; the
    images are the hand-written ones unless given."""
    if images is None:
        images = {x: normal_form(x, localized=True) for x in LOCALIZED_LETTERS}
        images["f"] = images["f"] - AlgebraElement.from_word(("ebinv", "hb"), z)
        images["h"] = images["h"] + AlgebraElement.one().scale(2 * z)
    out = AlgebraElement.zero()
    for mono, c in elem.terms():
        piece = AlgebraElement.one().scale(c)
        for letter in mono.to_word():
            piece = piece * images[letter]
        out = out + piece
    return out


def _random_elements(rng, count):
    elems = []
    for _ in range(count):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            mono = Monomial(rng.randint(-2, 2), rng.randint(0, 2),
                            rng.randint(3, 4), rng.randint(0, 2),
                            rng.randint(3, 4), rng.randint(0, 2))
            coeffs[mono] = F(rng.randint(-9, 9), rng.randint(1, 5))
        coeffs[Monomial(*(rng.randint(0, 2) for _ in range(6)))] = F(1)
        elems.append(AlgebraElement(coeffs))
    return elems


def test_theta_agrees_with_substitution_oracle():
    elems = _random_elements(random.Random(209), 6)
    for z in (F(0), F(1), F(-3), F(2, 7)):
        for elem in elems:
            assert theta(z, elem) == theta_oracle(z, elem), (z, elem)


def _zz_at(table, z):
    """An element over Z[z], {(monomial, j): c}, evaluated at z by hand."""
    coeffs = {}
    for (m, j), c in table.items():
        coeffs[m] = coeffs.get(m, 0) + c * F(z) ** j
    return AlgebraElement(coeffs)


def test_theta_table_evaluated_at_z_agrees_with_oracle():
    # the Z[z] closed form, evaluated at z by hand, at int and Fraction z
    rng = random.Random(212)
    elems = _random_elements(rng, 4)
    elems += [normal_form(tuple(rng.choice(LOCALIZED_LETTERS)
                                for _ in range(rng.randint(1, 6))), True)
              for _ in range(4)]
    for elem in elems:
        rows = _f_image_powers(max(m.b for m, _ in elem.terms()))
        table = _theta_zz(dict(elem.terms()), rows)
        for z in (0, 1, -3, 5, F(2, 7), F(-5, 3)):
            assert _zz_at(table, z) == theta_oracle(F(z), elem), (z, elem)


def test_f_image_powers_are_the_powers_of_theta_f():
    f = normal_form("f")
    for b, row in enumerate(_f_image_powers(5)):
        for z in (0, 1, -3, F(2, 7)):
            assert _zz_at(row, z) == theta_oracle(F(z), f ** b), (b, z)


def test_zz_values_are_never_zero():
    # dict equality is the proof's equality, so no stored value may be 0
    rng = random.Random(214)
    rows = _f_image_powers(6)
    assert all(all(row.values()) for row in rows)
    elems = _random_elements(rng, 6)
    elems += [normal_form(tuple(rng.choice(LOCALIZED_LETTERS)
                                for _ in range(rng.randint(1, 6))), True)
              for _ in range(20)]
    tables = [_theta_zz(dict(elem.terms()), rows) for elem in elems]
    assert all(all(table.values()) for table in tables)
    # products of the images of short words, the letters' among them
    short = [_theta_zz(dict(normal_form(word, True).terms()), rows)
             for word in [(x,) for x in LOCALIZED_LETTERS] + [
                 tuple(rng.choice(LOCALIZED_LETTERS) for _ in range(3))
                 for _ in range(8)]]
    for x in short:
        for y in short:
            assert all(_zz_mul(x, y).values())


def conjugation_images(z):
    """Theta_z of each letter as conjugation by eb^-z (Mathieu, Ann. Inst.
    Fourier 50, 2000), from commutators alone:

        x |-> sum_i C(-z, i) (ad eb)^i(x) eb^-i,

    the sum stopping where (ad eb)^i(x) vanishes, which is by i = 2 on
    every letter."""
    eb, ebinv = (normal_form(x, localized=True) for x in ("eb", "ebinv"))
    images = {}
    for x in LOCALIZED_LETTERS:
        term, image, binom = normal_form(x, True), AlgebraElement.zero(), F(1)
        for i in range(3):
            image = image + (term * ebinv ** i).scale(binom)
            term, binom = commutator(eb, term), binom * (-z - i) / (i + 1)
        assert term.is_zero(), x
        images[x] = image
    return images


def test_theta_is_conjugation_by_a_power_of_eb():
    # an oracle that knows neither shift: both are read off the bracket
    # table in theta, and arise from commutators here
    rng = random.Random(213)
    elems = _random_elements(rng, 4)
    elems += [normal_form(tuple(rng.choice(LOCALIZED_LETTERS)
                                for _ in range(rng.randint(1, 6))), True)
              for _ in range(30)]
    for z in (0, 1, -3, 5, F(2, 7), F(-5, 3)):
        images = conjugation_images(F(z))
        for elem in elems:
            got = theta(z, elem)
            assert got == theta_oracle(F(z), elem, images), (z, elem)
            if type(z) is int and _coeff_types(elem) <= {int}:
                assert _coeff_types(got) <= {int}, (z, elem)


def test_theta_table_drops_coefficients_that_cancel():
    # Theta(2 f h + eb^-1 hb h^2), worked by hand: the z^2 eb^-1 hb terms
    # of 2 (f - z X)(h + 2z) and X (h + 2z)^2 cancel, X = eb^-1 hb
    fh, xh, xhh = Monomial(0, 0, 1, 0, 1, 0), Monomial(-1, 0, 0, 1, 1, 0), \
        Monomial(-1, 0, 0, 1, 2, 0)
    table = _theta_zz({fh: 2, xhh: 1}, _f_image_powers(1))
    assert table == {(fh, 0): 2, (Monomial(0, 0, 1, 0, 0, 0), 1): 4,
                     (xh, 1): 2, (xhh, 0): 1}


def test_theta_accepts_textual_expressions():
    z = F(2, 3)
    assert theta(z, "e*f - f*e") == normal_form("h") + AlgebraElement.one().scale(2 * z)
    for text in ("2*eb^-1*hb + h^2", "f^2*e - 1/2*fb", "hb^2 + 4*eb*fb"):
        assert theta(z, text) == theta(z, parse_word_expr(text, True)), text
    assert _coeff_types(theta(3, "e*f - f*e")) == {int}
    with pytest.raises(ValueError, match="unknown letter"):
        theta(z, "e*q")


def test_theta_zero_is_identity():
    rng = random.Random(205)
    for _ in range(30):
        word = tuple(rng.choice(LOCALIZED_LETTERS)
                     for _ in range(rng.randint(0, 5)))
        elem = normal_form(word, localized=True)
        assert theta(0, elem) == elem


def theta_check_oracle(z):
    """The per-z check: each letter pair compared in Fraction arithmetic."""
    z = F(z)
    images = {x: theta(z, x) for x in LOCALIZED_LETTERS}
    pairs = []
    for x in LOCALIZED_LETTERS:
        for y in LOCALIZED_LETTERS:
            lhs = theta(z, normal_form((x, y), localized=True))
            pairs.append({"x": x, "y": y, "ok": lhs == images[x] * images[y]})
    return {"z": z, "pairs": pairs, "ok": all(p["ok"] for p in pairs)}


CHECK_ZS = (0, 1, -3, F(2, 7), 5)


def test_theta_is_automorphism():
    for z in CHECK_ZS:
        report = check_theta_automorphism(z)
        assert report["ok"], z
        assert len(report["pairs"]) == len(LOCALIZED_LETTERS) ** 2
        assert report == theta_check_oracle(z), z
        assert type(report["z"]) is F


@pytest.mark.parametrize("f_shift, h_shift", [(-1, 1), (-2, 2), (-2, 1)])
def test_theta_check_fails_planted_faults_at_every_z(monkeypatch, f_shift,
                                                     h_shift):
    # Theta(h) = h + z and/or Theta(f) = f - 2z eb^-1 hb: both are the
    # identity at z = 0, where the per-z check cannot see them
    monkeypatch.setattr(algebra, "_F_SHIFT", f_shift)
    monkeypatch.setattr(algebra, "_H_SHIFT", h_shift)
    assert theta_check_oracle(0)["ok"]
    for z in CHECK_ZS:
        report = check_theta_automorphism(z)
        assert not report["ok"], z
        assert not next(p["ok"] for p in report["pairs"]
                        if (p["x"], p["y"]) == ("e", "f")), z
    assert not theta_check_oracle(1)["ok"]


def test_theta_composition_and_inverse():
    rng = random.Random(206)
    zs = [F(1), F(-2), F(1, 2), F(5, 3)]
    for z1 in zs:
        for z2 in zs:
            for x in LOCALIZED_LETTERS:
                assert theta(z1, theta(z2, x)) == theta(z1 + z2, x), (z1, z2, x)
    for z in zs:
        for _ in range(10):
            word = tuple(rng.choice(LOCALIZED_LETTERS)
                         for _ in range(rng.randint(0, 4)))
            elem = normal_form(word, localized=True)
            assert theta(-z, theta(z, elem)) == elem


def test_theta_respects_products_of_elements():
    rng = random.Random(207)
    z = F(1, 2)
    for _ in range(25):
        a = normal_form(tuple(rng.choice(LOCALIZED_LETTERS)
                              for _ in range(rng.randint(1, 3))), True)
        b = normal_form(tuple(rng.choice(LOCALIZED_LETTERS)
                              for _ in range(rng.randint(1, 3))), True)
        assert theta(z, a * b) == theta(z, a) * theta(z, b)


def test_cancelling_sums_and_products_store_no_zero():
    x = parse_word_expr("e*f + 1/2*hb - 3*eb^-1*h", localized=True)
    for zero in (x - x, x + (-x), x.scale(-1) + x):
        assert zero._c == {} and zero == AlgebraElement.zero()
    e, f, h = (AlgebraElement.gen(g) for g in ("e", "f", "h"))
    # (e + f)(e - f) = e^2 - ef + fe - f^2, and ef = fe + h: fe cancels
    assert ((e + f) * (e - f))._c == {Monomial(0, 0, 0, 0, 0, 2): 1,
                                       Monomial(0, 0, 0, 0, 1, 0): -1,
                                       Monomial(0, 0, 2, 0, 0, 0): -1}
    assert parse_word_expr("e*f - f*e")._c == {Monomial(0, 0, 0, 0, 1, 0): 1}
    # an int coefficient cancels against the equal Fraction
    assert (e.scale(F(2)) - (e + e)).is_zero()
    assert _coeff_types(e + f + h, e - f, (e + f) * (e - f)) == {int}


def test_straightening_drops_terms_that_cancel():
    # h eb fb: the 2 eb fb of h eb = eb h + 2 eb cancels the -2 eb fb of
    # h fb = fb h - 2 fb
    assert normal_form(("h", "eb", "fb"))._c == {Monomial(1, 1, 0, 0, 1, 0): 1}
    # e h eb, folded: e h = h e - 2e, and the 2 eb e of h eb e cancels
    # the -2 eb e
    assert normal_form(("e", "h", "eb"))._c == {Monomial(1, 0, 0, 0, 1, 1): 1}
    for word in (("h", "eb", "f"), ("e", "hb", "f")):
        assert normal_form(word) == straighten_oracle(word), word


def test_element_arithmetic():
    e, f = AlgebraElement.gen("e"), AlgebraElement.gen("f")
    assert (e + f) - f == e
    assert e.scale(0).is_zero()
    assert (2 * e) == e + e
    assert e ** 3 == e * e * e
    assert e ** 0 == AlgebraElement.one()
    with pytest.raises(ValueError):
        e ** -1
