"""The Takiff algebra of sl2, its enveloping algebra, and normal forms.

Generators: e, f, h (an sl2 triple) and their barred partners eb, fb, hb,
which span an abelian ideal.  The nonzero brackets are

    [e,f] = h      [h,e] = 2e      [h,f] = -2f
    [e,fb] = hb    [eb,f] = hb     [h,eb] = 2eb    [hb,e] = 2eb
    [h,fb] = -2fb  [hb,f] = -2fb

and every bracket of two barred generators vanishes, as do [e,eb], [f,fb],
[h,hb].

Normal form in the enveloping algebra orders monomials as

    eb^n * fb^a * f^b * hb^c * h^d * e^g

A word is folded from the right, nf(x*w) = x*nf(w): each letter is
inserted into each canonical monomial of the part already straightened.
A letter that commutes with every letter it has to pass moves by its
exponent alone; any other letter x passes the monomial one block y^k at a
time, by one commutation x*y = y*x + sum c*side per power of y.  Each side
term strictly reduces the number of unbarred letters, so the rewriting
terminates, and by Bergman's diamond lemma (Adv. Math. 29, 1978) the
result does not depend on the order of reductions.  A product of elements
folds the letters of each left monomial into the whole right factor.
Whole words and letter-times-monomial products share one cache; all
structure constants are integers, so the cached coefficients are ints,
and elements keep them as ints: an ``AlgebraElement`` follows ``PolyHH``'s
rule, Fractions from its public constructor and exact ints kept by every
other constructor and operation.

The localized algebra adjoins a two-sided inverse of eb (letter ``ebinv``,
printed ``eb^-1``).  Its rewriting rules are read off the bracket table by

    x * ebinv = ebinv * x + ebinv * [eb, x] * ebinv,

so it commutes with e, eb, fb, hb and satisfies h * ebinv = ebinv * (h - 2)
and f * ebinv = ebinv * f + ebinv^2 * hb.  Its twisting automorphism
Theta_z is conjugation by eb^-z, as in Mathieu's twisting functor (Ann.
Inst. Fourier 50, 2000):

    Theta_z(x) = sum_i C(-z, i) * (ad eb)^i(x) * ebinv^i.

It fixes the letters that commute with eb.  On f and h the sum stops at
i = 1, since [eb, f] = hb and [eb, h] = -2eb commute with eb, so
Theta_z(f) = f - z * ebinv * [eb, f] and Theta_z(h) = h - z * [eb, h] *
ebinv: both shifts are read off the bracket table.  ``theta`` is written
once, over Z[z]: the powers of the image of
f form a z-free table of integer coefficient lists, built from the
``_reduce_word`` cache on each call, and a closed form on each canonical
monomial extends it to any element.  ``theta`` evaluates that closed form
at z; ``check_theta_automorphism`` compares both sides of every letter
relation as polynomials in z, which proves the automorphism for every z.
``_reduce_word`` is the module's only cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from .linalg import add_into
from .poly import RationalLike, parse_terms, to_rational

GENERATORS = ("eb", "fb", "f", "hb", "h", "e")
LOCALIZED_LETTERS = GENERATORS + ("ebinv",)

# canonical slot of each letter; eb and its inverse share the first slot
_SLOT = {"eb": 0, "ebinv": 0, "fb": 1, "f": 2, "hb": 3, "h": 4, "e": 5}

# [x, y] for the fifteen unordered generator pairs, as lists of
# (coefficient, generator); pairs not listed here (and all barred pairs)
# commute.  Stored with both orders for convenience.
_BRACKET: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}


def _set_bracket(x: str, y: str, terms: List[Tuple[int, str]]) -> None:
    _BRACKET[(x, y)] = list(terms)
    _BRACKET[(y, x)] = [(-c, g) for c, g in terms]


_set_bracket("e", "f", [(1, "h")])
_set_bracket("h", "e", [(2, "e")])
_set_bracket("h", "f", [(-2, "f")])
_set_bracket("e", "fb", [(1, "hb")])
_set_bracket("eb", "f", [(1, "hb")])
_set_bracket("h", "eb", [(2, "eb")])
_set_bracket("hb", "e", [(2, "eb")])
_set_bracket("h", "fb", [(-2, "fb")])
_set_bracket("hb", "f", [(-2, "fb")])
for _x, _y in (("e", "eb"), ("f", "fb"), ("h", "hb"), ("eb", "fb"),
               ("eb", "hb"), ("fb", "hb")):
    _set_bracket(_x, _y, [])


class Monomial(NamedTuple):
    """Exponents of a canonical monomial eb^n fb^a f^b hb^c h^d e^g.

    n may be negative in the localized algebra; the other exponents are
    nonnegative.
    """

    n: int
    a: int
    b: int
    c: int
    d: int
    g: int

    def to_word(self) -> Tuple[str, ...]:
        head = ("ebinv",) * (-self.n) if self.n < 0 else ("eb",) * self.n
        return (head + ("fb",) * self.a + ("f",) * self.b
                + ("hb",) * self.c + ("h",) * self.d + ("e",) * self.g)

    def to_text(self) -> str:
        return (f"eb^{self.n}*fb^{self.a}*f^{self.b}"
                f"*hb^{self.c}*h^{self.d}*e^{self.g}")


ONE_MONO = Monomial(0, 0, 0, 0, 0, 0)


def _word_to_monomial(word: Tuple[str, ...]) -> Monomial:
    """The exponents of a canonical word, each letter counted in its slot
    (eb^-1 counting -1 in the slot of eb)."""
    exps = [0] * 6
    for w in word:
        try:
            exps[_SLOT[w]] += -1 if w == "ebinv" else 1
        except KeyError:
            raise ValueError(f"unknown letter {w!r}") from None
    return Monomial(*exps)


# rewriting side terms: for slot[x] > slot[y],  x*y = y*x + sum c * word
_COMM: Dict[Tuple[str, str], List[Tuple[int, Tuple[str, ...]]]] = {}
for (_x, _y), _terms in _BRACKET.items():
    if _SLOT[_x] > _SLOT[_y]:
        _COMM[(_x, _y)] = [(c, (g,)) for c, g in _terms]
# localized rules, x*eb^-1 = eb^-1*x + eb^-1*[eb, x]*eb^-1, with each side
# word canonical: [eb, x] is barred, and barred letters commute with eb^-1
for _x in GENERATORS:
    if _SLOT[_x] > _SLOT["ebinv"]:
        _COMM[(_x, "ebinv")] = [
            (c, _word_to_monomial(("ebinv", g, "ebinv")).to_word())
            for c, g in _BRACKET[("eb", _x)]]


# for each letter x: its slot, the step it adds to that slot's exponent,
# and the slot range lo:hi that spans the letters below it that x does not
# commute with (eb^-1 commutes with whatever eb commutes with); x*m is read
# off the exponents when m has no letter in that range
_STEP: Dict[str, Tuple[int, int, int, int]] = {}
for _x, _s in _SLOT.items():
    _blocking = [t for t in range(_s) if _BRACKET[(_x, GENERATORS[t])]]
    _STEP[_x] = (_s, -1 if _x == "ebinv" else 1,
                 min(_blocking, default=0), max(_blocking, default=-1) + 1)


def _fold(word: Sequence[str], acc: Dict[Monomial, RationalLike]) -> dict:
    """word * acc for a word and a combination of canonical monomials,
    folded from the right one letter at a time; ``acc`` itself if the word
    is empty.  Each x*m is read off the exponents when x commutes with
    every letter of m in a slot below its own, and is else the
    ``_reduce_word`` entry of the word x*m."""
    for x in reversed(word):
        s, step, lo, hi = _STEP[x]
        prod: dict = {}
        for m, v in acc.items():
            if any(m[lo:hi]):
                add_into(prod, v, _reduce_word((x,) + m.to_word()))
            else:
                add_into(prod, v, ((tuple.__new__(
                    Monomial, (*m[:s], m[s] + step, *m[s + 1:])), 1),))
        acc = prod
    return acc


def _insert(x: str, tail: Monomial) -> Tuple[Tuple[Monomial, int], ...]:
    """x * tail, for a letter x and a canonical monomial with a letter
    below x's slot that x does not commute with, by one commutation per
    block.  Write tail = y^k * R, y^k its first block, so slot(y) <
    slot(x).  Starting from x*R, the rule x*y = y*x + sum c*side gives

        x * y^j * R = y * (x * y^(j-1) * R) + sum c * side * y^(j-1) * R

    for j = 1 .. k, each product read through ``_fold``.  x*R has one
    block fewer, so the recursion is as deep as the blocks, not as the
    powers."""
    lead = next(t for t in range(_SLOT[x]) if tail[t])
    k = tail[lead]
    y = ("ebinv" if k < 0 else "eb") if lead == 0 else GENERATORS[lead]
    sides = _COMM[(x, y)]
    rest = list(tail)
    rest[lead] = 0
    acc = _fold((x,), {Monomial(*rest): 1})
    for j in range(abs(k)):
        # acc is x * y^j * R, and y^j * R is R with j letters y
        prev, acc = acc, _fold((y,), acc)
        if sides:
            rest[lead] = -j if k < 0 else j
            power = Monomial(*rest)
            for c, side in sides:
                # a side x (e * h = h * e - 2e) times y^j * R is prev
                add_into(acc, c, (prev if side == (x,) else
                                  _fold(side, {power: 1})).items())
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=1 << 16)
def _reduce_word(word: Tuple[str, ...]) -> Tuple[Tuple[Monomial, int], ...]:
    """Straighten a word into canonical monomials with integer coefficients.

    A word x*T whose tail T is canonical goes through ``_insert`` when x
    does not commute with some letter of T below its slot.  Any other
    word is folded from the right, nf(x*w) = x*nf(w) one letter at a time
    by ``_fold``, whose products are read off the exponents or are
    letter-times-monomial entries of this same cache.  Every structure
    constant is an integer, so coefficients stay ints.
    """
    start = len(word) - 1  # word[start:] is the longest canonical suffix
    while start > 0 and _SLOT[word[start - 1]] <= _SLOT[word[start]]:
        start -= 1
    tail = _word_to_monomial(word[start:])
    if start == 1:
        _, _, lo, hi = _STEP[word[0]]
        if any(tail[lo:hi]):
            return _insert(word[0], tail)
    return tuple(sorted(_fold(word[:start], {tail: 1}).items()))


class AlgebraElement:
    """A finite rational combination of canonical monomials.

    ``PolyHH``'s coefficient rule: the public constructor stores Fractions,
    and everything built through ``_adopt`` keeps exact ints as ints.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Dict[Monomial, RationalLike] | None = None):
        c: Dict[Monomial, Fraction] = {}
        if coeffs:
            for m, v in coeffs.items():
                v = to_rational(v)
                if v:
                    c[Monomial(*m)] = v
        self._c = c

    @staticmethod
    def _adopt(c: Dict[Monomial, Fraction]) -> "AlgebraElement":
        """Wrap an already cleaned dict as-is: no copy, no coercion."""
        out = AlgebraElement.__new__(AlgebraElement)
        out._c = c
        return out

    @staticmethod
    def zero() -> "AlgebraElement":
        return AlgebraElement._adopt({})

    @staticmethod
    def one() -> "AlgebraElement":
        return AlgebraElement._adopt({ONE_MONO: 1})

    @staticmethod
    def gen(name: str) -> "AlgebraElement":
        if name not in LOCALIZED_LETTERS:
            raise ValueError(f"unknown generator {name!r}")
        return AlgebraElement._adopt({_word_to_monomial((name,)): 1})

    @staticmethod
    def from_word(word: Sequence[str], coeff: RationalLike = 1) -> "AlgebraElement":
        terms = _reduce_word(tuple(word))
        if not isinstance(coeff, int):
            coeff = to_rational(coeff)
        return AlgebraElement._adopt({m: coeff * v for m, v in terms}
                                     if coeff else {})

    def is_zero(self) -> bool:
        return not self._c

    def is_localized(self) -> bool:
        return any(m.n < 0 for m in self._c)

    def terms(self):
        return iter(sorted(self._c.items()))

    def coeff(self, mono: Monomial) -> Fraction:
        return self._c.get(Monomial(*mono), Fraction(0))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement._adopt(add_into(dict(self._c), 1,
                                              other._c.items()))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement._adopt(add_into(dict(self._c), -1,
                                              other._c.items()))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._adopt({m: -v for m, v in self._c.items()})

    def scale(self, v: RationalLike) -> "AlgebraElement":
        v = to_rational(v)
        return AlgebraElement._adopt({m: v * w for m, w in self._c.items()}
                                     if v else {})

    def __rmul__(self, other) -> "AlgebraElement":
        return self.scale(other)

    def __mul__(self, other) -> "AlgebraElement":
        """The product, or ``scale`` for a scalar.  Each left monomial's
        letters are folded from the right into the whole right factor, one
        letter-times-monomial product per letter and term."""
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        acc: Dict[Monomial, Fraction] = {}
        for m1, v1 in self._c.items():
            add_into(acc, v1, _fold(m1.to_word(), other._c).items())
        return AlgebraElement._adopt(acc)

    def __pow__(self, k: int) -> "AlgebraElement":
        if k < 0:
            raise ValueError("negative powers are not defined elementwise")
        out = AlgebraElement.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def to_text(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for m in sorted(self._c, reverse=True):
            parts.append(f"{self._c[m]}*{m.to_text()}")
        return " + ".join(parts)

    def __repr__(self):
        return f"AlgebraElement({self.to_text()})"


WordLike = Union[str, Sequence[str], AlgebraElement]


def _validate_letters(word: Sequence[str], localized: bool) -> None:
    for w in word:
        if w not in LOCALIZED_LETTERS:
            raise ValueError(f"unknown letter {w!r}")
        if w == "ebinv" and not localized:
            raise ValueError("ebinv is only available in the localized algebra")


def normal_form(x: WordLike, localized: bool = False) -> AlgebraElement:
    """Canonical form of a word or element in the (localized) enveloping algebra.

    ``x`` may be a generator name, a textual expression such as
    ``"e*f - f*e"``, a sequence of generator names (a word, leftmost letter
    acting last), or an AlgebraElement.  In non-localized mode any
    occurrence of ebinv is rejected.
    """
    if isinstance(x, AlgebraElement):
        if x.is_localized() and not localized:
            raise ValueError("element lies in the localized algebra")
        acc: Dict[Monomial, Fraction] = {}
        for m, v in x._c.items():
            add_into(acc, v, ((_word_to_monomial(m.to_word()), 1),))
        return AlgebraElement._adopt(acc)
    if isinstance(x, str):
        if x in LOCALIZED_LETTERS:
            x = (x,)
        else:
            return normal_form(parse_word_expr(x, localized), localized)
    word = tuple(x)
    _validate_letters(word, localized)
    return AlgebraElement.from_word(word)


def bracket(x: str, y: str) -> AlgebraElement:
    """The Lie bracket [x, y] of two generators, as an algebra element."""
    if x not in GENERATORS or y not in GENERATORS:
        raise ValueError(f"bracket is defined on the six generators, got {x!r}, {y!r}")
    return AlgebraElement._adopt({_word_to_monomial((g,)): c
                                  for c, g in _BRACKET.get((x, y), ())})


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y - y * x


# -- the twisting substitution ------------------------------------------------

# Theta_z moves two letters, each by z times an integer multiple of a fixed
# element:  f |-> f + _F_SHIFT * z * eb^-1 hb  and  h |-> h + _H_SHIFT * z,
# each multiple -c for [eb, f] = c hb and [eb, h] = c eb (module docstring)
_F_SHIFT = -_BRACKET[("eb", "f")][0][0]
_H_SHIFT = -_BRACKET[("eb", "h")][0][0]

# A polynomial in z with integer coefficients (rational ones only when the
# element twisted has them), as the list [c_0, c_1, ...] of sum c_j z^j.
ZPoly = List[Fraction]


def _zz_add_into(acc: Dict[Monomial, ZPoly], mono: Monomial, p: ZPoly,
                 scale, shift: int = 0) -> None:
    """acc[mono] += scale * z^shift * p, in place."""
    # lists in z: a dict in z per monomial through add_into ran the rewrite
    # benchmark at 1203-1221 verdicts/s against 1229-1247 (2.1 GHz Xeon)
    q = acc.get(mono)
    if q is None:
        acc[mono] = [0] * shift + [scale * c for c in p]
        return
    if len(q) < len(p) + shift:
        q.extend([0] * (len(p) + shift - len(q)))
    for i, c in enumerate(p, shift):
        q[i] += scale * c


def _zz_clean(acc: Dict[Monomial, ZPoly]) -> Dict[Monomial, ZPoly]:
    """Trim trailing zero coefficients, then drop the zero polynomials, so
    that equal elements over Z[z] compare equal as dicts."""
    for q in acc.values():
        while q and not q[-1]:
            q.pop()
    return {m: q for m, q in acc.items() if q}


def _zz_mul(x: Dict[Monomial, ZPoly],
            y: Dict[Monomial, ZPoly]) -> Dict[Monomial, ZPoly]:
    """The product of two elements over Z[z]: monomials through
    ``_reduce_word``, coefficient lists by convolution."""
    acc: Dict[Monomial, ZPoly] = {}
    for m1, p1 in x.items():
        w1 = m1.to_word()
        for m2, p2 in y.items():
            for m, w in _reduce_word(w1 + m2.to_word()):
                for i, c1 in enumerate(p1):
                    _zz_add_into(acc, m, p2, w * c1, i)
    return _zz_clean(acc)


def _f_image_powers(b_max: int) -> List[Dict[Monomial, ZPoly]]:
    """The table P_0 .. P_b_max of P_b = (f + _F_SHIFT z eb^-1 hb)^b over
    Z[z], its monomials eb^-i fb^j f^k hb^l.  It is folded one factor at a
    time, P_b = f P_{b-1} + _F_SHIFT z (eb^-1 hb) P_{b-1}, each product
    read from ``_reduce_word``."""
    rows: List[Dict[Monomial, ZPoly]] = [{ONE_MONO: [1]}]
    for _ in range(b_max):
        acc: Dict[Monomial, ZPoly] = {}
        for m, p in rows[-1].items():
            w = m.to_word()
            for mono, u in _reduce_word(("f",) + w):
                _zz_add_into(acc, mono, p, u)
            for mono, u in _reduce_word(("ebinv", "hb") + w):
                _zz_add_into(acc, mono, p, _F_SHIFT * u, 1)
        rows.append(_zz_clean(acc))
    return rows


def _theta_zz(c: Dict[Monomial, Fraction],
              rows: List[Dict[Monomial, ZPoly]]) -> Dict[Monomial, ZPoly]:
    """Theta_z of a coefficient dict, with coefficients in Z[z].

    ``rows`` is ``_f_image_powers`` up to the largest f exponent in ``c``.
    A canonical monomial maps to the closed form

        eb^n fb^a * P_b * hb^c * sum_j C(d, j) (_H_SHIFT z)^(d-j) h^j * e^g,

    whose output monomials are read off from exponents.
    """
    out: Dict[Monomial, ZPoly] = {}
    for m, v in c.items():
        h_terms = [(j, v * comb(m.d, j) * _H_SHIFT ** (m.d - j))
                   for j in range(m.d + 1)]
        for p, u in rows[m.b].items():
            for j, w in h_terms:
                key = Monomial(m.n + p.n, m.a + p.a, p.b, m.c + p.c, j, m.g)
                _zz_add_into(out, key, u, w, m.d - j)
    return _zz_clean(out)


def theta(z: RationalLike, x: WordLike) -> AlgebraElement:
    """The automorphism Theta_z of the eb-localized enveloping algebra.

    Theta_z fixes e, eb, eb^-1, fb, hb and sends

        f  |->  f - z * eb^-1 * hb
        h  |->  h + 2z.

    ``x`` is anything ``normal_form(x, localized=True)`` accepts: a letter,
    a word, a textual expression such as ``"e*f - f*e"``, or an element.
    The image is the Z[z] closed form of ``_theta_zz`` evaluated at z, so
    an int z on an element with int coefficients gives ints.
    """
    if not isinstance(z, int):
        z = to_rational(z)
    if not isinstance(x, AlgebraElement):
        x = normal_form(x, localized=True)
    rows = _f_image_powers(max((m.b for m in x._c), default=0))
    out: Dict[Monomial, Fraction] = {}
    for m, p in _theta_zz(x._c, rows).items():
        v = 0
        for c in reversed(p):
            v = v * z + c
        if v:
            out[m] = v
    return AlgebraElement._adopt(out)


def check_theta_automorphism(z: RationalLike) -> dict:
    """Prove that Theta_z respects all products of letters, for every z.

    For every ordered pair (x, y) of the seven letters, compares
    Theta_z(normal_form(x*y)) with Theta_z(x) * Theta_z(y) as elements with
    coefficients in Z[z]; the pair (eb, ebinv) covers the localization
    relation eb * eb^-1 = 1.  Equal polynomials agree at every z, so the
    verdict does not depend on ``z``, which is validated and echoed.
    """
    z = to_rational(z)
    rows = _f_image_powers(2)  # nf(x*y) has at most two f letters
    images = {x: _theta_zz({_word_to_monomial((x,)): 1}, rows)
              for x in LOCALIZED_LETTERS}
    pairs = []
    ok_all = True
    for x in LOCALIZED_LETTERS:
        for y in LOCALIZED_LETTERS:
            lhs = _theta_zz(dict(_reduce_word((x, y))), rows)
            ok = lhs == _zz_mul(images[x], images[y])
            ok_all = ok_all and ok
            pairs.append({"x": x, "y": y, "ok": ok})
    return {"z": z, "pairs": pairs, "ok": ok_all}


# -- parsing -------------------------------------------------------------------

_LETTER_ALIASES = {
    "e": "e", "f": "f", "h": "h",
    "eb": "eb", "fb": "fb", "hb": "hb",
    "ebar": "eb", "fbar": "fb", "hbar": "hb",
}


def parse_word_expr(text: str, localized: bool = False) -> AlgebraElement:
    """Parse expressions like 'e*f - f*e' or '2*eb^-1*hb + h^2'.

    The grammar is that of ``poly.parse_terms``; the names are the six
    letters and their aliases ebar, fbar, hbar, and a negative exponent is
    allowed only on eb, where eb^-k is ebinv^k (localized mode only).
    """
    terms = parse_terms(text)
    if not terms:
        raise ValueError("empty expression")
    acc: Dict[Monomial, Fraction] = {}
    for coeff, factors in terms:
        word: List[str] = []
        for name, k in factors:
            if name not in _LETTER_ALIASES:
                raise ValueError(f"unknown letter {name!r}")
            letter = _LETTER_ALIASES[name]
            if k < 0:
                if letter != "eb":
                    raise ValueError(f"negative power of {letter!r}")
                letter, k = "ebinv", -k
            word.extend([letter] * k)
        _validate_letters(word, localized)
        if coeff.denominator == 1:
            coeff = coeff.numerator
        add_into(acc, coeff, _reduce_word(tuple(word)))
    return AlgebraElement._adopt(acc)
