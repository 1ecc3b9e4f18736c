"""Exact bivariate polynomials in the Cartan pair (h, hbar).

Everything downstream (module actions, saturation, weight functionals) is
built on C[h, hbar] with exact rational coefficients.  A polynomial is a
sparse map from exponent pairs (i, j) -- meaning h^i * hbar^j -- to exact
coefficients: the public constructor stores ``fractions.Fraction``, and
sums, products, int shifts and dbar of int coefficients stay ints, so one
type serves both the rational actions and the integer saturation.  Zero
coefficients are never stored (``linalg.add_into`` is the one place that
rule is written), and an int equals and hashes like the equal Fraction, so
equality of the underlying dicts is equality of polynomials.
An expansion about a point is the recentred polynomial (``shifted_expand``),
so there is one polynomial form.

The degree of the zero polynomial is the dedicated marker ``NEG_INF`` which
compares strictly below every integer; it is never the integer -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from .linalg import add_into

Rational = Fraction
RationalLike = Union[Fraction, int, str]

Exponent = Tuple[int, int]


class _NegInfinity:
    """Degree of the zero polynomial: below every integer, equal to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return not isinstance(other, _NegInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfinity)

    def __neg__(self):
        raise ArithmeticError("cannot negate the minus-infinity degree marker")

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegInfinity()


def to_rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or string like '3', '-7/4' to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not a rational: {x!r}")


def format_rational(x: Fraction) -> str:
    """Serialize as 'num/den' (always with the slash, canonical lowest terms)."""
    return f"{x.numerator}/{x.denominator}"


class PolyHH:
    """A polynomial in h and hbar over Q, stored sparsely.

    Instances are treated as immutable: all operations return new objects.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Dict[Exponent, RationalLike] | None = None):
        c: Dict[Exponent, Fraction] = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in PolyHH: {(i, j)}")
                v = to_rational(v)
                if v:
                    c[(int(i), int(j))] = v
        self._c = c

    @staticmethod
    def _adopt(c: Dict[Exponent, Rational]) -> "PolyHH":
        """Wrap an already cleaned dict as-is: no copy, no coercion, so int
        coefficients stay ints."""
        out = PolyHH.__new__(PolyHH)
        out._c = c
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "PolyHH":
        return PolyHH()

    @staticmethod
    def const(v: RationalLike) -> "PolyHH":
        return PolyHH({(0, 0): to_rational(v)})

    @staticmethod
    def h() -> "PolyHH":
        return PolyHH({(1, 0): 1})

    @staticmethod
    def hbar() -> "PolyHH":
        return PolyHH({(0, 1): 1})

    @staticmethod
    def term(i: int, j: int, v: RationalLike = 1) -> "PolyHH":
        return PolyHH({(i, j): to_rational(v)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, i: int, j: int) -> Fraction:
        return self._c.get((i, j), Fraction(0))

    def terms(self) -> Iterator[Tuple[Exponent, Fraction]]:
        return iter(sorted(self._c.items()))

    def deg_hbar(self):
        if not self._c:
            return NEG_INF
        return max(j for (_, j) in self._c)

    def within_bidegree(self, cap_h: int, cap_hbar: int) -> bool:
        """True when every stored exponent pair fits under (cap_h, cap_hbar)."""
        return all(i <= cap_h and j <= cap_hbar for (i, j) in self._c)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PolyHH") -> "PolyHH":
        return PolyHH._adopt(add_into(dict(self._c), 1, other._c.items()))

    def __sub__(self, other: "PolyHH") -> "PolyHH":
        return PolyHH._adopt(add_into(dict(self._c), -1, other._c.items()))

    def __neg__(self) -> "PolyHH":
        return PolyHH._adopt({e: -v for e, v in self._c.items()})

    def __mul__(self, other) -> "PolyHH":
        if isinstance(other, PolyHH):
            c: Dict[Exponent, Rational] = {}
            self._mul_into(other, c)
            return PolyHH._adopt(c)
        return self.scale(other)

    def _mul_into(self, other: "PolyHH", c: Dict[Exponent, Rational]) -> None:
        """Add self * other into the cleaned dict c, keeping it cleaned."""
        # add_into's loop written out: a key per term, and a pair generator
        # would cost every term on the free-axioms and saturate paths
        for (i1, j1), v1 in self._c.items():
            for (i2, j2), v2 in other._c.items():
                e = (i1 + i2, j1 + j2)
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)

    def __rmul__(self, other) -> "PolyHH":
        return self.scale(other)

    def scale(self, v: RationalLike) -> "PolyHH":
        v = to_rational(v)
        return PolyHH._adopt({e: v * w for e, w in self._c.items()} if v
                             else {})

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyHH) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    # -- substitutions and calculus ----------------------------------------

    def shift_h(self, d: RationalLike) -> "PolyHH":
        """Return p(h + d, hbar), expanded exactly by the binomial theorem.

        An int shift of a polynomial with int coefficients stays integral.
        """
        if not isinstance(d, int):
            d = to_rational(d)
        if not d:
            return self
        c: Dict[Exponent, Rational] = {}
        # add_into's loop written out, as in _mul_into: a key per term
        for (i, j), v in self._c.items():
            for k in range(i + 1):
                e = (k, j)
                w = c.get(e, 0) + v * comb(i, k) * d ** (i - k)
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        return PolyHH._adopt(c)

    def shift_hbar(self, d: RationalLike) -> "PolyHH":
        """Return p(h, hbar + d); like ``shift_h``, an int shift of a
        polynomial with int coefficients stays integral."""
        if not isinstance(d, int):
            d = to_rational(d)
        if not d:
            return self
        c: Dict[Exponent, Rational] = {}
        # add_into's loop written out, as in _mul_into: a key per term
        for (i, j), v in self._c.items():
            for k in range(j + 1):
                e = (i, k)
                w = c.get(e, 0) + v * comb(j, k) * d ** (j - k)
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        return PolyHH._adopt(c)

    def dbar(self) -> "PolyHH":
        """Formal partial derivative with respect to hbar."""
        return PolyHH._adopt({(i, j - 1): v * j
                              for (i, j), v in self._c.items() if j})

    def eval_at(self, h_val: RationalLike, hb_val: RationalLike) -> Fraction:
        h_val = to_rational(h_val)
        hb_val = to_rational(hb_val)
        total = Fraction(0)
        for (i, j), v in self._c.items():
            total += v * h_val**i * hb_val**j
        return total

    # -- text form ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. '3/2*h^2*hb^1 + -1*hb^0'.

        Terms are sorted descending by their (h, hbar) exponents;
        zero-exponent factors are omitted except that the pure constant
        keeps the placeholder 'hb^0'.  The zero polynomial prints as '0'.
        """
        if not self._c:
            return "0"
        parts = []
        for (i, j) in sorted(self._c, reverse=True):
            v = self._c[(i, j)]
            factors = [str(v)]
            if i > 0:
                factors.append(f"h^{i}")
            if j > 0:
                factors.append(f"hb^{j}")
            if i == 0 and j == 0:
                factors.append("hb^0")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"PolyHH({self.to_text()})"


def shifted_expand(p: PolyHH, center: Tuple[RationalLike, RationalLike]) -> PolyHH:
    """Expand p about (h0, hb0): p = sum c_ij (h - h0)^i (hbar - hb0)^j.

    Writing u = h - h0, v = hbar - hb0, the c_ij are the plain coefficients
    of p(u + h0, v + hb0), so the recentred polynomial is returned, and
    shifting it by (-h0, -hb0) gives p back.
    """
    return p.shift_h(center[0]).shift_hbar(center[1])


# -- univariate helpers (coefficient tuples in hbar) -------------------------

def poly1_eval(coeffs: Tuple[Fraction, ...], x: RationalLike) -> Fraction:
    """Evaluate sum_i coeffs[i] * x^i."""
    x = to_rational(x)
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def poly1_to_polyhh(coeffs: Iterable[RationalLike]) -> PolyHH:
    """Univariate polynomial in hbar from its coefficient list (q_0, q_1, ...)."""
    return PolyHH({(0, j): v for j, v in enumerate(coeffs)})


# -- parsing ------------------------------------------------------------------

def parse_terms(text: str) -> List[Tuple[Fraction, List[Tuple[str, int]]]]:
    """Split text into terms [(coeff, [(name, exponent), ...])].

    The one grammar of polynomial and word inputs: a sum of terms, each a
    '*'-product of factors, each factor a rational or a name (a token that
    starts with a letter) with an optional integer exponent '^k'.  A run of
    signs multiplies; one before a term signs it, one right after '*' or '^'
    belongs to that factor, so "2*-h" is one term and "eb^-1" one factor.
    Blanks between tokens are ignored, and blank text has no terms.
    """
    spaced = text
    for op in "+-*^":
        spaced = spaced.replace(op, f" {op} ")
    tokens = spaced.split() + [""]  # "" marks the end
    terms = []
    pos = 0
    while tokens[pos]:
        coeff, factors, star = Fraction(1), [], False
        while True:
            sign, pos = _signs(tokens, pos)
            coeff *= sign
            tok = tokens[pos]
            if tok in ("", "*", "^"):
                raise ValueError(f"empty factor in {text!r}" if tok or star
                                 else f"sign with no term after it in {text!r}")
            pos += 1
            if tok[0].isalpha():
                k = 1
                if tokens[pos] == "^":
                    k, pos = _signs(tokens, pos + 1)
                    if tokens[pos] in ("", "*", "^"):
                        raise ValueError(f"exponent missing in {text!r}")
                    k, pos = k * int(tokens[pos]), pos + 1
                factors.append((tok, k))
            else:
                try:
                    coeff *= Fraction(tok)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {tok!r}") from None
            if tokens[pos] != "*":
                break
            pos, star = pos + 1, True
        if tokens[pos] not in ("", "+", "-"):
            raise ValueError(f"unexpected {tokens[pos]!r} in {text!r}")
        terms.append((coeff, factors))
    return terms


def _signs(tokens: List[str], pos: int) -> Tuple[int, int]:
    """The product of the run of signs at tokens[pos], and the end of the run."""
    end = pos
    while tokens[end] in ("+", "-"):
        end += 1
    return (-1) ** tokens[pos:end].count("-"), end


def parse_poly(text: str) -> PolyHH:
    """Read a polynomial in h and hb, written in the grammar of parse_terms,
    with exponents >= 0; '0' and blank text are zero."""
    total = PolyHH.zero()
    for coeff, factors in parse_terms(text):
        e = {"h": 0, "hb": 0}
        for name, k in factors:
            if name not in e:
                raise ValueError(f"unknown variable {name!r}")
            if k < 0:
                raise ValueError(f"negative exponent in {name}^{k}")
            e[name] += k
        total = total + PolyHH.term(e["h"], e["hb"], coeff)
    return total


def random_rational(rng, nonzero: bool = False) -> Fraction:
    """Random rational with num in -9..9, den in 1..9 (optionally nonzero)."""
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if v or not nonzero:
            return v
