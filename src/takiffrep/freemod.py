"""The rank-one Cartan-free module families Gamma, Theta and Omega.

Each family realizes the Takiff algebra of sl2 on C[h, hbar], with h and
hbar acting by multiplication and the remaining four generators acting by
first-order difference-differential operators.  Every generator x is
stored once, as a table of terms (c, m) with c a polynomial:

    x . g = sum over (c, m) of  c * dbar^m (g(h + SHIFT[x], hbar)),  m <= 1

with SHIFT = -2 for e and eb, +2 for f and fb, 0 for h and hbar (gamma
denotes the module element, a polynomial; substitutions are exact).  There
is one polynomial type, ``PolyHH``, and one action kernel, the sum above:
``act`` runs it on the rational table, ``submodule_saturate`` on the
table's integer multiple, where every coefficient stays an exact int, and
``weightmod.delta_action`` on the sl2 layer modules Delta of ``delta_ops``.

Gamma(lambda, a, b), lambda != 0:

    e . g  = -2*lambda * dbar(g(h-2, hbar))
    eb . g =  lambda * g(h-2, hbar)
    fb . g = -(1/(4 lambda)) (hbar^2 + a) g(h+2, hbar)
    f . g  = -(1/(2 lambda)) ((h+2) hbar + b) g(h+2, hbar)
             - (1/(2 lambda)) (hbar^2 + a) dbar(g(h+2, hbar))

Theta(lambda, a, b) is Gamma(lambda, a, b) transported by the Chevalley
involution omega (e <-> f, eb <-> fb, h -> -h, hbar -> -hbar) and the
reflection sigma(g)(h, hbar) = g(-h, -hbar):
x . g = sigma(omega(x) . sigma(g)) computed in Gamma (``chevalley``).

Omega(lambda, b, beta1) carries two polynomial parameters alpha1, beta1 in
hbar linked by an upper-triangular system (``alpha_from_beta``); with that
link the compatibility residual (``e34_residual``) vanishes identically and

    e . g  = ((lambda/2) h + alpha1(hbar)) g(h-2, hbar)
             - lambda (hbar + b) dbar(g(h-2, hbar))
    f . g  = -((1/(2 lambda)) h - beta1(hbar)) g(h+2, hbar)
             - (1/lambda) (hbar - b) dbar(g(h+2, hbar))
    eb . g =  (lambda/2) (hbar + b) g(h-2, hbar)
    fb . g = -(1/(2 lambda)) (hbar - b) g(h+2, hbar)

The 15 bracket axioms are proved on the dual side.  ``adjoint_table``
dualizes an operator table onto the functionals

    eta_{k,s}(q) = dbar^(s-1) q at (alpha + 2k, beta),   k in Z, s >= 1,

as (d, tables), one table per generator in ints over one denominator d.
These functionals separate C[h, hbar] (at alpha = beta = 0, if dbar^j
q(h, 0) is zero at every even integer h for every j, then q = 0), so an
identity holds for the operators exactly when it holds on every
eta_{k,s}.
``ks_residuals``, the one prover of such identities, proves for every
(k, s) the brackets of ``verify_axioms`` and of the dual weight families
of ``weightmod``, and the twist and rescaling maps of ``functors``.  It
runs a plan that ``ks_plan`` makes once per identity list: the brackets'
``_BRACKET_PLAN`` at import, the twist's and the rescaling's per call.

An operator on the eta basis has one form, the ``BinomialTable``
{(dk, ds, t, j): a}: it sends eta_{k,s} to the sum of a k^j C(s-1, t)
eta_{k+dk, s+ds}.  ``adjoint_table`` writes every generator in it,
``ks_residuals`` composes tables in it and returns its residuals in it,
and ``weightmod.apply_adjoint`` applies it.  The C(s-1, t) are a basis of
Q[s], in which a composition multiplies C(s-1, t) by C(s-1+ds, rho), and
one cached integer rule writes that back in the basis (Vandermonde, then
the product of two binomials).  As they are a basis, a table vanishes
exactly when each of its coefficients, polynomials in k, does.  C(s-1, t)
= 0 at s = 1..t, where the term is absent, so each coefficient is true at
every s >= 1.  ``ks_residuals`` returns D times each residual, D its
scale.

A bracket is composed in one pass.  For a term of y, key (dk, ds, t, j),
and a term of x, key (ek, es, rho, i), x o y and y o x both land at (dk +
ek, ds + es), with the one product of the two coefficients, and differ
only in the integers they carry: x's term after y's multiplies C(s-1, t)
by C(s-1+ds, rho) and k^j by (k + dk)^i, and y's after x's multiplies
C(s-1, rho) by C(s-1+es, t) and k^i by (k + ek)^j.  ``_commutator``
subtracts the two integer expansions once per pair of keys and caches the
difference, so a pair adds its part of c [x, y] and never forms what the
two orders share: when ds = es = 0 the top parts k^(i+j) C(s-1, t)
C(s-1, rho) drop out of the rule, and a pair whose rule is empty is
skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, lcm, perm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import GENERATORS, AlgebraElement, bracket, parse_word_expr
from .linalg import RowBasis, add_into, vec_primitive
from .poly import (PolyHH, RationalLike, poly1_to_polyhh, random_rational,
                   to_rational)

GENERATOR_PAIRS: Tuple[Tuple[str, str], ...] = tuple(
    (GENERATORS[i], GENERATORS[j])
    for i in range(len(GENERATORS))
    for j in range(i + 1, len(GENERATORS))
)

# h-shift of each generator's operator: x . g only sees g(h + SHIFT[x], hbar)
SHIFT: Dict[str, int] = {"e": -2, "eb": -2, "f": 2, "fb": 2, "h": 0, "hb": 0}

# Chevalley involution: omega(x) = sign * image, e <-> f, eb <-> fb,
# h -> -h, hbar -> -hbar
CHEVALLEY: Dict[str, Tuple[str, int]] = {
    "e": ("f", 1), "f": ("e", 1), "eb": ("fb", 1), "fb": ("eb", 1),
    "h": ("h", -1), "hb": ("hb", -1)}

# one generator's operator: terms (c, m) meaning c * dbar^m, c a PolyHH;
# m is 0 or 1, every action being first order in dbar
OpTable = Dict[str, Tuple[Tuple[PolyHH, int], ...]]
# h and hbar act by multiplication in every family
_CARTAN: OpTable = {"h": ((PolyHH.h(), 0),), "hb": ((PolyHH.hbar(), 0),)}


@dataclass(frozen=True)
class FreeModuleSpec:
    """Parameters of one of the three free families.

    ``family`` is 'gamma', 'theta' or 'omega'.  Gamma/Theta carry (lam, a,
    b); Omega carries (lam, b, beta1) plus the derived alpha1 (kept
    explicit so deliberately inconsistent pairs can be probed).
    """

    family: str
    lam: Fraction
    b: Fraction
    a: Optional[Fraction] = None
    beta1: Optional[Tuple[Fraction, ...]] = None
    alpha1: Optional[Tuple[Fraction, ...]] = None

    def params(self) -> dict:
        out = {"family": self.family, "lambda": self.lam, "b": self.b}
        for key in (("beta1", "alpha1") if self.family == "omega" else ("a",)):
            out[key] = getattr(self, key)
        return out

    @cached_property
    def ops(self) -> OpTable:
        """The operator table of every generator, shared by equal specs, so
        never mutated in place."""
        return _ops_of(self)


def make_gamma(lam: RationalLike, a: RationalLike, b: RationalLike) -> FreeModuleSpec:
    lam = to_rational(lam)
    if not lam:
        raise ValueError("lambda must be nonzero")
    return FreeModuleSpec("gamma", lam, to_rational(b), a=to_rational(a))


def make_theta_mod(lam: RationalLike, a: RationalLike, b: RationalLike) -> FreeModuleSpec:
    return replace(make_gamma(lam, a, b), family="theta")


def alpha_from_beta(beta1: Sequence[RationalLike], lam: RationalLike,
                    b: RationalLike) -> Tuple[Fraction, ...]:
    """Solve the triangular linkage p = lambda^2 * A * q.

    A is upper unitriangular with A[i][j] = 2 b^(j-i) for j > i, so

        p_i = lambda^2 * (q_i + sum_{j>i} 2 b^(j-i) q_j).

    Returns the coefficient tuple of alpha1 given beta1 = (q_0, ..., q_m).
    """
    lam = to_rational(lam)
    b = to_rational(b)
    q = [to_rational(x) for x in beta1]
    m = len(q)
    p = []
    for i in range(m):
        s = q[i]
        for j in range(i + 1, m):
            s += 2 * b ** (j - i) * q[j]
        p.append(lam * lam * s)
    return tuple(p)


def e34_residual(lam: RationalLike, b: RationalLike,
                 beta1: Sequence[RationalLike],
                 alpha1: Sequence[RationalLike]) -> PolyHH:
    """Compatibility residual of an (alpha1, beta1) pair for Omega.

    (1/lam) alpha1 - lam beta1 - lam (hbar+b) beta1' + (1/lam) (hbar-b) alpha1'

    Vanishes identically exactly when [e,f] = h holds on the module.
    """
    lam = to_rational(lam)
    b = to_rational(b)
    a1 = poly1_to_polyhh(alpha1)
    b1 = poly1_to_polyhh(beta1)
    hbar = PolyHH.hbar()
    bb = PolyHH.const(b)
    return (a1.scale(Fraction(1) / lam)
            - b1.scale(lam)
            - (hbar + bb) * b1.dbar() * PolyHH.const(lam)
            + (hbar - bb) * a1.dbar() * PolyHH.const(Fraction(1) / lam))


def make_omega(lam: RationalLike, b: RationalLike,
               beta1: Sequence[RationalLike],
               alpha1: Optional[Sequence[RationalLike]] = None) -> FreeModuleSpec:
    """Omega spec with alpha1 derived from beta1 unless overridden.

    Passing alpha1 explicitly skips the linkage (useful for probing how
    the axiom checker reacts to an inconsistent pair).
    """
    lam = to_rational(lam)
    if not lam:
        raise ValueError("lambda must be nonzero")
    b = to_rational(b)
    q = tuple(to_rational(x) for x in beta1)
    p = (alpha_from_beta(q, lam, b) if alpha1 is None
         else tuple(to_rational(x) for x in alpha1))
    return FreeModuleSpec("omega", lam, b, beta1=q, alpha1=p)


# -- actions -------------------------------------------------------------------

def _reflect(c: PolyHH, sign: int) -> PolyHH:
    """sign * sigma(c), sigma(c)(h, hbar) = c(-h, -hbar), written as one
    dict in c's term order: the term h^i hbar^j is multiplied by sign
    (-1)^(i+j), and its value is not coerced."""
    flip = 0 if sign > 0 else 1
    return PolyHH._adopt({(i, j): -v if (i + j + flip) % 2 else v
                          for (i, j), v in c.terms()})


def _gamma_ops(spec: FreeModuleSpec) -> OpTable:
    lam, a, b = spec.lam, spec.a, spec.b
    quad = PolyHH({(0, 2): 1, (0, 0): a})  # hbar^2 + a
    lead = PolyHH({(1, 1): 1, (0, 1): 2, (0, 0): b})  # (h + 2) hbar + b
    return {**_CARTAN,
            "e": ((PolyHH.const(-2 * lam), 1),),
            "eb": ((PolyHH.const(lam), 0),),
            "fb": ((quad.scale(Fraction(-1, 4) / lam), 0),),
            "f": ((lead.scale(Fraction(-1, 2) / lam), 0),
                  (quad.scale(Fraction(-1, 2) / lam), 1))}


def chevalley(ops: OpTable) -> OpTable:
    """``ops`` transported by the Chevalley involution omega and sigma:
    x . g = sigma(omega(x) . sigma(g)) computed with ``ops``.

    sigma conjugates c to sigma(c) and dbar to -dbar, hence (-1)^m, so a
    term (c, m) of omega(x) becomes (sign (-1)^m sigma(c), m), each
    coefficient written by ``_reflect`` as one dict with sign (-1)^(i+j+m)
    folded in: no temporary polynomial, and no value coerced.  A
    generator whose image ``ops`` lacks is left out.
    """
    return {x: tuple((_reflect(c, sign * (-1) ** m), m) for c, m in ops[y])
            for x, (y, sign) in CHEVALLEY.items() if y in ops}


def _omega_ops(spec: FreeModuleSpec) -> OpTable:
    lam, b = spec.lam, spec.b
    hbar = PolyHH.hbar()
    a1 = poly1_to_polyhh(spec.alpha1)
    b1 = poly1_to_polyhh(spec.beta1)
    plus_b = hbar + PolyHH.const(b)
    minus_b = hbar - PolyHH.const(b)
    return {**_CARTAN,
            "e": ((PolyHH.h().scale(lam / 2) + a1, 0),
                  (plus_b.scale(-lam), 1)),
            "f": ((b1 - PolyHH.h().scale(Fraction(1, 2) / lam), 0),
                  (minus_b.scale(Fraction(-1) / lam), 1)),
            "eb": ((plus_b.scale(lam / 2), 0),),
            "fb": ((minus_b.scale(Fraction(-1, 2) / lam), 0),)}


_OP_TABLES = {"gamma": _gamma_ops, "omega": _omega_ops,
              "theta": lambda spec: chevalley(_gamma_ops(spec))}


@lru_cache(maxsize=32)
def _ops_of(spec: FreeModuleSpec) -> OpTable:
    return _OP_TABLES[spec.family](spec)


def _apply_terms(terms, q: PolyHH) -> PolyHH:
    """sum of c * dbar^m q over one generator's terms (c, m), where q is
    already g(h + SHIFT[x], hbar); the one kernel of every action."""
    c: Dict[Tuple[int, int], RationalLike] = {}
    for coeff, m in terms:
        coeff._mul_into(q.dbar() if m else q, c)
    return PolyHH._adopt(c)


def act(spec: FreeModuleSpec, x: str, p: PolyHH) -> PolyHH:
    """Apply a generator to a polynomial in the given free module."""
    try:
        terms = spec.ops[x]
    except KeyError:
        raise ValueError(f"unknown generator {x!r} for family "
                         f"{spec.family!r}") from None
    return _apply_terms(terms, p.shift_h(SHIFT[x]))


def act_word(spec: FreeModuleSpec, elem, p: PolyHH) -> PolyHH:
    """Apply a word or AlgebraElement; the rightmost letter acts first.

    Strings that are not bare generator names are parsed as expressions,
    so ``act_word(spec, "e*f - f*e", p)`` works.
    """
    if isinstance(elem, str):
        elem = (elem,) if elem in GENERATORS else parse_word_expr(elem)
    if isinstance(elem, AlgebraElement):
        total = PolyHH.zero()
        for mono, coeff in elem.terms():
            if mono.n < 0:
                raise ValueError("free modules do not carry the eb-localization")
            total = total + act_word(spec, mono.to_word(), p).scale(coeff)
        return total
    for letter in reversed(tuple(elem)):
        p = act(spec, letter, p)
    return p


# -- the bracket axioms, proved on the dual basis -------------------------------

# an operator on the basis as (dk, ds, t, j) -> a: eta_{k,s} goes to the
# sum of a k^j C(s-1, t) eta_{k+dk, s+ds}, the C(s-1, t) being a basis of
# Q[s]; no value is zero
BinomialTable = Dict[Tuple[int, int, int, int], RationalLike]
# every generator's table as ints over one denominator d: (d, tables)
AdjointTable = Tuple[int, Dict[str, BinomialTable]]


def adjoint_table(ops: OpTable, alpha: Fraction, beta: Fraction) -> AdjointTable:
    """Dualize an operator table onto the functionals eta_{k,s} by Leibniz.

    eta_{k,s}(p) is dbar^(s-1) p at (alpha_k, beta), alpha_k = alpha + 2k,
    and x.eta = -eta o x, so a term c * dbar^m g(h + d, hbar) gives

        x.eta_{k,s} = -sum_r C(s-1, r) (dbar^r c)(alpha_k, beta)
                                          eta_{k+d/2, s-r+m}.

    Every coefficient is linear in h, c = sum_j (u_j + v_j h) hbar^j, so
    (dbar^r c)(alpha + 2k, beta) is read off its terms:
    sum_{j>=r} j!/(j-r)! beta^(j-r) (u_j + v_j alpha_k).  It is stored with
    the sign as c0 + c1*k, summed over the terms that share (m, r), in x's
    ``BinomialTable``: c0 at (d/2, m - r, r, 0) and c1 at (d/2, m - r, r,
    1), a zero dropped.  That key is one per (m, r), so each is written
    once.  A coefficient of higher degree in h raises ValueError.

    The sums run on ints: every coefficient is put over one denominator
    E, and beta = p/q is cleared by q^J, J the largest hbar-degree, so
    each monomial n hbar^j (times h^i) adds the integer
    n j!/(j-r)! p^(j-r) q^(J-j+r) to U (i = 0) or V (i = 1) at (m, r).
    One pass reads each monomial's numerator and denominator, checks its
    h-degree and takes E and J.  At beta = 0 only r = j adds, n j! (q =
    1), as p^(j-r) = 0 below it; the pairs (m, r < j) are still made, so the
    keys come in the order of every other beta: by (m, r) as each first
    appears, x's terms and their monomials in order, r rising.
    Then c0 = -(U alpha_den + alpha_num V) and c1 = -2V alpha_den are the
    entries over D = E q^J alpha_den, and the table is returned over
    d = D / g, each entry divided by g = gcd(D, every entry), folded
    entry by entry and stopped at 1: d is the least common denominator,
    and no Fraction is formed.
    """
    p, q = beta.numerator, beta.denominator
    alpha_num, alpha_den = alpha.numerator, alpha.denominator
    monomials: Dict[str, List[Tuple[int, int, int, int, int]]] = {}
    denom = 1
    top = 0
    for x, terms in ops.items():
        read = monomials[x] = []
        for c, m in terms:
            for (i, j), e in c.terms():
                if i > 1:
                    raise ValueError(f"operator coefficient of {x} has degree "
                                     f"{i} in h; the adjoint table reads "
                                     "coefficients linear in h")
                num, den = e.numerator, e.denominator
                if denom % den:
                    denom = lcm(denom, den)
                if j > top:
                    top = j
                read.append((m, i, j, num, den))
    p_pow = [p ** t for t in range(top + 1)]
    q_pow = [q ** t for t in range(top + 1)]
    tables: Dict[str, BinomialTable] = {}
    for x, terms in monomials.items():
        sums: Dict[Tuple[int, int], List[int]] = {}
        for m, i, j, num, den in terms:
            w = num * (denom // den)
            if p:
                # n j!/(j-r)!, built up one factor per r
                for r in range(j + 1):
                    sums.setdefault((m, r), [0, 0])[i] += \
                        w * p_pow[j - r] * q_pow[top - j + r]
                    w *= j - r
            else:
                # beta = 0: only r = j adds; the pairs r < j are still made
                # so that the keys keep the order of every other beta
                for r in range(j):
                    sums.setdefault((m, r), [0, 0])
                sums.setdefault((m, j), [0, 0])[i] += w * factorial(j)
        dk = SHIFT[x] // 2
        table = tables[x] = {}
        for (m, r), (u, v) in sums.items():
            c0 = u * alpha_den + alpha_num * v
            if c0:
                table[dk, m - r, r, 0] = -c0
            if v:
                table[dk, m - r, r, 1] = -2 * v * alpha_den
    denom *= q_pow[top] * alpha_den
    g = denom
    for table in tables.values():
        for a in table.values():
            g = gcd(g, a)
            if g == 1:
                return denom, tables
    return denom // g, {x: {key: a // g for key, a in table.items()}
                        for x, table in tables.items()}


def _binomial(n: int, i: int) -> int:
    """C(n, i) = n (n-1) ... (n-i+1) / i! for every int n, negative too."""
    return comb(n, i) if n >= 0 else (-1) ** i * comb(i - n - 1, i)


@lru_cache(maxsize=1 << 12)
def _binomial_product(t: int, rho: int, ds: int) -> Tuple[Tuple[int, int], ...]:
    """C(x, t) C(x + ds, rho) in the basis C(x, u): its pairs (u, n), n != 0.

    By Vandermonde C(x + ds, rho) = sum_i C(ds, i) C(x, rho - i), and
    C(x, a) C(x, b) = sum_j (a+b-j)! / (j! (a-j)! (b-j)!) C(x, a+b-j), that
    coefficient being C(a+b-j, a) C(a, j).  Every n is an int.
    """
    out: Dict[int, int] = {}
    for i in range(rho + 1):
        a, b = t, rho - i
        add_into(out, _binomial(ds, i),
                 ((a + b - j, comb(a + b - j, a) * comb(a, j))
                  for j in range(min(a, b) + 1)))
    return tuple(out.items())


@lru_cache(maxsize=1 << 12)
def _after(left: Tuple[int, int, int, int],
           right: Tuple[int, int, int, int]) -> Tuple[tuple, ...]:
    """The term of key ``left`` after the term of key ``right``, as pairs
    (key, n), n a nonzero int: a left term b after a right term a adds
    a b n at each key, the one composition law of the (k, s) tables.

    ``right`` = (dk, ds, t, j) sends eta_{k,s} to a k^j C(x, t) eta_{k+dk,
    s+ds}, x = s - 1, and ``left`` = (ek, es, rho, i), i at most 1 as in
    every generator's table, sends that on with b (k + dk)^i C(x + ds,
    rho): b (k + dk) adds k^(j+1) and dk k^j, and ``_binomial_product``
    writes C(x, t) C(x + ds, rho) back in the basis, at (dk + ek, ds + es).
    """
    (ek, es, rho, i), (dk, ds, t, j) = left, right
    shift = ((j + 1, 1), (j, dk)) if i and dk else ((j + i, 1),)
    out: Dict[Tuple[int, int, int, int], int] = {}
    for jj, m in shift:
        add_into(out, m, (((dk + ek, ds + es, u, jj), n)
                          for u, n in _binomial_product(t, rho, ds)))
    return tuple(out.items())


# a generator's key (dk, ds, t, j) has dk in {-1, 0, 1}, j and m = ds + t
# in {0, 1} and t <= R, 12 (R + 1) keys, so this holds every pair up to
# R = 4, that of omega with beta1 of degree 4
@lru_cache(maxsize=1 << 12)
def _commutator(x: Tuple[int, int, int, int],
                y: Tuple[int, int, int, int]) -> Tuple[tuple, ...]:
    """The term of key x after the term of key y, minus y after x: the
    pairs (key, n) of ``_after(x, y)`` less those of ``_after(y, x)``,
    what is shared dropped.  Both land at (dk + ek, ds + es) and share
    the top power of k, so when ds = es = 0 their top parts cancel."""
    return tuple(add_into(dict(_after(x, y)), -1, _after(y, x)).items())


def _compose_into(out: BinomialTable, left: BinomialTable,
                  right: BinomialTable, rule=_after,
                  w: RationalLike = 1) -> None:
    """Add w left o right to ``out``, ``left`` linear in k as every
    generator's table is: each pair of a left and a right term forms its
    product once, the right term taken times w, and adds it times
    ``rule`` of their keys.  With ``rule`` ``_commutator`` and ``right`` a
    generator's table too, it adds w (left o right - right o left), and a
    pair whose rule is empty is skipped, so what the two orders share is
    never formed."""
    for key, a in right.items():
        if w != 1:
            a = w * a
        for x, b in left.items():
            pairs = rule(x, key)
            if pairs:
                c = a * b
                # add_into's loop written out, as in PolyHH._mul_into
                for e, n in pairs:
                    y = out.get(e, 0) + c * n
                    if y:
                        out[e] = y
                    else:
                        out.pop(e, None)


def _word_into(out: BinomialTable, tables: Dict[str, BinomialTable],
               word: Tuple[str, ...], w: RationalLike) -> None:
    """Add w times the table of ``word`` to ``out``, the rightmost letter
    acting first; the empty word is the identity."""
    if len(word) < 2:
        add_into(out, w, tables[word[0]].items() if word
                 else (((0, 0, 0, 0), 1),))
        return
    table = {key: w * a for key, a in tables[word[-1]].items()}
    for letter in reversed(word[1:-1]):
        part: BinomialTable = {}
        _compose_into(part, tables[letter], table)
        table = part
    _compose_into(out, tables[word[0]], table)


# what ``ks_residuals`` runs for one identity list: the longest word on
# each adjoint, and per identity its steps (i, c, word, paired), a paired
# step being the commutator pass c [x, y] of the terms (i, c, (x, y)) and
# (i, -c, (y, x))
KsPlan = Tuple[Tuple[int, ...], Tuple[Tuple[Tuple[int, RationalLike,
                                                   Tuple[str, ...], bool],
                                             ...], ...]]


def ks_plan(identities: Sequence[Sequence[tuple]], n_adjoints: int) -> KsPlan:
    """The plan of ``identities`` on ``n_adjoints`` adjoints, computed once
    per list: L_i, the longest word on adjoint i, and each identity's
    steps in the order ``ks_residuals`` adds them.

    A term (i, c, word) is c times ``word`` (rightmost letter first; the
    empty word is the identity) on adjoint i.  The terms are taken from
    the last, and two terms (i, c, (x, y)) and (i, -c, (y, x)) of one
    identity, x != y, become one paired step (i, c, (x, y), True), the
    commutator pass; every other term is a step (i, c, word, False).
    """
    longest = tuple(max((len(word) for identity in identities
                         for j, _, word in identity if j == i), default=0)
                    for i in range(n_adjoints))
    plan = []
    for identity in identities:
        steps = []
        terms = list(identity)
        while terms:
            i, c, word = terms.pop()
            mate = (i, -c, word[::-1])
            paired = len(word) == 2 and word[0] != word[1] and mate in terms
            if paired:
                terms.remove(mate)
            steps.append((i, c, tuple(word), paired))
        plan.append(tuple(steps))
    return longest, tuple(plan)


def ks_residuals(adjoints: Sequence[AdjointTable],
                 plan: KsPlan) -> List[BinomialTable]:
    """D times the (k, s) table of each identity of ``plan`` (see
    ``ks_plan``), zero entries dropped.

    The tables of ``adjoints[i]`` are read as they are.  Every table is a
    ``BinomialTable``: a key (dk, ds, t, j) -> a of adjoint i is a/d_i k^j
    C(s-1, t) eta_{k+dk, s+ds}, and composing multiplies two such
    binomials, which ``_binomial_product`` writes back in the basis.
    C(s-1, t) vanishes at s = 1..t, where the term is absent, so every
    coefficient is true on the Zariski-dense Z x Z_{>=1}: as the C(s-1, t)
    are a basis, a table is empty exactly when its identity holds on
    every eta_{k,s}, and nonzero at (k, s) exactly when it fails there.
    Adjoint i is read at its scale d_i, so a word of n letters is
    weighted by c D / d_i^n, D the product of the d_i^(L_i), L_i the
    plan's longest word on adjoint i, and integer adjoints and weights
    give integer tables.

    A paired step (i, c, (x, y)) is composed as c [x, y]: each pair of a
    term of x and a term of y forms its product once and adds it times
    ``_commutator``, x's term after y's less y's term after x's.
    Composition is bilinear, so the table is the same, entry for entry;
    what x o y and y o x share is subtracted in the rule, once per pair
    of keys, and never formed.  y's table is not copied: each of its
    terms is taken times the weight as the pass reads it.
    """
    longest, steps = plan
    tables = [adjoint[1] for adjoint in adjoints]
    total = prod(d ** n for (d, _), n in zip(adjoints, longest))
    out = []
    for identity in steps:
        sums: BinomialTable = {}
        for i, c, word, paired in identity:
            w = c * (total // adjoints[i][0] ** len(word))
            w = w.numerator if w.denominator == 1 else w
            if paired:
                x, y = word
                _compose_into(sums, tables[i][x], tables[i][y], _commutator,
                              w)
            else:
                _word_into(sums, tables[i], word, w)
        out.append(sums)
    return out


# x o y - y o x - [x,y] for each pair of GENERATOR_PAIRS
_BRACKET_IDENTITIES = tuple(
    [(0, 1, (x, y)), (0, -1, (y, x))]
    + [(0, -c, mono.to_word()) for mono, c in bracket(x, y).terms()]
    for x, y in GENERATOR_PAIRS)
_BRACKET_PLAN = ks_plan(_BRACKET_IDENTITIES, 1)


def prove_brackets(adjoint: AdjointTable) -> List[dict]:
    """Prove or refute [x,y].v == x.(y.v) - y.(x.v) for every eta_{k,s}:
    one {"x", "y", "pass"} per pair of ``GENERATOR_PAIRS``."""
    residuals = ks_residuals([adjoint], _BRACKET_PLAN)
    return [{"x": x, "y": y, "pass": not residual}
            for (x, y), residual in zip(GENERATOR_PAIRS, residuals)]


def verify_axioms(spec: FreeModuleSpec, trials: int = 20, seed: int = 0) -> dict:
    """Prove or refute [x,y].g == x.(y.g) - y.(x.g) for all polynomials g.

    ``prove_brackets`` decides each pair on the functionals eta_{k,s} at
    alpha = beta = 0, which separate C[h, hbar], as x.(y.eta) = eta o (y o
    x); at beta = 0 these adjoint tables are the smallest.  ``trials`` and
    ``seed`` are echoed in the report only; nothing is sampled.
    """
    pairs = prove_brackets(adjoint_table(spec.ops, Fraction(0), Fraction(0)))
    return {"family": spec.family, "params": spec.params(), "pairs": pairs,
            "seed": seed, "trials": trials,
            "ok": all(p["pass"] for p in pairs)}


# -- submodule saturation --------------------------------------------------------

@dataclass
class SaturationResult:
    """Outcome of closing a cyclic submodule under the action, degree-capped.

    ``basis`` is an exact row-reduced basis of the span found inside the
    bidegree cap; ``contains_one`` is a positive certificate only (True
    means 1 genuinely lies in the submodule); ``saturated`` is True when
    the closure ran to a fixed point without discarding any out-of-cap
    product, so the basis really spans the intersection visited.
    """

    basis: List[PolyHH]
    contains_one: bool
    saturated: bool


def _int_ops(spec: FreeModuleSpec) -> OpTable:
    """``spec.ops`` with each generator's table multiplied by the lcm of
    its denominators, so every coefficient is an int."""
    out = {}
    for x, terms in spec.ops.items():
        d = lcm(*(v.denominator for c, _ in terms for _, v in c.terms()))
        out[x] = tuple((PolyHH._adopt({e: int(v * d) for e, v in c.terms()}), m)
                       for c, m in terms)
    return out


def submodule_saturate(spec: FreeModuleSpec, seed_poly: PolyHH,
                       cap: Tuple[int, int] = (8, 8)) -> SaturationResult:
    """Close the cyclic submodule generated by ``seed_poly`` inside a
    bidegree cap.

    Depth first from the seed: every popped polynomial p contributes x . p
    for each generator x; a product inside the cap that is independent of
    the span so far joins the basis and the frontier.  The closure stops
    at a fixed point or as soon as 1 lies in the span.  Products are taken
    up to nonzero scalars: the action kernel of ``act`` runs on the integer
    multiple of each operator table and on primitive integer polynomials,
    with p(h + d, hbar) formed once per shift d, so every coefficient stays
    an exact int.  The span lives in a fraction-free ``RowBasis``; the
    returned basis is its reduced row-echelon form over Q.
    """
    if min(cap) < 0:
        raise ValueError(f"bidegree cap {tuple(cap)} has a negative entry")
    if seed_poly.is_zero():
        return SaturationResult([], False, True)
    cap_h, cap_hb = cap
    if not seed_poly.within_bidegree(cap_h, cap_hb):
        raise ValueError("seed polynomial exceeds the bidegree cap")
    ops = _int_ops(spec)
    basis = RowBasis()
    seed = PolyHH._adopt(vec_primitive(seed_poly._c))
    basis.add(seed._c)
    frontier: List[PolyHH] = [seed]
    discarded = False
    one = {(0, 0): 1}
    while frontier and not basis.contains(one):
        p = frontier.pop()
        shifted = {d: p.shift_h(d) for d in set(SHIFT.values())}
        for x in GENERATORS:
            q = _apply_terms(ops[x], shifted[SHIFT[x]])
            if q.is_zero():
                continue
            if not q.within_bidegree(cap_h, cap_hb):
                discarded = True
                continue
            q = PolyHH._adopt(vec_primitive(q._c))
            if basis.add(q._c):
                frontier.append(q)
    contains_one = basis.contains(one)
    completed = not frontier
    rows = [PolyHH(row) for row in basis.rows()]
    return SaturationResult(rows, contains_one,
                            saturated=completed and not discarded)


@dataclass
class FreeSimplicityResult:
    simple: bool
    reason: str


def simplicity_criterion_free(spec: FreeModuleSpec) -> FreeSimplicityResult:
    """Closed-form simplicity verdicts for the free families.

    Gamma and Theta are simple for every parameter choice; Omega is simple
    exactly when b != 0 (at b = 0 the ideal hbar*Omega is proper and
    invariant).
    """
    if spec.family in ("gamma", "theta"):
        return FreeSimplicityResult(True, f"{spec.family} modules are simple "
                                          "for all parameters")
    if spec.b:
        return FreeSimplicityResult(True, "omega with b != 0 is simple")
    return FreeSimplicityResult(False, "omega with b = 0 preserves the ideal "
                                       "hbar*C[h,hbar]")


# -- the b = 0 layer structure of Omega ------------------------------------------

def _check_layer(spec: FreeModuleSpec, i: int) -> None:
    if spec.family != "omega":
        raise ValueError("layers are an omega construction")
    if spec.b:
        raise ValueError("hbar-adic layers require b = 0")
    if i < 0:
        raise ValueError("layer index must be nonnegative")


def omega_layer_ops(spec: FreeModuleSpec, i: int) -> OpTable:
    """The operator table of the layer hbar^i C[h] / hbar^(i+1) C[h] at b = 0.

    A term (c, m) of x sends hbar^i g to i!/(i-m)! c hbar^(i-m) g(h + SHIFT[x]).
    At b = 0 no coefficient has a term below hbar^m, so the layer keeps the
    hbar^m coefficient of c: one m = 0 term per generator, in h alone.
    Raises unless b = 0, where the hbar-adic filtration is stable.
    """
    _check_layer(spec, i)
    def term(c, m):
        return PolyHH({(dh, 0): v * perm(i, m)
                       for (dh, dhb), v in c.terms() if dhb == m})
    return {x: ((sum((term(c, m) for c, m in terms), PolyHH()), 0),)
            for x, terms in spec.ops.items()}


def omega_layer_action(spec: FreeModuleSpec, i: int, x: str, g: PolyHH) -> PolyHH:
    """Action induced on layer i at b = 0: ``omega_layer_ops`` applied to
    ``g``, which must be a polynomial in h alone, as the result is."""
    if g.deg_hbar() > 0:
        raise ValueError("layer representatives are polynomials in h alone")
    if x not in SHIFT:
        raise ValueError(f"unknown generator {x!r}")
    return _apply_terms(omega_layer_ops(spec, i)[x], g.shift_h(SHIFT[x]))


def omega_quotient_delta_params(spec: FreeModuleSpec, i: int) -> Tuple[Fraction, Fraction]:
    """Parameters (lam', a') of the sl2 layer module at b = 0.

    Layer i of Omega(lam, 0, beta1) is the polynomial sl2 module
    Delta_1(-1/lam, -lam*q0 + i) where q0 is the constant coefficient of
    beta1.
    """
    _check_layer(spec, i)
    q0 = spec.beta1[0] if spec.beta1 else Fraction(0)
    return (Fraction(-1) / spec.lam, -spec.lam * q0 + i)


def delta_ops(variant: int, lam: Fraction, a: Fraction) -> OpTable:
    """The table of the sl2 layer module Delta_variant(lam, a) on C[h]: h
    acts by multiplication, and e and f on g(h + SHIFT[x]) by

        variant 1:  e by -(1/lam)(h/2 - a),  f by lam (h/2 + a)
        variant 2:  e by lam,                f by -(1/lam)(h/2 - a)(h/2 + a + 1)

    Variant 3 is variant 2 transported by ``chevalley``.
    """
    minus_a = PolyHH({(1, 0): Fraction(1, 2), (0, 0): -a})  # h/2 - a
    plus_a = PolyHH({(1, 0): Fraction(1, 2), (0, 0): a})  # h/2 + a
    if variant == 1:
        e, f = minus_a.scale(Fraction(-1) / lam), plus_a.scale(lam)
    else:
        e = PolyHH.const(lam)
        f = (minus_a * (plus_a + PolyHH.const(1))).scale(Fraction(-1) / lam)
    ops: OpTable = {"h": _CARTAN["h"], "e": ((e, 0),), "f": ((f, 0),)}
    return chevalley(ops) if variant == 3 else ops


def iso_invariants_free(spec: FreeModuleSpec) -> tuple:
    """Isomorphism key of a free-family module: the family and the
    canonical terms of ``spec.ops``.

    Specs with equal keys define the same module, so Omega specs whose
    beta1 differ only by trailing zeros share a key.
    """
    return (spec.family,) + tuple(
        (x, tuple((m, tuple(c.terms())) for c, m in spec.ops[x]))
        for x in sorted(spec.ops))


def random_free_spec(rng: random.Random, family: str,
                     beta1_deg: int = 2) -> FreeModuleSpec:
    lam = random_rational(rng, nonzero=True)
    if family in ("gamma", "theta"):
        return replace(make_gamma(lam, random_rational(rng),
                                  random_rational(rng)), family=family)
    if family == "omega":
        deg = rng.randint(0, beta1_deg)
        beta1 = tuple(random_rational(rng) for _ in range(deg + 1))
        return make_omega(lam, random_rational(rng), beta1)
    raise ValueError(f"unknown family {family!r}")
