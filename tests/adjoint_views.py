"""Adjoint tables read as terms, their Fraction view, and its inverse.

``adjoint_table`` returns (d, tables): each generator's ``BinomialTable``
{(dk, ds, t, j): a}, ints over the one denominator d.  Tests that read or
plant coefficients see a generator the way the operator term reads, as
(dk, terms), each term (m, r, c0, c1) meaning (c0 + c1 k) C(s-1, r)
eta_{k+dk, s-r+m}: ``entry_terms`` reads a table so and ``terms_table``
writes one back, and every other helper goes through that pair.  They
work on the true values through ``fraction_view`` and hand a planted view
back through ``integer_table``, so a planted fault is the same rational
move whatever the denominator; ``plant`` and ``smallest_fault`` make such
moves.  ``term_adjoint_table`` is ``adjoint_table`` as it was written in
terms before the binomial form, kept as its oracle.
"""

from fractions import Fraction
from math import factorial, gcd, lcm

from takiffrep.freemod import SHIFT
from takiffrep.linalg import add_into


def terms_table(dk, terms):
    """The ``BinomialTable`` of the terms (m, r, c0, c1), each moving k by
    dk: c0 at (dk, m - r, r, 0) and c1 at (dk, m - r, r, 1), terms that
    share (m, r) summed and zeros dropped."""
    out = {}
    for m, r, c0, c1 in terms:
        add_into(out, 1, (((dk, m - r, r, 0), c0), ((dk, m - r, r, 1), c1)))
    return out


def entry_terms(table):
    """(dk, terms): one generator's ``BinomialTable`` read as terms, the
    inverse of ``terms_table``.  One term (m, r, c0, c1) per (ds, t) = (m
    - r, r), in the order its first key appears, which is
    ``adjoint_table``'s (m, r) order; c0 and c1 are the values at j = 0
    and j = 1, the int 0 where a key is absent.  dk is that of every key,
    None for the empty table."""
    dks = {dk for dk, _, _, _ in table}
    assert len(dks) <= 1, f"a generator's table moves k by one dk: {dks}"
    pairs = {}
    for (_, ds, t, j), a in table.items():
        pairs.setdefault((ds + t, t), [0, 0])[j] = a
    return (min(dks, default=None),
            tuple((m, r, c0, c1) for (m, r), (c0, c1) in pairs.items()))


def fraction_view(adjoint):
    """{x: (dk, terms)} with the true coefficients: c0 a Fraction, c1 a
    Fraction or the int 0 when the term is constant in k."""
    d, tables = adjoint
    view = {}
    for x, table in tables.items():
        dk, terms = entry_terms(table)
        view[x] = (dk, tuple((m, r, Fraction(c0, d),
                              Fraction(c1, d) if c1 else 0)
                             for m, r, c0, c1 in terms))
    return view


def integer_table(view):
    """(d, tables) over the least common denominator d of ``view``."""
    d = lcm(*(Fraction(c).denominator for _, terms in view.values()
              for term in terms for c in term[2:]))
    return d, {x: terms_table(dk, ((m, r, int(c0 * d), int(c1 * d))
                                   for m, r, c0, c1 in terms))
               for x, (dk, terms) in view.items()}


def plant(adjoint, x, index, dc0, dc1=0):
    """``adjoint`` with term ``index`` of generator x moved by (dc0, dc1)
    in true values."""
    view = fraction_view(adjoint)
    dk, terms = view[x]
    m, r, c0, c1 = terms[index]
    planted = (m, r, c0 + dc0, c1 + dc1)
    return integer_table(
        {**view, x: (dk, terms[:index] + (planted,) + terms[index + 1:])})


def smallest_fault(adjoint):
    """The largest-r term of f moved by 1/(2 d R!), with d the denominator
    of the integer table and R the largest r: below the resolution of
    tables scaled by d R! and truncated to ints."""
    d, tables = adjoint
    top = max(t for table in tables.values() for _, _, t, _ in table)
    terms = entry_terms(tables["f"])[1]
    index = max(range(len(terms)), key=lambda i: terms[i][1])
    return plant(adjoint, "f", index, Fraction(1, 2 * d * factorial(top)))


def term_adjoint_table(ops, alpha, beta):
    """(d, {x: (dk, terms)}): the adjoint table in terms (m, r, c0, c1) of
    ints over d, as ``adjoint_table`` computed it before it wrote
    ``BinomialTable``s, kept unchanged: a term is dropped when c0 and c1
    are both 0, and the table is put over its least denominator."""
    p, q = beta.numerator, beta.denominator
    alpha_num, alpha_den = alpha.numerator, alpha.denominator
    monomials = {x: [(m, i, j, e) for c, m in terms for (i, j), e in c.terms()]
                 for x, terms in ops.items()}
    every = [term for terms in monomials.values() for term in terms]
    denom = lcm(*(e.denominator for *_, e in every))
    top = max((j for _, _, j, _ in every), default=0)
    table = {}
    for x, terms in monomials.items():
        sums = {}
        for m, i, j, e in terms:
            w = e.numerator * (denom // e.denominator)
            for r in range(j + 1):
                sums.setdefault((m, r), [0, 0])[i] += \
                    w * p ** (j - r) * q ** (top - j + r)
                w *= j - r
        out = []
        for (m, r), (u, v) in sums.items():
            num = u * alpha_den + alpha_num * v
            if num or v:
                out.append((m, r, -num, -2 * v * alpha_den))
        table[x] = (SHIFT[x] // 2, out)
    denom *= q ** top * alpha_den
    g = gcd(denom, *(c for _, out in table.values() for term in out
                     for c in term[2:]))
    return denom // g, {x: (dk, tuple((m, r, c0 // g, c1 // g)
                                      for m, r, c0, c1 in out))
                        for x, (dk, out) in table.items()}
