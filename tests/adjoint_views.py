"""The Fraction view of an integer adjoint table, and its inverse.

``adjoint_table`` returns (d, entries), each term (m, r, c0, c1) holding
ints over the one denominator d.  Tests that read or plant coefficients
work on the true values through ``fraction_view`` and hand a planted view
back through ``integer_table``, so a planted fault is the same rational
move whatever the denominator; ``plant`` and ``smallest_fault`` make such
moves.
"""

from fractions import Fraction
from math import factorial, lcm


def fraction_view(adjoint):
    """{x: (dk, terms)} with the true coefficients: c0 a Fraction, c1 a
    Fraction or the int 0 when the term is constant in k."""
    d, entries = adjoint
    return {x: (dk, tuple((m, r, Fraction(c0, d), Fraction(c1, d) if c1 else 0)
                          for m, r, c0, c1 in terms))
            for x, (dk, terms) in entries.items()}


def integer_table(view):
    """(d, entries) over the least common denominator d of ``view``."""
    d = lcm(*(Fraction(c).denominator for _, terms in view.values()
              for term in terms for c in term[2:]))
    return d, {x: (dk, tuple((m, r, int(c0 * d), int(c1 * d))
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
    d, entries = adjoint
    top = max(r for _, terms in entries.values() for _, r, _, _ in terms)
    terms = entries["f"][1]
    index = max(range(len(terms)), key=lambda i: terms[i][1])
    return plant(adjoint, "f", index, Fraction(1, 2 * d * factorial(top)))
