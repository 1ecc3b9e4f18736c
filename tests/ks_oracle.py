"""The monomial (k, s) composer, kept as the oracle of ``ks_residuals``.

``freemod.ks_residuals`` keeps every table in the binomial basis C(s-1, t)
that adjoint entries are written in, and returns its residuals in that
basis.  This module expands each generator's table into monomials in s
instead, and composes by shifting the left table's polynomial to (k + dk,
s + ds) with ``PolyHH.shift_h`` and ``PolyHH.shift_hbar`` before it
multiplies, so it shares no arithmetic with the binomial composer.  Its
tables are S = d R! times the true ones, R the largest r of the adjoint,
so ``ks_residuals_monomial`` returns M times each residual, M the product
of S_i^(L_i), L_i the longest word on adjoint i.  ``ks_residuals``
returns D times each residual, D the product of the d_i^(L_i), so the two
differ by the factor R of ``factorial_scale``, and ``matches_monomial``
compares them.
"""

from math import comb, factorial, prod

from adjoint_views import entry_terms

from takiffrep.linalg import add_into
from takiffrep.poly import PolyHH


def adopt_table(sums):
    return {key: PolyHH._adopt(c) for key, c in sums.items() if c}


def ks_table(table, top):
    """top! times one generator's table, read off its ``BinomialTable`` as
    terms (``entry_terms``) whose every r is at most ``top``: each term (m,
    r, c0, c1) adds (c0 + c1*k) top!/r! (s-1)(s-2)...(s-r) at (dk, m -
    r)."""
    dk, terms = entry_terms(table)
    sums = {}
    for m, r, c0, c1 in terms:
        falling = [1]  # coefficients of (s-1)...(s-r) in s, lowest first
        for t in range(1, r + 1):
            falling = [a - t * b for a, b in zip([0] + falling, falling + [0])]
        w = factorial(top) // factorial(r)
        linear = {(i, 0): c * w for i, c in enumerate((c0, c1)) if c}
        PolyHH._adopt(linear)._mul_into(
            PolyHH._adopt({(0, j): b for j, b in enumerate(falling)}),
            sums.setdefault((dk, m - r), {}))
    return adopt_table(sums)


def ks_tables(adjoint):
    """(S, tables): every generator's table, each S = d R! times the true
    one."""
    d, tables = adjoint
    top = max((t for table in tables.values() for _, _, t, _ in table),
              default=0)
    return d * factorial(top), {x: ks_table(table, top)
                                for x, table in tables.items()}


def ks_compose_into(out, tables, x, right):
    """Add x o right to ``out``: ``right`` sends eta_{k,s} to P(k, s)
    eta_{k+dk, s+ds}, and x sends that on with P_x(k + dk, s + ds)."""
    for (dk, ds), py in right.items():
        for (ek, es), px in tables[x].items():
            px.shift_h(dk).shift_hbar(ds)._mul_into(
                py, out.setdefault((ek + dk, es + ds), {}))


def ks_add_into(out, table, c):
    for key, p in table.items():
        add_into(out.setdefault(key, {}), c, p._c.items())


def ks_residuals_monomial(adjoints, identities):
    """M times the (k, s) table of each identity, composed in monomials."""
    read = [ks_tables(adjoint) for adjoint in adjoints]
    longest = [max((len(word) for identity in identities
                    for j, _, word in identity if j == i), default=0)
               for i in range(len(adjoints))]
    total = prod(scale ** n for (scale, _), n in zip(read, longest))
    out = []
    for identity in identities:
        sums = {}
        for i, c, word in identity:
            scale, tables = read[i]
            table = {(0, 0): PolyHH._adopt({(0, 0): 1})}
            for letter in reversed(word):
                part = {}
                ks_compose_into(part, tables, letter, table)
                table = adopt_table(part)
            ks_add_into(sums, table, c * (total // scale ** len(word)))
        out.append(adopt_table(sums))
    return out


def factorial_scale(adjoints, identities):
    """R, the product of the R_i!^(L_i): M of ``ks_residuals_monomial``
    over D of ``freemod.ks_residuals``."""
    out = 1
    for i, (_, tables) in enumerate(adjoints):
        longest = max((len(word) for identity in identities
                       for j, _, word in identity if j == i), default=0)
        top = max((t for table in tables.values() for _, _, t, _ in table),
                  default=0)
        out *= factorial(top) ** longest
    return out


def matches_monomial(adjoints, identities, residuals):
    """Whether ``residuals``, the binomial tables (dk, ds, t, j) -> the
    coefficient of k^j C(s-1, t) that ``ks_residuals`` returned, store no
    zero and, times R of ``factorial_scale``, equal the monomial oracle's.

    Each pair is compared at each target (dk, ds) of either table, on
    the grid k in 0..D_k, s in 1..D_s+1, D_k and D_s the largest degrees
    in k and in s on either side (j and t, as C(s-1, t) has degree t).
    The difference of the two sides at a target is a polynomial of degree
    at most D_k in k and D_s in s, and such a polynomial that vanishes on
    that grid of (D_k + 1)(D_s + 1) points is zero, so agreement on the
    grid is equality.
    """
    oracle = ks_residuals_monomial(adjoints, identities)
    scale = factorial_scale(adjoints, identities)
    if len(residuals) != len(oracle):
        return False
    for table, want in zip(residuals, oracle):
        if not all(table.values()):
            return False
        by_target = {}
        for (dk, ds, t, j), a in table.items():
            by_target.setdefault((dk, ds), []).append((t, j, a))
        # the h-degree of each oracle polynomial is its degree in k
        d_k = max([j for *_, j in table]
                  + [i for p in want.values() for (i, _), _ in p.terms()],
                  default=0)
        d_s = max([t for _, _, t, _ in table]
                  + [p.deg_hbar() for p in want.values()], default=0)
        for target in set(by_target) | set(want):
            terms = by_target.get(target, [])
            p = want.get(target, PolyHH())
            for k in range(d_k + 1):
                for s in range(1, d_s + 2):
                    got = sum(a * k ** j * comb(s - 1, t) for t, j, a in terms)
                    if scale * got != p.eval_at(k, s):
                        return False
    return True
