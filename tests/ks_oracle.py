"""The monomial (k, s) composer, kept as the oracle of ``ks_residuals``.

``freemod.ks_residuals`` keeps every table in the binomial basis C(s-1, t)
that adjoint entries are written in.  This module expands each generator's
table into monomials in s instead, and composes by shifting the left
table's polynomial to (k + dk, s + ds) with ``PolyHH.shift_h`` and
``PolyHH.shift_hbar`` before it multiplies, so it shares no arithmetic
with the binomial composer.  Its tables are S = d R! times the true ones,
R the largest r of the adjoint, so ``ks_residuals_monomial`` returns M
times each residual, M the product of S_i^(L_i): the same scale as
``ks_residuals``, entry for entry.
"""

from math import factorial, prod

from takiffrep.linalg import add_into
from takiffrep.poly import PolyHH


def adopt_table(sums):
    return {key: PolyHH._adopt(c) for key, c in sums.items() if c}


def ks_table(entry, top):
    """top! times one generator's table, read off its adjoint entry (dk,
    terms) whose every r is at most ``top``: each term (m, r, c0, c1) adds
    (c0 + c1*k) top!/r! (s-1)(s-2)...(s-r) at (dk, m - r)."""
    dk, terms = entry
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
    d, entries = adjoint
    top = max((r for _, terms in entries.values() for _, r, _, _ in terms),
              default=0)
    return d * factorial(top), {x: ks_table(entry, top)
                                for x, entry in entries.items()}


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
