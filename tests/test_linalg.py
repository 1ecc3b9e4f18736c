"""Tests for the exact sparse linear algebra.

sympy is the independent oracle: each seeded random sparse rational
system, with zero rows, duplicate rows and explicit zero entries mixed in,
is also solved as a dense sympy Matrix.  Column names are arbitrary
hashables listed in a shuffled order, which fixes the elimination order;
RowBasis pivots at the smallest coordinate, so its tests relabel each
column to its index in that order.
RowBasis computes over the integers, so it is also fed mixed int and
Fraction entries with large denominators.

``nullspace`` eliminates the kernel directly rather than the rows, so a
second oracle, ``rowbasis_nullspace_oracle``, reads the kernel off the
reduced row-echelon form of ``RowBasis``.  The two are compared on seeded
tall systems shaped like the weight-module searches: many sparse rows,
most of them duplicates, multiples or combinations of a few others, with
huge integer or Fraction entries; sympy checks a subset of them.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy

from takiffrep import linalg
from takiffrep.linalg import RowBasis, add_into, nullspace, vec_axpy

F = Fraction


def random_system(rng, n_rows, n_cols):
    columns = [("c", i) for i in range(n_cols)]
    rng.shuffle(columns)
    rows = []
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.1:
            rows.append({})
        elif roll < 0.2 and rows:
            c = F(rng.randint(-3, 3) or 1, rng.randint(1, 4))
            rows.append({k: c * x for k, x in rng.choice(rows).items()})
        else:
            row = {}
            for col in rng.sample(columns, rng.randint(1, min(4, n_cols))):
                row[col] = F(rng.randint(-5, 5), rng.randint(1, 6))
            rows.append(row)
    return rows, columns


def systems():
    rng = random.Random(701)
    out = [([], [("c", i) for i in range(3)]),        # no equations
           ([{}, {}], [("c", 0), ("c", 1)])]          # only zero rows
    for _ in range(40):
        out.append(random_system(rng, rng.randint(1, 8), rng.randint(1, 9)))
    return out


def to_matrix(rows, columns):
    def entry(i, j):
        x = F(rows[i].get(columns[j], 0))
        return sympy.Rational(x.numerator, x.denominator)
    return sympy.Matrix(len(rows), len(columns), entry)


def from_sympy(vec, columns):
    return {col: F(int(x.p), int(x.q)) for col, x in zip(columns, vec) if x}


def test_nullspace_matches_sympy():
    for rows, columns in systems():
        want = [from_sympy(v, columns)
                for v in to_matrix(rows, columns).nullspace()]
        assert nullspace(rows, columns) == want, (rows, columns)


def test_nullspace_ignores_equation_order():
    rng = random.Random(705)
    for rows, columns in systems():
        want = nullspace(rows, columns)
        for _ in range(4):
            shuffled = rng.sample(rows, len(rows))
            assert nullspace(shuffled, columns) == want, (rows, columns)


def test_nullspace_vectors_solve_every_equation():
    for rows, columns in systems():
        for v in nullspace(rows, columns):
            for row in rows:
                assert sum(c * v.get(k, 0) for k, c in row.items()) == 0


def relabel(v, columns):
    """v with each column renamed to its index in ``columns``, so that
    RowBasis, which pivots at the smallest coordinate, eliminates in the
    order ``columns`` lists."""
    index = {c: i for i, c in enumerate(columns)}
    return {index[c]: x for c, x in v.items()}


def unlabel(v, columns):
    """The inverse of ``relabel``."""
    return {columns[i]: x for i, x in v.items()}


def test_rowbasis_is_the_reduced_echelon_form():
    rng = random.Random(702)
    for rows, columns in systems():
        basis = RowBasis()
        for row in rows:
            basis.add(relabel(row, columns))
        mat = to_matrix(rows, columns)
        rref, pivots = mat.rref()
        want = [from_sympy(rref.row(i), columns) for i in range(len(pivots))]
        assert [unlabel(row, columns) for row in basis.rows()] == want
        assert basis.rank == mat.rank()
        # membership: combinations of the equations, and random vectors
        for _ in range(5):
            if rows and rng.random() < 0.5:
                v = {}
                for row in rng.sample(rows, min(2, len(rows))):
                    c = F(rng.randint(-3, 3))
                    for k, x in row.items():
                        v[k] = v.get(k, 0) + c * x
            else:
                v = {col: F(rng.randint(-2, 2))
                     for col in rng.sample(columns, min(2, len(columns)))}
            stacked = to_matrix(rows + [v], columns)
            assert basis.contains(relabel(v, columns)) == \
                (stacked.rank() == mat.rank())


def big_entry(rng):
    """An int or a Fraction with a large numerator and denominator."""
    if rng.random() < 0.4:
        return rng.randint(-10**6, 10**6)
    return F(rng.randint(-10**15, 10**15), rng.randint(1, 10**12))


def scaled_residue(v, rref_rows):
    """v minus its combination of the rref rows, pivot coefficient 1."""
    out = dict(v)
    for row in rref_rows:
        lead = next(iter(row))  # from_sympy keeps column order: pivot first
        c = out.get(lead, 0)
        for k, x in row.items():
            out[k] = out.get(k, 0) - c * x
    return {k: F(x) for k, x in out.items() if x}


def test_rowbasis_on_mixed_int_and_large_fraction_entries():
    rng = random.Random(703)
    for _ in range(25):
        n_cols = rng.randint(1, 7)
        columns = [("c", i) for i in range(n_cols)]
        rng.shuffle(columns)
        rows = []
        for _ in range(rng.randint(1, 7)):
            if rows and rng.random() < 0.25:
                # a combination of earlier rows, so dependent
                v = {}
                for row in rng.sample(rows, min(2, len(rows))):
                    c = big_entry(rng)
                    for k, x in row.items():
                        v[k] = v.get(k, 0) + c * x
                rows.append(v)
            else:
                rows.append({col: big_entry(rng) for col in
                             rng.sample(columns, rng.randint(1, n_cols))})
        basis = RowBasis()
        rank = 0
        for i, row in enumerate(rows):
            grown = to_matrix(rows[:i + 1], columns).rank()
            # reduce is zero exactly when the sympy rank does not grow
            assert (not basis.reduce(relabel(row, columns))) == (grown == rank)
            assert basis.add(relabel(row, columns)) == (grown > rank)
            assert basis.rank == grown
            rank = grown
        mat = to_matrix(rows, columns)
        rref, pivots = mat.rref()
        want = [from_sympy(rref.row(i), columns) for i in range(len(pivots))]
        assert [unlabel(row, columns) for row in basis.rows()] == want
        # the stored form: primitive integer rows with a positive pivot
        for lead, row in basis._rows.items():
            assert all(type(x) is int for x in row.values())
            assert row[lead] > 0 and math.gcd(*row.values()) == 1
        for _ in range(4):
            v = {col: big_entry(rng) for col in
                 rng.sample(columns, rng.randint(1, n_cols))}
            got = unlabel(basis.reduce(relabel(v, columns)), columns)
            assert all(type(x) is int for x in got.values())
            stacked = to_matrix(rows + [v], columns)
            assert (not got) == (stacked.rank() == mat.rank())
            # a nonzero multiple of the residue modulo the row space
            residue = scaled_residue(v, want)
            assert set(got) == set(residue)
            if got:
                k = next(iter(got))
                ratio = residue[k] / got[k]
                assert ratio and all(residue[c] == ratio * x
                                     for c, x in got.items())


def test_add_into_drops_every_entry_that_cancels():
    acc = {"x": 2, "y": F(1, 2)}
    assert add_into(acc, 1, [("x", F(-2)), ("y", 1), ("z", 3)]) is acc
    # the int 2 and the Fraction -2 cancel: nothing is stored at x
    assert acc == {"y": F(3, 2), "z": 3}
    assert add_into(acc, F(-1, 2), [("y", 3), ("z", 6)]) == {}
    ints = add_into({"x": 3}, 2, [("x", 4), ("w", -1)])
    assert ints == {"x": 11, "w": -2}
    assert {type(v) for v in ints.values()} == {int}


def test_add_into_matches_the_sum_from_zero_in_value_and_type():
    # a new key stores c*x without adding it to 0, and c = 1 multiplies
    # nothing; each entry must still be acc.get(k, 0) + c*x, type and all
    scalars = (1, F(1), -1, 2, 0, F(0), F(3, 2), F(-5, 7))
    values = (0, 3, -2, F(0), F(2, 5), F(-4), F(1))
    for c, x, old in product(scalars, values, (None, 5, F(1, 3), F(-2))):
        acc = {} if old is None else {"k": old}
        want = acc.get("k", 0) + c * x
        add_into(acc, c, [("k", x)])
        assert acc == ({"k": want} if want else {}), (c, x, old)
        if want:
            assert type(acc["k"]) is type(want), (c, x, old)


def test_vec_axpy_cancels_to_the_empty_vector():
    v = {("k", 0): F(2, 3), ("k", 1): 4}
    assert vec_axpy(v, -1, v) == {}
    assert vec_axpy(v, F(-2), {("k", 0): F(1, 3), ("k", 1): 2}) == {}
    assert vec_axpy({0: 2}, F(-2), {0: 1}) == {}
    out = vec_axpy({0: 2, 1: 5}, 3, {0: -1, 2: 1})
    assert out == {0: -1, 1: 5, 2: 3}
    assert {type(x) for x in out.values()} == {int}
    assert v == {("k", 0): F(2, 3), ("k", 1): 4}  # v itself is not changed


def test_rowbasis_add_reports_independence():
    basis = RowBasis()
    assert basis.add({0: F(2), 1: F(1)})
    assert not basis.add({0: F(4), 1: F(2)})
    assert not basis.add({})
    assert basis.add({1: F(1)})
    assert basis.rows() == [{0: F(1)}, {1: F(1)}]


def test_nullspace_rejects_unknown_column():
    with pytest.raises(ValueError):
        nullspace([{"x": F(1), "z": F(2)}], ["x", "y"])


def test_nullspace_rejects_repeated_columns():
    with pytest.raises(ValueError, match="repeat"):
        nullspace([], ["x", "x"])
    with pytest.raises(ValueError, match="repeat"):
        nullspace([{"x": F(1), "y": F(-1)}], ["x", "y", "x"])


def test_nullspace_stops_reducing_at_full_rank(monkeypatch):
    # every row holds a Fraction, so nullspace passes each row it uses
    # through vec_primitive; the patched one records the row and returns
    # entries that log every product taken with them
    cleared, products = [], []

    class Logged(int):
        def __mul__(self, other):
            products.append(len(cleared))
            return int(self) * other
        __rmul__ = __mul__

    primitive = linalg.vec_primitive
    monkeypatch.setattr(linalg, "vec_primitive", lambda v: cleared.append(v)
                        or {k: Logged(x) for k, x in primitive(v).items()})
    rows = [{"x": F(1), "y": F(1)}, {"x": F(1), "y": F(-1)},
            {"x": F(2), "y": F(3)}, {"x": F(1, 2)}, {"y": F(7)}]
    assert nullspace(rows, ["x", "y"]) == []
    # the kernel is empty after two rows: the other three are neither
    # cleared nor multiplied
    assert cleared == rows[:2]
    assert set(products) == {1, 2}
    # an unknown column after full rank is still refused
    with pytest.raises(ValueError, match="unknown column 'z'"):
        nullspace(rows + [{"z": F(1)}], ["x", "y"])


def test_nullspace_skips_an_explicit_fraction_zero():
    # a Fraction(0) in an int row adds nothing, as an int 0 does: no value
    # of the row on the kernel becomes a Fraction
    want = [{"b": F(1), "a": F(2), "c": F(10, 3)}]
    for zero in (0, F(0)):
        rows = [{"a": -2, "b": 4}, {"c": 3, "a": -5, "b": zero}]
        assert nullspace(rows, ["c", "a", "b"]) == want
    assert nullspace([{"x": 1, "y": F(0)}, {"y": 2}], ["x", "y"]) == []


def dot_product_nullspace(equations, columns):
    """The kernel elimination of ``nullspace`` with each equation's values
    taken by one dot product per kernel vector: the same vectors, pivots
    and eliminations, so the same dicts, item order and value types."""
    if len(set(columns)) < len(columns):
        raise ValueError("nullspace columns repeat a name")
    kernel = [(c, {c: 1}) for c in columns]
    for eq in equations:
        if not kernel:
            continue
        if any(type(x) is not int for x in eq.values()):
            eq = linalg.vec_primitive(eq)
        values = [sum(x * v.get(c, 0) for c, x in eq.items())
                  for _, v in kernel]
        hit = next((i for i, w in enumerate(values) if w), None)
        if hit is None:
            continue
        v_p, w_p = kernel[hit][1], values[hit]
        survivors = kernel[:hit]
        for (pivot, v), w in zip(kernel[hit + 1:], values[hit + 1:]):
            if w:
                v = {c: abs(w_p) * x for c, x in v.items()}
                for c, x in v_p.items():
                    v[c] = v.get(c, 0) - (1 if w_p > 0 else -1) * w * x
                v = linalg._divide_content({c: x for c, x in v.items() if x})
            survivors.append((pivot, v))
        kernel = survivors
    return [{c: Fraction(x, v[pivot]) for c, x in v.items()}
            for pivot, v in kernel]


def rational_systems():
    return systems() + [(rows, columns) for rows, columns, _ in tall_systems()]


def integer_systems():
    """The random and tall systems with every row scaled to integers, and
    some entries set to an explicit int or Fraction zero."""
    rng = random.Random(706)
    out = []
    for rows, columns in rational_systems():
        int_rows = []
        for row in rows:
            den = math.lcm(*(F(x).denominator for x in row.values()))
            row = {k: int(x * den) for k, x in row.items()}
            for k in rng.sample(columns, rng.randint(0, 1)):
                row.setdefault(k, rng.choice([0, F(0)]))
            int_rows.append(row)
        out.append((int_rows, columns))
    return out


def test_nullspace_equals_the_dot_product_elimination():
    for rows, columns in rational_systems() + integer_systems():
        got = nullspace(rows, columns)
        want = dot_product_nullspace(rows, columns)
        assert [[(c, type(x), x) for c, x in v.items()] for v in got] == \
            [[(c, type(x), x) for c, x in v.items()] for v in want]


def rowbasis_nullspace_oracle(equations, columns):
    """The kernel read off the reduced row-echelon form of RowBasis: one
    vector per free column, in column order, with that column set to 1."""
    basis = RowBasis()
    for eq in equations:
        basis.add(relabel(eq, columns))
    pivot_rows = {columns[min(row)]: unlabel(row, columns)
                  for row in basis.rows()}
    kernel = []
    for free in columns:
        if free in pivot_rows:
            continue
        v = {free: F(1)}
        for lead, row in pivot_rows.items():
            if free in row:
                v[lead] = -row[free]
        kernel.append(v)
    return kernel


def tall_system(rng, entry):
    """A seeded sparse system of 40-120 rows on 6-20 columns whose kernel
    has dimension 0-4, built from independent echelon rows by repeating,
    scaling and combining them; returns (rows, columns, kernel dim)."""
    n_cols = rng.randint(6, 20)
    columns = [("u", i) for i in range(n_cols)]
    rng.shuffle(columns)
    dim = rng.randint(0, min(4, n_cols))
    leads = rng.sample(range(n_cols), n_cols - dim)
    base = []
    for lead in leads:
        row = {columns[lead]: entry(rng)}
        later = range(lead + 1, n_cols)
        for j in rng.sample(later, min(len(later), rng.randint(0, 3))):
            row[columns[j]] = entry(rng)
        base.append(row)
    rows = [{k: entry(rng) * x for k, x in row.items()} for row in base]
    n_rows = rng.randint(40, 120)
    while len(rows) < n_rows:
        roll = rng.random()
        if roll < 0.05:
            rows.append({})
        elif roll < 0.45:
            rows.append(dict(rng.choice(rows)))
        elif roll < 0.7:
            c = entry(rng)
            rows.append({k: c * x for k, x in rng.choice(rows).items()})
        else:
            v = {}
            for row in rng.sample(rows, 2):
                c = entry(rng)
                for k, x in row.items():
                    v[k] = v.get(k, 0) + c * x
            rows.append(v)
    rng.shuffle(rows)
    return rows, columns, dim


def huge_int(rng):
    return rng.choice([-1, 1]) * rng.randint(1, 2 ** rng.choice([2, 20, 180]))


def huge_fraction(rng):
    return F(huge_int(rng), rng.randint(1, 2 ** rng.choice([1, 30, 120])))


def small_int(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def tall_systems():
    rng = random.Random(704)
    return [tall_system(rng, entry)
            for entry in (small_int, huge_int, huge_fraction) * 8]


def test_nullspace_matches_rowbasis_oracle_on_tall_systems():
    dims = set()
    for rows, columns, dim in tall_systems():
        got = nullspace(rows, columns)
        assert got == rowbasis_nullspace_oracle(rows, columns)
        assert len(got) == dim
        assert all(type(x) is Fraction for v in got for x in v.values())
        dims.add(dim)
    assert dims == {0, 1, 2, 3, 4}


def test_nullspace_matches_sympy_on_tall_systems():
    for rows, columns, _ in tall_systems()[::5]:
        want = [from_sympy(v, columns)
                for v in to_matrix(rows, columns).nullspace()]
        assert nullspace(rows, columns) == want
