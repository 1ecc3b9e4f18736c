"""Tests for the exact sparse linear algebra.

sympy is the independent oracle: each seeded random sparse rational
system, with zero rows, duplicate rows and explicit zero entries mixed in,
is also solved as a dense sympy Matrix.  Column names are arbitrary
hashables listed in a shuffled order, which fixes the elimination order.
RowBasis computes over the integers, so it is also fed mixed int and
Fraction entries with large denominators.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy

from takiffrep.linalg import RowBasis, nullspace

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


def test_nullspace_vectors_solve_every_equation():
    for rows, columns in systems():
        for v in nullspace(rows, columns):
            for row in rows:
                assert sum(c * v.get(k, 0) for k, c in row.items()) == 0


def test_rowbasis_is_the_reduced_echelon_form():
    rng = random.Random(702)
    for rows, columns in systems():
        order = {c: i for i, c in enumerate(columns)}
        basis = RowBasis(key=order.__getitem__)
        for row in rows:
            basis.add(row)
        mat = to_matrix(rows, columns)
        rref, pivots = mat.rref()
        want = [from_sympy(rref.row(i), columns) for i in range(len(pivots))]
        assert basis.rows() == want
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
            assert basis.contains(v) == (stacked.rank() == mat.rank())


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
        order = {c: i for i, c in enumerate(columns)}
        basis = RowBasis(key=order.__getitem__)
        rank = 0
        for i, row in enumerate(rows):
            grown = to_matrix(rows[:i + 1], columns).rank()
            # reduce is zero exactly when the sympy rank does not grow
            assert (not basis.reduce(row)) == (grown == rank)
            assert basis.add(row) == (grown > rank)
            assert basis.rank == grown
            rank = grown
        mat = to_matrix(rows, columns)
        rref, pivots = mat.rref()
        want = [from_sympy(rref.row(i), columns) for i in range(len(pivots))]
        assert basis.rows() == want
        # the stored form: primitive integer rows with a positive pivot
        for lead, row in basis._rows.items():
            assert all(type(x) is int for x in row.values())
            assert row[lead] > 0 and math.gcd(*row.values()) == 1
        for _ in range(4):
            v = {col: big_entry(rng) for col in
                 rng.sample(columns, rng.randint(1, n_cols))}
            got = basis.reduce(v)
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


def test_nullspace_stops_reducing_at_full_rank(monkeypatch):
    added = []
    add = RowBasis.add
    monkeypatch.setattr(RowBasis, "add",
                        lambda self, v: added.append(v) or add(self, v))
    rows = [{"x": F(1), "y": F(1)}, {"x": F(1), "y": F(-1)},
            {"x": F(2), "y": F(3)}, {"x": F(1, 2)}, {"y": F(7)}]
    assert nullspace(rows, ["x", "y"]) == []
    assert len(added) == 2
    # an unknown column after full rank is still refused
    with pytest.raises(ValueError, match="unknown column 'z'"):
        nullspace(rows + [{"z": F(1)}], ["x", "y"])
