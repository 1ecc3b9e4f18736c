"""Exact linear algebra over Fraction with sparse dict vectors.

Vectors are dicts from hashable coordinate keys (monomial exponents, weight
basis indices, ...) to nonzero Fractions.  There is one elimination, the
incremental reduced row-echelon form of ``RowBasis``; ``nullspace`` reads
its kernels off that form.  Everything is exact; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, List, Optional

Vec = Dict[Hashable, Fraction]


def vec_clean(v: Vec) -> Vec:
    return {k: x for k, x in v.items() if x}


def vec_axpy(v: Vec, c: Fraction, w: Vec) -> Vec:
    """v + c*w, cleaned."""
    out = dict(v)
    for k, x in w.items():
        y = out.get(k, Fraction(0)) + c * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    return out


class RowBasis:
    """An incrementally built reduced row-echelon basis.

    ``key`` orders the coordinates (defaults to natural ordering); the
    pivot of each stored row is its smallest coordinate, every stored row
    is normalized to pivot coefficient 1, and rows are mutually reduced,
    so membership tests and residues are canonical.
    """

    def __init__(self, key: Optional[Callable] = None):
        self._key = key if key is not None else (lambda k: k)
        self._rows: Dict[Hashable, Vec] = {}

    def reduce(self, v: Vec) -> Vec:
        """Residue of v modulo the current row space."""
        v = vec_clean(v)
        while v:
            hits = [k for k in v if k in self._rows]
            if not hits:
                break
            k = min(hits, key=self._key)
            # stored rows carry no other pivot coordinates, so each step
            # strictly removes the pivot k from v
            v = vec_axpy(v, -v[k], self._rows[k])
        return v

    def add(self, v: Vec) -> bool:
        """Insert v; returns True when v was independent of the basis."""
        v = self.reduce(v)
        if not v:
            return False
        lead = min(v, key=self._key)
        inv = Fraction(1) / v[lead]
        v = {k: x * inv for k, x in v.items()}
        # keep the basis mutually reduced
        for p, row in list(self._rows.items()):
            if lead in row:
                self._rows[p] = vec_axpy(row, -row[lead], v)
        self._rows[lead] = v
        return True

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> List[Vec]:
        return [dict(self._rows[p]) for p in sorted(self._rows, key=self._key)]


def nullspace(equations: Iterable[Vec], columns: List[Hashable]) -> List[Vec]:
    """Basis of the solution space of a homogeneous system.

    ``equations`` are linear forms in the unknowns named by ``columns``;
    the returned vectors assign a Fraction to every column in their
    support.  One basis vector per free column, in column order, with that
    column set to 1.
    """
    col_index = {c: i for i, c in enumerate(columns)}
    basis = RowBasis(key=col_index.__getitem__)
    for eq in equations:
        for c, x in eq.items():
            if x and c not in col_index:
                raise ValueError(f"equation touches unknown column {c!r}")
        basis.add(eq)
    # the stored rows are the reduced row-echelon form, keyed by pivot
    pivot_rows = basis._rows
    kernel: List[Vec] = []
    for free in columns:
        if free in pivot_rows:
            continue
        v: Vec = {free: Fraction(1)}
        for lead, row in pivot_rows.items():
            if free in row:
                v[lead] = -row[free]
        kernel.append(v)
    return kernel
