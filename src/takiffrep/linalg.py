"""Exact linear algebra over the rationals with sparse dict vectors.

Vectors are dicts from hashable coordinate keys (monomial exponents, weight
basis indices, ...) to nonzero Fractions or ints, a rule written once, in
``add_into``, for the exact dicts of every module.  There are two
eliminations, both fraction-free (Bareiss, Math. Comp. 22, 1968): vectors
are stored as primitive integer vectors, combined by gcd
cross-multiplication, and Fractions appear only where vectors leave them.
``RowBasis`` is the incremental reduced row-echelon form of a row space.
``nullspace`` is its column dual: it eliminates the kernel itself, and
an index from each column to the kernel entries there sums an equation
over its own columns only, so one that depends on the earlier ones costs
a product per kernel entry it meets.  Everything is exact; no floats
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List

Vec = Dict[Hashable, Fraction]
IntVec = Dict[Hashable, int]


def vec_clean(v: Vec) -> Vec:
    return {k: x for k, x in v.items() if x}


def add_into(acc: dict, c, pairs: Iterable) -> dict:
    """Add c*x at key k of ``acc`` for each (k, x) in ``pairs``, in place,
    dropping every entry that cancels to zero; returns ``acc``.

    A new key takes c*x as it is, with no addition to 0, and the int c = 1
    multiplies nothing; on int and Fraction values each entry and its type
    stay those of acc.get(k, 0) + c*x."""
    unit = type(c) is int and c == 1
    for k, x in pairs:
        if not unit:
            x = c * x
        y = acc.get(k)
        if y is not None:
            x = y + x
        if x:
            acc[k] = x
        else:
            acc.pop(k, None)
    return acc


def vec_axpy(v: Vec, c: Fraction, w: Vec) -> Vec:
    """v + c*w, cleaned."""
    return add_into(dict(v), c, w.items())


def vec_primitive(v: Vec) -> IntVec:
    """The primitive integer multiple of v: denominators cleared and the
    content divided out, signs kept.  ``{}`` for the zero vector."""
    v = {k: x for k, x in v.items() if x}
    if any(type(x) is not int for x in v.values()):
        den = 1
        for x in v.values():
            den = lcm(den, x.denominator)
        v = {k: x.numerator * (den // x.denominator) for k, x in v.items()}
    return _divide_content(v)


def _divide_content(v: IntVec) -> IntVec:
    """v, a cleaned integer vector, divided by the gcd of its entries."""
    # gcd and lcm are folded pairwise here and below: unpacking a generator
    # into their *args left the interpreter's tuple free lists about
    # 0.6 MiB fuller at peak over the saturate benchmark's prefix
    g = 0
    for x in v.values():
        g = gcd(g, x)
        if g == 1:
            return v
    return {k: x // g for k, x in v.items()} if g else v


class RowBasis:
    """An incrementally built reduced row-echelon basis.

    The pivot of each stored row is its smallest coordinate (relabel the
    coordinates for another order), and rows are mutually reduced, so
    membership tests are canonical.  Each row is kept as the primitive
    integer vector with a positive pivot coefficient; ``rows()`` returns
    the same rows normalized to pivot coefficient 1.
    """

    def __init__(self):
        self._rows: Dict[Hashable, IntVec] = {}

    def reduce(self, v: Vec) -> IntVec:
        """A nonzero multiple of the residue of v modulo the current row
        space, as a primitive integer vector; ``{}`` when v lies in it."""
        v = vec_primitive(v)
        hits = [k for k in v if k in self._rows]
        if not hits:
            return v
        # stored rows carry no other pivot coordinates, so v's entries at
        # the pivots stay as they are while the rows are subtracted: m*v
        # minus (m*v[k]/row[k]) times the row of each pivot k hit, with m
        # the least multiplier that keeps every factor an integer
        m = 1
        for k in hits:
            p = self._rows[k][k]
            m = lcm(m, p // gcd(p, v[k]))
        out = {k: m * x for k, x in v.items()}
        for k in hits:
            row = self._rows[k]
            add_into(out, -(m * v[k] // row[k]), row.items())
        return _divide_content(out)

    def add(self, v: Vec) -> bool:
        """Insert v; returns True when v was independent of the basis."""
        v = self.reduce(v)
        if not v:
            return False
        lead = min(v)
        if v[lead] < 0:
            v = {k: -x for k, x in v.items()}
        # keep the basis mutually reduced; each row is multiplied by a
        # positive factor, so its pivot stays positive
        for p, row in list(self._rows.items()):
            if lead in row:
                g = gcd(v[lead], row[lead])
                scaled = {k: v[lead] // g * x for k, x in row.items()}
                self._rows[p] = _divide_content(
                    add_into(scaled, -(row[lead] // g), v.items()))
        self._rows[lead] = v
        return True

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> List[Vec]:
        """The reduced rows in pivot order, each with pivot coefficient 1."""
        out = []
        for p in sorted(self._rows):
            row = self._rows[p]
            out.append({k: Fraction(x, row[p]) for k, x in row.items()})
        return out


def nullspace(equations: Iterable[Vec], columns: List[Hashable]) -> List[Vec]:
    """Basis of the solution space of a homogeneous system.

    ``equations`` are linear forms in the unknowns named by ``columns``,
    which must be distinct; the returned vectors assign a Fraction to every
    column in their support.  One basis vector per free column, in column
    order, with that column set to 1.

    The kernel is eliminated directly (the column dual of Bareiss's
    fraction-free step): it is kept as one primitive integer vector per
    still-free column, starting from the unit vectors, and each vector's
    pivot is its last column in ``columns`` order.  Beside the vectors an
    index maps each column to {pivot: entry} over the vectors nonzero
    there.  An equation holding a nonzero Fraction is first cleared to a
    primitive integer row; its values on the kernel vectors are then
    summed over the index entries of its own nonzero columns, so a kernel
    vector that misses its support costs nothing.  When every value is 0
    the equation depends on the earlier ones.  Otherwise the vector v_p
    with the earliest pivot among those with a nonzero value w_p is
    dropped, and each other vector v with value w becomes
    |w_p| v - sign(w_p) w v_p, content divided out, which vanishes on the
    equation; the index follows every vector that changes.  v_p's support
    ends before v's pivot, so every pivot stays the last column of its
    vector; and v_p holds no other vector's pivot, so no vector comes to
    hold one.  The vectors stay independent and span the kernel of the
    equations so far.  Their pivots are therefore exactly the columns that
    end some kernel vector, which are the free columns of the reduced
    row-echelon form with pivots at first columns, and dividing each
    vector by its pivot entry gives the one kernel vector that is 1 at its
    pivot and 0 at every other free column.

    Once no kernel vector is left, the remaining equations are only
    checked for unknown columns.
    """
    # pivot -> vector, in pivot order; column -> {pivot: entry}, a key
    # for every column
    kernel = {c: {c: 1} for c in columns}
    if len(kernel) < len(columns):
        raise ValueError("nullspace columns repeat a name")
    index: Dict[Hashable, IntVec] = {c: {c: 1} for c in columns}
    for eq in equations:
        ints = True
        for c, x in eq.items():
            if x:
                if c not in index:
                    raise ValueError(f"equation touches unknown column {c!r}")
                if type(x) is not int:
                    ints = False
        if not kernel:
            continue
        if not ints:
            eq = vec_primitive(eq)
        values: IntVec = {}
        for c, x in eq.items():
            # an explicit zero, a Fraction(0) in an int row included, adds
            # nothing: a Fraction product would reach _divide_content
            if x:
                add_into(values, x, index[c].items())
        if not values:
            continue
        # the earliest pivot with a value: kernel keeps column order
        for hit in kernel:
            if hit in values:
                break
        # the vectors with no value on eq stay as they are
        v_p, w_p = kernel.pop(hit), values.pop(hit)
        for c in v_p:
            del index[c][hit]
        scale, sign = (w_p, 1) if w_p > 0 else (-w_p, -1)
        for pivot, w in values.items():
            v = kernel[pivot]
            # before add_into, which updates v in place when scale is 1
            for c in v:
                del index[c][pivot]
            if scale != 1:
                v = {c: scale * x for c, x in v.items()}
            v = kernel[pivot] = _divide_content(
                add_into(v, -sign * w, v_p.items()))
            for c, x in v.items():
                index[c][pivot] = x
    return [{c: Fraction(x, v[pivot]) for c, x in v.items()}
            for pivot, v in kernel.items()]
