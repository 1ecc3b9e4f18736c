"""Twisting functor on M, explicit isomorphisms, and intertwiner search.

The eb-localization acts on the M family, and eb^-1's adjoint table is
read off eb's: eb sends eta_{k,s} to -lam * eta_{k-1,s}, so its inverse
sends it to -(1/lam) eta_{k+1,s}.
Pulling the module back along the substitution Theta_z (see
``takiffrep.algebra.theta``) shifts alpha by -2z; ``check_twist_iso``
proves the index-preserving relabeling onto M(alpha - 2z, beta, ...) is
an isomorphism of actions, and ``lambda_rescale_iso`` proves the lambda
rescaling, both for every (k, s) at once as identity lists for
``freemod.ks_residuals``, the one (k, s) prover.  ``vm_iso_check``, whose
map holds e-powers, is proved for every (k, s) by e-generation: the
brackets on both sides, M's e table, and a fixed set of probes at s = 1.
In every isomorphism check the window scopes only the reported rank and
failing probe.  Every rank is read off its map's triangular shape, never
eliminated.

``intertwiner_search`` solves for all window-supported linear maps
commuting with the action.  Columns are matched by exact h-eigenvalue
(eta-columns k and k + (alpha_A - alpha_B)/2 pair up; a non-integral
offset forces the zero space), probes are restricted to domain-interior
basis vectors, and equation components outside the codomain window are
relaxed.  The maps are solved on the hbar-commutant: hbar acts on each
column as -beta - N with N nilpotent, so the space is zero unless the
betas agree, and otherwise each column's map is a polynomial in N, S
unknowns per column for s_max = S; only the e, f, eb and fb probes give
equations.  Each side's generator images are read at most once off its
adjoint table, as integer vectors, so the equations are integer rows,
and one ``nullspace`` call gives the reported basis.  Its ``verified``
flag reuses them: the solve makes every row it took vanish exactly, so
only the rows it left out are checked, the components of e, f, eb and
fb probes outside the codomain window, each by one integer dot product
per kernel vector.  The h and hbar probes are decided on the adjoint
tables: where both sides act by multiplication, their rows vanish on
every solution, and they are checked on rows only where a table
differs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import perm
from typing import Dict, Optional, Tuple

from .algebra import GENERATORS, AlgebraElement, theta
from .freemod import (_CARTAN, SHIFT, BinomialTable, adjoint_table,
                      ks_plan, ks_residuals, prove_brackets)
from .linalg import add_into, nullspace, vec_primitive
from .poly import RationalLike, poly1_eval, to_rational
from .weightmod import (DEFAULT_WINDOW, WeightModuleSpec, WeightVec, Window,
                        act_weight, apply_adjoint, make_weight_m, unit_images)


def _ebinv_entry(spec: WeightModuleSpec) -> BinomialTable:
    """eb^-1's table over the spec's denominator d, read off eb's: where
    eb's is the one key (dk, 0, 0, 0) -> c, sending eta_{k,s} to (c/d)
    eta_{k+dk,s}, as only in M, eb^-1 sends it to (d/c) eta_{k-dk,s}, so
    its table is (-dk, 0, 0, 0) -> d^2/c, an int when it is whole."""
    d, tables = spec.adjoint
    eb = tables["eb"]
    if len(eb) != 1 or next(iter(eb))[1:] != (0, 0, 0):
        raise ValueError("the eb-localization acts on the M family")
    [((dk, _, _, _), c)] = eb.items()
    c = Fraction(d * d, c)
    return {(-dk, 0, 0, 0): c.numerator if c.denominator == 1 else c}


def ebinv_act(spec: WeightModuleSpec, v: WeightVec) -> WeightVec:
    """Action of the inverse of eb on an M-family vector."""
    return apply_adjoint(_ebinv_entry(spec), v, Fraction(1, spec.adjoint[0]))


def apply_localized(spec: WeightModuleSpec, elem: AlgebraElement,
                    v: WeightVec) -> WeightVec:
    """Apply an element of the eb-localized enveloping algebra to v."""
    out: WeightVec = {}
    for mono, coeff in elem.terms():
        w = dict(v)
        for letter in reversed(mono.to_word()):
            if letter == "ebinv":
                w = ebinv_act(spec, w)
            else:
                w = act_weight(spec, letter, w)
            if not w:
                break
        add_into(out, coeff, w.items())
    return out


def twisted_act(z: RationalLike, spec: WeightModuleSpec, x,
                v: WeightVec) -> WeightVec:
    """Action of x on the Theta_z-twist of M: apply Theta_z(x) through the
    localization."""
    if spec.family != "M":
        raise ValueError("the twisting functor is implemented on the M family")
    return apply_localized(spec, theta(to_rational(z), x), v)


@dataclass
class IsoCheckResult:
    intertwines: bool
    rank: int
    window: str
    failing_probe: Optional[dict] = None
    details: dict | None = None


def _first_failure(probes, act_a, act_b, phi) -> Optional[dict]:
    """The first probe (k, s, x) at which phi fails to commute with x:
    point 3 of ``vm_iso_check``, whose map is no window matrix.

    ``act_a(x, v)`` and ``act_b(x, v)`` are the actions on the domain and
    the codomain of ``phi``; the probe fails when x.phi(eta_{k,s}) !=
    phi(x.eta_{k,s}).  Returns it as {"k", "s", "x"}, or None when phi
    commutes at every probe.
    """
    for k, s, x in probes:
        v = {(k, s): 1}
        if act_b(x, phi(v)) != phi(act_a(x, v)):
            return {"k": k, "s": s, "x": x}
    return None


def _table_iso(residuals: Dict[str, BinomialTable], window: Window,
               details: dict | None = None) -> IsoCheckResult:
    """The verdict on a diagonal map phi(eta_{k,s}) = c_k eta_{k,s}, every
    c_k nonzero, from ``residuals[x]``, the ``freemod.ks_residuals`` table
    of (x o phi - phi o x) / c_k: the probe (k, s, x) fails exactly when
    ``apply_adjoint`` of that table to eta_{k,s} is nonzero.
    ``failing_probe`` is the first failing window probe, k then s
    ascending and x in GENERATORS order, else the first on the grid k_min
    <= k <= k_min + d_k, 1 <= s <= d_s + 1, d_k the largest j and d_s the
    largest t of any entry: as the C(s-1, t) are triangular in the monomials s^t,
    these are the degrees in k and s, so a nonzero table is nonzero
    somewhere on that grid.  ``rank`` is the number of window indices.
    """
    keys = [key for table in residuals.values() for key in table]
    failing = None
    if keys:
        d_k = max(j for *_, j in keys)
        d_s = max(t for _, _, t, _ in keys)
        grid = ((k, s) for k in range(window.k_min, window.k_min + d_k + 1)
                for s in range(1, d_s + 2))
        failing = next(
            ({"k": k, "s": s, "x": x}
             for k, s in itertools.chain(window.indices(), grid)
             for x in GENERATORS
             if apply_adjoint(residuals[x], {(k, s): 1})), None)
    rank = (window.k_max - window.k_min + 1) * window.s_max
    return IsoCheckResult(failing is None, rank=rank, window=window.as_text(),
                          failing_probe=failing, details=details)


def check_twist_iso(z: RationalLike, spec: WeightModuleSpec,
                    window: Window = DEFAULT_WINDOW) -> IsoCheckResult:
    """Prove the twist of M(alpha, ...) is M(alpha - 2z, ...), for every
    (k, s).

    The comparison map keeps indices: 1 (x) eta_{k,s} |-> eta'_{k,s}.  On
    the twist, y acts as Theta_z(y) through the localization, so the map
    intertwines exactly when Theta_z(y), on ``spec.adjoint`` with eb^-1's
    entry added, minus y on the target vanishes for every generator y:
    identities for ``ks_residuals``, whose residuals go to ``_table_iso``.
    """
    z = to_rational(z)
    if spec.family != "M":
        raise ValueError("the twisting functor is implemented on the M family")
    target = replace(spec, alpha=spec.alpha - 2 * z)
    d, tables = spec.adjoint
    residuals = ks_residuals(
        [(d, {**tables, "ebinv": _ebinv_entry(spec)}), target.adjoint],
        ks_plan([[(0, c, mono.to_word()) for mono, c in theta(z, y).terms()]
                 + [(1, -1, (y,))] for y in GENERATORS], 2))
    return _table_iso(dict(zip(GENERATORS, residuals)), window,
                      details={"z": z})


def lambda_rescale_iso(spec_a: WeightModuleSpec, spec_b: WeightModuleSpec,
                       window: Window = DEFAULT_WINDOW) -> IsoCheckResult:
    """Prove the rescaling map eta_{k,s} |-> (lam_a/lam_b)^(+-k) eta_{k,s}
    intertwines spec_a with spec_b (families M or N), for every (k, s).

    The map is the canonical isomorphism when the specs differ only in
    lambda; any other difference shows up as a failed probe.  The exponent
    sign follows where the lambda factors live: on the k-1 translations
    for M, on the k+1 translations for N.  Conjugating x, which moves k by
    dk, by the map multiplies it by r^(+-dk), r = lam_a/lam_b, so the
    identities r^(+-dk) x on spec_a minus x on spec_b are proved.
    """
    if spec_a.family not in ("M", "N") or spec_a.family != spec_b.family:
        raise ValueError("lambda rescaling is the M/N-family isomorphism")
    ratio = spec_a.lam / spec_b.lam
    sign = 1 if spec_a.family == "M" else -1
    tables = spec_a.adjoint[1]
    residuals = ks_residuals(
        [spec_a.adjoint, spec_b.adjoint],
        ks_plan([[(0, ratio ** (sign * (SHIFT[x] // 2)), (x,)), (1, -1, (x,))]
                 for x in tables], 2))
    return _table_iso(dict(zip(tables, residuals)), window)


def vm_matching_b(spec_v: WeightModuleSpec) -> Fraction:
    """The M-side parameter b matched to a V module off the beta = -a wall:
    b = -2a (lam beta1(a) + 1)."""
    return -2 * spec_v.a * (spec_v.lam * poly1_eval(spec_v.beta1, spec_v.a) + 1)


def vm_matching_m_spec(spec_v: WeightModuleSpec) -> WeightModuleSpec:
    """The M module isomorphic to spec_v when beta + a != 0."""
    return make_weight_m(spec_v.alpha, spec_v.beta, spec_v.lam,
                         -spec_v.a * spec_v.a, vm_matching_b(spec_v))


def vm_iso_check(spec_v: WeightModuleSpec, spec_m: WeightModuleSpec,
                 window: Window = DEFAULT_WINDOW) -> IsoCheckResult:
    """Prove or refute that the map M -> V built from e-powers intertwines,
    for every (k, s).

    With c = 2/(beta + a), the candidate isomorphism is

        phi(eta^M_{k,s}) = c^(k+s-1) / (2 lam)^(s-1) * e^(s-1) . eta^V_{k+s-1,1}

    (e-powers computed inside V).  The verdict is true exactly when

    1. ``prove_brackets`` passes on both adjoint tables, so x.e - e.x =
       [x, e] on V and on M;
    2. M's e table is {(-1, 1, 0, 0): 2 lam d}, d its denominator: e
       sends eta_{k,s} to 2 lam eta_{k-1,s+1}, so phi o e = e o phi holds
       on all of M by construction;
    3. phi commutes with every generator x on the probes (k, 1, x), for
       the top + 2 columns k_min <= k <= k_min + top + 1, top the largest
       ds + t of M's tables, the m of the operator term (1 on every M
       table).

    Every k at s = 1: x.phi(eta_{k,1}) - phi(x.eta_{k,1}), divided by c^k,
    has entries polynomial in k of degree at most 1 + top, one affine
    factor from x's table and one from each e-power in phi(eta_{k',1+m}),
    m <= top; top + 2 zeros make each entry zero.  Every s, by induction:
    if x o phi = phi o x on every eta_{k,t}, t <= s, for every generator
    x, write eta_{k,s+1} = (2 lam)^-1 e.eta_{k+1,s}; then x.phi(eta_{k,s+1})
    = (2 lam)^-1 (e.x + [x, e]).phi(eta_{k+1,s}) = phi(x.eta_{k,s+1}), by
    point 2, the hypothesis, [x, e] a combination of generators, and point
    1 on V and then on M.

    ``failing_probe`` is the first failing probe of point 3.  The specs
    share alpha, beta and lambda, so a and b enter only c0 of M's table
    and each generator's residual is nonzero at every k or at none: the
    first failure is (k_min, 1, x), where the window's first index puts
    it.  When only point 1 or 2 fails, as on planted tables only,
    ``intertwines`` is false and ``failing_probe`` None.  The map is
    triangular: V's e table at (-1, 1, 0, 0) is lam (beta + a) on every
    column, so phi(eta_{k,s}) is c^k eta_{k,s} plus lower s terms, and
    ``rank`` is the window's index count.

    ``details`` gives ``matched_b`` and ``p_identity_ok``, whether the
    scalar identity P(hbar) = spec_m.b holds as a polynomial identity in
    hbar, where P(hbar) = ((hbar - a)/lam) alpha1 - lam (hbar + a) beta1 -
    2a.  Its derivative P' is ``e34_residual(lam, a, beta1, alpha1)``,
    which vanishes because a V spec's alpha1 is the linked alpha1 of its
    parent Omega(lam, a, beta1).  So P is the constant P(a) = -2a (lam
    beta1(a) + 1) = ``vm_matching_b``, and the identity holds exactly when
    spec_m.b is the matched b.
    """
    if spec_v.family != "V" or spec_m.family != "M":
        raise ValueError("vm_iso_check maps an M spec onto a V spec")
    if (spec_v.alpha, spec_v.beta, spec_v.lam) != (spec_m.alpha, spec_m.beta, spec_m.lam):
        raise ValueError("specs must share alpha, beta and lambda")
    beta, a, lam = spec_v.beta, spec_v.a, spec_v.lam
    if beta + a == 0:
        raise ValueError("the explicit map needs beta + a != 0")
    c = Fraction(2) / (beta + a)
    d, tables = spec_m.adjoint
    top = max(ds + t for table in tables.values() for _, ds, t, _ in table)

    def phi(v: WeightVec) -> WeightVec:
        out: WeightVec = {}
        for (k, s), x in v.items():
            w = {(k + s - 1, 1): 1}
            for _ in range(s - 1):
                w = act_weight(spec_v, "e", w)
            add_into(out, x * c ** (k + s - 1) / (2 * lam) ** (s - 1),
                     w.items())
        return out

    failing = _first_failure(
        ((k, 1, x) for k in range(window.k_min, window.k_min + top + 2)
         for x in GENERATORS),
        partial(act_weight, spec_m), partial(act_weight, spec_v), phi)
    proved = (failing is None
              and tables["e"] == {(-1, 1, 0, 0): 2 * lam * d}
              and all(p["pass"] for spec in (spec_v, spec_m)
                      for p in prove_brackets(spec.adjoint)))
    rank = (window.k_max - window.k_min + 1) * window.s_max
    matched_b = vm_matching_b(spec_v)
    return IsoCheckResult(proved, rank, window.as_text(), failing, {
        "p_identity_ok": spec_m.b == matched_b, "matched_b": matched_b})


# -- window intertwiner search ----------------------------------------------------

@dataclass
class LinearWindowMap:
    """A linear map defined on window basis functionals of the domain.

    ``columns[(k, s)]`` is the image of eta_{k,s} as a codomain vector;
    images live in the codomain window by construction.
    """

    columns: Dict[Tuple[int, int], WeightVec]

    def apply(self, v: WeightVec) -> WeightVec:
        for key in v:
            if key not in self.columns:
                raise ValueError(f"vector leaves the domain window at {key}")
        out: WeightVec = {}
        for key, c in v.items():
            add_into(out, c, self.columns[key].items())
        return out

    def is_zero(self) -> bool:
        return all(not col for col in self.columns.values())

    def rank(self) -> int:
        """The number of nonzero images: a map the search returns is
        sum_{j >= j0} t_j N^j on each column, into a column of its own."""
        return sum(1 for col in self.columns.values() if col)


def _multiplication_entries(spec: WeightModuleSpec) -> set:
    """The generators among h and hbar whose adjoint table in ``spec`` is
    multiplication by themselves: the table of ``freemod._CARTAN``
    dualized at the spec's (alpha, beta), compared over the product of
    the two denominators."""
    d, tables = spec.adjoint
    d_cartan, cartan = adjoint_table(_CARTAN, spec.alpha, spec.beta)
    return {y for y, table in cartan.items()
            if {key: a * d_cartan for key, a in tables[y].items()}
            == {key: a * d for key, a in table.items()}}


def intertwiner_search(spec_a: WeightModuleSpec, spec_b: WeightModuleSpec,
                       window: Window = DEFAULT_WINDOW) -> dict:
    """Exact basis of window-supported intertwiners spec_a -> spec_b.

    Returns a dict with the solution ``maps`` (LinearWindowMap list), the
    space ``dimension``, the derived ``codomain_window`` and a
    ``verified`` flag: every basis map commutes with the generators on the
    domain-interior probes, codomain images taken in full, unrelaxed.
    An empty space is returned outright when no codomain column matches
    the domain h-eigenvalues, or when beta_A != beta_B.

    A map T sends column k of the window to column k + delta, delta =
    (alpha_A - alpha_B)/2, and is solved on the hbar-commutant.  In every
    family hbar acts on a column as -beta - N, N.eta_{k,s} = (s-1)
    eta_{k,s-1}: one nilpotent Jordan block per column.  Three facts make
    the solve exact:

    * every hbar probe is interior and no component of an hbar image
      leaves the codomain window, so the hbar equations are never
      relaxed: they read (beta_A - beta_B) T = N T - T N on each column;
    * ad N is nilpotent, so the space is {0} unless beta_A = beta_B;
    * with beta_A = beta_B, T commutes with the single Jordan block N, so
      it is a polynomial in N: T(eta_{k,s}) = sum_j t_{k,j} (s-1)!/(s-1-j)!
      eta_{k+delta,s-j}, j < S = window.s_max.

    So the unknowns are the S numbers t_{k,j} per column, and only the e,
    f, eb and fb probes give equations: the h equations cancel under the
    column matching, and the hbar equations hold identically.  Listed
    with k ascending and, within each k, j descending, the unknowns make
    each ``nullspace`` vector 1 at its last unknown (k_p, j_p) and 0 at
    the others'.  An entry T[k, s_in, s_out] = t_{k,j} perm(s_in - 1, j)
    belongs to the one unknown j = s_in - s_out, so divided by
    perm(S - 1, j_p) each map is 1 at its largest entry (k_p, S, S - j_p)
    and the others vanish there: the maps are the reduced echelon basis
    of the entries, in pivot order, as ``nullspace`` would give it.

    A generator's image of every domain-window and codomain-window basis
    functional is computed at most once, as an integer vector scaled by a
    common denominator d_A or d_B per spec.  A row then reads d_A
    (codomain side) - d_B (domain side), an integer row with the same
    kernel.  One helper builds every component of a probe's row, and
    a component is solved or checked:

    * a component of an e, f, eb or fb probe inside the codomain window
      is an equation, which every kernel vector solves exactly;
    * a component outside it, and every component of an h or hbar probe,
      is a check.  T(y.eta) lies inside the codomain window for an
      interior probe, so the checks are exactly the components where the
      maps could still fail to commute.

    ``verified`` holds when every check vanishes on the primitive integer
    multiple of every kernel vector, one integer dot product each.  The h
    and hbar checks are decided on the adjoint tables first.  Where both
    sides' h table is multiplication by h (``freemod._CARTAN`` dualized
    at the spec's (alpha, beta)), h acts on column k as -alpha_A - 2k on
    one side and on column k + delta as the same scalar on the other, so
    every h row vanishes; where both sides' hbar table is multiplication
    by hbar, it acts as -beta - N on both, and every hbar row vanishes on
    a polynomial in N.  So a nonempty kernel builds the images and rows
    of h or hbar only when one side's table for it differs from that
    form, as only a planted table makes it.
    """
    offset2 = spec_a.alpha - spec_b.alpha
    empty = {"maps": [], "dimension": 0, "codomain_window": None,
             "verified": True, "window": window.as_text()}
    if offset2.denominator != 1 or int(offset2) % 2 != 0:
        return empty
    delta = int(offset2) // 2
    cod = Window(window.k_min + delta, window.k_max + delta, window.s_max)
    if spec_a.beta != spec_b.beta:
        return {**empty, "codomain_window": cod}
    solved = ("eb", "fb", "f", "e")
    d_a, images_a = unit_images(spec_a, window, solved)
    d_b, images_b = unit_images(spec_b, cod, solved)

    domain = set(window.indices())

    def probe_rows(generators):
        """The rows of every probe (k, s, y), y in ``generators``, whose
        domain image stays inside the window: each component of d_a
        y.T(eta_{k,s}) - d_b T(y.eta_{k,s}) as a form in the t[k, j]."""
        # zeros in a row cost nullspace nothing, so rows skip add_into
        for (k, s_in) in window.indices():
            for y in generators:
                image = images_a[y][(k, s_in)]
                if not image.keys() <= domain:
                    continue
                rows: Dict[Tuple[int, int], Dict[Tuple[int, int], int]] = {}
                # y.T(eta_{k,s_in}) = sum_j t[k,j] perm(s_in - 1, j) *
                # y.eta_{k+delta,s_in-j}
                for j in range(s_in):
                    c_j = d_a * perm(s_in - 1, j)
                    for key, c in images_b[y][(k + delta, s_in - j)].items():
                        row = rows.setdefault(key, {})
                        row[(k, j)] = row.get((k, j), 0) + c_j * c
                # T(y.eta_{k,s_in}), inside the codomain window
                for (k2, s2), c in image.items():
                    for j in range(s2):
                        row = rows.setdefault((k2 + delta, s2 - j), {})
                        row[(k2, j)] = (row.get((k2, j), 0)
                                        - d_b * perm(s2 - 1, j) * c)
                yield from rows.items()

    # components inside the codomain window are solved; the rest are checks
    equations, checks = [], []
    for key, row in probe_rows(solved):
        (equations if cod.contains(key) else checks).append(row)
    kernel = nullspace(equations,
                       [(k, j) for k in range(window.k_min, window.k_max + 1)
                        for j in reversed(range(window.s_max))])

    def window_map(sol) -> LinearWindowMap:
        columns = {key: {} for key in window.indices()}
        for (k, j), c in sol.items():
            for s in range(j + 1, window.s_max + 1):
                columns[(k, s)][(k + delta, s - j)] = c * perm(s - 1, j)
        return LinearWindowMap(columns)

    maps = []
    for sol in kernel:
        _, j_p = max(sol, key=lambda kj: (kj[0], -kj[1]))  # last unknown
        norm = perm(window.s_max - 1, j_p)
        maps.append(window_map({kj: c / norm for kj, c in sol.items()}))
    verified = True
    if kernel:
        # an h or hbar row vanishes where both sides multiply (see above)
        both = (_multiplication_entries(spec_a)
                & _multiplication_entries(spec_b))
        differ = tuple(y for y in ("hb", "h") if y not in both)
        if differ:
            images_a.update(unit_images(spec_a, window, differ)[1])
            images_b.update(unit_images(spec_b, cod, differ)[1])
            checks += [row for _, row in probe_rows(differ)]
        primitive = [vec_primitive(sol) for sol in kernel]
        verified = all(not sum(c * v.get(u, 0) for u, c in row.items())
                       for row in checks for v in primitive)
    return {"maps": maps, "dimension": len(maps), "codomain_window": cod,
            "verified": verified, "window": window.as_text()}
