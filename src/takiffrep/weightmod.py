"""Dual weight families M, N, V and the sl2 layer modules Delta.

A weight vector is a finite combination of the functionals eta_{alpha_k,
beta^s} (k in Z, s >= 1), encoded as a dict {(k, s): Fraction}.  On a
polynomial p in C[h, hbar] the functional evaluates to

    eta_{alpha_k, beta^s}(p) = (s-1)! * [coefficient of (h - alpha_k)^0
                                         (hbar - beta)^(s-1) in p]

with alpha_k = alpha + 2k.

M(alpha, beta, lam, a, b) pairs with Gamma(lam, a, b) through
(x.eta)(p) = -eta(x.p); N pairs the same way with Theta, and
V(alpha, beta, lam, a, beta1) with Omega(lam, b := a, beta1) -- the scalar
called `a` on the V side occupies the parent Omega's `b` slot, and alpha1
is derived from beta1 by the same triangular linkage.

No family has action formulas of its own: ``WeightModuleSpec.adjoint``
is ``freemod.adjoint_table`` applied to the parent's operator table
(``FreeModuleSpec.ops``) at the spec's (alpha, beta), as ints over one
denominator d.  So N, whose parent Theta is Gamma transported by the
Chevalley involution, is M transported the same way.  Each image is a
finite vector computed exactly on the infinite basis (no truncation) and
divided by d once per entry.  The bracket identities are proved by
``freemod.prove_brackets``, the prover of the free axioms, on the same
tables, so they hold for every eta_{k,s}; windows only scope searches and
reports.  Nor has Delta: ``delta_action`` runs the action kernel of the
free families on the tables of ``freemod.delta_ops``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import comb, factorial
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import GENERATORS
from .freemod import (CHEVALLEY, SHIFT, AdjointTable, BinomialTable,
                      FreeModuleSpec, _apply_terms, adjoint_table, delta_ops,
                      make_gamma, make_omega, make_theta_mod, prove_brackets)
from .freemod import act as act_free
from .linalg import RowBasis, add_into, nullspace
from .poly import PolyHH, RationalLike, poly1_eval, to_rational

WeightVec = Dict[Tuple[int, int], Fraction]


@dataclass(frozen=True)
class WeightModuleSpec:
    family: str  # 'M', 'N' or 'V'
    alpha: Fraction
    beta: Fraction
    lam: Fraction
    a: Fraction
    b: Optional[Fraction] = None
    beta1: Optional[Tuple[Fraction, ...]] = None

    @cached_property
    def alpha1(self) -> Optional[Tuple[Fraction, ...]]:
        """V's alpha1, linked to (lam, a, beta1) by its parent Omega; None on
        M and N.  Read off the parent, so ``replace`` cannot leave it stale."""
        return parent_spec(self).alpha1

    def alpha_k(self, k: int) -> Fraction:
        return self.alpha + 2 * k

    def params(self) -> dict:
        last = _PARENTS[self.family][1]
        return {"family": self.family, "alpha": self.alpha, "beta": self.beta,
                "lambda": self.lam, "a": self.a, last: getattr(self, last)}

    @cached_property
    def adjoint(self) -> AdjointTable:
        """(d, tables): the ``BinomialTable`` of every generator on
        eta_{k,s}, ints over one denominator d, built once per spec."""
        return adjoint_table(parent_spec(self).ops, self.alpha, self.beta)

    @property
    def mirror(self) -> "WeightModuleSpec":
        """M(-alpha, -beta, lam, a, b), the M module an N spec transports to."""
        return replace(self, family="M", alpha=-self.alpha, beta=-self.beta)


def make_weight_m(alpha, beta, lam, a, b) -> WeightModuleSpec:
    lam = to_rational(lam)
    if not lam:
        raise ValueError("lambda must be nonzero")
    return WeightModuleSpec("M", to_rational(alpha), to_rational(beta), lam,
                            to_rational(a), b=to_rational(b))


def make_weight_n(alpha, beta, lam, a, b) -> WeightModuleSpec:
    return replace(make_weight_m(alpha, beta, lam, a, b), family="N")


def make_weight_v(alpha, beta, lam, a, beta1: Sequence[RationalLike]) -> WeightModuleSpec:
    """V with the lam, a and beta1 of Omega(lam, a, beta1)."""
    parent = make_omega(lam, a, beta1)
    return WeightModuleSpec("V", to_rational(alpha), to_rational(beta),
                            parent.lam, parent.b, beta1=parent.beta1)


# family -> (parent maker, the parameter after a); the parent is
# maker(lam, a, that parameter), so V's a fills Omega's b slot
_PARENTS = {"M": (make_gamma, "b"), "N": (make_theta_mod, "b"),
            "V": (make_omega, "beta1")}


def parent_spec(spec: WeightModuleSpec) -> FreeModuleSpec:
    """The free module this weight family is dual to."""
    try:
        maker, last = _PARENTS[spec.family]
    except KeyError:
        raise ValueError(f"unknown weight family {spec.family!r}") from None
    return maker(spec.lam, spec.a, getattr(spec, last))


# -- weight vectors ----------------------------------------------------------

def wv_unit(k: int, s: int) -> WeightVec:
    if s < 1:
        raise ValueError("functional index s starts at 1")
    return {(k, s): Fraction(1)}


def wv_scale(c: RationalLike, v: WeightVec) -> WeightVec:
    c = to_rational(c)
    return {k: c * x for k, x in v.items()} if c else {}


def wv_text(v: WeightVec) -> str:
    if not v:
        return "0"
    parts = [f"{v[key]}*eta[{key[0]},{key[1]}]" for key in sorted(v)]
    return " + ".join(parts)


# -- functional evaluation ----------------------------------------------------

def eval_functional(k: int, s: int, alpha: RationalLike, beta: RationalLike,
                    p: PolyHH) -> Fraction:
    """Value of eta_{alpha_k, beta^s} on p, exactly.

    That is (dbar^(s-1) p)(alpha_k, beta), read off the terms of p: a term
    c h^i hbar^j with j >= s-1 contributes c alpha_k^i j!/(j-s+1)! beta^(j-s+1).
    """
    if s < 1:
        raise ValueError("functional index s starts at 1")
    alpha_k = to_rational(alpha) + 2 * k
    beta = to_rational(beta)
    total = Fraction(0)
    for (i, j), c in p.terms():
        if j >= s - 1:
            total += (c * alpha_k ** i * beta ** (j - s + 1)
                      * (factorial(j) // factorial(j - s + 1)))
    return total


# -- generator actions ---------------------------------------------------------

def apply_adjoint(table: BinomialTable, v: WeightVec,
                  scale: RationalLike = 1) -> WeightVec:
    """``scale`` times the operator ``table`` applied to v: each key (dk,
    ds, t, j) -> a adds a k^j C(s-1, t) at (k + dk, s + ds) for each entry
    (k, s) of v, skipped where t >= s, as C(s-1, t) = 0 there.  The sums
    are kept in the table's type, and each output entry is multiplied by
    ``scale`` once."""
    out: WeightVec = {}
    # not linalg.add_into: summed in the table's type, cleaned once, scaled
    for (k, s), c in v.items():
        for (dk, ds, t, j), a in table.items():
            if t < s:
                key = (k + dk, s + ds)
                out[key] = out.get(key, 0) + c * (a * k ** j * comb(s - 1, t))
    return {key: c * scale for key, c in out.items() if c}


def unit_images(spec: WeightModuleSpec, window: Window,
                generators: Iterable[str] = GENERATORS):
    """(d, images): images[x][(k, s)] is d times x.eta_{k,s}, in full, for
    each of ``generators`` and every window index, the integer tables of
    ``spec.adjoint`` applied as they are; d is its denominator.

    A table is read once per s, not once per index: its keys (dk, ds, t,
    j) -> a with t < s sum to the template {(dk, s + ds): (u, v)}, u the
    sum of C(s-1, t) a over the keys with j = 0 and v over those with j =
    1, and the image of eta_{k,s} is {(k + dk, s'): u + v k}, less the
    entries that vanish at this k.  Values and their types are those of
    ``apply_adjoint``.
    """
    d, tables = spec.adjoint
    images = {}
    for x in generators:
        templates = []
        for s in range(1, window.s_max + 1):
            template: Dict[Tuple[int, int], List] = {}
            for (dk, ds, t, j), a in tables[x].items():
                if t < s:
                    template.setdefault((dk, s + ds), [0, 0])[j] += \
                        comb(s - 1, t) * a
            templates.append((s, [(dk, s2, u, v)
                                  for (dk, s2), (u, v) in template.items()]))
        column = images[x] = {}
        for k in range(window.k_min, window.k_max + 1):
            for s, template in templates:
                column[(k, s)] = {(k + dk, s2): c for dk, s2, u, v in template
                                  if (c := u + v * k)}
    return d, images


def act_weight(spec: WeightModuleSpec, x: str, v: WeightVec) -> WeightVec:
    """Apply a generator to a weight vector (exact, untruncated)."""
    d, tables = spec.adjoint
    try:
        table = tables[x]
    except KeyError:
        raise ValueError(f"unknown generator {x!r}") from None
    return apply_adjoint(table, v, Fraction(1, d))


def act_weight_word(spec: WeightModuleSpec, word: Sequence[str],
                    v: WeightVec) -> WeightVec:
    """Apply a word of generators, rightmost first."""
    if isinstance(word, str):
        word = (word,)
    out = v
    for x in reversed(tuple(word)):
        out = act_weight(spec, x, out)
    return out


# -- windows -------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    k_min: int
    k_max: int
    s_max: int

    def __post_init__(self):
        if self.k_min > self.k_max or self.s_max < 1:
            raise ValueError(f"degenerate window {self}")

    def contains(self, key: Tuple[int, int]) -> bool:
        k, s = key
        return self.k_min <= k <= self.k_max and 1 <= s <= self.s_max

    def indices(self) -> Iterator[Tuple[int, int]]:
        for k in range(self.k_min, self.k_max + 1):
            for s in range(1, self.s_max + 1):
                yield (k, s)

    def as_text(self) -> str:
        return f"{self.k_min}:{self.k_max}:{self.s_max}"


DEFAULT_WINDOW = Window(-5, 5, 5)


# -- duality and bracket checks -------------------------------------------------

def dual_consistency(spec: WeightModuleSpec, window: Window = DEFAULT_WINDOW,
                     trials: int = 50, seed: int = 0) -> dict:
    """Prove or refute x.eta_{k,s} == -eta_{k,s} o x for every (k, s).

    By Leibniz a parent term c * dbar^m g(h + d, hbar) puts -eta_{k,s} o x
    in span{eta_{k+d/2,t} : t <= s + m}, and eta_{k',t'} is [t = t'] on
    p_t = (hbar - beta)^(t-1)/(t-1)!, so its values on those p_t, through
    the parent's ``act``, are its coordinates; they are compared with the
    whole vector x.eta_{k,s} read from ``spec.adjoint``.  At a fixed t - s
    both sides are affine in k (``adjoint_table`` rejects coefficients of
    degree > 1 in h) and polynomials in s of degree <= D, the largest of
    the parent's hbar-degrees and the tables' t (C(s-1, t) hides a term at
    every s <= t).  So k in {0, 1} and s in 1..D+1 decide every (k, s).
    ``window``, ``trials`` and ``seed`` are echoed only; nothing is sampled.
    """
    parent = parent_spec(spec)
    coeffs = [(c, m) for terms in parent.ops.values() for c, m in terms]
    top = max([c.deg_hbar() for c, _ in coeffs] + [
        t for table in spec.adjoint[1].values() for _, _, t, _ in table])
    m_top = max(m for _, m in coeffs)
    shifted = PolyHH.hbar() - PolyHH.const(spec.beta)
    probes = [PolyHH.const(1)]  # probes[t - 1] is p_t
    for t in range(1, top + m_top + 1):
        probes.append(probes[-1] * shifted.scale(Fraction(1, t)))
    failures = []
    for x in GENERATORS:
        dk = SHIFT[x] // 2
        for k in (0, 1):
            for s in range(1, top + 2):
                rhs = {}
                for t, p in enumerate(probes[:s + m_top], 1):
                    c = eval_functional(k, s, spec.alpha, spec.beta,
                                        act_free(parent, x, p))
                    if c:
                        rhs[(k + dk, t)] = -c
                if act_weight(spec, x, wv_unit(k, s)) != rhs:
                    failures.append({"k": k, "s": s, "x": x})
    return {"family": spec.family, "params": spec.params(),
            "window": window.as_text(), "trials": trials, "seed": seed,
            "failures": failures, "ok": not failures}


def weight_bracket_report(spec: WeightModuleSpec,
                          window: Window = DEFAULT_WINDOW) -> dict:
    """Prove or refute [x,y].v == x.(y.v) - y.(x.v) for every eta_{k,s}.

    ``freemod.prove_brackets`` composes the tables of ``spec.adjoint`` and
    decides each pair for every (k, s) at once; ``window`` is echoed only.
    """
    pairs = prove_brackets(spec.adjoint)
    return {"family": spec.family, "params": spec.params(),
            "window": window.as_text(), "pairs": pairs,
            "ok": all(p["pass"] for p in pairs)}


# -- singular vectors and simplicity --------------------------------------------

# the sl2-type pairs: the lowering one and its Chevalley image
_LOWERING = ("f", "fb")
_RAISING = tuple(CHEVALLEY[x][0] for x in _LOWERING)
_KILL_PAIRS = {
    "M": (_LOWERING,),
    "N": (_RAISING,),
    # for V the barred pair detects the beta = a = 0 stratum, where neither
    # sl2-type pair vanishes on the submodule span{eta_{k,1}}
    "V": (_LOWERING, _RAISING, ("eb", "fb")),
}


@dataclass
class SingularHit:
    k: int
    s: int
    vector: WeightVec
    killed_by: Tuple[str, str]
    h_eigenvalue: Fraction


@dataclass
class SingularReport:
    family: str
    window: Window
    hits: List[SingularHit] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return bool(self.hits)


def singular_vectors(spec: WeightModuleSpec,
                     window: Window = DEFAULT_WINDOW) -> SingularReport:
    """All window vectors killed by a lowering/raising pair, column by column.

    Works one h-eigenspace (fixed k) at a time: the kernel of the stacked
    pair action on span{eta_{k,s} : s <= s_max} is computed exactly (the
    images are finite vectors, no truncation is involved), so every
    reported hit is a genuine singular vector of the full module.  The
    images are the integer ones of ``unit_images``; scaling every equation
    by d leaves the kernel, and so its canonical basis, unchanged.
    """
    report = SingularReport(spec.family, window)
    pairs = _KILL_PAIRS[spec.family]
    _, images = unit_images(spec, window, {x for pair in pairs for x in pair})
    cols = list(range(1, window.s_max + 1))
    for pair in pairs:
        for k in range(window.k_min, window.k_max + 1):
            equations: Dict[Tuple[str, int, int], Dict[int, int]] = {}
            for s in cols:
                for x in pair:
                    for key, c in images[x][(k, s)].items():
                        equations.setdefault((x,) + key, {})[s] = c
            kernel = nullspace(list(equations.values()), cols)
            for basis_vec in kernel:
                vec = {(k, s): c for s, c in basis_vec.items()}
                s_top = max(s for (_, s) in vec)
                report.hits.append(SingularHit(
                    k=k, s=s_top, vector=vec, killed_by=pair,
                    h_eigenvalue=-spec.alpha_k(k)))
    return report


@dataclass
class WeightSimplicityResult:
    simple: bool
    witness: Optional[Tuple[int, int]] = None
    pair: Optional[Tuple[str, str]] = None
    reason: str = ""


def _as_integer(x: Fraction) -> Optional[int]:
    return int(x) if x.denominator == 1 else None


def simplicity_criterion_weight(spec: WeightModuleSpec) -> WeightSimplicityResult:
    """Closed-form simplicity test with a normalized witness position.

    For M: reducible iff beta^2 + a = 0 and some integer j solves
    alpha_j * beta + b = 0; the witness eta_{j-1, 1} is killed by {f, fb}.
    N is M(-alpha, -beta, lam, a, b) transported: the same stratum, with
    witness eta_{j+1, 1} killed by {e, eb}.  For V: reducible iff
    beta = a = 0 (barred pair kills every eta_{k,1}), or beta = a != 0
    with (2 lam beta1(beta) - alpha)/2 = j integral (witness eta_{j,1},
    pair {f, fb}), or beta = -a != 0 with (-2 alpha1(beta)/lam - alpha)/2
    = j integral (witness eta_{j,1}, pair {e, eb}).
    """
    beta, a = spec.beta, spec.a
    if spec.family == "N":
        result = simplicity_criterion_weight(spec.mirror)
        if not result.simple:
            result.witness = (-result.witness[0], result.witness[1])
            result.pair = tuple(CHEVALLEY[x][0] for x in result.pair)
        return result
    if spec.family == "M":
        if beta * beta + a != 0:
            return WeightSimplicityResult(True, reason="beta^2 + a != 0")
        if beta == 0:
            # then a = 0; the f-column coefficient reduces to b
            if spec.b != 0:
                return WeightSimplicityResult(
                    True, reason="beta = 0, a = 0 but b != 0")
            j = 0
        else:
            j = _as_integer((-spec.b / beta - spec.alpha) / 2)
            if j is None:
                return WeightSimplicityResult(
                    True, reason="alpha_j beta + b = 0 has no integer root")
        return WeightSimplicityResult(
            False, witness=(j - 1, 1), pair=_LOWERING,
            reason="beta^2 + a = 0 and alpha_j beta + b = 0 at integer j")
    if spec.family == "V":
        if beta == a and beta == -a:  # beta = a = 0
            return WeightSimplicityResult(
                False, witness=(0, 1), pair=_KILL_PAIRS["V"][-1],
                reason="beta = a = 0: span{eta_{k,1}} is a proper submodule")
        if beta == a:
            j = _as_integer((2 * spec.lam * poly1_eval(spec.beta1, beta)
                             - spec.alpha) / 2)
            if j is None:
                return WeightSimplicityResult(
                    True, reason="beta = a but alpha_j = 2 lam beta1(beta) "
                                 "has no integer root")
            return WeightSimplicityResult(
                False, witness=(j, 1), pair=_LOWERING,
                reason="beta = a and alpha_j = 2 lam beta1(beta) at integer j")
        if beta == -a:
            j = _as_integer((-2 * poly1_eval(spec.alpha1, beta) / spec.lam
                             - spec.alpha) / 2)
            if j is None:
                return WeightSimplicityResult(
                    True, reason="beta = -a but lam alpha_j = -2 alpha1(beta) "
                                 "has no integer root")
            return WeightSimplicityResult(
                False, witness=(j, 1), pair=_RAISING,
                reason="beta = -a and lam alpha_j = -2 alpha1(beta) at integer j")
        return WeightSimplicityResult(True, reason="beta != a and beta != -a")
    raise ValueError(f"unknown weight family {spec.family!r}")


# -- opposite Verma structure of the generated submodule -------------------------

@dataclass
class VermaReport:
    hit: Tuple[int, int]
    direction: int  # -1: submodule grows toward smaller k, +1: larger k
    depth_dims: List[int]
    expected_dims: List[int]
    character_ok: bool
    quotient_nilpotent_ok: bool

    @property
    def passed(self) -> bool:
        return self.character_ok and self.quotient_nilpotent_ok


def verma_check(spec: WeightModuleSpec, hit: Tuple[int, int],
                window: Window = DEFAULT_WINDOW) -> VermaReport:
    """Build the submodule generated by a singular eta_{k0,s0} from its PBW
    span and compare its columns with the opposite Verma character.

    The hit must be killed by an sl2-type pair, (f, fb) or (e, eb); the
    other pair (x, xbar) grows the submodule, toward smaller k for (e, eb).
    By PBW (Dixmier, Enveloping Algebras, 2.1), with h acting on the hit by
    a scalar and hbar as -beta - N, N lowering s, the submodule is exactly
    span{x^a xbar^b eta_{k0,t} : t <= s0}: column n is spanned by xbar
    applied to column n - 1 and x to each x^(n-1) eta_{k0,t}, and it is
    everything with s <= n + s0 when the leading coefficients of x and
    xbar are nonzero.  The columns use the integer ``spec.adjoint``.  Also
    certifies that hbar + beta is nilpotent but not zero on the quotient
    column at the hit, so the quotient is not a semisimple hbar-module.
    """
    k0, s0 = hit
    d, tables = spec.adjoint
    for direction, pair, growth in ((-1, _LOWERING, _RAISING),
                                    (+1, _RAISING, _LOWERING)):
        if not any(apply_adjoint(tables[x], {hit: 1}) for x in pair):
            break
    else:
        raise ValueError(f"eta_{hit} is not singular for an sl2-type pair")
    if direction < 0:
        depth_max = k0 - window.k_min
    else:
        depth_max = window.k_max - k0
    if depth_max < 0:
        raise ValueError("window does not contain the hit column")

    x, xbar = (tables[g] for g in growth)
    # chains[t - 1][a] is x^a xbar^(n-a) eta_{k0,t}
    chains = [[{(k0, t): 1}] for t in range(1, s0 + 1)]
    depth_dims = []
    for n in range(depth_max + 1):
        if n:
            chains = [[apply_adjoint(xbar, v) for v in chain]
                      + [apply_adjoint(x, chain[-1])] for chain in chains]
        basis = RowBasis()
        for chain in chains:
            for v in chain:
                basis.add(v)
        depth_dims.append(basis.rank)
    expected = [n + 1 for n in range(depth_max + 1)]
    character_ok = depth_dims == expected

    # quotient certificate at the hit column, where the submodule is
    # span{eta_{k0,t} : t <= s0}: hbar + beta is nilpotent on the column yet
    # nonzero modulo the submodule.  It runs on the ints of D (hbar + beta),
    # D = d times beta's denominator; hbar's constant key (0, 0, 0, 0) is
    # -D beta, as hbar + beta acts as -N, so it cancels there.
    q = spec.beta.denominator
    shifted = add_into({key: a * q for key, a in tables["hb"].items()},
                       d * spec.beta.numerator, (((0, 0, 0, 0), 1),))
    s_cap = max(window.s_max, s0 + 2)
    nonzero_mod, nilpotent = False, True
    for s in range(1, s_cap + 1):
        w = apply_adjoint(shifted, {(k0, s): 1})
        nonzero_mod = nonzero_mod or any(t > s0 for _, t in w)
        for _ in range(s_cap - 1):
            w = apply_adjoint(shifted, w)
        nilpotent = nilpotent and not w
    return VermaReport(hit=hit, direction=direction, depth_dims=depth_dims,
                       expected_dims=expected, character_ok=character_ok,
                       quotient_nilpotent_ok=nonzero_mod and nilpotent)


# -- the sl2 polynomial modules Delta ------------------------------------------

def delta_action(variant: int, lam: RationalLike, a: RationalLike,
                 x: str, g: PolyHH) -> PolyHH:
    """Action of sl2 on C[h] in the three classical one-parameter shapes,
    the tables of ``freemod.delta_ops``, through the free action kernel."""
    lam = to_rational(lam)
    if not lam:
        raise ValueError("lambda must be nonzero")
    a = to_rational(a)
    if g.deg_hbar() > 0:
        raise ValueError("Delta modules live on polynomials in h alone")
    ops = delta_ops(variant, lam, a) if variant in (1, 2, 3) else {}
    if x not in ops:
        raise ValueError(f"unknown Delta variant {variant!r} or generator {x!r}")
    return _apply_terms(ops[x], g.shift_h(SHIFT[x]))


def random_weight_spec(rng: random.Random, family: str,
                       beta1_deg: int = 2) -> WeightModuleSpec:
    from .poly import random_rational
    lam = random_rational(rng, nonzero=True)
    alpha = random_rational(rng)
    beta = random_rational(rng)
    if family in ("M", "N"):
        return replace(make_weight_m(alpha, beta, lam, random_rational(rng),
                                     random_rational(rng)), family=family)
    if family == "V":
        deg = rng.randint(0, beta1_deg)
        beta1 = tuple(random_rational(rng) for _ in range(deg + 1))
        return make_weight_v(alpha, beta, lam, random_rational(rng), beta1)
    raise ValueError(f"unknown family {family!r}")
