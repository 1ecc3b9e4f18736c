"""Seeded workloads for the takiffrep benchmark, with a known-answer oracle.

Each workload is an endless, deterministic stream of items.  Item ``i`` of a
stream depends only on the seed and on ``i``: its kind is fixed by a cyclic
schedule (so every run has the same mix of kinds) and its parameters are
drawn from a ``random.Random`` seeded with ``(seed, i)``.  Every item carries
the answer it must produce, known by construction and never computed by the
code under test:

* a consistent gamma/theta/omega spec satisfies all 15 bracket axioms, an
  omega spec whose alpha1 constant term is perturbed does not;
* a saturation of gamma, theta or omega with b != 0 reaches 1, one of omega
  with b = 0 seeded inside hbar*C[h, hbar] never does and stays there;
* weight modules satisfy the bracket identities, a scan point's verdict is
  the closed-form reducibility criterion of the paper, intertwiner spaces
  have dimension >= 1 (N -> M), 0 (mismatched M pairs) or exactly 1 (the
  alpha + 2 shift), reducible M points have Verma dims 1..5, twists are
  isomorphisms;
* normal forms are idempotent and multiplicative across any cut, Theta_z is
  an automorphism, and the barred Casimir hb^2 + 4 eb fb is central.

The code under test is reached only through module attributes of the
``takiffrep`` package (``tk.freemod.act`` rather than a local name), so the
tracer in ``tracing.py`` sees every call.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Tuple

import takiffrep as tk

F = Fraction

UNBARRED = ("f", "h", "e")
BARRED = ("eb", "fb", "hb", "ebinv")


@dataclass(frozen=True)
class Item:
    """One unit of work: ``kind`` selects the runner, ``expect`` the answer."""

    index: int
    kind: str
    args: tuple
    expect: object


@dataclass(frozen=True)
class Workload:
    name: str
    schedule: Tuple[str, ...]
    # number of leading items that every run executes, that the verdict
    # digest covers and that a traced run times twice; at least 100, so
    # that ten verdicts lie beyond the 90th percentile
    prefix: int
    generate: Callable[[random.Random, str, "Context"], Tuple[tuple, object]]
    run: Callable[[str, tuple], Tuple[object, str]]


class Context:
    """Seed-independent inputs shared by all items of one stream."""

    def __init__(self, workload: str):
        self.grid = tk.builtin_scan_grid() if workload == "weight-window" else []
        self.reducible_m = [
            spec for spec in self.grid
            if spec.family == "M" and not _closed_form_simple(spec)]


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = F(rng.randint(-9, 9), rng.randint(1, 9))
        if v or not nonzero:
            return v


def _poly(rng: random.Random, deg_h: int, deg_hbar: int, terms: int):
    """Nonzero random polynomial of bidegree at most (deg_h, deg_hbar)."""
    while True:
        coeffs: Dict[Tuple[int, int], Fraction] = {}
        for _ in range(rng.randint(1, terms)):
            e = (rng.randint(0, deg_h), rng.randint(0, deg_hbar))
            coeffs[e] = coeffs.get(e, F(0)) + _rational(rng)
        coeffs = {e: v for e, v in coeffs.items() if v}
        if coeffs:
            return coeffs


def _poly1_eval(coeffs, x: Fraction) -> Fraction:
    total = F(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _is_integer(x: Fraction) -> bool:
    return x.denominator == 1


def _closed_form_simple(spec) -> bool:
    """Reducibility criterion for M, N and V, written from the paper.

    M and N are reducible iff beta^2 + a = 0 and alpha_j beta + b = 0 has
    an integer root j (at beta = 0 that reads b = 0).  V is reducible iff
    beta = a = 0, or beta = a != 0 and (2 lam beta1(beta) - alpha)/2 is an
    integer, or beta = -a != 0 and (-2 alpha1(beta)/lam - alpha)/2 is an
    integer.
    """
    beta, a, alpha, lam = spec.beta, spec.a, spec.alpha, spec.lam
    if spec.family in ("M", "N"):
        if beta * beta + a:
            return True
        if not beta:
            return spec.b != 0
        return not _is_integer((-spec.b / beta - alpha) / 2)
    if not beta and not a:
        return False
    if beta == a:
        return not _is_integer((2 * lam * _poly1_eval(spec.beta1, beta) - alpha) / 2)
    if beta == -a:
        return not _is_integer((-2 * _poly1_eval(spec.alpha1, beta) / lam - alpha) / 2)
    return True


# -- free-axioms: verify_axioms on gamma/theta/omega, some omega perturbed -----

AXIOM_TRIALS = 3


def _gen_free_axioms(rng, kind, ctx):
    lam = _rational(rng, nonzero=True)
    if kind in ("gamma", "theta"):
        make = tk.freemod.make_gamma if kind == "gamma" else tk.freemod.make_theta_mod
        spec = make(lam, _rational(rng), _rational(rng))
        expect = True
    else:
        b = _rational(rng)
        beta1 = tuple(_rational(rng) for _ in range(rng.randint(1, 3)))
        alpha1 = None
        if kind == "omega-perturbed":
            alpha1 = list(tk.freemod.alpha_from_beta(beta1, lam, b))
            alpha1[0] += _rational(rng, nonzero=True)
        spec = tk.freemod.make_omega(lam, b, beta1, alpha1=alpha1)
        expect = kind == "omega"
    return (spec, rng.randint(0, 10**6)), expect


def _run_free_axioms(kind, args):
    spec, probe_seed = args
    rep = tk.freemod.verify_axioms(spec, trials=AXIOM_TRIALS, seed=probe_seed)
    flags = "".join("1" if p["pass"] else "0" for p in rep["pairs"])
    return rep["ok"], f"{flags} {rep['ok']}"


# -- saturate: capped submodule saturation -------------------------------------

SATURATION_CAP = (4, 4)


def _gen_saturate(rng, kind, ctx):
    lam = _rational(rng, nonzero=True)
    if kind == "gamma":
        spec = tk.freemod.make_gamma(lam, _rational(rng), _rational(rng))
    elif kind == "theta":
        spec = tk.freemod.make_theta_mod(lam, _rational(rng), _rational(rng))
    else:
        b = _rational(rng, nonzero=True) if kind == "omega" else F(0)
        # alpha1 and beta1 raise the hbar-degree by their own degree; linear
        # ones leave the (4, 4) cap room to reach 1 from every seed
        beta1 = tuple(_rational(rng) for _ in range(rng.randint(1, 2)))
        spec = tk.freemod.make_omega(lam, b, beta1)
    if kind == "omega-b0":
        # hbar * q with q of bidegree <= (2, 1): the seed lies in hbar*C[h,hbar]
        coeffs = {(i, j + 1): v for (i, j), v in _poly(rng, 2, 1, 4).items()}
        expect = (False, True)
    else:
        coeffs = _poly(rng, 2, 2, 4)
        expect = (True, None)
    return (spec, coeffs), expect


def _run_saturate(kind, args):
    spec, coeffs = args
    res = tk.freemod.submodule_saturate(spec, tk.PolyHH(coeffs),
                                        cap=SATURATION_CAP)
    if kind == "omega-b0":
        inside = all(all(j > 0 for (_, j), _ in row.terms()) for row in res.basis)
        return (res.contains_one, inside), f"{res.contains_one} {inside}"
    return (res.contains_one, None), f"{res.contains_one}"


# -- weight-window: the dual weight modules ---------------------------------------

BRACKET_WINDOW = (-2, 2, 3)
SEARCH_WINDOW = (-2, 2, 3)
TWIST_WINDOW = (-2, 2, 3)


def _weight_spec(rng, family):
    lam = _rational(rng, nonzero=True)
    alpha, beta, a = _rational(rng), _rational(rng), _rational(rng)
    if family == "M":
        return tk.make_weight_m(alpha, beta, lam, a, _rational(rng))
    if family == "N":
        return tk.make_weight_n(alpha, beta, lam, a, _rational(rng))
    beta1 = tuple(_rational(rng) for _ in range(rng.randint(1, 3)))
    return tk.make_weight_v(alpha, beta, lam, a, beta1)


def _simple_m(rng):
    while True:
        spec = _weight_spec(rng, "M")
        if _closed_form_simple(spec):
            return spec


def _gen_weight(rng, kind, ctx):
    if kind == "bracket":
        return (_weight_spec(rng, rng.choice("MNV")),), True
    if kind == "scan":
        spec = rng.choice(ctx.grid)
        return (spec,), (_closed_form_simple(spec), True)
    if kind == "intertwine-nm":
        while True:
            lam = _rational(rng, nonzero=True)
            a, beta = _rational(rng), _rational(rng)
            if beta * beta + a:
                break
        b, alpha = _rational(rng), F(rng.randint(-3, 3))
        return (tk.make_weight_n(alpha, beta, lam, a, b),
                tk.make_weight_m(alpha, beta, lam, a, b)), ("1+", True)
    if kind == "intertwine-mismatch":
        spec = _simple_m(rng)
        alpha, beta, lam, a, b = spec.alpha, spec.beta, spec.lam, spec.a, spec.b
        which = rng.randrange(3)
        if which == 0:
            beta += 1
        elif which == 1:
            a += 2
        else:
            b -= F(1, 2)
        return (spec, tk.make_weight_m(alpha, beta, lam, a, b)), (0, True)
    if kind == "intertwine-shift":
        spec = _simple_m(rng)
        shifted = tk.make_weight_m(spec.alpha + 2, spec.beta, spec.lam,
                                   spec.a, spec.b)
        return (spec, shifted), (1, True)
    if kind == "verma":
        return (rng.choice(ctx.reducible_m),), ((1, 2, 3, 4, 5), True)
    if kind == "twist":
        return (_weight_spec(rng, "M"), _rational(rng)), True
    raise ValueError(f"unknown weight-window kind {kind!r}")


def _run_weight(kind, args):
    Window = tk.Window
    if kind == "bracket":
        rep = tk.weightmod.weight_bracket_report(args[0], Window(*BRACKET_WINDOW))
        flags = "".join("1" if p["pass"] else "0" for p in rep["pairs"])
        return rep["ok"], f"{flags} {rep['ok']}"
    if kind == "scan":
        row = tk.scan.scan_point(args[0])
        text = ";".join(f"{key}={row[key]}" for key in sorted(row))
        return (row["simple?"], row["agrees"]), text
    if kind.startswith("intertwine"):
        res = tk.functors.intertwiner_search(args[0], args[1],
                                             Window(*SEARCH_WINDOW))
        dim = res["dimension"]
        got = ("1+" if dim >= 1 else 0) if kind == "intertwine-nm" else dim
        return (got, res["verified"]), f"{dim} {res['verified']}"
    if kind == "verma":
        spec = args[0]
        crit = tk.weightmod.simplicity_criterion_weight(spec)
        k0 = crit.witness[0]
        rep = tk.weightmod.verma_check(spec, crit.witness,
                                       Window(k0 - 4, k0 + 4, 6))
        dims = tuple(rep.depth_dims)
        return (dims, rep.passed), f"{crit.witness} {dims} {rep.passed}"
    if kind == "twist":
        spec, z = args
        res = tk.functors.check_twist_iso(z, spec, Window(*TWIST_WINDOW))
        return res.intertwines, f"{res.intertwines} {res.rank}"
    raise ValueError(f"unknown weight-window kind {kind!r}")


# -- rewrite: normal forms in the localized enveloping algebra --------------------

def _word(rng, length, unbarred):
    slots = set(rng.sample(range(length), unbarred))
    return tuple(rng.choice(UNBARRED) if i in slots else rng.choice(BARRED)
                 for i in range(length))


def _gen_rewrite(rng, kind, ctx):
    if kind == "word":
        length = rng.randint(6, 11)
        word = _word(rng, length, rng.randint(2, 5))
        return (word, rng.randint(0, length)), (True, True)
    if kind == "theta":
        return (_rational(rng),), True
    if kind == "casimir":
        return (_word(rng, rng.randint(4, 8), rng.randint(1, 3)),), True
    raise ValueError(f"unknown rewrite kind {kind!r}")


def _run_rewrite(kind, args):
    algebra = tk.algebra
    if kind == "word":
        word, cut = args
        elem = algebra.normal_form(word, localized=True)
        idempotent = algebra.normal_form(elem, localized=True) == elem
        left = algebra.normal_form(word[:cut], localized=True)
        right = algebra.normal_form(word[cut:], localized=True)
        split = left * right == elem
        return (idempotent, split), f"{elem.to_text()} {idempotent} {split}"
    if kind == "theta":
        (z,) = args
        ok = algebra.check_theta_automorphism(z)["ok"]
        inverse = all(
            algebra.theta(z, algebra.theta(-z, x))
            == algebra.normal_form(x, localized=True)
            for x in algebra.LOCALIZED_LETTERS)
        return ok and inverse, f"{ok} {inverse}"
    if kind == "casimir":
        (word,) = args
        casimir = algebra.parse_word_expr("hb^2 + 4*eb*fb")
        x = algebra.normal_form(word, localized=True)
        comm = algebra.commutator(x, casimir)
        return comm.is_zero(), comm.to_text()
    raise ValueError(f"unknown rewrite kind {kind!r}")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("free-axioms",
             ("gamma", "omega", "theta", "omega", "omega-perturbed"),
             100, _gen_free_axioms, _run_free_axioms),
    Workload("saturate",
             ("gamma", "theta", "omega-b0", "omega", "theta", "omega-b0"),
             240, _gen_saturate, _run_saturate),
    Workload("weight-window",
             ("bracket", "scan", "intertwine-nm", "twist", "intertwine-mismatch",
              "bracket", "scan", "verma", "intertwine-shift", "intertwine-nm"),
             240, _gen_weight, _run_weight),
    Workload("rewrite",
             ("word", "word", "theta", "word", "word", "casimir", "word", "word",
              "theta", "word"),
             600, _gen_rewrite, _run_rewrite),
)}


class Stream:
    """The endless item sequence of one workload for one seed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.context = Context(workload.name)

    def item(self, index: int) -> Item:
        rng = random.Random(f"{self.workload.name}/{self.seed}/{index}")
        schedule = self.workload.schedule
        kind = schedule[index % len(schedule)]
        args, expect = self.workload.generate(rng, kind, self.context)
        return Item(index, kind, args, expect)


def execute(workload: Workload, item: Item) -> Tuple[bool, str]:
    """Run one item; returns (verdict matches the known answer, payload).

    An exception from the code under test is a failed verdict, with the
    exception in the payload.
    """
    try:
        got, payload = workload.run(item.kind, item.args)
    except Exception as exc:  # a crash is a wrong verdict, not a harness error
        return False, f"{item.kind} raised {type(exc).__name__}: {exc}"
    return got == item.expect, f"{item.kind} {payload}"


class Digest:
    """SHA-256 over the payloads of the first ``limit`` verdicts."""

    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0
        self._hash = hashlib.sha256()

    def add(self, payload: str) -> None:
        if self.count < self.limit:
            self._hash.update(payload.encode() + b"\n")
            self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def report_failure(item: Item, payload: str) -> None:
    print(f"perfbench: item {item.index} ({item.kind}) expected {item.expect!r}, "
          f"got: {payload}", file=sys.stderr)
