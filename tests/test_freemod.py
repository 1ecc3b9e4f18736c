"""Tests for the three rank-1 Cartan-free families.

Expected values in the example tests were computed by hand from the
displayed action formulas before the implementation existed.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm

import pytest
from adjoint_views import (entry_terms, fraction_view, integer_table,
                           plant, smallest_fault, terms_table)
from ks_oracle import matches_monomial
from samplers import random_poly

from takiffrep import freemod
from takiffrep.algebra import GENERATORS, bracket
from takiffrep.freemod import (GENERATOR_PAIRS, SHIFT, _apply_terms,
                               _int_ops, act, act_word, adjoint_table,
                               alpha_from_beta, e34_residual,
                               iso_invariants_free, make_gamma, make_omega,
                               make_theta_mod, omega_layer_action,
                               omega_layer_ops, omega_quotient_delta_params,
                               ks_plan, ks_residuals, prove_brackets,
                               random_free_spec, simplicity_criterion_free,
                               submodule_saturate, verify_axioms)
from takiffrep.linalg import add_into, nullspace, vec_primitive
from takiffrep.poly import (PolyHH, parse_poly, poly1_to_polyhh,
                            random_rational)
from takiffrep.weightmod import (delta_action, make_weight_m, make_weight_n,
                                 make_weight_v, random_weight_spec,
                                 weight_bracket_report)

F = Fraction
ONE = PolyHH.const(1)
H = PolyHH.h()
HB = PolyHH.hbar()


# -- hand-computed single actions ----------------------------------------------

def test_gamma_actions():
    g = make_gamma(1, 0, 0)
    assert act(g, "e", HB) == PolyHH.const(-2)
    assert act(g, "eb", H) == H - PolyHH.const(2)
    assert act(g, "h", ONE) == H
    assert act(g, "hb", H) == H * HB

    g2 = make_gamma(1, 0, 3)
    want = (H + PolyHH.const(2)) * HB + PolyHH.const(3)
    assert act(g2, "f", ONE) == want.scale(F(-1, 2))

    g3 = make_gamma(1, 1, 0)
    assert act(g3, "fb", ONE) == (HB * HB + ONE).scale(F(-1, 4))

    g4 = make_gamma(2, 0, 0)
    assert act(g4, "eb", H) == (H - PolyHH.const(2)).scale(2)


def test_theta_actions():
    t = make_theta_mod(1, 0, 0)
    assert act(t, "f", HB) == PolyHH.const(2)
    assert act(t, "fb", H) == H + PolyHH.const(2)
    assert act(t, "eb", ONE) == (HB * HB).scale(F(-1, 4))
    assert act(t, "e", ONE) == ((H - PolyHH.const(2)) * HB).scale(F(-1, 2))

    t2 = make_theta_mod(1, 0, 5)
    want = (H - PolyHH.const(2)) * HB + PolyHH.const(5)
    assert act(t2, "e", ONE) == want.scale(F(-1, 2))


# Chevalley involution as (image, sign): e <-> f, eb <-> fb, h -> -h, hb -> -hb
CHEVALLEY = {"e": ("f", 1), "f": ("e", 1), "eb": ("fb", 1), "fb": ("eb", 1),
             "h": ("h", -1), "hb": ("hb", -1)}


def reflect(p):
    """p(h, hbar) -> p(-h, -hbar)."""
    return PolyHH({(i, j): v * (-1) ** (i + j) for (i, j), v in p.terms()})


def test_theta_is_gamma_transported_by_chevalley_involution():
    rng = random.Random(307)
    for _ in range(6):
        lam = random_rational(rng, nonzero=True)
        a, b = random_rational(rng), random_rational(rng)
        gamma, theta = make_gamma(lam, a, b), make_theta_mod(lam, a, b)
        for _ in range(4):
            p = random_poly(rng)
            for x, (y, sign) in CHEVALLEY.items():
                want = reflect(act(gamma, y, reflect(p))).scale(sign)
                assert act(theta, x, p) == want, (x, lam, a, b, p)


def coercing_chevalley(ops):
    """``freemod.chevalley`` as it was before it wrote each coefficient as
    one dict: sigma(c) through the coercing ``PolyHH`` constructor, then
    times sign (-1)^m through ``__rmul__``, kept as its oracle."""
    return {x: tuple((sign * (-1) ** m * reflect(c), m) for c, m in ops[y])
            for x, (y, sign) in CHEVALLEY.items() if y in ops}


def _typed_ops(ops):
    """Each generator's terms (m, [(exponent, type, value)]) in order, each
    coefficient's monomials in the order its dict stores them, so == also
    compares the order of the generators, the terms and the keys, and int
    against Fraction."""
    return [(x, [(m, [(e, type(v), v) for e, v in c._c.items()])
                 for c, m in terms]) for x, terms in ops.items()]


def test_chevalley_writes_the_terms_of_the_coercing_transport():
    # random gamma tables, the Delta_2 -> Delta_3 transport, and a table
    # lacking a generator; gamma's f has an m = 1 term, where the sign
    # (-1)^m matters
    rng = random.Random(308)
    cases = [freemod._gamma_ops(random_free_spec(rng, "gamma"))
             for _ in range(40)]
    cases += [freemod.delta_ops(2, random_rational(rng, nonzero=True),
                                random_rational(rng)) for _ in range(10)]
    lacking = dict(cases[0])
    del lacking["fb"]
    cases.append(lacking)
    for ops in cases:
        got = freemod.chevalley(ops)
        assert _typed_ops(got) == _typed_ops(coercing_chevalley(ops))
        assert all(type(v) is F for _, terms in got.items()
                   for c, _ in terms for _, v in c.terms())
    assert "eb" not in freemod.chevalley(lacking)
    # Delta_3 is Delta_2's transport
    assert _typed_ops(freemod.delta_ops(3, F(-3, 2), F(5, 7))) == \
        _typed_ops(coercing_chevalley(freemod.delta_ops(2, F(-3, 2),
                                                        F(5, 7))))


def polyhh_gamma_ops(spec):
    """``freemod._gamma_ops`` as it was before it wrote each coefficient
    dict from the parameters: every coefficient built by ``PolyHH``
    arithmetic, kept as its oracle."""
    lam, a, b = spec.lam, spec.a, spec.b
    quad = PolyHH({(0, 2): 1, (0, 0): a})  # hbar^2 + a
    lead = PolyHH({(1, 1): 1, (0, 1): 2, (0, 0): b})  # (h + 2) hbar + b
    return {**freemod._CARTAN,
            "e": ((PolyHH.const(-2 * lam), 1),),
            "eb": ((PolyHH.const(lam), 0),),
            "fb": ((quad.scale(Fraction(-1, 4) / lam), 0),),
            "f": ((lead.scale(Fraction(-1, 2) / lam), 0),
                  (quad.scale(Fraction(-1, 2) / lam), 1))}


def polyhh_omega_ops(spec):
    """``freemod._omega_ops`` built by ``PolyHH`` arithmetic, as it was
    before the writer, kept as its oracle."""
    lam, b = spec.lam, spec.b
    hbar = PolyHH.hbar()
    a1 = poly1_to_polyhh(spec.alpha1)
    b1 = poly1_to_polyhh(spec.beta1)
    plus_b = hbar + PolyHH.const(b)
    minus_b = hbar - PolyHH.const(b)
    return {**freemod._CARTAN,
            "e": ((PolyHH.h().scale(lam / 2) + a1, 0),
                  (plus_b.scale(-lam), 1)),
            "f": ((b1 - PolyHH.h().scale(Fraction(1, 2) / lam), 0),
                  (minus_b.scale(Fraction(-1) / lam), 1)),
            "eb": ((plus_b.scale(lam / 2), 0),),
            "fb": ((minus_b.scale(Fraction(-1, 2) / lam), 0),)}


POLYHH_OPS = {"gamma": polyhh_gamma_ops, "omega": polyhh_omega_ops,
              "theta": lambda spec: freemod.chevalley(polyhh_gamma_ops(spec))}


def _writer_specs(seed):
    """Gamma, Theta and Omega specs drawn from ``seed``: a and b forced to
    0 in turn, beta1 of degree 0 to 4 with a zero coefficient or all of
    them zero, and alpha1 moved off the linkage at one coefficient."""
    rng = random.Random(seed)
    specs = []
    for n in range(40):
        lam = random_rational(rng, nonzero=True)
        a, b = random_rational(rng), random_rational(rng)
        a, b = ((a, b), (0, b), (a, 0), (0, 0))[n % 4]
        specs += [make_gamma(lam, a, b), make_theta_mod(lam, a, b)]
        beta1 = [random_rational(rng, nonzero=True) for _ in range(n % 5 + 1)]
        if n % 3 == 0:
            beta1[rng.randrange(len(beta1))] = 0
        if n % 7 == 0:
            beta1 = [0] * len(beta1)
        specs.append(make_omega(lam, b, beta1))
        alpha1 = list(alpha_from_beta(beta1, lam, b))
        alpha1[rng.randrange(len(alpha1))] += random_rational(rng)
        specs.append(make_omega(lam, b, beta1, alpha1=alpha1))
    return specs


# (alpha, beta) points of the dual tables: beta = 0 with alpha = 0 and
# alpha != 0, and fractional points on both sides
_ADJOINT_POINTS = ((F(0), F(0)), (F(3, 2), F(0)), (F(-2), F(0)),
                   (F(-1, 3), F(2, 5)), (F(0), F(-7, 4)), (F(1), F(3)))


def _sorted_ops(ops):
    """``ops`` with every coefficient dict stored in sorted key order, as
    ``PolyHH.terms`` reads it: the order ``adjoint_table`` read before it
    read each dict as stored."""
    return {x: tuple((PolyHH._adopt(dict(sorted(c._c.items()))), m)
                     for c, m in terms) for x, terms in ops.items()}


def _typed_adjoint(adjoint):
    """d with its type, the generators in order, and each table's items
    in order with their types."""
    d, tables = adjoint
    return type(d), d, list(tables), _typed_residuals(tables.values())


@pytest.mark.parametrize("seed", [7, 20221114])
def test_op_tables_are_written_as_polyhh_arithmetic_built_them(seed):
    # ordered items with value types: the generators, the terms and each
    # coefficient's keys in the order PolyHH arithmetic stored them, and
    # every value the Fraction it made
    for spec in _writer_specs(seed):
        oracle = POLYHH_OPS[spec.family](spec)
        assert _typed_ops(spec.ops) == _typed_ops(oracle), spec
        assert all(type(v) is F for terms in spec.ops.values()
                   for c, _ in terms for v in c._c.values())
        # the dual tables read each dict as stored, and give what the
        # oracle's dicts gave read in sorted order
        for alpha, beta in _ADJOINT_POINTS:
            assert _typed_adjoint(adjoint_table(spec.ops, alpha, beta)) == \
                _typed_adjoint(adjoint_table(_sorted_ops(oracle), alpha,
                                             beta)), (spec, alpha, beta)


def test_op_table_comparison_refuses_planted_writer_faults():
    # the two faults a writer can make: a zero test dropped, which stores
    # a zero value the bracket prover cannot see, and -1/(2 lam) written
    # in place of -1/(4 lam) in fb
    spec = make_gamma(F(-2, 3), 0, F(5, 4))
    ops = spec.ops
    (fb, m), = ops["fb"]
    zero_kept = {**ops, "fb": ((PolyHH._adopt({**fb._c, (0, 0): F(0)}), m),)}
    # -1/(4 lam) = 3/8 and -1/(2 lam) = 3/4 at lam = -2/3; a = 0
    assert fb._c == {(0, 2): F(3, 8)}
    halved = {**ops, "fb": ((PolyHH._adopt({(0, 2): F(3, 4)}), m),)}
    for planted in (zero_kept, halved):
        assert _typed_ops(planted) != _typed_ops(polyhh_gamma_ops(spec))
    passes = [all(p["pass"] for p in prove_brackets(adjoint_table(
        planted, F(0), F(0)))) for planted in (zero_kept, halved)]
    assert passes == [True, False]


def test_omega_actions():
    om = make_omega(1, 0, (F(0),))
    assert om.alpha1 == (F(0),)
    assert act(om, "fb", H) == (HB * (H + PolyHH.const(2))).scale(F(-1, 2))
    assert act(om, "eb", H) == (HB * (H - PolyHH.const(2))).scale(F(1, 2))
    assert act(om, "e", ONE) == H.scale(F(1, 2))
    assert act(om, "f", ONE) == H.scale(F(-1, 2))

    # nonzero beta1 feeds both the f action and the derived alpha1
    om2 = make_omega(1, 1, (F(0), F(1)))
    assert om2.alpha1 == (F(2), F(1))
    assert act(om2, "f", ONE) == H.scale(F(-1, 2)) + HB
    assert act(om2, "e", ONE) == H.scale(F(1, 2)) + HB + PolyHH.const(2)


def test_derivative_terms_enter_for_nonconstant_inputs():
    om = make_omega(1, 0, (F(0),))
    # e . hb = ((1/2) h) hb - hb * 1
    assert act(om, "e", HB) == H.scale(F(1, 2)) * HB - HB
    g = make_gamma(1, 2, 0)
    # f . hb = -(1/2)(h+2) hb^2 - (1/2)(hb^2+2)
    want = ((H + PolyHH.const(2)) * HB * HB).scale(F(-1, 2)) \
        + (HB * HB + PolyHH.const(2)).scale(F(-1, 2))
    assert act(g, "f", HB) == want


def test_lambda_zero_rejected():
    with pytest.raises(ValueError):
        make_gamma(0, 1, 1)
    with pytest.raises(ValueError):
        make_omega(0, 1, (F(1),))


def test_alpha_from_beta():
    # p_i = lambda^2 (q_i + sum_{j>i} 2 b^{j-i} q_j)
    assert alpha_from_beta((F(0), F(1)), F(1), F(1)) == (F(2), F(1))
    assert alpha_from_beta((F(1), F(1), F(1)), F(2), F(3)) == \
        (F(100), F(28), F(4))
    assert alpha_from_beta((F(5),), F(3), F(7)) == (F(45),)


def test_e34_residual_vanishes_for_linked_pairs():
    rng = random.Random(301)
    for _ in range(30):
        lam = F(rng.randint(1, 9))
        b = F(rng.randint(-9, 9), rng.randint(1, 9))
        beta1 = tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(rng.randint(1, 6)))
        alpha1 = alpha_from_beta(beta1, lam, b)
        assert e34_residual(lam, b, beta1, alpha1).is_zero()


def test_e34_residual_detects_corruption():
    beta1 = (F(0), F(1))
    good = alpha_from_beta(beta1, F(1), F(1))
    bad = (good[0] + 1,) + good[1:]
    res = e34_residual(F(1), F(1), beta1, bad)
    assert res == PolyHH.const(1)


def test_verify_axioms_pass():
    for spec in (make_gamma(1, 0, 0), make_gamma(2, F(1, 3), -1),
                 make_theta_mod(1, 0, 0), make_theta_mod(F(-1, 2), 2, F(5, 7)),
                 make_omega(1, 0, (F(0),)), make_omega(1, 1, (F(0), F(1))),
                 make_omega(F(3, 2), F(-2), (F(1), F(0), F(2, 5)))):
        report = verify_axioms(spec, trials=5, seed=11)
        assert report["ok"], (spec, report["pairs"])
        assert len(report["pairs"]) == 15
        assert report["trials"] == 5


def test_verify_axioms_catches_unlinked_alpha1():
    good = alpha_from_beta((F(0), F(1)), F(1), F(1))
    bad = (good[0] + 1,) + good[1:]
    spec = make_omega(1, 1, (F(0), F(1)), alpha1=bad)
    report = verify_axioms(spec, trials=5, seed=11)
    assert not report["ok"]
    failing = {frozenset((p["x"], p["y"]))
               for p in report["pairs"] if not p["pass"]}
    assert frozenset(("e", "f")) in failing


# -- verify_axioms against an independent random-probe oracle ------------------

def probe_flags(spec, trials=4, seed=0):
    """Per-pair verdicts of x.(y.p) - y.(x.p) == [x,y].p on random probes.

    Applies single generators to polynomials and never composes operator
    tables, so it is independent of how verify_axioms reaches its verdict.
    """
    rng = random.Random(seed)
    polys = [random_poly(rng) for _ in range(trials)]
    return [all(act(spec, x, act(spec, y, p)) - act(spec, y, act(spec, x, p))
                == act_word(spec, bracket(x, y), p) for p in polys)
            for x, y in GENERATOR_PAIRS]


def probe_cases():
    """Seeded specs of every family, and omegas whose alpha1 is perturbed
    off the linkage, so that some pairs fail."""
    rng = random.Random(309)
    specs = [random_free_spec(rng, family)
             for family in ("gamma", "theta", "omega") for _ in range(2)]
    perturbed = []
    for _ in range(3):
        spec = random_free_spec(rng, "omega")
        alpha1 = ((spec.alpha1[0] + random_rational(rng, nonzero=True),)
                  + spec.alpha1[1:])
        perturbed.append(make_omega(spec.lam, spec.b, spec.beta1, alpha1))
    return specs, perturbed


def test_verify_axioms_agrees_with_probe_oracle():
    specs, perturbed = probe_cases()
    for spec in specs + perturbed:
        flags = [p["pass"] for p in verify_axioms(spec)["pairs"]]
        assert flags == probe_flags(spec), spec
        assert all(flags) == (spec in specs), spec


def operator_table_oracle(spec):
    """Per-pair verdicts of x o y - y o x == [x,y] as operators on C[h, hbar].

    Each generator becomes a table (d, m) -> c, meaning c * T^d dbar^m with
    T^d g(h, hbar) = g(h + d, hbar), and tables are composed term by term:

        T^d1 dbar^m1 (c T^d2 dbar^m2 g) = c(h+d1) T^(d1+d2) dbar^(m1+m2) g
                                   + (dbar c)(h+d1) T^(d1+d2) dbar^m2 g

    with the second term only when m1 = 1.  The operators T^d dbar^m are
    linearly independent over C[h, hbar], so a pair holds exactly when its
    residual table is empty.  This composes polynomial coefficients and
    never dualizes, so it is independent of how verify_axioms reaches its
    verdict.
    """
    def add(op, key, c):
        total = op[key] + c if key in op else c
        if total.is_zero():
            op.pop(key, None)
        else:
            op[key] = total

    ops = {x: {} for x in GENERATORS}
    for x in GENERATORS:
        for c, m in spec.ops[x]:
            add(ops[x], (SHIFT[x], m), c)

    def compose(x, y):
        out = {}
        for (d1, m1), c1 in ops[x].items():
            for (d2, m2), c2 in ops[y].items():
                for n in range(m1 + 1):
                    c = (c2.dbar() if n else c2).shift_h(d1)
                    add(out, (d1 + d2, m1 - n + m2), c1 * c)
        return out

    flags = []
    for x, y in GENERATOR_PAIRS:
        residual = compose(x, y)
        for key, c in compose(y, x).items():
            add(residual, key, -c)
        for mono, coeff in bracket(x, y).terms():
            (z,) = mono.to_word()
            for key, c in ops[z].items():
                add(residual, key, c.scale(-coeff))
        flags.append(not residual)
    return flags


def test_verify_axioms_agrees_with_operator_table_oracle():
    specs, perturbed = probe_cases()
    for spec in specs + perturbed:
        flags = [p["pass"] for p in verify_axioms(spec)["pairs"]]
        assert flags == operator_table_oracle(spec), spec


@pytest.mark.parametrize("family", ["gamma", "theta", "omega"])
@pytest.mark.parametrize("x", list(GENERATORS))
def test_verify_axioms_detects_planted_fault(family, x):
    spec = random_free_spec(random.Random(310), family)
    (c, m), *rest = spec.ops[x]
    # double one term of one generator in the cached table only
    spec.__dict__["ops"] = {**spec.ops, x: ((c * 2, m), *rest)}
    report = verify_axioms(spec)
    assert not report["ok"]
    flags = [p["pass"] for p in report["pairs"]]
    assert flags == probe_flags(spec) == operator_table_oracle(spec)


def test_verify_axioms_rejects_coefficients_quadratic_in_h():
    # the second coefficient stores h^3 before h^2: the refusal names the
    # lowest degree above 1, as when the monomials were read sorted
    for c in (H * H, PolyHH._adopt({(3, 0): F(1), (2, 0): F(1)})):
        spec = make_gamma(1, 0, 0)
        spec.__dict__["ops"] = {**spec.ops, "f": ((c, 0),)}
        with pytest.raises(ValueError, match="degree 2 in h"):
            verify_axioms(spec)


# -- prove_brackets against the Fraction prover it replaced ---------------------

def _binomial_in_s(r):
    """The coefficients of C(s-1, r) = (s-1)...(s-r)/r! in s, lowest first."""
    coeffs = [Fraction(1, factorial(r))]
    for t in range(1, r + 1):
        coeffs = [a - t * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def fraction_prover(adjoint):
    """Per-pair verdicts of the (k, s) calculus built on Fraction tables.

    Each term (m, r, c0, c1) adds (c0 + c1*k) C(s-1, r) at (dk, m - r),
    with C(s-1, r) expanded in s over the rationals.  Only then are the
    tables scaled to ints, by the lcm d of their denominators, so a pair
    holds when X o Y - Y o X - d [x,y] is the empty table; compositions
    shift by substitution.
    """
    tables = {}
    for x in GENERATORS:
        dk, terms = adjoint[x]
        table = {}
        for m, r, c0, c1 in terms:
            p = table.setdefault((dk, m - r), {})
            for j, b in enumerate(_binomial_in_s(r)):
                for i, c in enumerate((c0, c1)):
                    p[(i, j)] = p.get((i, j), 0) + c * b
        tables[x] = table
    d = lcm(*(F(c).denominator for t in tables.values() for p in t.values()
              for c in p.values()))
    for table in tables.values():
        for p in table.values():
            for e, c in p.items():
                assert (c * d).denominator == 1
                p[e] = int(c * d)

    def shift(p, dk, ds):
        out = {}
        for (i, j), c in p.items():
            for a in range(i + 1):
                for b in range(j + 1):
                    n = comb(i, a) * comb(j, b) * dk ** (i - a) * ds ** (j - b)
                    out[(a, b)] = out.get((a, b), 0) + n * c
        return out

    def add(out, key, mono, c):
        acc = out.setdefault(key, {})
        acc[mono] = acc.get(mono, 0) + c

    shifted = {}

    def compose_into(out, x, y, sign):
        for (dk, ds), py in tables[y].items():
            for (ek, es), px in tables[x].items():
                key = (x, ek, es, dk, ds)
                if key not in shifted:
                    shifted[key] = shift(px, dk, ds)
                moved = shifted[key]
                for (i, j), a in py.items():
                    for (u, v), b in moved.items():
                        add(out, (dk + ek, ds + es), (i + u, j + v), sign * a * b)

    flags = []
    for x, y in GENERATOR_PAIRS:
        residual = {}
        compose_into(residual, x, y, 1)
        compose_into(residual, y, x, -1)
        for mono, coeff in bracket(x, y).terms():
            (z,) = mono.to_word()
            for key, p in tables[z].items():
                for e, c in p.items():
                    add(residual, key, e, -d * coeff * c)
        flags.append(not any(any(p.values()) for p in residual.values()))
    return flags


def _wide(rng, nonzero=False):
    """A rational with a numerator and denominator of up to seven digits."""
    while True:
        v = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if v or not nonzero:
            return v


def _prover_cases(rng, count):
    """Adjoint tables of random specs: the free families at alpha = beta = 0,
    as verify_axioms proves them, and weight families at their own point,
    parameters drawn small or with wide denominators."""
    cases = []
    for n in range(count):
        draw = (lambda nz=False: _wide(rng, nz)) if n % 2 else \
            (lambda nz=False: random_rational(rng, nonzero=nz))
        if n % 4 < 2:
            spec = random_free_spec(rng, ("gamma", "theta", "omega")[n % 3],
                                    beta1_deg=3)
            if n % 8 == 1:
                # off the linkage, so that some pairs fail
                spec = make_omega(draw(True), draw(), (draw(), draw()),
                                  alpha1=(draw(), draw()))
            cases.append(adjoint_table(spec.ops, F(0), F(0)))
        else:
            make = (make_weight_m, make_weight_n)[n % 2]
            spec = (make(draw(), draw(), draw(True), draw(), draw())
                    if n % 3 else
                    make_weight_v(draw(), draw(), draw(True), draw(),
                                  [draw() for _ in range(rng.randint(1, 4))]))
            cases.append(spec.adjoint)
    return cases


def test_prove_brackets_agrees_with_fraction_prover():
    rng = random.Random(420)
    failing = 0
    for adjoint in _prover_cases(rng, 200):
        flags = [p["pass"] for p in prove_brackets(adjoint)]
        assert flags == fraction_prover(fraction_view(adjoint))
        failing += not all(flags)
    # the off-linkage omegas give both verdicts some failing pairs to agree on
    assert 0 < failing < 200


def test_prove_brackets_agrees_with_fraction_prover_on_planted_faults():
    rng = random.Random(421)
    for adjoint in _prover_cases(rng, 40):
        x = rng.choice(GENERATORS)
        index = rng.randrange(len(entry_terms(adjoint[1][x])[1]))
        planted = plant(adjoint, x, index, random_rational(rng),
                         rng.choice((0, random_rational(rng))))
        flags = [p["pass"] for p in prove_brackets(planted)]
        assert flags == fraction_prover(fraction_view(planted)), (x, index)


def test_prove_brackets_builds_int_tables(monkeypatch):
    seen = []
    paired = []
    compose = freemod._compose_into

    def composed(out, left, right, rule=freemod._after, w=1):
        # the sums a commutator pass adds to, the right tables it is
        # handed, and the right tables scaled by the term's weight
        compose(out, left, right, rule, w)
        seen.extend((out, right, {key: w * a for key, a in right.items()}))
        if rule is freemod._commutator:
            paired.append(dict(out))

    monkeypatch.setattr(freemod, "_compose_into", composed)
    prove = freemod.ks_residuals

    def residuals(*args):
        out = prove(*args)
        seen.extend(out)
        return out

    monkeypatch.setattr(freemod, "ks_residuals", residuals)
    rng = random.Random(422)
    failing = 0
    for adjoint in _prover_cases(rng, 24):
        seen.extend(adjoint[1].values())
        failing += not all(p["pass"] for p in prove_brackets(adjoint))
    # the generator tables, the sums they are composed into, and each
    # returned residual, nonzero ones among them
    values = [c for table in seen for c in table.values()]
    assert failing and values and all(type(v) is int for v in values)
    # every bracket went through the commutator pass, and its sums are
    # among the values checked
    assert len(paired) == 24 * len(GENERATOR_PAIRS)
    assert any(any(table.values()) for table in paired)


def test_ks_sums_drop_what_cancels():
    # (2 + k/3) eta_{k+1,s} after 3 C(s-1, 1) eta_{k-1,s+1}:
    # 3 C(s-1, 1) (2 + (k-1)/3) = (5 + k) C(s-1, 1) at (0, 1)
    left = {(1, 0, 0, 0): 2, (1, 0, 0, 1): F(1, 3)}
    sums = {}
    freemod._compose_into(sums, left, {(-1, 1, 1, 0): 3})
    assert sums == {(0, 1, 1, 0): 5, (0, 1, 1, 1): 1}
    assert type(sums[(0, 1, 1, 0)]) is F  # 6 - 1 over Fractions
    freemod._compose_into(sums, {(1, 0, 0, 1): F(1, 3)}, {(-1, 1, 1, 0): 3})
    assert sums == {(0, 1, 1, 0): 4, (0, 1, 1, 1): 2}
    # the Fraction 4 and 2 cancel against ints and Fractions
    freemod._compose_into(sums, left, {(-1, 1, 1, 0): F(-3, 2)})
    freemod._compose_into(sums, left, {(-1, 1, 1, 0): F(-3, 2)})
    freemod._compose_into(sums, {(1, 0, 0, 1): 1}, {(-1, 1, 1, 0): -1})
    assert sums == {}
    # a term (m, r, c0, c1) with c0 = 0 is written with no zero
    assert terms_table(1, ((0, 2, 0, 5), (1, 0, 3, 0))) == \
        {(1, -2, 2, 1): 5, (1, 1, 0, 0): 3}
    assert ks_residuals([(1, {"x": {(1, -2, 2, 1): 5}})],
                        ks_plan([[(0, 2, ("x",)), (0, -2, ("x",))]], 1)) \
        == [{}]


def test_ks_table_never_yields_a_float():
    rng = random.Random(423)
    for adjoint in _prover_cases(rng, 40):
        x = rng.choice(GENERATORS)
        # a zero c0 beside a nonzero c1, and the int 0 as c1
        view = fraction_view(plant(adjoint, x, 0, 0, F(1, 3)))
        view[x] = (view[x][0],
                   view[x][1] + ((1, 3, F(0), F(5, 7)), (0, 2, F(2), 0)))
        d, entries = integer_table(view)
        # a Fraction entry that is not whole, as eb^-1's may be
        entries["ebinv"] = {(1, 0, 0, 0): F(2 * d + 1, 2)}
        for y, table in entries.items():
            assert all(v and type(v) is (F if y == "ebinv" else int)
                       for v in table.values())
        # words with eb^-1 may hold Fractions, the others only ints
        words = [(x, y) for y in entries] + [(y, "ebinv") for y in entries]
        residuals = ks_residuals([(d, entries)],
                                 ks_plan([[(0, 1, word)] for word in words],
                                         1))
        for word, table in zip(words, residuals):
            for v in table.values():
                assert v and type(v) in ((int, F) if "ebinv" in word
                                         else (int,)), (word, v)


# -- the binomial composer against the monomial oracle --------------------------

def _falling_binomial(x, n):
    """C(x, n) = x (x-1) ... (x-n+1) / n! for any int x, as a Fraction."""
    out = F(1)
    for i in range(n):
        out *= F(x - i, i + 1)
    return out


def test_binomial_product_rule_pointwise():
    # the oracle: math.comb at x = 0..15 on the left, the falling product
    # on the right where x + ds is negative; both sides have degree at
    # most 8 in x, so 16 points decide the identity
    for t in range(5):
        for rho in range(5):
            for ds in range(-4, 5):
                rule = freemod._binomial_product(t, rho, ds)
                assert all(type(n) is int and n for _, n in rule)
                for x in range(16):
                    want = comb(x, t) * _falling_binomial(x + ds, rho)
                    assert sum(n * comb(x, u) for u, n in rule) == want, \
                        (t, rho, ds, x)


def test_commutator_rule_pointwise():
    # the oracle: a term (ek, es, rho, i) of x after a term (dk, ds, t, j)
    # of y carries (k + dk)^i k^j C(x, t) C(x + ds, rho), and y's term after
    # x's (k + ek)^j k^i C(x, rho) C(x + es, t), C(x, .) through math.comb
    # and the shifted one through the falling product; both sides have
    # degree at most 4 in x and 2 in k, so 6 values of x and 3 of k decide
    empty = 0
    for t, rho, ds, es, dk, ek, i, j in product(
            range(3), range(3), range(-2, 2), range(-2, 2), (-1, 0, 1),
            (-1, 0, 1), (0, 1), (0, 1)):
        x_key, y_key = (ek, es, rho, i), (dk, ds, t, j)
        rule = freemod._commutator(x_key, y_key)
        assert all(type(n) is int and n and key[:2] == (dk + ek, ds + es)
                   for key, n in rule)
        empty += not rule
        for x in range(6):
            for k in range(-1, 2):
                want = ((k + dk) ** i * k ** j * comb(x, t)
                        * _falling_binomial(x + ds, rho)
                        - (k + ek) ** j * k ** i * comb(x, rho)
                        * _falling_binomial(x + es, t))
                got = sum(n * k ** jj * comb(x, u)
                          for (_, _, u, jj), n in rule)
                assert got == want, (x_key, y_key, x, k)
    # among others, every pair that shifts neither s nor k shares all
    assert empty >= 9 * 4


def _unpaired_residuals(adjoints, identities):
    """The residuals of ``ks_residuals`` with every word composed letter by
    letter from the identity table, x o y and y o x each in full, so that
    what they share is formed and cancels: the route without the
    commutator pass, kept as its oracle."""
    tables = [adjoint[1] for adjoint in adjoints]
    longest = [max((len(word) for identity in identities
                    for j, _, word in identity if j == i), default=0)
               for i in range(len(adjoints))]
    total = 1
    for (d, _), n in zip(adjoints, longest):
        total *= d ** n
    out = []
    for identity in identities:
        sums = {}
        for i, c, word in identity:
            table = {(0, 0, 0, 0): c * (total // adjoints[i][0] ** len(word))}
            for letter in reversed(word):
                part = {}
                freemod._compose_into(part, tables[i][letter], table)
                table = part
            add_into(sums, 1, table.items())
        out.append(sums)
    return out


def _count_commutator_passes(monkeypatch):
    """The number of term pairs that go through the commutator rule."""
    rule = freemod._commutator
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return rule(x, y)

    monkeypatch.setattr(freemod, "_commutator", counted)
    return calls


def _ebinv_adjoint(adjoint):
    """``adjoint`` with an entry eb^-1 added whose coefficient is not whole
    over the table's denominator, as eb^-1's may be."""
    d, entries = adjoint
    return d, {**entries, "ebinv": {(1, 0, 0, 0): F(2 * d + 1, 2)}}


def test_ks_residuals_match_the_monomial_oracle_on_random_identities():
    rng = random.Random(424)
    nonzero = 0
    for n in range(120):
        adjoints = []
        for i in range(1 + n % 2):
            if rng.random() < 0.5:
                spec = random_weight_spec(rng, rng.choice("MNV"))
                adjoints.append(spec.adjoint)
            else:
                spec = random_free_spec(rng, rng.choice(("gamma", "theta",
                                                         "omega")), 3)
                adjoints.append(adjoint_table(spec.ops, random_rational(rng),
                                              random_rational(rng)))
        if n % 3 == 0:
            adjoints[0] = _ebinv_adjoint(adjoints[0])
        identities = []
        for _ in range(3):
            identity = []
            for _ in range(rng.randint(1, 5)):
                i = rng.randrange(len(adjoints))
                letters = list(adjoints[i][1])
                word = tuple(rng.choice(letters)
                             for _ in range(rng.randint(0, 3)))
                c = (random_rational(rng, nonzero=True) if rng.random() < 0.5
                     else rng.choice((-3, -1, 1, 2)))
                identity.append((i, c, word))
            identities.append(identity)
        got = ks_residuals(adjoints, ks_plan(identities, len(adjoints)))
        assert matches_monomial(adjoints, identities, got), n
        nonzero += sum(bool(table) for table in got)
    assert nonzero > 200


def test_ks_residuals_match_the_monomial_oracle_on_brackets():
    rng = random.Random(425)
    adjoints = _prover_cases(rng, 60)
    # omega at the largest beta1 degree verify-free composes
    adjoints += [adjoint_table(random_free_spec(rng, "omega", 4).ops,
                               F(0), F(0)) for _ in range(6)]
    adjoints += [smallest_fault(adjoint) for adjoint in adjoints[:12]]
    failing = 0
    for adjoint in adjoints:
        identities = freemod._BRACKET_IDENTITIES
        got = ks_residuals([adjoint], freemod._BRACKET_PLAN)
        assert matches_monomial([adjoint], identities, got)
        failing += any(got)
    assert 12 <= failing < len(adjoints)


def _typed_residuals(residuals):
    """Each residual table's items in order, each value with its type."""
    return [[(key, type(a), a) for key, a in table.items()]
            for table in residuals]


def test_bracket_plan_pairs_each_bracket_once():
    longest, steps = freemod._BRACKET_PLAN
    assert longest == (2,)
    assert len(steps) == len(GENERATOR_PAIRS) == 15
    for (x, y), identity, plan in zip(GENERATOR_PAIRS,
                                      freemod._BRACKET_IDENTITIES, steps):
        assert [paired for *_, paired in plan].count(True) == 1
        # the steps are the identity's terms, a paired step standing for
        # c x o y and -c y o x
        terms = []
        for i, c, word, paired in plan:
            terms.append((i, c, word))
            if paired:
                terms.append((i, -c, word[::-1]))
        assert sorted(map(repr, terms)) == sorted(map(repr, identity))
        assert (0, 1, (x, y)) in terms and (0, -1, (y, x)) in terms


def test_bracket_plan_proves_as_a_plan_built_per_call():
    # the plan built at import and one built per call from a copy of the
    # identities give the same tables: items, order and value types
    rng = random.Random(428)
    adjoints = _prover_cases(rng, 40)
    adjoints += [smallest_fault(adjoint) for adjoint in adjoints[:10]]
    for _ in range(4):
        beta1 = [random_rational(rng) for _ in range(4)]
        spec = make_omega(random_rational(rng, nonzero=True),
                          random_rational(rng),
                          beta1 + [random_rational(rng, nonzero=True)])
        adjoints.append(adjoint_table(spec.ops, F(0), F(0)))
    failing = 0
    for adjoint in adjoints:
        got = ks_residuals([adjoint], freemod._BRACKET_PLAN)
        per_call = ks_plan([list(identity) for identity
                            in freemod._BRACKET_IDENTITIES], 1)
        assert _typed_residuals(got) == \
            _typed_residuals(ks_residuals([adjoint], per_call))
        failing += any(got)
    assert 10 <= failing < len(adjoints)


def test_paired_residuals_equal_the_unpaired_route(monkeypatch):
    rng = random.Random(426)
    calls = _count_commutator_passes(monkeypatch)
    adjoints = _prover_cases(rng, 40)
    adjoints += [smallest_fault(adjoint) for adjoint in adjoints[:10]]
    # omega with beta1 of degree exactly 4, the largest verify-free composes
    for _ in range(4):
        beta1 = [random_rational(rng) for _ in range(4)]
        spec = make_omega(random_rational(rng, nonzero=True),
                          random_rational(rng),
                          beta1 + [random_rational(rng, nonzero=True)])
        adjoints.append(adjoint_table(spec.ops, F(0), F(0)))
    brackets = list(freemod._BRACKET_IDENTITIES)
    failing = 0
    for adjoint in adjoints:
        got = ks_residuals([adjoint], ks_plan(brackets, 1))
        assert got == _unpaired_residuals([adjoint], brackets)
        assert all(all(table.values()) for table in got)
        failing += any(got)
    assert 10 <= failing < len(adjoints)
    assert calls
    # a Fraction entry, eb^-1's, paired with every generator at a Fraction
    # weight, beside the brackets
    for adjoint in adjoints[:12]:
        adjoint = _ebinv_adjoint(adjoint)
        identities = list(brackets)
        for y in GENERATORS:
            c = random_rational(rng, nonzero=True)
            identities.append([(0, c, ("ebinv", y)), (0, -c, (y, "ebinv")),
                               (0, c, (y,))])
        got = ks_residuals([adjoint], ks_plan(identities, 1))
        assert got == _unpaired_residuals([adjoint], identities)
        assert any(got[len(brackets):])


def test_terms_that_are_not_mates_are_not_paired(monkeypatch):
    # mates need x != y, one adjoint and opposite coefficients; none of
    # these pairs, and each still matches both oracles
    rng = random.Random(427)
    calls = _count_commutator_passes(monkeypatch)
    nonzero = 0
    for n in range(24):
        adjoints = _prover_cases(rng, 2)
        x, y = rng.sample(GENERATORS, 2)
        c = random_rational(rng, nonzero=True)
        other = c + rng.choice((1, F(1, 3)))
        identities = [
            [(0, c, (x, y)), (0, -other, (y, x))],
            [(0, c, (x, y)), (0, c, (y, x))],
            [(0, c, (x, y)), (1, -c, (y, x))],
            [(0, c, (x, x)), (0, -c, (x, x))],
            [(1, c, (y, y)), (0, c, (x,))],
        ]
        got = ks_residuals(adjoints, ks_plan(identities, len(adjoints)))
        assert matches_monomial(adjoints, identities, got), n
        assert got == _unpaired_residuals(adjoints, identities), n
        assert got[3] == {}
        nonzero += sum(bool(table) for table in got)
    assert not calls
    assert nonzero > 24 * 3


def test_free_prover_fails_the_smallest_planted_fault(monkeypatch):
    spec = make_gamma(F(3, 7), F(-5, 11), F(2, 13))
    assert verify_axioms(spec)["ok"]
    planted = smallest_fault(adjoint_table(spec.ops, F(0), F(0)))
    view = fraction_view(planted)
    assert not fraction_prover(view)[GENERATOR_PAIRS.index(("f", "hb"))]
    monkeypatch.setattr(freemod, "adjoint_table", lambda ops, a, b: planted)
    report = verify_axioms(spec)
    flags = [p["pass"] for p in report["pairs"]]
    assert flags == fraction_prover(view)
    assert not flags[GENERATOR_PAIRS.index(("f", "hb"))]


def test_weight_bracket_report_fails_the_smallest_planted_fault():
    spec = make_weight_m(F(1, 3), F(-2, 5), F(3, 7), F(-5, 11), F(2, 13))
    assert weight_bracket_report(spec)["ok"]
    planted = smallest_fault(spec.adjoint)
    spec.__dict__["adjoint"] = planted
    flags = [p["pass"] for p in weight_bracket_report(spec)["pairs"]]
    assert flags == fraction_prover(fraction_view(planted))
    assert not flags[GENERATOR_PAIRS.index(("f", "hb"))]


def test_act_word_matches_composition():
    rng = random.Random(302)
    spec = make_omega(1, 1, (F(0), F(1)))
    for _ in range(20):
        p = random_poly(rng, max_deg_h=3, max_deg_hbar=3)
        word = tuple(rng.choice("e f h eb fb hb".split())
                     for _ in range(rng.randint(0, 4)))
        composed = p
        for x in reversed(word):
            composed = act(spec, x, composed)
        assert act_word(spec, word, p) == composed


def test_act_word_accepts_expressions():
    spec = make_gamma(1, 2, 3)
    rng = random.Random(303)
    for _ in range(10):
        p = random_poly(rng, max_deg_h=3, max_deg_hbar=3)
        assert act_word(spec, "e*f - f*e", p) == act(spec, "h", p)
    with pytest.raises(ValueError):
        act_word(spec, "eb^-1", ONE)


def test_saturation_gamma_reaches_one():
    res = submodule_saturate(make_gamma(1, 0, 0), H, cap=(8, 8))
    assert res.contains_one


def test_saturation_omega_seeded_at_singular_locus():
    # hb - b generates a proper submodule only when it keeps hitting
    # multiples; with b nonzero the constants appear quickly
    res = submodule_saturate(make_omega(1, 2, (F(0),)), HB - PolyHH.const(2),
                             cap=(8, 8))
    assert res.contains_one


def test_saturation_omega_b_zero_stays_divisible():
    res = submodule_saturate(make_omega(1, 0, (F(1),)), HB, cap=(8, 8))
    assert not res.contains_one
    for p in res.basis:
        assert all(p.coeff(i, 0) == 0 for i in range(9)), p.to_text()


# -- submodule_saturate against an independent Fraction oracle ---------------

def saturate_oracle(spec, seed_poly, cap):
    """The capped saturation over Fractions: exact ``act`` products and a
    reduced row-echelon basis with pivot coefficient 1, in the same
    depth-first frontier order.  It shares nothing with the integer
    products and the fraction-free RowBasis of submodule_saturate.
    Returns (basis, contains_one, saturated)."""
    rows = {}  # pivot -> row, mutually reduced

    def reduce(v):
        v = {e: c for e, c in v.items() if c}
        for k in [k for k in v if k in rows]:
            c = v[k]
            for e, x in rows[k].items():
                v[e] = v.get(e, 0) - c * x
            v = {e: y for e, y in v.items() if y}
        return v

    def add(v):
        v = reduce(v)
        if not v:
            return False
        lead = min(v)
        v = {e: c / v[lead] for e, c in v.items()}
        for p, row in rows.items():
            if lead in row:
                c = row[lead]
                row = {e: row.get(e, 0) - c * v.get(e, 0) for e in row | v}
                rows[p] = {e: y for e, y in row.items() if y}
        rows[lead] = v
        return True

    one = {(0, 0): F(1)}
    add(dict(seed_poly.terms()))
    frontier, discarded = [seed_poly], False
    while frontier and reduce(one):
        p = frontier.pop()
        for x in GENERATORS:
            q = act(spec, x, p)
            if q.is_zero():
                continue
            if not q.within_bidegree(*cap):
                discarded = True
                continue
            if add(dict(q.terms())):
                frontier.append(q)
    basis = [PolyHH(rows[p]) for p in sorted(rows)]
    return basis, not reduce(one), not frontier and not discarded


def saturation_cases(rng):
    """(spec, seed) pairs: gamma, theta and omega from a random seed, and
    omega at b = 0 from an hbar-divisible seed."""
    for kind in ("gamma", "theta", "omega", "omega-b0"):
        for _ in range(3):
            seed = PolyHH.zero()
            while seed.is_zero():
                seed = random_poly(rng, max_deg_h=2, max_deg_hbar=2,
                                   max_terms=4)
            if kind == "omega-b0":
                spec = random_free_spec(rng, "omega", beta1_deg=1)
                yield make_omega(spec.lam, 0, spec.beta1), seed * HB
            else:
                yield random_free_spec(rng, kind, beta1_deg=1), seed


@pytest.mark.parametrize("cap", [(4, 4), (5, 5)])
def test_saturation_agrees_with_fraction_oracle(cap):
    for spec, seed in saturation_cases(random.Random(311)):
        if not seed.within_bidegree(*cap):
            continue
        res = submodule_saturate(spec, seed, cap=cap)
        want = saturate_oracle(spec, seed, cap)
        assert (res.basis, res.contains_one, res.saturated) == want, \
            (spec, seed.to_text())


def test_integer_products_are_multiples_of_act():
    rng = random.Random(312)
    specs = [random_free_spec(rng, family)
             for family in ("gamma", "theta", "omega")]
    spec = random_free_spec(rng, "omega")
    alpha1 = ((spec.alpha1[0] + random_rational(rng, nonzero=True),)
              + spec.alpha1[1:])
    specs.append(make_omega(spec.lam, spec.b, spec.beta1, alpha1))
    for spec in specs:
        ops = _int_ops(spec)
        for _ in range(5):
            p = random_poly(rng, max_deg_h=3, max_deg_hbar=3)
            p_int = PolyHH._adopt(vec_primitive(dict(p.terms())))
            products = {x: _apply_terms(ops[x], p_int.shift_h(SHIFT[x]))
                        for x in GENERATORS}
            for x, q in products.items():
                assert all(type(v) is int for _, v in q.terms())
                want = act(spec, x, p)
                if want.is_zero():
                    assert q.is_zero(), (spec, x, p)
                    continue
                e, v = next(q.terms())
                ratio = want.coeff(*e) / F(v)
                assert ratio and q.scale(ratio) == want, (spec, x, p)


def test_saturation_rejects_oversized_seed():
    with pytest.raises(ValueError):
        submodule_saturate(make_gamma(1, 0, 0), PolyHH.term(9, 0), cap=(8, 8))


@pytest.mark.parametrize("cap", [(8, -1), (-1, 8)])
@pytest.mark.parametrize("seed", [ONE, PolyHH.zero()])
def test_saturation_rejects_a_negative_cap_before_the_seed(cap, seed):
    # the error names the cap, not the seed, which fits inside (8, 8)
    with pytest.raises(ValueError, match=r"cap \(.*\) has a negative entry"):
        submodule_saturate(make_gamma(1, 0, 0), seed, cap=cap)


def test_simplicity_criterion_free():
    assert simplicity_criterion_free(make_gamma(1, 5, -3)).simple
    assert simplicity_criterion_free(make_theta_mod(2, 0, 0)).simple
    assert simplicity_criterion_free(make_omega(1, 1, (F(0),))).simple
    assert not simplicity_criterion_free(make_omega(1, 0, (F(1),))).simple


def test_omega_quotient_delta_params():
    assert omega_quotient_delta_params(make_omega(1, 0, (F(0),)), 0) == \
        (F(-1), F(0))
    assert omega_quotient_delta_params(make_omega(1, 0, (F(3),)), 2) == \
        (F(-1), F(-1))
    assert omega_quotient_delta_params(make_omega(2, 0, (F(1, 2),)), 0) == \
        (F(-1, 2), F(-1))


def test_omega_layers_match_delta():
    rng = random.Random(304)
    for _ in range(10):
        lam = F(rng.randint(1, 9))
        q = tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(1, 4)))
        spec = make_omega(lam, 0, q)
        i = rng.randint(0, 3)
        d_lam, d_a = omega_quotient_delta_params(spec, i)
        for x in ("e", "f", "h"):
            for n in range(6):
                g = PolyHH.term(n, 0)
                assert omega_layer_action(spec, i, x, g) == \
                    delta_action(1, d_lam, d_a, x, g), (lam, q, i, x, n)


def test_omega_layer_rejects_b_nonzero():
    spec = make_omega(1, 1, (F(0),))
    with pytest.raises(ValueError):
        omega_layer_action(spec, 0, "e", ONE)
    for bad, i in ((spec, 0), (make_gamma(1, 0, 0), 0),
                   (make_omega(1, 0, (F(0),)), -1)):
        with pytest.raises(ValueError):
            omega_layer_ops(bad, i)


def omega_layer_oracle(spec, i, x, g):
    """The layer action read off the full action: the hbar^i coefficient of
    x.(hbar^i g), after checking that nothing falls below hbar^i."""
    q = act(spec, x, PolyHH.term(0, i) * g)
    assert all(dhb >= i for (_, dhb), _ in q.terms()), (spec, i, x)
    return PolyHH({(dh, 0): c for (dh, dhb), c in q.terms() if dhb == i})


def test_omega_layer_tables_are_delta_and_match_the_full_action():
    rng = random.Random(2027)
    for _ in range(60):
        spec = random_free_spec(rng, "omega", beta1_deg=3)
        spec = make_omega(spec.lam, 0, spec.beta1)
        for i in range(7):
            layer = omega_layer_ops(spec, i)
            delta = freemod.delta_ops(1, *omega_quotient_delta_params(spec, i))
            assert all(layer[x] == delta[x] for x in ("e", "f", "h")), (spec, i)
            for x in GENERATORS:
                for n in range(4):
                    g = PolyHH.term(n, 0)
                    assert omega_layer_action(spec, i, x, g) == \
                        omega_layer_oracle(spec, i, x, g), (spec, i, x, n)


def test_iso_invariants():
    assert iso_invariants_free(make_gamma(1, 2, 3)) == \
        iso_invariants_free(make_gamma(1, 2, 3))
    assert iso_invariants_free(make_gamma(1, 2, 3)) != \
        iso_invariants_free(make_gamma(2, 2, 3))
    assert iso_invariants_free(make_gamma(1, 2, 3)) != \
        iso_invariants_free(make_theta_mod(1, 2, 3))
    assert iso_invariants_free(make_omega(1, 2, (F(1),))) != \
        iso_invariants_free(make_omega(1, 2, (F(1), F(1))))


def test_iso_invariants_ignore_trailing_zeros_of_beta1():
    # each pair has one operator table, so one module and one key
    for b, short, padded in ((2, (F(1),), (F(1), F(0))),
                             (0, (F(1),), (F(1), F(0), F(0)))):
        spec, twin = make_omega(1, b, short), make_omega(1, b, padded)
        assert spec.beta1 != twin.beta1 and spec.ops == twin.ops
        assert iso_invariants_free(spec) == iso_invariants_free(twin)


def hom_space(spec_a, spec_b, top):
    """Basis of the module maps A -> B that multiply by a q(h, hbar) of
    bidegree at most (top, top), each as {(i, j): coefficient of
    h^i hbar^j}.

    h and hbar act by multiplication in every free family, so every map
    between two of them is g -> q g with q its image of 1.  For a
    generator x with terms (c0, 0), (c1, 1) and shift t, x_B(q g) =
    q x_A(g) for every g reads as two identities, linear in q:

        c1_B q(h + t) = q c1_A,
        c0_B q(h + t) + c1_B dbar(q(h + t)) = q c0_A.

    The h- and hbar-degree of q are bounded, so a large enough ``top``
    gives all of Hom(A, B).  eb's coefficient p is free of h in every
    family, so the top h-coefficient of p_B q(h - 2) = q p_A forces
    p_A = p_B, and then q(h - 2) = q(h): q is free of h.  e's identities
    then read c1_A = c1_B and c1 q' = (c0_A - c0_B) q, q' = dbar q; on
    the top hbar-coefficient of q, of degree n:

    * Gamma: c1 = -2 lam and c0 = 0, so q' = 0 and n = 0;
    * Theta: c1 = (hbar^2 + a)/(2 lam) has degree 2 while c0_A - c0_B =
      (b_B - b_A)/(2 lam) is constant, so n + 1 <= n unless q' = 0: n = 0;
    * Omega: c1 = -lam (hbar + b) has degree 1 and leading coefficient
      -lam, and c0_A - c0_B = alpha1_A - alpha1_B, so the difference must
      be a constant and n = (alpha1_B - alpha1_A)/lam, a whole number.

    ``_hbar_degree_bound`` is that n (0 when there is none).
    """
    cols = [(i, j) for i in range(top + 1) for j in range(top + 1)]
    equations = {}
    for x in ("e", "eb", "f", "fb"):
        c_a, c_b = ([sum((c for c, m in spec.ops[x] if m == order),
                         PolyHH.zero()) for order in (0, 1)]
                    for spec in (spec_a, spec_b))
        for i, j in cols:
            q = PolyHH.term(i, j)
            q_t = q.shift_h(SHIFT[x])
            for order, residual in (
                    (1, c_b[1] * q_t - q * c_a[1]),
                    (0, c_b[0] * q_t + c_b[1] * q_t.dbar() - q * c_a[0])):
                for mono, c in residual.terms():
                    equations.setdefault((x, order, mono), {})[(i, j)] = c
    return nullspace(list(equations.values()), cols)


def _hbar_degree_bound(spec_a, spec_b):
    """The hbar-degree of q that e's identity allows (see ``hom_space``)."""
    if spec_a.family != "omega" or spec_b.family != "omega" or \
            spec_a.lam != spec_b.lam:
        return 0
    width = max(len(spec_a.alpha1), len(spec_b.alpha1))
    pad = lambda p: tuple(p) + (F(0),) * (width - len(p))
    diff = [y - x for x, y in zip(pad(spec_a.alpha1), pad(spec_b.alpha1))]
    n = diff[0] / spec_a.lam
    if any(diff[1:]) or n.denominator != 1 or n < 0:
        return 0
    return int(n)


def _hom_pairs():
    rng = random.Random(20221114)
    families = ("gamma", "theta", "omega")
    pairs = []
    for i in range(60):
        spec = random_free_spec(rng, rng.choice(families))
        if i % 3 == 0:
            other = spec
        elif i % 3 == 1:
            other = random_free_spec(rng, spec.family)
        else:
            other = random_free_spec(rng, rng.choice(
                [f for f in families if f != spec.family]))
        pairs.append((spec, other))
    for b, short, padded in ((2, (F(1),), (F(1), F(0))),
                             (0, (F(1),), (F(1), F(0), F(0)))):
        pairs.append((make_omega(1, b, short), make_omega(1, b, padded)))
    return pairs


def test_iso_invariants_agree_with_the_hom_solver():
    # on these pairs, equal keys exactly when Hom(A, B) is one-dimensional,
    # and then it is spanned by q = 1: the two specs define one module.
    # Dimension 1 alone is not enough in general; see the next test.
    pairs = _hom_pairs()
    assert sum(a.family == b.family for a, b in pairs) >= 40
    for spec, other in pairs:
        top = _hbar_degree_bound(spec, other) + 2
        space = hom_space(spec, other, top)
        same = iso_invariants_free(spec) == iso_invariants_free(other)
        assert same == (len(space) == 1), (spec, other, space)
        if same:
            assert space == [{(0, 0): 1}], (spec, space)


def test_hom_solver_degree_bound_is_reached_and_enough():
    # on Omega at b = 0, q = hbar^n maps Omega(lam, 0, beta1) into
    # Omega(lam, 0, beta1 + n/lam): one-dimensional, yet no isomorphism,
    # so the keys differ and nothing maps back
    for lam, n in ((F(1), 1), (F(1), 2), (F(2), 1), (F(-1, 3), 3)):
        spec = make_omega(lam, 0, (F(1), F(3)))
        other = make_omega(lam, 0, (F(1) + n / lam, F(3)))
        assert _hbar_degree_bound(spec, other) == n
        assert hom_space(spec, other, n) == [{(0, n): 1}]
        assert hom_space(spec, other, n + 2) == [{(0, n): 1}]
        assert hom_space(other, spec, n + 2) == []
        assert iso_invariants_free(spec) != iso_invariants_free(other)
    # past the bound the space does not grow on the sampled pairs
    for spec, other in _hom_pairs()[:30]:
        top = _hbar_degree_bound(spec, other)
        assert hom_space(spec, other, top) == \
            hom_space(spec, other, top + 2), (spec, other)


def test_generator_pairs_cover_all_fifteen():
    assert len(GENERATOR_PAIRS) == 15
    assert len({frozenset(p) for p in GENERATOR_PAIRS}) == 15


def test_random_free_spec_families():
    rng = random.Random(305)
    for family in ("gamma", "theta", "omega"):
        spec = random_free_spec(rng, family)
        assert spec.family == family
        assert spec.lam != 0
        assert verify_axioms(spec, trials=2, seed=0)["ok"]


def test_parse_poly_feeds_actions():
    spec = make_gamma(1, 0, 0)
    p = parse_poly("h^2*hb - 3")
    assert act(spec, "h", p) == H * p
