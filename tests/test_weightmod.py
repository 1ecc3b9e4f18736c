"""Tests for the dual weight families M, N, V.

The library derives every M/N/V action as the adjoint of the parent free
module's operator table.  The single-action expected values below do not
come from that code: they were derived by hand by dualizing the parent
actions at sample points, or frozen from the earlier hand-written action
formulas.  dual_consistency then proves the actions against the
parents for every (k, s).  Five replaced implementations stay as
oracles: the hand-written Delta formulas, the Fraction unit loop of the
singular search, the per-index images of ``unit_images``, the closure
loop of the Verma check, and the sampled loop of the duality check.
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import factorial, gcd
from types import SimpleNamespace

import pytest
from adjoint_views import (entry_terms, fraction_view, integer_table,
                           term_adjoint_table, terms_table)
from samplers import eval_weightvec, random_poly

from takiffrep import weightmod
from takiffrep.algebra import GENERATORS, bracket
from takiffrep.freemod import (GENERATOR_PAIRS, SHIFT, adjoint_table,
                               make_gamma, make_omega, make_theta_mod,
                               random_free_spec)
from takiffrep.freemod import act as act_free
from takiffrep.linalg import RowBasis, add_into, nullspace, vec_axpy
from takiffrep.poly import PolyHH, random_rational, shifted_expand
from takiffrep.scan import builtin_scan_grid, criterion_agrees
from takiffrep.weightmod import (DEFAULT_WINDOW, Window, act_weight,
                                 act_weight_word, delta_action,
                                 dual_consistency, eval_functional,
                                 make_weight_m, make_weight_n,
                                 make_weight_v, parent_spec,
                                 random_weight_spec,
                                 simplicity_criterion_weight,
                                 singular_vectors, verma_check,
                                 weight_bracket_report, wv_scale, wv_text,
                                 wv_unit)

F = Fraction


def test_eval_functional_examples():
    # eta[k=0, s=2] at (alpha=0, beta=0) reads the hb coefficient
    assert eval_functional(0, 2, 0, 0, PolyHH.hbar()) == 1
    # (s-1)! scaling: s=3 on (hb - 2)^2 at beta=2 gives 2! * 1
    shifted = PolyHH.hbar() - PolyHH.const(2)
    assert eval_functional(0, 3, 0, 2, shifted * shifted) == 2
    # anything divisible by (h - alpha_k) dies
    q = (PolyHH.h() - PolyHH.const(4)) * PolyHH.hbar()
    assert eval_functional(1, 2, 2, 0, q) == 0
    # constants pair with s=1 only
    assert eval_functional(0, 1, 0, 5, PolyHH.const(7)) == 7
    assert eval_functional(0, 2, 0, 5, PolyHH.const(7)) == 0


def test_wv_helpers():
    v = vec_axpy(wv_unit(0, 1), 1, wv_scale(F(1, 2), wv_unit(1, 3)))
    assert wv_text(v) == "1*eta[0,1] + 1/2*eta[1,3]"
    assert wv_text({}) == "0"
    with pytest.raises(ValueError):
        wv_unit(0, 0)


def test_act_m_frozen_values():
    m = make_weight_m(0, 1, 1, 0, 0)
    assert act_weight(m, "f", wv_unit(0, 2)) == {
        (1, 1): F(1), (1, 2): F(2), (1, 3): F(1, 2)}
    assert act_weight(m, "e", wv_unit(0, 2)) == {(-1, 3): F(2)}
    assert act_weight(m, "h", wv_unit(2, 1)) == {(2, 1): F(-4)}
    assert act_weight(m, "hb", wv_unit(0, 2)) == {(0, 2): F(-1), (0, 1): F(-1)}
    m2 = make_weight_m(0, 1, 2, 0, 0)
    assert act_weight(m2, "eb", wv_unit(0, 3)) == {(-1, 3): F(-2)}
    # fb mixes three s-levels once s is big enough
    m3 = make_weight_m(0, 2, 1, 3, 0)
    assert act_weight(m3, "fb", wv_unit(0, 3)) == {
        (1, 1): F(1, 2), (1, 2): F(2), (1, 3): F(7, 4)}
    # alpha, a, b != 0 and k != 0, so every parameter reaches f and fb
    m4 = make_weight_m(1, 2, 2, 3, -1)
    assert act_weight(m4, "f", wv_unit(1, 3)) == {
        (2, 2): F(3), (2, 3): F(17, 4), (2, 4): F(7, 4)}
    assert act_weight(m4, "fb", wv_unit(1, 3)) == {
        (2, 1): F(1, 4), (2, 2): F(1), (2, 3): F(7, 8)}


def test_act_n_frozen_values():
    n = make_weight_n(0, 2, 1, 0, 0)
    assert act_weight(n, "e", wv_unit(0, 1)) == {(-1, 1): F(-2), (-1, 2): F(-2)}
    assert act_weight(n, "fb", wv_unit(0, 1)) == {(1, 1): F(-1)}
    assert act_weight(n, "f", wv_unit(0, 1)) == {(1, 2): F(-2)}
    assert act_weight(n, "hb", wv_unit(0, 1)) == {(0, 1): F(-2)}
    # s = 2, 3: the s-dependent signs and the (s-1), (s-2)(s-1) factors,
    # checked by hand against (x.eta)(p) = -eta(x.p) in Theta
    assert act_weight(n, "e", wv_unit(0, 2)) == {
        (-1, 1): F(-1), (-1, 2): F(-4), (-1, 3): F(-2)}
    assert act_weight(n, "e", wv_unit(0, 3)) == {
        (-1, 2): F(-3), (-1, 3): F(-6), (-1, 4): F(-2)}
    assert act_weight(n, "eb", wv_unit(0, 2)) == {(-1, 1): F(1), (-1, 2): F(1)}
    assert act_weight(n, "eb", wv_unit(0, 3)) == {
        (-1, 1): F(1, 2), (-1, 2): F(2), (-1, 3): F(1)}
    assert act_weight(n, "fb", wv_unit(0, 2)) == {(1, 2): F(-1)}
    assert act_weight(n, "fb", wv_unit(0, 3)) == {(1, 3): F(-1)}


# Chevalley involution as (image, sign): e <-> f, eb <-> fb, h -> -h, hb -> -hb
CHEVALLEY = {"e": ("f", 1), "f": ("e", 1), "eb": ("fb", 1), "fb": ("eb", 1),
             "h": ("h", -1), "hb": ("hb", -1)}


def test_n_is_m_transported_by_chevalley_involution():
    # N(alpha, beta, ...) ~ M(-alpha, -beta, ...) via
    # eta_{k,s} -> (-1)^(s-1) eta'_{-k,s}, with x acting as omega(x)
    rng = random.Random(405)
    for _ in range(4):
        alpha, beta = random_rational(rng), random_rational(rng)
        lam = random_rational(rng, nonzero=True)
        a, b = random_rational(rng), random_rational(rng)
        n = make_weight_n(alpha, beta, lam, a, b)
        m = make_weight_m(-alpha, -beta, lam, a, b)
        for x, (y, sign) in CHEVALLEY.items():
            for k in range(-3, 4):
                for s in range(1, 5):
                    image = act_weight(m, y, wv_unit(-k, s))
                    want = {(-k2, s2): c * sign * (-1) ** ((s - s2) % 2)
                            for (k2, s2), c in image.items()}
                    assert act_weight(n, x, wv_unit(k, s)) == want, (x, k, s)


def test_act_v_frozen_values():
    v = make_weight_v(0, 3, 1, 1, (F(0), F(1)))
    assert v.alpha1 == (F(2), F(1))
    assert act_weight(v, "e", wv_unit(0, 1)) == {(-1, 1): F(-5), (-1, 2): F(4)}
    assert act_weight(v, "e", wv_unit(0, 2)) == {
        (-1, 1): F(-1), (-1, 2): F(-4), (-1, 3): F(4)}
    assert act_weight(v, "f", wv_unit(0, 2)) == {
        (1, 1): F(-1), (1, 2): F(-2), (1, 3): F(2)}
    assert act_weight(v, "eb", wv_unit(0, 2)) == {(-1, 2): F(-2), (-1, 1): F(-1, 2)}
    assert act_weight(v, "fb", wv_unit(0, 2)) == {(1, 2): F(1), (1, 1): F(1, 2)}
    # quadratic beta1, so alpha1 has degree 2 and e, f reach down two levels
    v2 = make_weight_v(1, 2, 2, 1, (1, -1, 1))
    assert v2.alpha1 == (F(4), F(4), F(4))
    e_want = {
        1: {(0, 1): F(-31), (0, 2): F(6)},
        2: {(0, 1): F(-20), (0, 2): F(-29), (0, 3): F(6)},
        3: {(0, 1): F(-8), (0, 2): F(-40), (0, 3): F(-27), (0, 4): F(6)},
        4: {(0, 2): F(-24), (0, 3): F(-60), (0, 4): F(-25), (0, 5): F(6)}}
    f_want = {
        1: {(2, 1): F(-9, 4), (2, 2): F(1, 2)},
        2: {(2, 1): F(-3), (2, 2): F(-7, 4), (2, 3): F(1, 2)},
        3: {(2, 1): F(-2), (2, 2): F(-6), (2, 3): F(-5, 4), (2, 4): F(1, 2)},
        4: {(2, 2): F(-6), (2, 3): F(-9), (2, 4): F(-3, 4), (2, 5): F(1, 2)}}
    for s in range(1, 5):
        assert act_weight(v2, "e", wv_unit(1, s)) == e_want[s], s
        assert act_weight(v2, "f", wv_unit(1, s)) == f_want[s], s


def test_act_weight_rejects_unknown_generator():
    for spec in (make_weight_m(0, 1, 1, 0, 0), make_weight_n(0, 1, 1, 0, 0),
                 make_weight_v(0, 1, 1, 1, (F(1),))):
        for v in (wv_unit(0, 1), {}):
            with pytest.raises(ValueError):
                act_weight(spec, "x", v)


def test_act_weight_is_linear():
    rng = random.Random(401)
    spec = make_weight_m(F(1, 2), 1, 1, 2, 3)
    for _ in range(20):
        x = rng.choice(("e", "f", "h", "eb", "fb", "hb"))
        v = {(rng.randint(-3, 3), rng.randint(1, 4)): F(rng.randint(-5, 5))
             for _ in range(3)}
        w = {(rng.randint(-3, 3), rng.randint(1, 4)): F(rng.randint(-5, 5))
             for _ in range(3)}
        lhs = act_weight(spec, x, vec_axpy(v, 1, w))
        rhs = vec_axpy(act_weight(spec, x, v), 1, act_weight(spec, x, w))
        assert lhs == rhs


def test_act_weight_word():
    spec = make_weight_n(0, 1, 1, 1, 1)
    v = wv_unit(0, 2)
    lhs = act_weight_word(spec, ("e", "f"), v)
    step = act_weight(spec, "f", v)
    rhs = act_weight(spec, "e", step)
    assert lhs == rhs


def test_dual_consistency_all_families():
    rng = random.Random(402)
    win = Window(-3, 3, 4)
    for family in ("M", "N", "V"):
        for _ in range(3):
            spec = random_weight_spec(rng, family)
            rep = dual_consistency(spec, window=win, trials=25,
                                   seed=rng.randint(0, 999))
            assert rep["ok"], (family, spec, rep["failures"])


EXPLICIT_DUAL_SPECS = (
    make_weight_m(0, 0, 1, 0, 0),
    make_weight_m(F(1, 3), -2, F(5, 2), F(-4), F(2, 7)),
    make_weight_n(1, 0, -1, F(1, 2), 0),
    make_weight_v(0, 0, 1, 0, (F(1, 3),)),
    make_weight_v(F(1, 2), -1, 2, 1, (F(0), F(2), F(1, 3))))


def test_dual_consistency_explicit_specs():
    win = Window(-3, 3, 4)
    for spec in EXPLICIT_DUAL_SPECS:
        rep = dual_consistency(spec, window=win, trials=25, seed=9)
        assert rep["ok"], (spec, rep["failures"])


def test_weight_brackets_all_families():
    win = Window(-3, 3, 4)
    for spec in (make_weight_m(0, 1, 1, -1, -2),
                 make_weight_n(F(1, 2), 1, 2, 0, 1),
                 make_weight_v(1, -1, 1, 1, (F(0), F(1)))):
        rep = weight_bracket_report(spec, window=win)
        assert rep["ok"], rep
        assert len(rep["pairs"]) == 15


# -- weight_bracket_report against an independent window oracle ----------------

def bracket_window_oracle(spec, window):
    """Per-pair verdicts of x.(y.v) - y.(x.v) == [x,y].v on every window
    basis functional v.

    Applies single generators to weight vectors and never composes
    tables, so it is independent of how weight_bracket_report proves the
    identities.
    """
    def holds(x, y, v):
        lhs = vec_axpy(act_weight_word(spec, (x, y), v), 1,
                       wv_scale(-1, act_weight_word(spec, (y, x), v)))
        rhs = {}
        for mono, coeff in bracket(x, y).terms():
            rhs = vec_axpy(rhs, 1, wv_scale(coeff, act_weight_word(
                spec, mono.to_word(), v)))
        return lhs == rhs

    return [all(holds(x, y, wv_unit(k, s)) for k, s in window.indices())
            for x, y in GENERATOR_PAIRS]


def _flags(spec):
    return [p["pass"] for p in weight_bracket_report(spec)["pairs"]]


def test_weight_brackets_agree_with_window_oracle():
    rng = random.Random(405)
    for family in ("M", "N", "V"):
        for _ in range(3):
            spec = random_weight_spec(rng, family, beta1_deg=3)
            flags = _flags(spec)
            assert all(flags), spec
            assert flags == bracket_window_oracle(spec, Window(-2, 2, 3))


def _plant(spec, x, entry):
    """Replace x's adjoint entry (dk, terms), in true values, in the
    cached table only."""
    view = fraction_view(spec.adjoint)
    spec.__dict__["adjoint"] = integer_table({**view, x: entry})


def _perturb(spec, x, index, dc0=0, dc1=0):
    """Move one adjoint term of x by (dc0, dc1) in true values, in the
    cached table only."""
    dk, terms = fraction_view(spec.adjoint)[x]
    m, r, c0, c1 = terms[index]
    _plant(spec, x, (dk, terms[:index] + ((m, r, c0 + dc0, c1 + dc1),)
                     + terms[index + 1:]))


@pytest.mark.parametrize("family", ["M", "N", "V"])
@pytest.mark.parametrize("x", ["e", "f", "eb", "fb"])
@pytest.mark.parametrize("dc0, dc1", [(1, 0), (0, F(1, 3))])
def test_weight_brackets_detect_planted_fault(family, x, dc0, dc1):
    # the term of highest r; some other single-term changes, such as the
    # constant term of f on M, only move the spec to another valid module
    spec = random_weight_spec(random.Random(406), family)
    _perturb(spec, x, len(entry_terms(spec.adjoint[1][x])[1]) - 1,
             dc0=dc0, dc1=dc1)
    assert not weight_bracket_report(spec)["ok"]
    assert _flags(spec) == bracket_window_oracle(spec, Window(-2, 2, 4))


@pytest.mark.parametrize("dc0, dc1", [(1, 0), (0, 1)])
def test_weight_brackets_prove_beyond_the_window(dc0, dc1):
    # f's (m = 0, r = 2) term only acts on eta_{k,s} with s >= 3, so a
    # fault there is invisible to every window with s_max = 2
    spec = make_weight_v(1, -1, 1, 1, (0, 1, 2))
    terms = entry_terms(spec.adjoint[1]["f"])[1]
    index = next(i for i, (m, r, _, _) in enumerate(terms) if (m, r) == (0, 2))
    _perturb(spec, "f", index, dc0=dc0, dc1=dc1)
    assert all(bracket_window_oracle(spec, Window(-1, 1, 2)))
    flags = _flags(spec)
    assert not all(flags)
    assert flags == bracket_window_oracle(spec, Window(-2, 2, 4))


def test_weight_bracket_report_echoes_window():
    spec = make_weight_m(0, 1, 1, -1, -2)
    rep = weight_bracket_report(spec, window=Window(-1, 1, 2))
    assert rep["window"] == "-1:1:2"
    assert {k: v for k, v in rep.items() if k != "window"} == {
        k: v for k, v in weight_bracket_report(spec).items() if k != "window"}


# -- dual_consistency against the sampled loop it replaced -------------------

def dual_sampling_oracle(spec, window=DEFAULT_WINDOW, trials=50, seed=0):
    """The sampled duality check: (x.eta_{k,s})(p) from the adjoint table
    against -eta_{k,s}(x.p) in the parent, on random probes (k, s, x, p)
    drawn from the window."""
    rng = random.Random(seed)
    parent = parent_spec(spec)
    failures = []
    for _ in range(trials):
        k = rng.randint(window.k_min, window.k_max)
        s = rng.randint(1, window.s_max)
        x = rng.choice(GENERATORS)
        p = random_poly(rng)
        lhs = eval_weightvec(spec, act_weight(spec, x, wv_unit(k, s)), p)
        rhs = -eval_functional(k, s, spec.alpha, spec.beta, act_free(parent, x, p))
        if lhs != rhs:
            failures.append({"k": k, "s": s, "x": x, "p": p.to_text()})
    return {"family": spec.family, "params": spec.params(),
            "window": window.as_text(), "trials": trials, "seed": seed,
            "failures": failures, "ok": not failures}


def test_dual_consistency_agrees_with_sampling_oracle():
    rng = random.Random(410)
    specs = [random_weight_spec(rng, family, beta1_deg=3)
             for family in ("M", "N", "V") for _ in range(4)]
    for spec in specs + list(EXPLICIT_DUAL_SPECS):
        seed = rng.randint(0, 999)
        rep = dual_consistency(spec, seed=seed)
        assert rep["ok"], (spec, rep["failures"])
        oracle = dual_sampling_oracle(spec, seed=seed)
        assert oracle["ok"], (spec, oracle["failures"])
        assert rep == oracle


@pytest.mark.parametrize("family", ["M", "N", "V"])
@pytest.mark.parametrize("x", ["e", "f", "fb"])
@pytest.mark.parametrize("dc0, dc1", [(1, 0), (0, 1)])
def test_dual_consistency_fails_every_moved_coefficient(family, x, dc0, dc1):
    def make():
        return random_weight_spec(random.Random(411), family, beta1_deg=3)
    for index in range(len(entry_terms(make().adjoint[1][x])[1])):
        spec = make()
        _perturb(spec, x, index, dc0=dc0, dc1=dc1)
        rep = dual_consistency(spec)
        assert not rep["ok"], (family, x, index)
        assert {f["x"] for f in rep["failures"]} == {x}
        assert all(set(f) == {"k", "s", "x"} for f in rep["failures"])


@pytest.mark.parametrize("family", ["M", "N", "V"])
def test_dual_consistency_fails_a_wrong_dk_or_an_m2_term(family):
    spec = random_weight_spec(random.Random(412), family)
    dk, terms = fraction_view(spec.adjoint)["e"]
    _plant(spec, "e", (dk + 1, terms))
    assert not dual_consistency(spec)["ok"]
    # m = 2 reaches eta_{k+dk, s+2}, outside every parent image
    spec = random_weight_spec(random.Random(412), family)
    dk, terms = fraction_view(spec.adjoint)["hb"]
    _plant(spec, "hb", (dk, terms + ((2, 0, F(1), 0),)))
    assert not dual_consistency(spec)["ok"]


def test_dual_consistency_proves_beyond_the_window():
    # an extra f term with r = 6 acts only on eta_{k,s} with s >= 7, which
    # no probe of the default window -5:5:5 reaches
    spec = make_weight_m(0, 1, 1, -1, -2)
    dk, terms = fraction_view(spec.adjoint)["f"]
    _plant(spec, "f", (dk, terms + ((0, 6, F(1), 0),)))
    assert dual_sampling_oracle(spec)["ok"]
    rep = dual_consistency(spec)
    assert not rep["ok"]
    assert rep["failures"] == [{"k": 0, "s": 7, "x": "f"},
                               {"k": 1, "s": 7, "x": "f"}]
    # window, trials and seed are echoed only
    narrow = dual_consistency(spec, window=Window(0, 0, 1), trials=1, seed=5)
    assert (narrow["window"], narrow["trials"], narrow["seed"]) == (
        "0:0:1", 1, 5)
    assert narrow["failures"] == rep["failures"]


def test_parent_spec_families():
    assert parent_spec(make_weight_m(0, 1, 2, 3, 4)).family == "gamma"
    assert parent_spec(make_weight_n(0, 1, 2, 3, 4)).family == "theta"
    v = make_weight_v(0, 1, 2, 3, (F(1),))
    par = parent_spec(v)
    assert par.family == "omega"
    assert par.b == 3  # the V family's a parameter rides in Omega's b slot
    assert par.alpha1 == v.alpha1
    with pytest.raises(ValueError, match="unknown weight family 'W'"):
        parent_spec(replace(v, family="W"))


# -- simplicity and singular vectors -------------------------------------------

def test_simplicity_m_examples():
    crit = simplicity_criterion_weight(make_weight_m(0, 1, 1, -1, -2))
    assert not crit.simple
    assert crit.witness == (0, 1)
    assert crit.pair == ("f", "fb")

    assert simplicity_criterion_weight(make_weight_m(0, 0, 1, 0, 1)).simple
    assert simplicity_criterion_weight(make_weight_m(0, 1, 1, 0, 0)).simple

    # beta = 0 forces a = 0 on the reducible stratum; then b = 0 decides
    crit0 = simplicity_criterion_weight(make_weight_m(0, 0, 1, 0, 0))
    assert not crit0.simple
    assert crit0.witness == (-1, 1)

    # non-integer j stays simple even on the beta^2 + a = 0 wall
    assert simplicity_criterion_weight(make_weight_m(0, 1, 1, -1, F(1, 2))).simple


def test_simplicity_n_examples():
    crit = simplicity_criterion_weight(make_weight_n(0, 1, 1, -1, 2))
    assert not crit.simple
    assert crit.witness == (0, 1)
    assert crit.pair == ("e", "eb")
    assert simplicity_criterion_weight(make_weight_n(0, 1, 1, 3, 2)).simple


def test_simplicity_v_walls():
    # beta = a = 0: always reducible through the barred pair
    crit = simplicity_criterion_weight(make_weight_v(0, 0, 1, 0, (F(1, 3),)))
    assert not crit.simple
    assert crit.witness == (0, 1)
    assert crit.pair == ("eb", "fb")

    # beta = a != 0: j = (2 lambda beta1(beta) - alpha) / 2
    v1 = make_weight_v(0, 2, 1, 2, (F(1), F(1)))
    crit1 = simplicity_criterion_weight(v1)
    assert not crit1.simple
    assert crit1.witness == (3, 1)
    assert crit1.pair == ("f", "fb")
    assert simplicity_criterion_weight(
        make_weight_v(1, 2, 1, 2, (F(1), F(1)))).simple

    # beta = -a != 0: j = (-2 alpha1(beta)/lambda - alpha) / 2
    v2 = make_weight_v(0, -1, 1, 1, (F(0), F(1)))
    crit2 = simplicity_criterion_weight(v2)
    assert not crit2.simple
    assert crit2.witness == (-1, 1)
    assert crit2.pair == ("e", "eb")

    # off both walls
    assert simplicity_criterion_weight(
        make_weight_v(0, 3, 1, 1, (F(0), F(1)))).simple


def test_v_alpha1_follows_a_replaced_lambda():
    # alpha1 is read off the parent Omega, so replacing lambda re-links it;
    # a stale alpha1 called this spec simple while the search found (-2, 1)
    spec = replace(make_weight_v(0, -1, 1, 1, (F(1),)), lam=2)
    assert spec.alpha1 == make_weight_v(0, -1, 2, 1, (F(1),)).alpha1
    crit = simplicity_criterion_weight(spec)
    assert crit.witness == (-2, 1)
    assert criterion_agrees(spec, crit,
                            singular_vectors(spec, Window(-8, 8, 4)))

def test_singular_vectors_agree_with_criterion():
    cases = [make_weight_m(0, 1, 1, -1, -2),
             make_weight_m(0, 0, 1, 0, 0),
             make_weight_n(0, 1, 1, -1, 2),
             make_weight_v(0, 0, 1, 0, (F(1, 3),)),
             make_weight_v(0, 2, 1, 2, (F(1), F(1))),
             make_weight_v(0, -1, 1, 1, (F(0), F(1)))]
    for spec in cases:
        crit = simplicity_criterion_weight(spec)
        assert not crit.simple
        k0 = crit.witness[0]
        win = Window(k0 - 2, k0 + 2, 4)
        rep = singular_vectors(spec, win)
        match = [h for h in rep.hits
                 if (h.k, h.s) == crit.witness and h.killed_by == crit.pair]
        assert match, (spec, [(h.k, h.s, h.killed_by) for h in rep.hits])
        hit = match[0]
        assert hit.h_eigenvalue == -spec.alpha_k(hit.k)


def test_singular_vectors_empty_for_simple_specs():
    for spec in (make_weight_m(0, 1, 1, 0, 0),
                 make_weight_n(1, 1, 2, 1, 1),
                 make_weight_v(0, 3, 1, 1, (F(0), F(1)))):
        assert simplicity_criterion_weight(spec).simple
        rep = singular_vectors(spec, Window(-3, 3, 4))
        assert not rep.found, [(h.k, h.s) for h in rep.hits]


def singular_oracle(spec, window):
    """The Fraction unit loop that ``singular_vectors`` ran before it read
    its images off ``unit_images``: each column's system built from
    ``act_weight`` on every eta_{k,s}."""
    hits = []
    for pair in weightmod._KILL_PAIRS[spec.family]:
        for k in range(window.k_min, window.k_max + 1):
            cols = list(range(1, window.s_max + 1))
            equations = {}
            for s in cols:
                for x in pair:
                    for key, c in act_weight(spec, x, wv_unit(k, s)).items():
                        equations.setdefault((x,) + key, {})[s] = c
            for basis_vec in nullspace(list(equations.values()), cols):
                vec = {(k, s): c for s, c in basis_vec.items()}
                hits.append((k, max(s for (_, s) in vec), vec, pair,
                             -spec.alpha_k(k)))
    return hits


def _hits(report):
    return [(h.k, h.s, h.vector, h.killed_by, h.h_eigenvalue)
            for h in report.hits]


def test_singular_vectors_agree_with_unit_loop_on_scan_grid():
    # every point of the built-in grid, at the window its scan row uses
    for spec in builtin_scan_grid():
        crit = simplicity_criterion_weight(spec)
        if crit.simple:
            window = Window(-3, 3, 4)
        else:
            k, s = crit.witness
            window = Window(k - 2, k + 2, max(4, s + 1))
        assert _hits(singular_vectors(spec, window)) == \
            singular_oracle(spec, window), spec.params()


def test_singular_vectors_agree_with_unit_loop_on_random_specs():
    rng = random.Random(413)
    for family in ("M", "N", "V"):
        for _ in range(6):
            spec = random_weight_spec(rng, family)
            for window in (Window(-2, 2, 3), Window(-3, 3, 4)):
                assert _hits(singular_vectors(spec, window)) == \
                    singular_oracle(spec, window), spec.params()


def test_kill_pairs_are_the_lowering_pair_and_its_chevalley_image():
    assert weightmod._KILL_PAIRS["M"] == (("f", "fb"),)
    assert weightmod._KILL_PAIRS["N"] == (("e", "eb"),)
    assert weightmod._KILL_PAIRS["V"] == (("f", "fb"), ("e", "eb"),
                                          ("eb", "fb"))
    # the closed-form criterion names its pair among the searched ones, on
    # every reducible branch
    for spec, pair in ((make_weight_m(0, 0, 1, 0, 0), ("f", "fb")),
                       (make_weight_m(0, 1, 1, -1, -2), ("f", "fb")),
                       (make_weight_n(0, -1, 1, -1, -2), ("e", "eb")),
                       (make_weight_v(0, 0, 1, 0, (1,)), ("eb", "fb")),
                       (make_weight_v(0, 1, 1, 1, (1,)), ("f", "fb")),
                       (make_weight_v(0, 1, 1, -1, (1,)), ("e", "eb"))):
        result = simplicity_criterion_weight(spec)
        assert not result.simple, spec.params()
        assert result.pair == pair
        assert result.pair in weightmod._KILL_PAIRS[spec.family]


def test_singular_vector_is_actually_killed():
    spec = make_weight_m(0, 1, 1, -1, -2)
    rep = singular_vectors(spec, Window(-2, 2, 3))
    for hit in rep.hits:
        for x in hit.killed_by:
            assert act_weight(spec, x, hit.vector) == {}


# -- Verma characters -----------------------------------------------------------

def test_verma_check_m_example():
    spec = make_weight_m(0, 1, 1, -1, -2)
    rep = verma_check(spec, (0, 1), Window(-4, 4, 6))
    assert rep.direction == -1
    assert rep.depth_dims == [1, 2, 3, 4, 5]
    assert rep.expected_dims == [1, 2, 3, 4, 5]
    assert rep.character_ok
    assert rep.quotient_nilpotent_ok
    assert rep.passed


def test_verma_check_n_mirror():
    spec = make_weight_n(0, 1, 1, -1, 2)
    rep = verma_check(spec, (0, 1), Window(-4, 4, 6))
    assert rep.direction == 1
    assert rep.character_ok
    assert rep.passed


def test_verma_check_higher_s_hit_exceeds_verma():
    # at the fully degenerate point the s=2 row also carries singular
    # vectors, but hbar pulls their submodule down to s=1, so the
    # character is strictly bigger than a Verma character
    spec = make_weight_m(0, 0, 1, 0, 0)
    rep = singular_vectors(spec, Window(-3, 3, 3))
    spots = {(h.k, h.s) for h in rep.hits}
    assert (-1, 1) in spots and (-1, 2) in spots
    check = verma_check(spec, (-1, 2), Window(-5, 3, 6))
    assert check.depth_dims == [2, 3, 4, 5, 6]
    assert not check.character_ok
    assert not check.passed
    # the s=1 generator at the same point is a genuine Verma lowest weight
    assert verma_check(spec, (-1, 1), Window(-5, 3, 6)).passed


def test_verma_check_rejects_unkilled_seed():
    spec = make_weight_m(0, 1, 1, 0, 0)  # simple
    with pytest.raises(ValueError):
        verma_check(spec, (0, 1), Window(-3, 3, 4))


def verma_closure_oracle(spec, hit, window=DEFAULT_WINDOW):
    """The closure loop that ``verma_check`` ran before it built the PBW
    span: all six generators applied to every frontier vector on
    ``act_weight``'s Fraction vectors, cut at the window's edge."""
    k0, s0 = hit
    v0 = wv_unit(k0, s0)
    for direction, pair in ((-1, weightmod._LOWERING),
                            (+1, weightmod._RAISING)):
        if not any(act_weight(spec, x, v0) for x in pair):
            break  # -1: generated by e, eb; +1: generated by f, fb
    else:
        raise ValueError(f"eta_{hit} is not singular for an sl2-type pair")
    if direction < 0:
        depth_max = k0 - window.k_min
    else:
        depth_max = window.k_max - k0
    if depth_max < 0:
        raise ValueError("window does not contain the hit column")

    columns = {}
    frontier = [v0]
    columns[k0] = RowBasis()
    columns[k0].add(v0)
    lo = min(k0, k0 + direction * depth_max)
    hi = max(k0, k0 + direction * depth_max)
    while frontier:
        v = frontier.pop()
        for x in GENERATORS:
            w = act_weight(spec, x, v)
            if not w:
                continue
            kw = next(iter(w))[0]
            if kw < lo or kw > hi:
                continue
            col = columns.setdefault(kw, RowBasis())
            if col.add(w):
                frontier.append(w)

    depth_dims = []
    for n in range(depth_max + 1):
        col = columns.get(k0 + direction * n)
        depth_dims.append(col.rank if col else 0)
    expected = [n + 1 for n in range(depth_max + 1)]
    character_ok = depth_dims == expected

    # quotient certificate at the hit column: (hbar + beta) kills nothing
    # semisimply -- it is nilpotent on the column yet nonzero mod the
    # submodule rows sitting there.
    s_cap = max(window.s_max, s0 + 2)
    col_basis = columns.get(k0, RowBasis())
    nonzero_mod = False
    nilpotent = True
    for s in range(1, s_cap + 1):
        v = wv_unit(k0, s)
        image = vec_axpy(act_weight(spec, "hb", v), spec.beta, v)
        if col_basis.reduce(image):
            nonzero_mod = True
        w = dict(v)
        for _ in range(s_cap):
            w = vec_axpy(act_weight(spec, "hb", w), spec.beta, w)
        if w:
            nilpotent = False
    return weightmod.VermaReport(
        hit=hit, direction=direction, depth_dims=depth_dims,
        expected_dims=expected, character_ok=character_ok,
        quotient_nilpotent_ok=nonzero_mod and nilpotent)


def _sl2_hits():
    """(spec, hit) for every hit of an sl2-type pair that
    ``singular_vectors`` finds near each reducible point of the scan grid,
    on the window its scan row uses."""
    sl2 = (weightmod._LOWERING, weightmod._RAISING)
    out = []
    for spec in builtin_scan_grid():
        crit = simplicity_criterion_weight(spec)
        if crit.simple:
            continue
        k, s = crit.witness
        for hit in singular_vectors(spec, Window(k - 2, k + 2, max(4, s + 1))).hits:
            if hit.killed_by in sl2:
                out.append((spec, (hit.k, hit.s)))
    return out


def test_verma_check_agrees_with_closure_oracle_on_grid_hits():
    hits = _sl2_hits()
    assert len(hits) >= 140
    dims = set()
    for spec, (k, s) in hits:
        for depth in (0, 2, 4):
            window = Window(k - depth, k + depth, max(4, s + 2))
            rep = verma_check(spec, (k, s), window)
            assert rep == verma_closure_oracle(spec, (k, s), window), \
                (spec.params(), (k, s), depth)
            dims.add(tuple(rep.depth_dims))
    # the hits reach the Verma, the over-full and the degenerate cases
    assert {(1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (1, 0, 0), (1, 1, 1)} <= dims


def test_verma_check_agrees_with_closure_oracle_at_depth_8():
    # M and N, the over-full s = 2 hit, and both V walls
    cases = ((make_weight_m(0, 1, 1, -1, -2), (0, 1)),
             (make_weight_n(0, 1, 1, -1, 2), (0, 1)),
             (make_weight_m(0, 0, 1, 0, 0), (-1, 2)),
             (make_weight_v(0, 2, 1, 2, (F(1), F(1))), (3, 1)),
             (make_weight_v(0, -1, 1, 1, (F(1),)), (-1, 1)))
    for spec, hit in cases:
        window = Window(hit[0] - 8, hit[0] + 8, 6)
        rep = verma_check(spec, hit, window)
        assert rep == verma_closure_oracle(spec, hit, window), spec.params()
        assert rep.depth_dims[-1] == 9 + (hit[1] - 1), spec.params()


def test_verma_check_reads_only_integer_entries_it_needs(monkeypatch):
    # no Fraction action: the kill pair (f, fb), the growth pair (e, eb)
    # and hb for the certificate are read off the integer table; h, which
    # the closure loop also applied, is not needed
    def forbidden(*args):
        raise AssertionError("verma_check called act_weight")
    monkeypatch.setattr(weightmod, "act_weight", forbidden)
    spec = make_weight_m(0, 1, 1, -1, -2)
    d, entries = spec.adjoint
    rep = verma_check(spec, (0, 1), Window(-4, 4, 6))
    spec.__dict__["adjoint"] = (d, {x: entries[x] for x in ("e", "eb", "f",
                                                            "fb", "hb")})
    assert verma_check(spec, (0, 1), Window(-4, 4, 6)) == rep


def test_verma_check_fails_a_planted_eb_without_its_leading_term():
    # eb's s-preserving term is its leading coefficient on the e-side
    # growth; without it the PBW columns stop growing.  The closure oracle
    # still reports [1, 2, 3, 4, 5] here: on a table that is no module it
    # reaches the same columns through the other generators.
    spec = make_weight_m(0, 1, 1, -1, -2)
    view = fraction_view(spec.adjoint)
    dk, terms = view["eb"]
    view["eb"] = (dk, tuple((m, r, 0, 0) if m == r == 0 else (m, r, c0, c1)
                            for m, r, c0, c1 in terms))
    spec.__dict__["adjoint"] = integer_table(view)
    rep = verma_check(spec, (0, 1), Window(-4, 4, 6))
    assert rep.depth_dims == [1, 1, 1, 1, 1]
    assert not rep.character_ok and not rep.passed
    assert rep.quotient_nilpotent_ok


def test_verma_check_fails_a_planted_hbar_shift():
    # hb + 1 in place of hb: hbar + beta is no longer nilpotent on the column
    spec = make_weight_m(0, 1, 1, -1, -2)
    d, entries = spec.adjoint
    hb = add_into(dict(entries["hb"]), d, (((0, 0, 0, 0), 1),))
    spec.__dict__["adjoint"] = (d, {**entries, "hb": hb})
    rep = verma_check(spec, (0, 1), Window(-4, 4, 6))
    assert rep.character_ok
    assert not rep.quotient_nilpotent_ok and not rep.passed


def test_unit_images_builds_only_the_named_generators():
    spec = make_weight_v(0, 1, 1, 1, (F(1),))
    window = Window(-2, 2, 3)
    d, full = weightmod.unit_images(spec, window)
    d_pair, pair = weightmod.unit_images(spec, window, ("f", "fb"))
    assert d_pair == d and set(full) == set(GENERATORS)
    assert pair == {x: full[x] for x in ("f", "fb")}


def unit_images_oracle(spec, window):
    """The images ``unit_images`` read before its per-s templates: each
    entry applied to every window index on its own, through
    ``apply_adjoint`` on a one-entry vector."""
    d, entries = spec.adjoint
    return d, {x: {key: weightmod.apply_adjoint(entries[x], {key: 1})
                   for key in window.indices()}
               for x in entries}


def _typed(images):
    """images with every value paired with its type, so == also compares
    int against Fraction."""
    return {x: {key: {k2: (type(c), c) for k2, c in image.items()}
                for key, image in column.items()}
            for x, column in images.items()}


def test_unit_images_equal_the_per_index_oracle():
    rng = random.Random(4417)
    windows = (Window(-4, 2, 6), Window(-3, -1, 5), Window(-2, 2, 3),
               Window(0, 0, 1), Window(-6, 6, 4))
    specs = [random_weight_spec(rng, family, beta1_deg=3)
             for family in "MNV" for _ in range(8)]
    # entries with c1 != 0 on r >= 1 terms, in true values
    for spec in specs[::4]:
        view = fraction_view(spec.adjoint)
        for x in ("e", "fb"):
            dk, terms = view[x]
            view[x] = (dk, terms + ((0, 1, F(1, 3), F(-2, 5)),
                                    (1, 2, F(0), F(3, 7))))
        spec.__dict__["adjoint"] = integer_table(view)
    # keys of two t on one target, 3 + k at t = 0 and -1 at t = 1, whose
    # sum 2 + k at s = 2 vanishes at k = -2 only; (k - 3) C(s-1, 1), which
    # vanishes at k = 3 alone; and a pair whose sum 5 - 5 C(s-1, 1)
    # vanishes at s = 2 at every k
    planted = make_weight_m(0, 1, 1, 0, 0)
    d, entries = planted.adjoint
    planted.__dict__["adjoint"] = (d, {**entries, "e": {
        (1, 0, 0, 0): 3, (1, 0, 0, 1): 1, (1, 0, 1, 0): -1,
        (1, -1, 1, 0): -3, (1, -1, 1, 1): 1,
        (1, 2, 0, 0): 5, (1, 2, 1, 0): -5}})
    specs.append(planted)
    for i, spec in enumerate(specs):
        window = windows[i % len(windows)]
        got = weightmod.unit_images(spec, window)
        want = unit_images_oracle(spec, window)
        assert got[0] == want[0]
        assert _typed(got[1]) == _typed(want[1]), spec.params()
    got = weightmod.unit_images(planted, Window(-4, 4, 3))[1]["e"]
    assert (-1, 2) not in got[(-2, 2)] and got[(-1, 2)][(0, 2)] == 1
    assert (4, 1) not in got[(3, 2)] and got[(2, 2)][(3, 1)] == -1
    assert (3, 4) not in got[(2, 2)] and got[(2, 3)][(3, 5)] == -5


# -- windows and the rank-1 sl2 comparison models -------------------------------

def test_window_validation():
    w = Window(-2, 3, 4)
    assert w.contains((0, 1))
    assert not w.contains((0, 5))
    assert not w.contains((-3, 1))
    assert len(list(w.indices())) == 6 * 4
    assert w.as_text() == "-2:3:4"
    with pytest.raises(ValueError):
        Window(2, -2, 4)
    with pytest.raises(ValueError):
        Window(0, 1, 0)
    assert DEFAULT_WINDOW.as_text() == "-5:5:5"


def test_delta_action_examples():
    h = PolyHH.h()
    one = PolyHH.const(1)
    # variant 1, lambda=1, a=0: e.g = -(h/2 - 0) g(h-2) -> e.1 = -h/2
    assert delta_action(1, 1, 0, "e", one) == h.scale(F(-1, 2))
    assert delta_action(1, 1, 0, "f", one) == h.scale(F(1, 2))
    # variant 2: e.g = lambda g(h-2)
    assert delta_action(2, 3, 0, "e", h) == (h - PolyHH.const(2)).scale(3)
    assert delta_action(2, 1, 1, "f", one) == \
        (h.scale(F(1, 2)) - one) * (h.scale(F(1, 2)) + PolyHH.const(2)).scale(-1)
    # variant 3: f.g = lambda g(h+2)
    assert delta_action(3, 2, 5, "f", h) == (h + PolyHH.const(2)).scale(2)
    assert delta_action(1, 1, 0, "h", h) == h * h
    with pytest.raises(ValueError):
        delta_action(4, 1, 0, "e", one)
    with pytest.raises(ValueError):
        delta_action(1, 1, 0, "e", PolyHH.hbar())


def delta_oracle(variant, lam, a, x, g):
    """The hand-written Delta formulas that the operator tables replaced:

    variant 1:  e.g = -(1/lam)(h/2 - a) g(h-2)    f.g = lam (h/2 + a) g(h+2)
    variant 2:  e.g = lam g(h-2)                  f.g = -(1/lam)(h/2 - a)(h/2 + a + 1) g(h+2)
    variant 3:  e.g = -(1/lam)(h/2 + a)(h/2 - a - 1) g(h-2)    f.g = lam g(h+2)
    """
    half_h = PolyHH.h().scale(F(1, 2))
    if x == "h":
        return PolyHH.h() * g
    if x == "e":
        if variant == 1:
            return (half_h - PolyHH.const(a)) * g.shift_h(-2) * PolyHH.const(-1 / lam)
        if variant == 2:
            return g.shift_h(-2).scale(lam)
        coeff = (half_h + PolyHH.const(a)) * (half_h - PolyHH.const(a + 1))
        return coeff * g.shift_h(-2) * PolyHH.const(-1 / lam)
    if variant == 1:
        return (half_h + PolyHH.const(a)) * g.shift_h(2) * PolyHH.const(lam)
    if variant == 2:
        coeff = (half_h - PolyHH.const(a)) * (half_h + PolyHH.const(a + 1))
        return coeff * g.shift_h(2) * PolyHH.const(-1 / lam)
    return g.shift_h(2).scale(lam)


def test_delta_action_agrees_with_hand_formulas():
    rng = random.Random(412)
    for _ in range(40):
        lam = random_rational(rng, nonzero=True)
        a = random_rational(rng)
        g = PolyHH({(i, 0): random_rational(rng)
                    for i in range(rng.randint(0, 4))})
        for variant in (1, 2, 3):
            for x in ("e", "f", "h"):
                assert delta_action(variant, lam, a, x, g) == \
                    delta_oracle(variant, lam, a, x, g), (variant, lam, a, x)
    # the refusals keep their wording; an unknown variant is refused for
    # every generator, h included
    one = PolyHH.const(1)
    for args, message in (((1, 0, 0, "e", one), "lambda must be nonzero"),
                          ((1, 1, 0, "e", PolyHH.hbar()), "h alone"),
                          ((4, 1, 0, "h", one), "unknown Delta variant 4"),
                          ((1, 1, 0, "eb", one), "generator 'eb'"),
                          ((3, 1, 0, "hb", one), "generator 'hb'")):
        with pytest.raises(ValueError, match=message):
            delta_action(*args)


def test_delta_variants_satisfy_sl2():
    rng = random.Random(403)
    for variant in (1, 2, 3):
        for _ in range(8):
            lam = F(rng.randint(1, 9))
            a = F(rng.randint(-9, 9), rng.randint(1, 9))
            g = PolyHH.term(rng.randint(0, 4), 0,
                            F(rng.randint(-9, 9), rng.randint(1, 9)))
            ef = delta_action(variant, lam, a, "e",
                              delta_action(variant, lam, a, "f", g))
            fe = delta_action(variant, lam, a, "f",
                              delta_action(variant, lam, a, "e", g))
            assert ef - fe == PolyHH.h() * g, (variant, lam, a)
            he = delta_action(variant, lam, a, "h",
                              delta_action(variant, lam, a, "e", g))
            eh = delta_action(variant, lam, a, "e",
                              delta_action(variant, lam, a, "h", g))
            assert he - eh == delta_action(variant, lam, a, "e", g).scale(2)


def test_eval_functional_matches_shifted_expansion():
    # oracle: (s-1)! times the (0, s-1) coefficient of p about (alpha_k, beta)
    rng = random.Random(407)
    for _ in range(40):
        p = random_poly(rng, max_deg_h=3, max_deg_hbar=4)
        k, s = rng.randint(-3, 3), rng.randint(1, 6)
        alpha, beta = random_rational(rng), random_rational(rng)
        exp = shifted_expand(p, (alpha + 2 * k, beta))
        assert eval_functional(k, s, alpha, beta, p) == \
            exp.coeff(0, s - 1) * factorial(s - 1)


def test_eval_weightvec_matches_functional_sum():
    rng = random.Random(404)
    spec = make_weight_m(0, 1, 1, 2, 3)
    for _ in range(10):
        p = random_poly(rng, max_deg_h=3, max_deg_hbar=3)
        v = vec_axpy(wv_unit(0, 1), 1, wv_scale(F(3), wv_unit(1, 2)))
        want = eval_functional(0, 1, spec.alpha, spec.beta, p) \
            + 3 * eval_functional(1, 2, spec.alpha, spec.beta, p)
        assert eval_weightvec(spec, v, p) == want


def adjoint_table_oracle(spec, ops):
    """The adjoint table by Leibniz through ``shifted_expand``: expanding an
    operator coefficient c = sum e_ir (h - alpha)^i (hbar - beta)^r gives
    (dbar^r c)(alpha + 2k, beta) = r! sum_i e_ir (2k)^i.  As
    {x: (dk, {(m, r): (c0, c1)})}, zero entries dropped."""
    table = {}
    for x, terms in ops.items():
        coeffs = {}
        for c, m in terms:
            for (i, r), e in shifted_expand(c, (spec.alpha, spec.beta)).terms():
                pair = coeffs.setdefault((m, r), [F(0), F(0)])
                pair[i] -= factorial(r) * 2 ** i * e
        table[x] = (SHIFT[x] // 2, {key: (c0, c1) for key, (c0, c1)
                                    in coeffs.items() if c0 or c1})
    return table


def _as_oracle_table(table):
    return {x: (dk, {(m, r): (c0, c1) for m, r, c0, c1 in terms})
            for x, (dk, terms) in fraction_view(table).items()}


def test_adjoint_table_matches_leibniz_oracle():
    rng = random.Random(409)

    def fractional():
        return F(rng.randint(-20, 20), 7) + F(1, 2)

    specs = []
    for _ in range(4):
        lam = random_rational(rng, nonzero=True)
        a, b = random_rational(rng), random_rational(rng)
        beta1 = [random_rational(rng) for _ in range(3)]
        beta1.append(random_rational(rng, nonzero=True))
        specs += [make_weight_m(fractional(), fractional(), lam, a, b),
                  make_weight_n(fractional(), fractional(), lam, a, b),
                  make_weight_v(fractional(), fractional(), lam, a, beta1)]
    for spec in specs:
        want = adjoint_table_oracle(spec, parent_spec(spec).ops)
        assert _as_oracle_table(spec.adjoint) == want, spec.params()


def _wide(rng, nonzero=False):
    """A rational with a numerator and denominator of up to seven digits."""
    while True:
        v = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if v or not nonzero:
            return v


def _assert_matches_oracle_with_types(table, want):
    assert _as_oracle_table(table) == want
    # ints over the least denominator: d shares no factor with every entry
    d, entries = table
    values = [c for x_table in entries.values() for c in x_table.values()]
    assert type(d) is int and d > 0
    assert all(type(c) is int for c in values)
    assert gcd(d, *values) == 1


def test_adjoint_table_types_match_oracle_on_wide_rationals():
    # int entries over the least denominator, at large-denominator
    # parameters
    rng = random.Random(418)
    for n in range(60):
        alpha, beta, lam, a = (_wide(rng), _wide(rng), _wide(rng, True),
                               _wide(rng))
        if n % 3 == 0:
            spec = make_weight_m(alpha, beta, lam, a, _wide(rng))
        elif n % 3 == 1:
            spec = make_weight_n(alpha, beta, lam, a, _wide(rng))
        else:
            spec = make_weight_v(alpha, beta, lam, a,
                                 [_wide(rng) for _ in range(rng.randint(1, 4))])
        want = adjoint_table_oracle(spec, parent_spec(spec).ops)
        _assert_matches_oracle_with_types(spec.adjoint, want)


def test_adjoint_table_types_match_oracle_at_the_free_point():
    # the alpha = beta = 0 table that verify_axioms proves the free families on
    rng = random.Random(419)
    origin = SimpleNamespace(alpha=F(0), beta=F(0))
    for n in range(30):
        lam, b = _wide(rng, True), _wide(rng)
        if n % 3 == 0:
            spec = make_gamma(lam, _wide(rng), b)
        elif n % 3 == 1:
            spec = make_theta_mod(lam, _wide(rng), b)
        else:
            spec = make_omega(lam, b,
                              [_wide(rng) for _ in range(rng.randint(1, 4))])
        _assert_matches_oracle_with_types(
            adjoint_table(spec.ops, F(0), F(0)),
            adjoint_table_oracle(origin, spec.ops))


def test_adjoint_table_reads_planted_operator_terms(monkeypatch):
    h, hbar = PolyHH.h(), PolyHH.hbar()
    ops = {"e": ((h * hbar * hbar + PolyHH.const(3), 1),
                 (PolyHH.const(F(-2, 3)), 0), (h.scale(F(1, 2)) - hbar, 0)),
           "hb": ((hbar * hbar * hbar, 2),)}
    monkeypatch.setattr(weightmod, "parent_spec",
                        lambda spec: SimpleNamespace(ops=ops))
    spec = make_weight_m(F(1, 3), F(-5, 2), 1, 0, 0)
    assert _as_oracle_table(spec.adjoint) == adjoint_table_oracle(spec, ops)
    # the reading needs every coefficient linear in h
    ops["f"] = ((h * h, 0),)
    with pytest.raises(ValueError, match="degree 2 in h"):
        make_weight_m(F(1, 3), F(-5, 2), 1, 0, 0).adjoint


def _typed_terms(adjoint):
    """(d, {x: (dk, terms)}) with d, c0 and c1 each paired with its type,
    so == also compares int against Fraction."""
    d, entries = adjoint
    return (type(d), d), {
        x: (dk, tuple((m, r, (type(c0), c0), (type(c1), c1))
                      for m, r, c0, c1 in terms))
        for x, (dk, terms) in entries.items()}


def _fractional(rng):
    """A rational that is not an integer, its denominator 2, 3, 5 or 7."""
    q = rng.choice((2, 3, 5, 7))
    return F(q * rng.randint(-4, 4) + rng.randint(1, q - 1), q)


def test_adjoint_table_reads_as_the_term_table_it_replaced():
    # the oracle is the term table (m, r, c0, c1) adjoint_table wrote
    # before its binomial keys; each binomial table, read back as terms,
    # is that table, term order and value types included
    rng = random.Random(4419)
    cases = [(random_free_spec(rng, family, beta1_deg=4).ops, F(0), F(0))
             for family in ("gamma", "theta", "omega") for _ in range(30)]
    for n in range(120):
        lam = random_rational(rng, nonzero=True)
        alpha, beta = _fractional(rng), _fractional(rng)
        a, b = random_rational(rng), random_rational(rng)
        if n % 3 == 2:
            spec = make_weight_v(alpha, beta, lam, a,
                                 [random_rational(rng)
                                  for _ in range(rng.randint(1, 5))])
        else:
            spec = (make_weight_m, make_weight_n)[n % 3](alpha, beta, lam,
                                                         a, b)
        cases.append((parent_spec(spec).ops, spec.alpha, spec.beta))
    for ops, alpha, beta in cases:
        d, tables = adjoint_table(ops, alpha, beta)
        read = (d, {x: entry_terms(table) for x, table in tables.items()})
        assert _typed_terms(read) == \
            _typed_terms(term_adjoint_table(ops, alpha, beta))
        # and each table is written back from its terms unchanged
        for x, (dk, terms) in read[1].items():
            assert terms_table(dk, terms) == tables[x]



def _typed_items(table):
    """A ``BinomialTable``'s items in order, each value with its type."""
    return [(key, type(a), a) for key, a in table.items()]


def test_adjoint_table_at_beta_zero_keeps_the_term_tables_order():
    # at beta = 0 only r = j adds; the oracle is the term table, each
    # generator written back by terms_table, compared as ordered items
    # with types: M/N/V at beta = 0 with alpha != 0, gamma/theta/omega at
    # alpha = beta = 0, and a planted table whose m = 2 terms share (m, r)
    # pairs first made by a higher hbar-degree
    rng = random.Random(4420)
    cases = []
    for n in range(90):
        lam = random_rational(rng, nonzero=True)
        alpha = random_rational(rng, nonzero=True)
        a, b = random_rational(rng), random_rational(rng)
        if n % 3 == 2:
            spec = make_weight_v(alpha, 0, lam, a,
                                 [random_rational(rng)
                                  for _ in range(rng.randint(1, 5))])
        else:
            spec = (make_weight_m, make_weight_n)[n % 3](alpha, 0, lam, a, b)
        cases.append((parent_spec(spec).ops, spec.alpha, spec.beta))
    cases += [(random_free_spec(rng, family, beta1_deg=4).ops, F(0), F(0))
              for family in ("gamma", "theta", "omega") for _ in range(30)]
    h, hbar = PolyHH.h(), PolyHH.hbar()
    planted = {"e": ((hbar * hbar * hbar + h.scale(F(2, 3)), 2),
                     (hbar + h * hbar * hbar.scale(F(-5, 7)), 2),
                     (PolyHH.const(3), 0)),
               "hb": ((hbar * hbar, 1), (h * hbar, 2))}
    cases += [(planted, F(0), F(0)), (planted, F(-7, 3), F(0))]
    for ops, alpha, beta in cases:
        d, tables = adjoint_table(ops, alpha, beta)
        want_d, want = term_adjoint_table(ops, alpha, beta)
        assert (type(d), d) == (type(want_d), want_d)
        assert list(tables) == list(want)
        for x, (dk, terms) in want.items():
            assert _typed_items(tables[x]) == \
                _typed_items(terms_table(dk, terms)), (x, alpha)
