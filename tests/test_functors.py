"""Tests for the twisting substitution on modules and the explicit isos."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from adjoint_views import (entry_terms, fraction_view, integer_table, plant,
                           smallest_fault)
from ks_oracle import matches_monomial

from takiffrep import freemod, functors
from takiffrep.algebra import GENERATORS, parse_word_expr, theta
from takiffrep.freemod import _compose_into, ks_plan, ks_residuals
from takiffrep.functors import (IsoCheckResult, LinearWindowMap,
                                _first_failure, _table_iso,
                                apply_localized, check_twist_iso, ebinv_act,
                                intertwiner_search, lambda_rescale_iso,
                                twisted_act, vm_iso_check, vm_matching_b,
                                vm_matching_m_spec)
from takiffrep.linalg import RowBasis, nullspace, vec_axpy
from takiffrep.poly import PolyHH, poly1_to_polyhh, random_rational
from takiffrep.weightmod import (Window, WeightModuleSpec, act_weight,
                                 act_weight_word, apply_adjoint,
                                 dual_consistency,
                                 make_weight_m, make_weight_n, make_weight_v,
                                 random_weight_spec, unit_images, wv_scale,
                                 wv_text, wv_unit)

F = Fraction


def test_ebinv_act_inverts_eb():
    spec = make_weight_m(F(1, 2), 1, 3, 2, 1)
    for k in range(-3, 3):
        for s in range(1, 4):
            v = wv_unit(k, s)
            assert ebinv_act(spec, act_weight(spec, "eb", v)) == v
            assert act_weight(spec, "eb", ebinv_act(spec, v)) == v


def test_ebinv_act_explicit():
    # eb scales by -lambda and shifts k down, so its inverse scales by
    # -1/lambda and shifts k up
    spec = make_weight_m(0, 1, 2, 0, 0)
    assert ebinv_act(spec, wv_unit(0, 2)) == {(1, 2): F(-1, 2)}


def test_ebinv_act_matches_hand_formula_on_random_m_vectors():
    # eb^-1 is read off eb's adjoint entry; the oracle is the hand formula
    # eta_{k,s} |-> -(1/lam) eta_{k+1,s}
    rng = random.Random(503)
    for _ in range(40):
        spec = random_weight_spec(rng, "M")
        v = {(rng.randint(-4, 4), rng.randint(1, 5)): random_rational(rng)
             for _ in range(rng.randint(0, 6))}
        want = {(k + 1, s): -c / spec.lam for (k, s), c in v.items() if c}
        assert ebinv_act(spec, v) == want


def test_ebinv_act_rejects_n_and_v():
    specs = [make_weight_n(1, 2, 3, -1, 1),
             make_weight_v(0, 3, 1, 1, (F(0), F(1))),
             # eb's entry is a single term here, but with r = 2 (N) or
             # r = 1 (V), so it is still no invertible translation
             make_weight_n(F(1, 2), 0, 2, 0, 1),
             make_weight_v(1, 2, 3, -2, (F(1),))]
    assert len(entry_terms(specs[2].adjoint[1]["eb"])[1]) == 1
    assert len(entry_terms(specs[3].adjoint[1]["eb"])[1]) == 1
    for spec in specs:
        with pytest.raises(ValueError, match="eb-localization acts on the M"):
            ebinv_act(spec, wv_unit(0, 1))


def test_ebinv_entry_is_whole_on_m_and_exact_when_planted():
    # eb's entry over d is -lam d, and d holds lam's numerator, so eb^-1's
    # entry d^2/c is an int on every M table
    rng = random.Random(508)
    for _ in range(100):
        spec = random_weight_spec(rng, "M")
        (c,) = functors._ebinv_entry(spec).values()
        assert type(c) is int
    # a planted eb whose inverse is no multiple of 1/d stays exact
    spec = make_weight_m(0, 1, 2, 0, 0)
    view = fraction_view(spec.adjoint)
    view["eb"] = (view["eb"][0], ((0, 0, F(-7, 2), 0),))
    spec.__dict__["adjoint"] = integer_table(view)
    (c,) = functors._ebinv_entry(spec).values()
    assert type(c) is F and c == F(-2, 7) * spec.adjoint[0]
    assert ebinv_act(spec, wv_unit(0, 1)) == {(1, 1): F(-2, 7)}


def test_twisted_act_at_zero_is_plain_action():
    rng = random.Random(501)
    spec = make_weight_m(F(1, 3), -2, 1, 5, F(2, 7))
    for _ in range(100):
        k, s = rng.randint(-4, 4), rng.randint(1, 4)
        x = rng.choice(("e", "f", "h", "eb", "fb", "hb"))
        v = wv_unit(k, s)
        assert twisted_act(0, spec, x, v) == act_weight(spec, x, v)


def test_twisted_act_h_shift():
    # theta_z(h) = h + 2z, so the twisted h eigenvalue moves by 2z
    spec = make_weight_m(0, 1, 1, 2, 3)
    z = F(3, 2)
    v = wv_unit(1, 1)
    got = twisted_act(z, spec, "h", v)
    assert got == {(1, 1): -spec.alpha_k(1) + 2 * z}


def test_twisted_act_localized_word():
    spec = make_weight_m(0, 1, 1, 2, 3)
    elem = parse_word_expr("eb^-1*hb", localized=True)
    from takiffrep.functors import apply_localized
    v = wv_unit(0, 2)
    want = ebinv_act(spec, act_weight(spec, "hb", v))
    assert apply_localized(spec, elem, v) == want


def test_twist_iso_matches_alpha_shift():
    spec = make_weight_m(F(1, 2), 1, 1, 2, F(1, 3))
    win = Window(-4, 4, 4)
    for z in (F(1), F(-2), F(1, 2)):
        res = check_twist_iso(z, spec, win)
        assert res.intertwines, (z, res.failing_probe)
        assert res.rank == 9 * 4


def test_twist_iso_random_z():
    rng = random.Random(502)
    spec = make_weight_m(0, -1, 2, F(1, 2), 1)
    win = Window(-3, 3, 3)
    for _ in range(5):
        z = F(rng.randint(-9, 9), rng.randint(1, 9))
        res = check_twist_iso(z, spec, win)
        assert res.intertwines, (z, res.failing_probe)


def test_twist_iso_rejects_non_m():
    spec = make_weight_n(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        check_twist_iso(F(1), spec, Window(-2, 2, 2))


def test_lambda_rescale_iso():
    win = Window(-3, 3, 4)
    a = make_weight_m(0, 1, 2, 2, F(1, 3))
    b = make_weight_m(0, 1, 3, 2, F(1, 3))
    res = lambda_rescale_iso(a, b, win)
    assert res.intertwines
    assert res.rank == 7 * 4

    n_a = make_weight_n(F(1, 2), -1, -2, 0, 3)
    n_b = make_weight_n(F(1, 2), -1, F(5, 7), 0, 3)
    assert lambda_rescale_iso(n_a, n_b, win).intertwines


def test_lambda_rescale_iso_detects_parameter_mismatch():
    win = Window(-3, 3, 4)
    a = make_weight_m(0, 1, 2, 2, F(1, 3))
    bads = (make_weight_m(0, 1, 3, 2, F(1, 2)),   # b differs
            make_weight_m(0, 1, 3, 1, F(1, 3)),   # a differs
            make_weight_m(0, 2, 3, 2, F(1, 3)))   # beta differs
    for bad, x in zip(bads, ("f", "fb", "fb")):
        res = lambda_rescale_iso(a, bad, win)
        assert not res.intertwines
        assert res.failing_probe == {"k": -3, "s": 1, "x": x}


# The window loop is the oracle of the table proofs and of vm_iso_check's
# e-generation proof: it applies every generator to every window
# functional, Theta_z(y) through apply_localized.

def _window_iso(window: Window, act_a, act_b, phi,
                details: dict | None = None) -> IsoCheckResult:
    """Check phi, injective on the window basis, against every generator on
    every window basis functional; the rank is the window's index count."""
    failing = _first_failure(
        ((k, s, x) for (k, s) in window.indices() for x in GENERATORS),
        act_a, act_b, phi)
    rank = (window.k_max - window.k_min + 1) * window.s_max
    return IsoCheckResult(failing is None, rank=rank, window=window.as_text(),
                          failing_probe=failing, details=details)


def _twist_oracle(z, spec, target, window):
    images = {x: theta(z, x) for x in GENERATORS}
    return _window_iso(window,
                       lambda x, v: apply_localized(spec, images[x], v),
                       partial(act_weight, target), lambda v: v)


def _rescale_oracle(spec_a, spec_b, window):
    ratio = spec_a.lam / spec_b.lam
    sign = 1 if spec_a.family == "M" else -1
    return _window_iso(window, partial(act_weight, spec_a),
                       partial(act_weight, spec_b),
                       lambda v: {(k, s): c * ratio ** (sign * k)
                                  for (k, s), c in v.items()})


def _verdict(res):
    return res.intertwines, res.rank, res.failing_probe


def _twist_onto(monkeypatch, target, z, spec, window):
    """check_twist_iso with ``target`` in place of M(alpha - 2z, ...),
    which it builds by ``replace``."""
    monkeypatch.setattr(functors, "replace", lambda *args, **kw: target)
    try:
        return check_twist_iso(z, spec, window)
    finally:
        monkeypatch.undo()


def _planted(spec, x, term):
    """``spec`` with one more term (m, r, c0, c1), in true values, in the
    adjoint entry of x."""
    view = fraction_view(spec.adjoint)
    dk, terms = view[x]
    spec.__dict__["adjoint"] = integer_table({**view, x: (dk, terms + (term,))})
    return spec


def test_twist_proof_agrees_with_window_oracle(monkeypatch):
    rng = random.Random(503)
    windows = (Window(-2, 2, 3), Window(-3, 3, 4), Window(0, 0, 1),
               Window(-1, 1, 2))
    failed = 0
    for i in range(60):
        spec = random_weight_spec(rng, "M")
        z = random_rational(rng)
        window = windows[i % len(windows)]
        right = spec.alpha - 2 * z
        targets = (make_weight_m(right, spec.beta, spec.lam, spec.a, spec.b),
                   make_weight_m(spec.alpha - z, spec.beta, spec.lam,
                                 spec.a, spec.b),
                   make_weight_m(right, spec.beta, spec.lam, spec.a,
                                 spec.b + 1),
                   make_weight_m(right, spec.beta, spec.lam, spec.a + 1,
                                 spec.b))
        for target in targets:
            want = _twist_oracle(z, spec, target, window)
            got = _twist_onto(monkeypatch, target, z, spec, window)
            assert _verdict(got) == _verdict(want), (spec, z, target)
            failed += not want.intertwines
        assert check_twist_iso(z, spec, window).intertwines
    assert failed >= 100


def test_twist_proof_catches_a_planted_term_no_window_sees(monkeypatch):
    # C(s-1, 2) vanishes at s <= 2, so no window with s_max = 2 sees an
    # r = 2 term; the proof names the first failing (k, s) of its scan
    spec = make_weight_m(F(1, 2), 1, 1, 2, F(1, 3))
    z = F(3, 2)
    window = Window(-2, 2, 2)
    for x in ("hb", "e"):
        def target():
            return _planted(make_weight_m(spec.alpha - 2 * z, spec.beta,
                                          spec.lam, spec.a, spec.b),
                            x, (0, 2, F(1), 0))
        assert _twist_oracle(z, spec, target(), window).intertwines
        res = _twist_onto(monkeypatch, target(), z, spec, window)
        assert not res.intertwines
        assert res.failing_probe == {"k": -2, "s": 3, "x": x}
        assert res.rank == 10
        # a window with s_max = 3 sees the same first probe
        wide = Window(-2, 2, 3)
        assert _verdict(_twist_onto(monkeypatch, target(), z, spec, wide)) \
            == _verdict(_twist_oracle(z, spec, target(), wide))


def test_lambda_rescale_proof_agrees_with_window_oracle():
    rng = random.Random(504)
    failed = 0
    for i in range(60):
        family = "MN"[i % 2]
        spec_a = random_weight_spec(rng, family)
        spec_b = replace(spec_a, lam=random_rational(rng, nonzero=True))
        if i % 3:
            key = rng.choice(("alpha", "beta", "a", "b"))
            spec_b = replace(spec_b, **{key: random_rational(rng)})
        window = Window(*rng.choice(((-2, 2, 3), (-3, 3, 4), (0, 1, 2))))
        want = _rescale_oracle(spec_a, spec_b, window)
        got = lambda_rescale_iso(spec_a, spec_b, window)
        assert _verdict(got) == _verdict(want), (spec_a, spec_b, window)
        failed += not want.intertwines
    assert failed >= 30


def test_lambda_rescale_proof_catches_faults_outside_the_window():
    spec_a = make_weight_m(0, 1, 2, 2, F(1, 3))
    # a term linear in k vanishes on the column k = 0
    window = Window(0, 0, 3)
    spec_b = _planted(make_weight_m(0, 1, 3, 2, F(1, 3)), "h", (0, 0, 0, 1))
    assert _rescale_oracle(spec_a, spec_b, window).intertwines
    res = lambda_rescale_iso(spec_a, spec_b, window)
    assert _verdict(res) == (False, 3, {"k": 1, "s": 1, "x": "h"})
    # an r = 2 term vanishes at s <= 2
    window = Window(-3, 3, 2)
    spec_b = _planted(make_weight_m(0, 1, 3, 2, F(1, 3)), "fb",
                      (0, 2, F(-1), 0))
    assert _rescale_oracle(spec_a, spec_b, window).intertwines
    res = lambda_rescale_iso(spec_a, spec_b, window)
    assert _verdict(res) == (False, 14, {"k": -3, "s": 3, "x": "fb"})


def _hand_table_iso(table, window, x="f"):
    """``_table_iso`` on one hand-written residual at generator x, the
    other generators' residuals empty."""
    return _verdict(_table_iso({y: table if y == x else {}
                                for y in GENERATORS}, window))


def test_table_iso_on_hand_written_binomial_residuals():
    window = Window(-2, 2, 2)
    # k + 2 at one target vanishes on the column k = -2 only
    assert _hand_table_iso({(0, 0, 0, 1): 1, (0, 0, 0, 0): 2}, window) == \
        (False, 10, {"k": -1, "s": 1, "x": "f"})
    # 1 at eta_{k,s} and -1 at eta_{k+1,s}: summed across the two targets
    # they would cancel, so each target is tested on its own
    assert _hand_table_iso({(0, 0, 0, 0): 1, (1, 0, 0, 0): -1}, window,
                           "eb") == (False, 10, {"k": -2, "s": 1, "x": "eb"})
    # C(s-1, 2) vanishes at s = 1, 2, so on no window probe when s_max = 2;
    # the grid up to s = d_s + 1 = 3 finds it at k_min
    assert _hand_table_iso({(0, 0, 2, 0): 1}, window) == \
        (False, 10, {"k": -2, "s": 3, "x": "f"})
    assert _hand_table_iso({}, window) == (True, 10, None)


def _per_target_nonzero(table, k, s):
    """Whether a binomial residual sends eta_{k,s} to a nonzero vector, as
    ``_table_iso`` decided it before it read ``apply_adjoint``: the sum of
    a k^j C(s-1, t) over the keys (dk, ds, t, j) -> a of each target (dk,
    ds), C(s-1, t) = 0 for t >= s included."""
    sums = {}
    for (dk, ds, t, j), a in table.items():
        sums[dk, ds] = sums.get((dk, ds), 0) + a * k ** j * comb(s - 1, t)
    return any(sums.values())


def test_apply_adjoint_decides_probes_as_the_per_target_sums(monkeypatch):
    # the residuals the twist and the rescaling hand _table_iso, against
    # right and planted wrong targets and the smallest fault, and hand-made
    # ones: k^2 - 4, (k^2 - k)/3 C(s-1, 1), and two targets that cancel
    # when summed together
    rng = random.Random(513)
    residuals = []

    def recorded(adjoints, plan):
        out = ks_residuals(adjoints, plan)
        residuals.extend(out)
        return out

    monkeypatch.setattr(functors, "ks_residuals", recorded)
    for i in range(12):
        spec = random_weight_spec(rng, "M")
        z = random_rational(rng)
        target = make_weight_m(spec.alpha - 2 * z, spec.beta, spec.lam,
                               spec.a, spec.b + i % 2)
        if i % 4 == 3:
            target.__dict__["adjoint"] = smallest_fault(target.adjoint)
        with monkeypatch.context() as patch:
            patch.setattr(functors, "replace", lambda *args, **kw: target)
            check_twist_iso(z, spec)
        spec_a = random_weight_spec(rng, "MN"[i % 2])
        spec_b = replace(spec_a, lam=random_rational(rng, nonzero=True))
        if i % 3 == 1:
            spec_b = replace(spec_b, b=spec_b.b + 1)
        elif i % 3 == 2:
            spec_b.__dict__["adjoint"] = smallest_fault(spec_b.adjoint)
        lambda_rescale_iso(spec_a, spec_b)
    assert len(residuals) == 24 * len(GENERATORS)
    residuals += [{(0, 0, 0, 2): 1, (0, 0, 0, 0): -4},
                  {(0, -1, 1, 2): F(1, 3), (0, -1, 1, 1): F(-1, 3)},
                  {(0, 0, 0, 0): 1, (1, 0, 0, 0): -1}]
    failing = 0
    for table in residuals:
        for k in range(-3, 4):
            for s in range(1, 6):
                got = apply_adjoint(table, {(k, s): 1})
                assert bool(got) == _per_target_nonzero(table, k, s), \
                    (table, k, s)
                assert got == _binomial_image(table, k, s)
                failing += bool(got)
    # the k^2 - 4 residual vanishes on the columns k = 2 and k = -2 only,
    # and the k^2 - k one at s = 1 and on the columns k = 0 and k = 1
    assert [bool(apply_adjoint(residuals[-3], {(k, 1): 1}))
            for k in range(-3, 4)] == [True, False, True, True, True, False,
                                       True]
    assert [bool(apply_adjoint(residuals[-2], {(k, s): 1}))
            for k in range(-1, 3) for s in (1, 2)] == [
                False, True, False, False, False, False, False, True]
    assert failing > 200


# Pointwise: a (k, s) table, evaluated at (k, s), is the image of eta_{k,s}.

GRID = [(k, s) for k in range(-2, 3) for s in range(1, 6)]


def _binomial_image(table, k, s):
    """The vector that a binomial table sends eta_{k,s} to: each entry
    (dk, ds, t, j) -> c adds c k^j C(s-1, t) at (k + dk, s + ds)."""
    out = {}
    for (dk, ds, t, j), c in table.items():
        v = c * k ** j * comb(s - 1, t)
        if v:
            assert s + ds >= 1, ((dk, ds, t, j), k, s)
            out[(k + dk, s + ds)] = out.get((k + dk, s + ds), 0) + v
    return {key: v for key, v in out.items() if v}


def test_composed_tables_match_act_weight_pointwise():
    rng = random.Random(506)
    for family in "MNVMNV":
        spec = random_weight_spec(rng, family)
        # each table is d times the true one, each composition d^2 times
        d, tables = spec.adjoint
        for x in GENERATORS:
            for y in GENERATORS:
                composed = {}
                _compose_into(composed, tables[x], tables[y])
                for k, s in GRID:
                    v = act_weight(spec, y, wv_unit(k, s))
                    assert _binomial_image(tables[y], k, s) == \
                        wv_scale(d, v), (spec, y, k, s)
                    assert _binomial_image(composed, k, s) == \
                        wv_scale(d ** 2, act_weight(spec, x, v)), \
                        (spec, x, y, k, s)


def _residual_scale(adjoints, identities):
    """D of ``freemod.ks_residuals``: the product of the d_i^(L_i), d_i the
    denominator of adjoint i and L_i the longest word on it."""
    out = 1
    for i, (d, _) in enumerate(adjoints):
        longest = max((len(word) for identity in identities
                       for j, _, word in identity if j == i), default=0)
        out *= d ** longest
    return out


def _identity_image(specs, identity, k, s):
    """sum c * word.eta_{k,s} over the terms (i, c, word), each word
    applied through ``act_weight`` on specs[i], rightmost letter first."""
    out = {}
    for i, c, word in identity:
        out = vec_axpy(out, c, act_weight_word(specs[i], word, wv_unit(k, s)))
    return out


KS_GRID = [(k, s) for k in range(-2, 3) for s in range(1, 5)]


def test_ks_residuals_match_act_weight_pointwise():
    # the oracle applies every word letter by letter through act_weight;
    # each identity holds 2-letter words on every adjoint, with the same
    # letters, so that tables mixed up between the adjoints show
    rng = random.Random(509)
    nonzero = 0
    for n in range(18):
        specs = [random_weight_spec(rng, rng.choice("MNV"))
                 for _ in range(1 + n % 2)]
        pair = (rng.choice(GENERATORS), rng.choice(GENERATORS))
        identities = []
        for _ in range(3):
            identity = [(i, random_rational(rng, nonzero=True), pair)
                        for i in range(len(specs))]
            for _ in range(rng.randint(0, 4)):
                word = tuple(rng.choice(GENERATORS)
                             for _ in range(rng.randint(0, 3)))
                identity.append((rng.randrange(len(specs)),
                                 random_rational(rng, nonzero=True), word))
            identities.append(identity)
        adjoints = [spec.adjoint for spec in specs]
        scale = _residual_scale(adjoints, identities)
        residuals = ks_residuals(adjoints,
                                 ks_plan(identities, len(adjoints)))
        assert len(residuals) == len(identities)
        for identity, table in zip(identities, residuals):
            assert all(table.values())
            nonzero += bool(table)
            for k, s in KS_GRID:
                assert _binomial_image(table, k, s) == wv_scale(
                    scale, _identity_image(specs, identity, k, s)), \
                    (specs, identity, k, s)
    assert nonzero


def test_ks_residuals_are_empty_exactly_on_identities():
    # a word against its own image, and the bracket identities
    rng = random.Random(510)
    for family in "MNV":
        spec = random_weight_spec(rng, family)
        x, y = "e", "f"
        holds = [[(0, 1, (x, y)), (0, -1, (y, x)), (0, -1, ("h",))],
                 [(0, F(2, 3), ()), (0, F(-2, 3), ())],
                 [(0, 3, (x,)), (1, -3, (x,))]]
        fails = [[(0, 1, (x, y)), (0, -1, (y, x))],
                 [(0, 1, ())]]
        out = ks_residuals([spec.adjoint, spec.adjoint],
                           ks_plan(holds + fails, 2))
        assert [not table for table in out] == [True] * 3 + [False] * 2


def _record_proofs(monkeypatch):
    """(adjoints, identities, residuals) of every ``ks_residuals`` call of
    ``functors``, the identities as they were handed to ``ks_plan``."""
    handed, calls = [], []

    def planned(identities, n_adjoints):
        handed.append(identities)
        return ks_plan(identities, n_adjoints)

    def proved(adjoints, plan):
        out = ks_residuals(adjoints, plan)
        calls.append((adjoints, handed.pop(), out))
        return out

    monkeypatch.setattr(functors, "ks_plan", planned)
    monkeypatch.setattr(functors, "ks_residuals", proved)
    return calls


def test_twist_tables_match_twisted_act_pointwise(monkeypatch):
    # check_twist_iso hands ks_residuals Theta_z(y) on the source and -y
    # on the target; the residual at (k, s) is D times twisted_act minus
    # the target's action
    rng = random.Random(507)
    calls = _record_proofs(monkeypatch)
    failing = 0
    for i in range(6):
        spec = random_weight_spec(rng, "M")
        z = random_rational(rng)
        # a wrong target half the time, so that the residuals are not empty
        target = make_weight_m(spec.alpha - 2 * z, spec.beta, spec.lam,
                               spec.a, spec.b + i % 2)
        monkeypatch.setattr(functors, "replace", lambda *args, **kw: target)
        calls.clear()
        res = check_twist_iso(z, spec)
        (adjoints, identities, residuals), = calls
        assert adjoints[1] == target.adjoint
        failing += not res.intertwines
        assert res.intertwines == (not any(residuals))
        scale = _residual_scale(adjoints, identities)
        for y, table in zip(GENERATORS, residuals):
            for k, s in GRID:
                want = vec_axpy(twisted_act(z, spec, y, wv_unit(k, s)), -1,
                                act_weight(target, y, wv_unit(k, s)))
                assert _binomial_image(table, k, s) == wv_scale(scale, want), \
                    (spec, z, y, k, s)
    assert failing == 3


def test_twist_and_rescale_residuals_match_the_monomial_oracle(monkeypatch):
    # every identity list the twist and the rescaling hand ks_residuals,
    # against right and planted wrong targets and the smallest fault
    rng = random.Random(508)
    calls = _record_proofs(monkeypatch)
    verdicts = []
    for i in range(24):
        spec = random_weight_spec(rng, "M")
        z = random_rational(rng)
        target = make_weight_m(spec.alpha - 2 * z, spec.beta, spec.lam,
                               spec.a, spec.b + i % 2)
        if i % 4 == 3:
            target.__dict__["adjoint"] = smallest_fault(target.adjoint)
        with monkeypatch.context() as patch:
            patch.setattr(functors, "replace", lambda *args, **kw: target)
            verdicts.append(check_twist_iso(z, spec).intertwines)
        family = "MN"[i % 2]
        spec_a = random_weight_spec(rng, family)
        spec_b = replace(spec_a, lam=random_rational(rng, nonzero=True))
        if i % 3 == 1:
            spec_b = replace(spec_b, b=spec_b.b + 1)
        elif i % 3 == 2:
            spec_b.__dict__["adjoint"] = smallest_fault(spec_b.adjoint)
        verdicts.append(lambda_rescale_iso(spec_a, spec_b).intertwines)
    assert len(calls) == 48
    assert all(matches_monomial(*call) for call in calls)
    assert 12 <= verdicts.count(False) < 48


def _record_weights(monkeypatch):
    """The type of every multiple a word's table is added into a residual
    with."""
    seen = []
    add = freemod._word_into

    def recorded(out, tables, word, w):
        seen.append(type(w))
        add(out, tables, word, w)

    monkeypatch.setattr(freemod, "_word_into", recorded)
    return seen


def test_table_proofs_add_only_int_or_fraction_multiples(monkeypatch):
    # each table enters a residual times an exact int or Fraction
    seen = _record_weights(monkeypatch)
    spec = make_weight_m(F(1, 2), F(-3, 5), F(2, 3), F(-9, 25), F(-7, 4))
    for z in (2, F(-3, 2)):
        assert check_twist_iso(z, spec, Window(-2, 2, 3)).intertwines
    for family in (make_weight_m, make_weight_n):
        spec_a = family(F(1, 3), F(3, 5), F(2, 3), F(-9, 25), F(-7, 4))
        spec_b = replace(spec_a, lam=F(-5, 7))
        assert lambda_rescale_iso(spec_a, spec_b, Window(-2, 2, 3)).intertwines
    assert seen and set(seen) <= {int, F}, set(seen)


def test_twist_proof_adds_int_multiples_at_an_integer_z(monkeypatch):
    # Theta_z has int coefficients at an int z, and eb^-1's entry is whole
    # on M, so every weight c M / S^n is an int: none is a Fraction
    seen = _record_weights(monkeypatch)
    spec = make_weight_m(F(1, 2), F(-3, 5), F(2, 3), F(-9, 25), F(-7, 4))
    (c,) = functors._ebinv_entry(spec).values()
    assert type(c) is int
    for z in (2, -3, F(4)):
        assert check_twist_iso(z, spec, Window(-2, 2, 3)).intertwines
    assert seen and set(seen) == {int}, set(seen)


def test_twist_builds_the_parent_table_once(monkeypatch):
    # the source M(alpha) and the target M(alpha - 2z) share Gamma(lam, a,
    # b), and so does the duality proof; parameters no other test draws
    builds = []
    gamma = freemod._OP_TABLES["gamma"]

    def counted(spec):
        builds.append(spec)
        return gamma(spec)

    monkeypatch.setitem(freemod._OP_TABLES, "gamma", counted)
    spec = make_weight_m(F(5, 19), F(-11, 23), F(-31, 17), F(29, 13),
                         F(-23, 11))
    assert check_twist_iso(F(3, 7), spec, Window(-1, 1, 2)).intertwines
    assert len(builds) == 1
    assert dual_consistency(spec)["ok"]
    assert len(builds) == 1


def test_lambda_rescale_iso_rejects_v_family():
    v = make_weight_v(0, 1, 1, 2, (F(1),))
    with pytest.raises(ValueError):
        lambda_rescale_iso(v, v, Window(-2, 2, 2))


def test_vm_matching_b():
    assert vm_matching_b(make_weight_v(0, 3, 1, 1, (F(1), F(1)))) == -6
    assert vm_matching_b(make_weight_v(0, 1, 2, F(-1, 2), (F(0), F(3)))) == -2


def test_vm_iso_check_passes_on_matched_pair():
    v = make_weight_v(0, 3, 1, 1, (F(1), F(1)))
    m = vm_matching_m_spec(v)
    assert m.a == -1  # -a^2
    assert m.b == -6
    res = vm_iso_check(v, m, Window(-3, 3, 4))
    assert res.intertwines
    assert res.rank == 7 * 4
    assert res.details["p_identity_ok"]


def test_vm_iso_check_fails_off_the_matched_b():
    v = make_weight_v(0, 3, 1, 1, (F(1), F(1)))
    m_bad = make_weight_m(0, 3, 1, -1, -5)
    res = vm_iso_check(v, m_bad, Window(-3, 3, 4))
    assert not res.intertwines
    assert res.failing_probe == {"k": -3, "s": 1, "x": "f"}
    assert not res.details["p_identity_ok"]


def test_vm_iso_check_random_matched_pairs():
    rng = random.Random(503)
    win = Window(-2, 2, 3)
    made = 0
    while made < 6:
        lam = F(rng.randint(1, 9))
        a = F(rng.randint(-9, 9), rng.randint(1, 9))
        beta = F(rng.randint(-9, 9), rng.randint(1, 9))
        if beta + a == 0:
            continue
        beta1 = tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(rng.randint(1, 4)))
        alpha = F(rng.randint(-4, 4))
        v = make_weight_v(alpha, beta, lam, a, beta1)
        res = vm_iso_check(v, vm_matching_m_spec(v), win)
        assert res.intertwines, (lam, a, beta, beta1, res.failing_probe)
        made += 1


def _vm_p_identity_residual(spec_v: WeightModuleSpec, b: Fraction) -> PolyHH:
    """Residual of ((hbar - a)/lam) alpha1 - lam (hbar + a) beta1 - 2a = b,
    as a polynomial in hbar (zero when the identity holds)."""
    lam, a = spec_v.lam, spec_v.a
    hbar = PolyHH.hbar()
    a1 = poly1_to_polyhh(spec_v.alpha1)
    b1 = poly1_to_polyhh(spec_v.beta1)
    lhs = ((hbar - PolyHH.const(a)) * a1).scale(Fraction(1) / lam) \
        - ((hbar + PolyHH.const(a)) * b1).scale(lam) \
        - PolyHH.const(2 * a)
    return lhs - PolyHH.const(b)


def test_vm_p_identity_agrees_with_the_residual_oracle():
    # p_identity_ok compares b with the matched b; the oracle is the
    # residual in hbar that the check computed before, kept verbatim
    rng = random.Random(30)
    held = 0
    for _ in range(40):
        while True:
            v = random_weight_spec(rng, "V", beta1_deg=4)
            if v.beta + v.a:
                break
        matched = vm_matching_m_spec(v)
        for m in (matched,
                  replace(matched, b=matched.b
                          + random_rational(rng, nonzero=True)),
                  replace(matched, b=random_rational(rng))):
            want = _vm_p_identity_residual(v, m.b).is_zero()
            res = vm_iso_check(v, m, Window(0, 0, 1))
            assert res.details["p_identity_ok"] is want, (v, m)
            held += want
    assert held >= 40


def rowbasis_rank(vectors):
    """The rank of ``vectors`` by elimination: the oracle of the ranks the
    library reads off each map's shape."""
    basis = RowBasis()
    return sum(1 for v in vectors if basis.add(v))


def _vm_column(spec_v, k, s):
    """phi(eta_{k,s}) of vm_iso_check's map, from its formula."""
    w = wv_unit(k + s - 1, 1)
    for _ in range(s - 1):
        w = act_weight(spec_v, "e", w)
    c = 2 / (spec_v.beta + spec_v.a)
    return wv_scale(c ** (k + s - 1) / (2 * spec_v.lam) ** (s - 1), w)


def _vm_oracle(spec_v, spec_m, window):
    """The window check vm_iso_check made before its proof: every
    generator on every window functional."""
    def phi(v):
        out = {}
        for (k, s), c in v.items():
            out = vec_axpy(out, c, _vm_column(spec_v, k, s))
        return out
    return _window_iso(window, partial(act_weight, spec_m),
                       partial(act_weight, spec_v), phi)


def _moved(spec, x, i, dc0):
    """``spec`` with c0 of the i-th term of x's adjoint entry moved by dc0,
    in true values."""
    view = fraction_view(spec.adjoint)
    dk, terms = view[x]
    m, r, c0, c1 = terms[i]
    terms = terms[:i] + ((m, r, c0 + dc0, c1),) + terms[i + 1:]
    spec.__dict__["adjoint"] = integer_table({**view, x: (dk, terms)})
    return spec


def _random_v(rng):
    """A random V spec off the wall beta + a = 0."""
    while True:
        v = random_weight_spec(rng, "V")
        if v.beta + v.a:
            return v


def test_vm_iso_proof_agrees_with_window_oracle():
    rng = random.Random(511)
    windows = (Window(0, 0, 1), Window(-3, 3, 4), Window(-2, 2, 3),
               Window(-1, 3, 5), Window(2, 2, 2))
    failed = 0
    for i in range(30):
        v = _random_v(rng)
        matched = vm_matching_m_spec(v)
        window = windows[i % len(windows)]
        for m in (matched,
                  replace(matched, b=matched.b + random_rational(rng)),
                  replace(matched, a=matched.a + random_rational(rng)),
                  replace(matched, a=matched.a + random_rational(rng),
                          b=matched.b + random_rational(rng))):
            want = _vm_oracle(v, m, window)
            assert _verdict(vm_iso_check(v, m, window)) == _verdict(want), \
                (v, m, window)
            failed += not want.intertwines
    assert failed >= 60


def test_vm_iso_proof_refuses_planted_faults():
    v = make_weight_v(0, 3, 1, 1, (F(1), F(1)))
    small, wide = Window(0, 0, 1), Window(-3, 3, 4)

    def faults():
        return {"e moved on V": (_moved(replace(v), "e", 0, F(1)),
                                 vm_matching_m_spec(v)),
                "r = 1 on M's e": (v, _planted(vm_matching_m_spec(v), "e",
                                               (0, 1, F(1), 0))),
                "r = 1 on V's f": (_planted(replace(v), "f", (0, 1, F(1), 0)),
                                   vm_matching_m_spec(v))}
    for window in (small, wide):
        for name, (spec_v, spec_m) in faults().items():
            assert not vm_iso_check(spec_v, spec_m, window).intertwines, name
    # C(s-1, 1) vanishes at s = 1, the only s of the probes: the proof
    # refuses V's r = 1 term by its brackets and names no probe, where the
    # window oracle sees it only on a window with s_max >= 2
    spec_v, spec_m = faults()["r = 1 on V's f"]
    assert _verdict(vm_iso_check(spec_v, spec_m, small)) == (False, 1, None)
    assert _vm_oracle(spec_v, spec_m, small).intertwines
    assert _verdict(_vm_oracle(spec_v, spec_m, wide)) \
        == (False, 28, {"k": -3, "s": 2, "x": "f"})


def test_vm_iso_proof_refuses_every_moved_coefficient():
    # a moved c0 on a random generator of either side, and an r = 1 term
    # on M's e, which no window with s_max = 1 sees; the proof accepts no
    # fault the oracle refuses, nor any other
    rng = random.Random(512)
    windows = (Window(-3, 3, 4), Window(-2, 2, 3), Window(0, 0, 1))
    refused_by_oracle = 0
    for i in range(27):
        v = _random_v(rng)
        window = windows[i // 3 % 3]
        side = i % 3
        spec_v, spec_m = replace(v), vm_matching_m_spec(v)
        if side == 2:
            _planted(spec_m, "e", (1, 1, random_rational(rng, nonzero=True),
                                   0))
        else:
            spec = (spec_v, spec_m)[side]
            x = rng.choice(GENERATORS)
            _moved(spec, x,
                   rng.randrange(len(entry_terms(spec.adjoint[1][x])[1])),
                   random_rational(rng, nonzero=True))
        assert not vm_iso_check(spec_v, spec_m, window).intertwines, i
        refused_by_oracle += not _vm_oracle(spec_v, spec_m, window).intertwines
    assert refused_by_oracle >= 12


def test_vm_iso_check_makes_the_same_probes_on_every_window(monkeypatch):
    # the proof probes top + 2 columns at s = 1 whatever the window
    calls = []

    def counted(spec, x, v):
        calls.append(x)
        return act_weight(spec, x, v)
    monkeypatch.setattr(functors, "act_weight", counted)
    v = make_weight_v(0, 3, 1, 1, (F(1), F(1)))
    for m in (vm_matching_m_spec(v), make_weight_m(0, 3, 1, -1, -5)):
        counts = []
        for window in (Window(0, 0, 1), Window(-8, 8, 6)):
            calls.clear()
            vm_iso_check(v, m, window)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, m
    # top, the largest ds + t of M's tables, is 1 on every M table: the
    # probes are the 6 generators on the 3 columns from k_min, at s = 1
    probes = []
    first = functors._first_failure

    def recorded(listed, *args):
        listed = list(listed)
        probes.extend(listed)
        return first(listed, *args)

    monkeypatch.setattr(functors, "_first_failure", recorded)
    vm_iso_check(v, vm_matching_m_spec(v), Window(-8, 8, 6))
    assert probes == [(k, 1, x) for k in (-8, -7, -6) for x in GENERATORS]


def test_vm_iso_check_rank_is_the_window_index_count():
    # the map is built here from its formula, so the rank is checked
    # against elimination on matched and mismatched pairs alike
    rng = random.Random(509)
    windows = [Window(0, 0, 1), Window(-2, 2, 3), Window(-1, 3, 5)]
    moved = 0
    for trial in range(24):
        v = random_weight_spec(rng, "V")
        if v.beta + v.a == 0:
            continue
        m = vm_matching_m_spec(v)
        if trial % 2:
            m = replace(m, b=m.b + random_rational(rng))
            moved += m.b != vm_matching_b(v)
        win = windows[trial % 3]
        images = [_vm_column(v, k, s) for k, s in win.indices()]
        res = vm_iso_check(v, m, win)
        assert res.rank == rowbasis_rank(images) == len(images), (v, win)
    assert moved >= 6


def test_vm_iso_check_validates_inputs():
    v = make_weight_v(0, 1, 1, -1, (F(1),))  # beta + a = 0
    with pytest.raises(ValueError):
        vm_iso_check(v, make_weight_m(0, 1, 1, -1, 0), Window(-2, 2, 2))
    v2 = make_weight_v(0, 3, 1, 1, (F(1),))
    with pytest.raises(ValueError):
        vm_iso_check(v2, make_weight_m(1, 3, 1, -1, -4), Window(-2, 2, 2))


def test_intertwiner_search_n_to_m():
    win = Window(-4, 4, 4)
    n = make_weight_n(0, 1, 1, 3, F(1, 2))
    m = make_weight_m(0, 1, 1, 3, F(1, 2))
    res = intertwiner_search(n, m, win)
    assert res["dimension"] == 1
    assert res["verified"]
    assert not res["maps"][0].is_zero()


def test_intertwiner_search_alpha_shift_is_index_shift():
    win = Window(-4, 4, 4)
    a = make_weight_m(0, 1, 1, 3, F(1, 2))
    b = make_weight_m(2, 1, 1, 3, F(1, 2))
    res = intertwiner_search(a, b, win)
    assert res["dimension"] == 1
    tmap = res["maps"][0]
    img = tmap.apply(wv_unit(0, 1))
    assert len(img) == 1
    ((k, s), c) = next(iter(img.items()))
    assert (k, s) == (-1, 1)
    # the whole map is c times the index shift
    for kk in range(-2, 2):
        for ss in range(1, 4):
            assert tmap.apply(wv_unit(kk, ss)) == {(kk - 1, ss): c}


def test_intertwiner_search_zero_for_mismatched_params():
    win = Window(-3, 3, 3)
    base = make_weight_m(0, 1, 1, 3, F(1, 2))
    for other in (make_weight_m(0, 2, 1, 3, F(1, 2)),
                  make_weight_m(0, 1, 1, 4, F(1, 2)),
                  make_weight_m(0, 1, 1, 3, F(1, 3))):
        res = intertwiner_search(base, other, win)
        assert res["dimension"] == 0, other


def test_intertwiner_search_odd_alpha_gap_is_empty():
    win = Window(-3, 3, 3)
    a = make_weight_m(0, 1, 1, 3, F(1, 2))
    b = make_weight_m(1, 1, 1, 3, F(1, 2))
    res = intertwiner_search(a, b, win)
    assert res["dimension"] == 0
    assert res["codomain_window"] is None


def test_apply_columns_drops_what_cancels():
    columns = {(0, 1): {(1, 1): 2, (1, 2): F(1, 2)},
               (0, 2): {(1, 1): -1, (1, 2): 3}}
    apply = LinearWindowMap(columns).apply
    assert apply({(0, 1): 1, (0, 2): 2}) == {(1, 2): F(13, 2)}
    # the int 2 * 2 cancels against the Fraction 4
    columns[(0, 2)] = {(1, 1): F(4)}
    assert apply({(0, 1): 2, (0, 2): -1}) == {(1, 2): 1}
    assert LinearWindowMap({(0, 1): {(1, 1): 2}, (0, 2): {(1, 1): F(4)}}) \
        .apply({(0, 1): 2, (0, 2): -1}) == {}
    got = LinearWindowMap({(0, 1): {(1, 1): 2, (2, 1): 1}}).apply({(0, 1): 6})
    assert got == {(1, 1): 12, (2, 1): 6}
    assert {type(x) for x in got.values()} == {int}


def test_linear_window_map_domain_guard():
    win = Window(-2, 2, 3)
    a = make_weight_m(0, 1, 1, 3, F(1, 2))
    b = make_weight_m(2, 1, 1, 3, F(1, 2))
    res = intertwiner_search(a, b, win)
    tmap = res["maps"][0]
    with pytest.raises(ValueError):
        tmap.apply(wv_unit(5, 1))


def intertwiner_oracle(spec_a, spec_b, window):
    """The search over Fractions: equations from ``act_weight``, and
    ``verified`` by ``act_weight`` on both specs on every interior probe."""
    offset2 = spec_a.alpha - spec_b.alpha
    if offset2.denominator != 1 or int(offset2) % 2 != 0:
        return {"maps": [], "dimension": 0, "codomain_window": None,
                "verified": True}
    delta = int(offset2) // 2
    cod = Window(window.k_min + delta, window.k_max + delta, window.s_max)
    outputs = range(1, window.s_max + 1)
    unknowns = [(k, s_in, s_out) for (k, s_in) in window.indices()
                for s_out in outputs]
    probes = []
    for (k, s) in window.indices():
        for y in GENERATORS:
            img = act_weight(spec_a, y, wv_unit(k, s))
            if all(window.contains(key) for key in img):
                probes.append((y, k, s, img))
    equations = {}
    for idx, (y, k, s_in, img) in enumerate(probes):
        for s_out in outputs:
            image = act_weight(spec_b, y, wv_unit(k + delta, s_out))
            for key, c in image.items():
                if cod.contains(key):
                    row = equations.setdefault((idx,) + key, {})
                    unknown = (k, s_in, s_out)
                    row[unknown] = row.get(unknown, F(0)) + c
        for (k2, s2), c in img.items():
            for s_out in outputs:
                row = equations.setdefault((idx, k2 + delta, s_out), {})
                row[(k2, s2, s_out)] = row.get((k2, s2, s_out), F(0)) - c
    maps = []
    for sol in nullspace(list(equations.values()), unknowns):
        columns = {key: {} for key in window.indices()}
        for (k, s_in, s_out), c in sol.items():
            columns[(k, s_in)][(k + delta, s_out)] = c
        maps.append(LinearWindowMap(columns))
    verified = all(
        act_weight(spec_b, y, m.apply(wv_unit(k, s)))
        == m.apply(act_weight(spec_a, y, wv_unit(k, s)))
        for m in maps for (y, k, s, _) in probes)
    return {"maps": maps, "dimension": len(maps), "codomain_window": cod,
            "verified": verified}


def _partner(rng, spec_a, family_b, delta):
    """A spec of family_b with alpha_B = alpha_A - 2 delta and the other
    parameters of spec_a (of its matched M module for V -> M), with ``a``
    perturbed three times in ten."""
    alpha = spec_a.alpha - 2 * delta
    if family_b == "M" and spec_a.family == "V":
        m = vm_matching_m_spec(spec_a)
        params = (m.beta, m.lam, m.a, m.b)
    elif family_b == "M":
        params = (spec_a.beta, spec_a.lam, spec_a.a, spec_a.b)
    else:
        params = (spec_a.beta, spec_a.lam, spec_a.a, spec_a.beta1)
    if rng.random() < 0.3:
        params = (params[0], params[1], params[2] + random_rational(rng),
                  params[3])
    make = make_weight_m if family_b == "M" else make_weight_v
    return make(alpha, *params)


@pytest.mark.parametrize("window", [Window(-1, 1, 1), Window(-2, 2, 3),
                                    Window(-4, 4, 4)],
                         ids=lambda w: w.as_text())
def test_intertwiner_search_matches_oracle(window):
    rng = random.Random(601 + window.s_max)
    pairs = []
    for family_a, family_b in (("M", "M"), ("N", "M"), ("V", "V"),
                               ("V", "M")):
        for delta in (-1, 0, 1):
            spec_a = random_weight_spec(rng, family_a)
            pairs.append((spec_a, _partner(rng, spec_a, family_b, delta)))
    # an odd alpha gap, and the pair whose map fails a relaxed component
    pairs.append((make_weight_m(0, 1, 1, 3, F(1, 2)),
                  make_weight_m(1, 1, 1, 3, F(1, 2))))
    pairs.append((make_weight_v(2, 1, 2, 1, (F(1, 2),)),
                  make_weight_v(4, 1, -1, -1, (F(-3, 2),))))
    pairs = [(spec_a, spec_b, window) for spec_a, spec_b in pairs]
    # spaces of dimension 3 and 2: on 0:0:3 only the h and hbar probes have
    # nonzero images, so the space is the commutant of the column's Jordan
    # block; on 0:1:2 both maps fail an eb probe outside the codomain window
    m0, n0 = make_weight_m(0, 0, 1, 0, 0), make_weight_n(0, 0, 1, 0, 0)
    degenerate = [(m0, m0, Window(0, 0, 3)), (n0, m0, Window(0, 1, 2))]
    # beta_B = beta_A + 1 partners: the space is zero, on a codomain window,
    # also where only the hbar probes tell the maps apart
    spec_a, spec_b, _ = pairs[0]
    mismatches = [(spec_a, replace(spec_b, beta=spec_a.beta + 1), window),
                  (m0, replace(m0, beta=1), Window(0, 0, 3))]
    dimensions = set()
    for spec_a, spec_b, win in pairs + mismatches + degenerate:
        got = intertwiner_search(spec_a, spec_b, win)
        want = intertwiner_oracle(spec_a, spec_b, win)
        for key in ("dimension", "codomain_window", "verified"):
            assert got[key] == want[key], (key, spec_a, spec_b)
        assert [m.columns for m in got["maps"]] == \
            [m.columns for m in want["maps"]], (spec_a, spec_b)
        assert [m.rank() for m in got["maps"]] == \
            [rowbasis_rank(m.columns.values()) for m in got["maps"]]
        dimensions.add((got["dimension"], got["verified"], win == window))
    for pair in mismatches:
        got = intertwiner_search(*pair)
        assert got["dimension"] == 0 and got["codomain_window"] is not None
    assert [intertwiner_search(*pair)["dimension"] for pair in degenerate] \
        == [3, 2]
    # the pairs reach nonzero spaces and empty ones; on the smallest window
    # one verification fails
    assert {d for d, _, _ in dimensions} >= {0, 1, 2, 3}, dimensions
    assert any(not ok for _, ok, own in dimensions if own) == \
        (window.s_max == 1)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("coeff", [F(-2), F(-1, 2)], ids=str)
def test_intertwiner_search_catches_a_planted_hbar_fault(side, coeff):
    # hbar's table is -beta - N on every column; scaling N on one side
    # leaves a table that is no module, where the commutant solve and the
    # full search part ways: the maps the solve finds must fail
    # verification, and the full search finds none
    specs = {"a": make_weight_n(1, F(1, 2), 2, 3, F(1, 3)),
             "b": make_weight_m(1, F(1, 2), 2, 3, F(1, 3))}
    spec = specs[side]
    view = fraction_view(spec.adjoint)
    dk, terms = view["hb"]
    assert {r: c0 for _, r, c0, _ in terms}[1] == -1
    spec.__dict__["adjoint"] = integer_table({**view, "hb": (dk, tuple(
        (m, r, coeff if r == 1 else c0, c1) for m, r, c0, c1 in terms))})
    win = Window(-2, 2, 3)
    got = intertwiner_search(specs["a"], specs["b"], win)
    assert not (got["verified"] and any(not m.is_zero() for m in got["maps"]))
    assert got["dimension"] == 1
    assert intertwiner_oracle(specs["a"], specs["b"], win)["dimension"] == 0


def _commutes_on_interior_probes(spec_a, spec_b, window, tmap):
    """Whether tmap commutes with every generator, through ``act_weight``
    on both specs, on every probe whose domain image stays in the window:
    the meaning of the search's ``verified``."""
    for (k, s) in window.indices():
        for y in GENERATORS:
            img = act_weight(spec_a, y, wv_unit(k, s))
            if all(window.contains(key) for key in img) and \
                    act_weight(spec_b, y, tmap.apply(wv_unit(k, s))) \
                    != tmap.apply(img):
                return False
    return True


def _n_to_m_pair():
    # the space is one map, verified, on -2:2:3
    return (make_weight_n(1, F(1, 2), 2, 3, F(1, 3)),
            make_weight_m(1, F(1, 2), 2, 3, F(1, 3)))


@pytest.mark.parametrize("side", [0, 1])
def test_intertwiner_search_checks_a_planted_h_fault(side):
    # the solve takes no h row, so a constant added to h's entry on one
    # side leaves its kernel as it is; only the checked h rows see it
    win = Window(-2, 2, 3)
    got = intertwiner_search(*_n_to_m_pair(), win)
    assert (got["dimension"], got["verified"]) == (1, True)
    specs = list(_n_to_m_pair())
    _planted(specs[side], "h", (0, 0, F(1), 0))
    got = intertwiner_search(*specs, win)
    assert got["dimension"] == 1 and not got["verified"]
    assert not _commutes_on_interior_probes(*specs, win, got["maps"][0])
    # the full search solves the h rows too, and finds no map
    assert intertwiner_oracle(*specs, win)["dimension"] == 0


@pytest.mark.parametrize("x", ["e", "eb"])
def test_intertwiner_search_checks_a_fault_outside_the_codomain_window(x):
    # a term that raises s by s_max lands outside the codomain window on
    # every column: no solved row holds it, and the relaxed oracle finds
    # the same maps, which fail there
    win = Window(-2, 2, 3)
    spec_a, spec_b = _n_to_m_pair()
    _planted(spec_b, x, (win.s_max, 0, F(1), 0))
    got = intertwiner_search(spec_a, spec_b, win)
    want = intertwiner_oracle(spec_a, spec_b, win)
    assert [m.columns for m in got["maps"]] == \
        [m.columns for m in want["maps"]]
    assert (got["dimension"], got["verified"]) == (1, False)
    assert want["verified"] is False
    assert not _commutes_on_interior_probes(spec_a, spec_b, win,
                                            got["maps"][0])


def test_intertwiner_search_builds_no_h_image_for_an_empty_space(monkeypatch):
    requested = []

    def recorded(spec, window, generators=GENERATORS):
        requested.append(set(generators))
        return unit_images(spec, window, generators)

    monkeypatch.setattr(functors, "unit_images", recorded)
    win = Window(-3, 3, 3)
    # beta matches and a differs: the solve leaves an empty kernel
    res = intertwiner_search(make_weight_m(0, 1, 1, 3, F(1, 2)),
                             make_weight_m(0, 1, 1, 4, F(1, 2)), win)
    assert (res["dimension"], res["verified"]) == (0, True)
    assert requested and all(not gens & {"h", "hb"} for gens in requested)
    # both sides multiply by h and hbar, so their rows vanish on the map
    # the solve finds, and none is built
    requested.clear()
    res = intertwiner_search(*_n_to_m_pair(), win)
    assert (res["dimension"], res["verified"]) == (1, True)
    assert requested and all(not gens & {"h", "hb"} for gens in requested)
    # a constant planted in h or hbar on either side is checked on rows
    for side in (0, 1):
        for y in ("h", "hb"):
            specs = list(_n_to_m_pair())
            _planted(specs[side], y, (0, 0, F(1), 0))
            requested.clear()
            res = intertwiner_search(*specs, win)
            assert (res["dimension"], res["verified"]) == (1, False)
            assert set().union(*requested) & {"h", "hb"} == {y}


def test_multiplication_entries_read_h_and_hbar_off_the_table():
    rng = random.Random(3301)
    specs = [random_weight_spec(rng, family, beta1_deg=3)
             for family in "MNV" for _ in range(20)]
    # alpha = 0 (h's c0 is 0), beta = 0 (hbar has one term), and
    # fractional alpha at denominators the rest of the table lacks
    edges = [make_weight_m(0, F(1, 2), 2, 3, 1),
             make_weight_n(F(2, 3), 0, -1, 0, F(1, 5)),
             make_weight_v(0, 0, 1, 0, (F(1), F(2))),
             make_weight_m(F(1, 3), F(2, 5), F(-3, 2), F(5, 7), F(1, 4)),
             make_weight_v(F(-7, 6), F(3, 4), 2, F(1, 9), (F(1, 2), 0, 3))]
    assert fraction_view(edges[0].adjoint)["h"][1][0][2] == 0
    assert len(fraction_view(edges[1].adjoint)["hb"][1]) == 1
    assert any(spec.adjoint[0] != freemod.adjoint_table(
        freemod._CARTAN, spec.alpha, spec.beta)[0] for spec in edges)
    for spec in specs + edges:
        assert functors._multiplication_entries(spec) == {"h", "hb"}
    for spec in specs[::6] + edges:
        for y, other in (("h", "hb"), ("hb", "h")):
            # a moved c0, a moved c1 and an extra r = 1 term
            for table in (plant(spec.adjoint, y, 0, F(1)),
                          plant(spec.adjoint, y, 0, 0, F(1)),
                          _planted(replace(spec), y,
                                   (0, 1, F(1, 2), 0)).adjoint):
                moved = replace(spec)
                moved.__dict__["adjoint"] = table
                assert functors._multiplication_entries(moved) == {other}


def test_intertwiner_search_reports_a_relaxed_failure():
    # the equations only see components inside the codomain window, and
    # the one map they admit fails at a component outside it
    win = Window(-1, 1, 1)
    a = make_weight_v(2, 1, 2, 1, (F(1, 2),))
    b = make_weight_v(4, 1, -1, -1, (F(-3, 2),))
    res = intertwiner_search(a, b, win)
    assert res["dimension"] == 1
    assert not res["verified"]
    (tmap,) = res["maps"]
    cod = res["codomain_window"]
    relaxed = set()
    for (k, s) in win.indices():
        for y in GENERATORS:
            img = act_weight(a, y, wv_unit(k, s))
            if not all(win.contains(key) for key in img):
                continue
            lhs = act_weight(b, y, tmap.apply(wv_unit(k, s)))
            diff = {key: c for key, c in lhs.items()
                    if c != tmap.apply(img).get(key, 0)}
            assert all(not cod.contains(key) for key in diff)
            relaxed |= set(diff)
    assert relaxed
