"""Acceptance suite: the twelve shipping criteria, one test each.

Every check is an exact identity over the rationals; there are no
tolerances anywhere.  Runtime bounds appear where the criterion states
one.  Each test prints a single pass line so a verbose run reads as a
twelve-line scorecard.
"""

import random
import time
from fractions import Fraction

from samplers import random_poly

from takiffrep.algebra import (GENERATORS, LOCALIZED_LETTERS, bracket,
                               check_theta_automorphism, normal_form, theta)
from takiffrep.freemod import (alpha_from_beta, e34_residual, make_omega,
                               omega_layer_action,
                               omega_quotient_delta_params, random_free_spec,
                               submodule_saturate, verify_axioms)
from takiffrep.functors import (check_twist_iso, intertwiner_search,
                                twisted_act, vm_iso_check, vm_matching_m_spec)
from takiffrep.poly import PolyHH
from takiffrep.scan import builtin_scan_grid, run_scan
from takiffrep.weightmod import (Window, act_weight, delta_action,
                                 dual_consistency, make_weight_m,
                                 make_weight_n, make_weight_v,
                                 random_weight_spec,
                                 simplicity_criterion_weight, verma_check,
                                 weight_bracket_report, wv_unit)

F = Fraction


def _nonzero_rational(rng):
    num = rng.randint(-9, 9)
    while num == 0:
        num = rng.randint(-9, 9)
    return F(num, rng.randint(1, 9))


def _rational(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


def test_criterion_01_module_axioms():
    rng = random.Random(1001)
    started = time.monotonic()
    for family in ("gamma", "theta", "omega"):
        for i in range(20):
            spec = random_free_spec(rng, family)
            report = verify_axioms(spec, trials=20, seed=rng.randint(0, 10**6))
            assert report["ok"], (family, spec.params(), report["pairs"])
            assert len(report["pairs"]) == 15
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"module-axiom suite took {elapsed:.1f}s"
    print(f"criterion 1: PASS (60 specs x 15 pairs proved, {elapsed:.1f}s)")


def test_criterion_02_e34_residual():
    rng = random.Random(1002)
    started = time.monotonic()
    for _ in range(50):
        lam = _nonzero_rational(rng)
        b = _rational(rng)
        beta1 = tuple(_rational(rng) for _ in range(rng.randint(1, 6)))
        alpha1 = alpha_from_beta(beta1, lam, b)
        assert e34_residual(lam, b, beta1, alpha1).is_zero(), (lam, b, beta1)
    elapsed = time.monotonic() - started
    assert elapsed < 5, f"residual suite took {elapsed:.1f}s"
    print(f"criterion 2: PASS (50 residuals identically zero, {elapsed:.1f}s)")


def test_criterion_03_omega_reducibility_boundary():
    rng = random.Random(1003)
    # b = 0: the hbar-multiples form a proper submodule
    spec0 = make_omega(1, 0, (F(1), F(1, 2)))
    res0 = submodule_saturate(spec0, PolyHH.hbar(), cap=(8, 8))
    assert not res0.contains_one
    for p in res0.basis:
        assert all(p.coeff(i, 0) == 0 for i in range(9)), p.to_text()
    # b != 0: every seed regenerates the whole module
    reached = 0
    for _ in range(10):
        lam = _nonzero_rational(rng)
        b = _nonzero_rational(rng)
        beta1 = tuple(_rational(rng) for _ in range(rng.randint(1, 3)))
        spec = make_omega(lam, b, beta1)
        for _ in range(5):
            seed = random_poly(rng, max_deg_h=2, max_deg_hbar=2, max_terms=4)
            while seed.is_zero():
                seed = random_poly(rng, max_deg_h=2, max_deg_hbar=2,
                                   max_terms=4)
            res = submodule_saturate(spec, seed, cap=(8, 8))
            assert res.contains_one, (lam, b, beta1, seed.to_text())
            reached += 1
    assert reached == 50
    print("criterion 3: PASS (b=0 stays hbar-divisible; 50/50 b!=0 "
          "saturations reach 1)")


def test_criterion_04_omega_layer_quotients():
    rng = random.Random(1004)
    for _ in range(10):
        lam = _nonzero_rational(rng)
        beta1 = tuple(_rational(rng) for _ in range(rng.randint(1, 4)))
        i = rng.randint(0, 3)
        spec = make_omega(lam, 0, beta1)
        d_lam, d_a = omega_quotient_delta_params(spec, i)
        assert d_lam == -1 / lam
        assert d_a == -lam * beta1[0] + i
        for x in ("e", "f", "h"):
            for n in range(9):
                g = PolyHH.term(n, 0)
                assert omega_layer_action(spec, i, x, g) == \
                    delta_action(1, d_lam, d_a, x, g), (lam, beta1, i, x, n)
    print("criterion 4: PASS (10 layer quotients match the closed form "
          "on h^0..h^8)")


def test_criterion_05_dual_consistency():
    rng = random.Random(1005)
    win = Window(-4, 4, 4)
    for family in ("M", "N", "V"):
        spec = random_weight_spec(rng, family)
        rep = dual_consistency(spec, window=win, trials=50,
                               seed=rng.randint(0, 10**6))
        assert rep["ok"], (family, spec.params(), rep["failures"])
    print("criterion 5: PASS (3 families, x.eta = -eta o x proved for "
          "every (k, s))")


def test_criterion_06_weight_brackets():
    rng = random.Random(1006)
    started = time.monotonic()
    for family in ("M", "N", "V"):
        for _ in range(10):
            spec = random_weight_spec(rng, family)
            rep = weight_bracket_report(spec, window=Window(-5, 5, 5))
            assert rep["ok"], (family, spec.params(), rep["pairs"])
            assert len(rep["pairs"]) == 15
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"bracket suite took {elapsed:.1f}s"
    print(f"criterion 6: PASS (30 specs, 15 pairs proved for every "
          f"(k, s), {elapsed:.1f}s)")


def test_criterion_07_simplicity_scan():
    rows = run_scan()
    assert len(rows) >= 500
    assert all(row["agrees"] for row in rows), \
        [row for row in rows if not row["agrees"]][:3]
    reducible = [row for row in rows if not row["simple?"]]
    simple = [row for row in rows if row["simple?"]]
    assert reducible and simple
    families = {row["family"] for row in rows}
    assert families == {"M", "N", "V"}
    print(f"criterion 7: PASS ({len(rows)} grid points, "
          f"{len(reducible)} reducible, {len(simple)} simple, all agree)")


def test_criterion_08_verma_characters():
    checked = 0
    for spec in builtin_scan_grid():
        if spec.family != "M":
            continue
        crit = simplicity_criterion_weight(spec)
        if crit.simple:
            continue
        k0 = crit.witness[0]
        rep = verma_check(spec, crit.witness, Window(k0 - 4, k0 + 4, 6))
        assert rep.depth_dims == [1, 2, 3, 4, 5], (spec.params(),
                                                   rep.depth_dims)
        assert rep.character_ok and rep.quotient_nilpotent_ok
        checked += 1
    assert checked >= 20
    print(f"criterion 8: PASS ({checked} Verma characters, dims 1..5 "
          f"at depths 0..4)")


def test_criterion_09_twisting():
    rng = random.Random(1009)
    win = Window(-4, 4, 4)
    spec = make_weight_m(F(1, 3), 2, 1, -4, F(5, 7))
    z_values = [F(1), F(-2), F(1, 2)]
    z_values += [_rational(rng) for _ in range(5)]
    for z in z_values:
        res = check_twist_iso(z, spec, win)
        assert res.intertwines, (z, res.failing_probe)
    hits = 0
    for _ in range(100):
        k, s = rng.randint(-4, 4), rng.randint(1, 4)
        x = rng.choice(GENERATORS)
        v = wv_unit(k, s)
        assert twisted_act(0, spec, x, v) == act_weight(spec, x, v)
        hits += 1
    assert hits == 100
    print("criterion 9: PASS (8 twist isos exact; twisted_act(0) == act "
          "on 100 probes)")


def test_criterion_10_vm_iso_and_n_to_m():
    rng = random.Random(1010)
    win = Window(-3, 3, 4)
    done = 0
    while done < 10:
        lam = _nonzero_rational(rng)
        a = _rational(rng)
        beta = _rational(rng)
        if beta + a == 0:
            continue
        beta1 = tuple(_rational(rng) for _ in range(rng.randint(1, 4)))
        alpha = F(rng.randint(-3, 3))
        spec_v = make_weight_v(alpha, beta, lam, a, beta1)
        spec_m = vm_matching_m_spec(spec_v)
        good = vm_iso_check(spec_v, spec_m, win)
        assert good.intertwines, (spec_v.params(), good.failing_probe)
        bad_m = make_weight_m(spec_m.alpha, spec_m.beta, spec_m.lam,
                              spec_m.a, spec_m.b + 1)
        bad = vm_iso_check(spec_v, bad_m, win)
        assert not bad.intertwines, spec_v.params()
        done += 1

    found = 0
    while found < 10:
        lam = _nonzero_rational(rng)
        a = _rational(rng)
        beta = _rational(rng)
        if beta * beta + a == 0:
            continue
        b = _rational(rng)
        alpha = F(rng.randint(-3, 3))
        spec_n = make_weight_n(alpha, beta, lam, a, b)
        spec_m = make_weight_m(alpha, beta, lam, a, b)
        res = intertwiner_search(spec_n, spec_m, Window(-4, 4, 4))
        assert res["dimension"] >= 1, spec_n.params()
        assert res["verified"]
        assert any(not m.is_zero() for m in res["maps"])
        found += 1
    print("criterion 10: PASS (10 V~M isos with pinned b, all fail at b+1; "
          "10 nonzero N->M intertwiners)")


def test_criterion_11_window_isomorphism_certificates():
    rng = random.Random(1011)
    win = Window(-4, 4, 4)

    def random_simple_m():
        while True:
            spec = random_weight_spec(rng, "M")
            if simplicity_criterion_weight(spec).simple:
                return spec

    zero_checked = 0
    while zero_checked < 10:
        spec = random_simple_m()
        which = zero_checked % 3
        if which == 0:
            other = make_weight_m(spec.alpha, spec.beta + 1, spec.lam,
                                  spec.a, spec.b)
        elif which == 1:
            other = make_weight_m(spec.alpha, spec.beta, spec.lam,
                                  spec.a + 2, spec.b)
        else:
            other = make_weight_m(spec.alpha, spec.beta, spec.lam,
                                  spec.a, spec.b - F(1, 2))
        res = intertwiner_search(spec, other, win)
        assert res["dimension"] == 0, (spec.params(), other.params())
        zero_checked += 1

    shift_checked = 0
    while shift_checked < 10:
        spec = random_simple_m()
        shifted = make_weight_m(spec.alpha + 2, spec.beta, spec.lam,
                                spec.a, spec.b)
        res = intertwiner_search(spec, shifted, win)
        assert res["dimension"] == 1, spec.params()
        assert res["verified"]
        shift_checked += 1
    print("criterion 11: PASS (10 mismatched pairs -> zero space; "
          "10 alpha+2 shifts -> one-dimensional)")


def test_criterion_12_rewriting_engine():
    rng = random.Random(1012)
    words = [tuple(rng.choice(LOCALIZED_LETTERS)
                   for _ in range(rng.randint(0, 8))) for _ in range(500)]
    for word in words:
        elem = normal_form(word, localized=True)
        assert normal_form(elem, localized=True) == elem
        cut = rng.randint(0, len(word))
        left = normal_form(word[:cut], localized=True)
        right = normal_form(word[cut:], localized=True)
        assert left * right == elem, word
    for x in GENERATORS:
        for y in GENERATORS:
            assert normal_form((x, y)) - normal_form((y, x)) == bracket(x, y)
    for z in (F(0), F(1), F(-3), F(2, 7)):
        assert check_theta_automorphism(z)["ok"], z
        for x in LOCALIZED_LETTERS:
            assert theta(z, theta(-z, x)) == normal_form(x, localized=True)
    print("criterion 12: PASS (500 words idempotent + product-compatible; "
          "36 bracket pairs; 4 automorphism checks)")
