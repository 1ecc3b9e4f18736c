"""Tests for the twisting substitution on modules and the explicit isos."""

import random
from fractions import Fraction

import pytest

from takiffrep.algebra import parse_word_expr
from takiffrep.functors import (check_twist_iso, ebinv_act,
                                intertwiner_search, lambda_rescale_iso,
                                twisted_act, vm_iso_check, vm_matching_b,
                                vm_matching_m_spec)
from takiffrep.weightmod import (Window, act_weight, make_weight_m,
                                 make_weight_n, make_weight_v, wv_text,
                                 wv_unit)

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


def test_linear_window_map_domain_guard():
    win = Window(-2, 2, 3)
    a = make_weight_m(0, 1, 1, 3, F(1, 2))
    b = make_weight_m(2, 1, 1, 3, F(1, 2))
    res = intertwiner_search(a, b, win)
    tmap = res["maps"][0]
    with pytest.raises(ValueError):
        tmap.apply(wv_unit(5, 1))
