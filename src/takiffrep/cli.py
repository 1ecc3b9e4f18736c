"""Command line front end: takiff-rep <suite> [options].

Suites
------
nf             normal forms of words in the (localized) enveloping algebra
verify-free    commutator axioms on Gamma/Theta/Omega modules
saturate       degree-capped submodule saturation from a seed polynomial
omega-quotient Omega b=0 layers against the closed-form Delta parameters
verify-weight  duality + bracket identities for the M/N/V families
singular       windowed singular vectors vs the closed-form criterion
verma-check    opposite Verma character of a generated submodule
scan           reducibility scan over the built-in parameter grid
twist-check    twisting substitution: automorphism + module isomorphism
iso-check      lambda rescaling and the V ~ M explicit isomorphism
intertwine     exact search for window-supported intertwiners

Options: --config FILE (KEY=VALUE lines), --seed N, --window KMIN:KMAX:SMAX,
--format json|csv, --out PATH.  Flags, and the inline input of nf (words) and
saturate (a seed), override config values, which are still parsed.  Reports
are deterministic for fixed (config, seed); timing goes to stderr.  Exit is 0
on "pass", 1 on "fail", 2 on a usage error, such as a word or (once the suite
has run) a config key that ``report.Config`` never read.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

from . import freemod, functors, weightmod
from .algebra import (LOCALIZED_LETTERS, check_theta_automorphism,
                      normal_form, parse_word_expr, theta)
from .poly import parse_poly
from .report import (Config, emit, load_config, make_report, parse_bool,
                     parse_int_pair, parse_rational_list, parse_window)
from .scan import (SCAN_CSV_COLUMNS, builtin_scan_grid, criterion_agrees,
                   run_scan)
from .weightmod import (Window, dual_consistency, simplicity_criterion_weight,
                        singular_vectors, verma_check, weight_bracket_report,
                        wv_text)


def _one_of(*names):
    """A parser of one name out of ``names``."""
    def parse(text):
        name = text.strip()
        if name not in names:
            raise ValueError(f"unknown name {name!r}, expected one of "
                             f"{', '.join(names)}")
        return name
    return parse


def _list_of(parse):
    """A parser of comma-separated items, each read by ``parse``."""
    return lambda text: [parse(item) for item in text.split(",")]


def _nonzero(text: str) -> Fraction:
    """A lambda: a rational that must be nonzero."""
    value = Fraction(text)
    if not value:
        raise ValueError("lambda must be nonzero")
    return value


_FREE = _one_of("gamma", "theta", "omega")
_WEIGHT = _one_of("M", "N", "V")


def _free_spec_from_cfg(cfg: Config) -> freemod.FreeModuleSpec:
    family = cfg.get("family", "gamma", _FREE)
    lam = cfg.get("lambda", "1", _nonzero)
    b = cfg.get("b", "0")
    if family == "omega":
        return freemod.make_omega(lam, b,
                                  cfg.get("beta1", "0", parse_rational_list))
    mk = freemod.make_gamma if family == "gamma" else freemod.make_theta_mod
    return mk(lam, cfg.get("a", "0"), b)


def _weight_spec_from_cfg(cfg: Config, prefix: str = "", family=None,
                          **defaults) -> weightmod.WeightModuleSpec:
    """The spec of the keys ``prefix + name``; ``family`` fixes the family
    (its key is then unread), ``defaults`` replace default texts."""
    texts = {"family": "M", "alpha": "0", "beta": "1", "lambda": "1",
             "a": "-1", "b": "-2", "beta1": "1,1", **defaults}
    get = lambda key, parse=Fraction: cfg.get(prefix + key, texts[key], parse)
    family = family or get("family", _WEIGHT)
    alpha, beta = get("alpha"), get("beta")
    lam = get("lambda", _nonzero)
    a = get("a")
    if family == "V":
        return weightmod.make_weight_v(alpha, beta, lam, a,
                                       get("beta1", parse_rational_list))
    mk = weightmod.make_weight_m if family == "M" else weightmod.make_weight_n
    return mk(alpha, beta, lam, a, get("b"))


# -- suite handlers: each returns (cases, aggregate_pass, csv_columns) ----------

def _suite_nf(cfg, args, rng, window):
    read = lambda text: (text, parse_word_expr(text, localized=True))
    # a blank word is none; inline words override it, as a flag would
    word = cfg.get("word", "", lambda text: [read(text)] if text else [])
    inputs = [read(text) for text in args.words] or word or [
        read(text) for text in ("e*f - f*e", "f*e*h", "eb^-1*eb", "h*eb^-1")]
    cases = []
    ok = True
    for text, elem in inputs:
        nf = normal_form(elem, localized=True)
        again = normal_form(nf, localized=True)
        idem = again == nf
        ok = ok and idem
        cases.append({"input": text, "normal_form": nf.to_text(),
                      "idempotent": idem})
    return cases, ok, None


def _nonempty_list(cfg, key, default):
    """A comma-separated rational list that names at least one value."""
    values = cfg.get(key, default, parse_rational_list)
    if not values:
        raise ValueError(f"config key {key!r}: must name at least one value")
    return values


def _free_grid_specs(cfg, family):
    """Cross product of the lambda/a/b grids for one free family.

    Grid values are comma-separated rationals; omega fixes beta1 (itself a
    coefficient list) and grids over lambda and b only.
    """
    lams = _nonempty_list(cfg, "lambda", "1")
    if not all(lams):
        raise ValueError("config key 'lambda': lambda must be nonzero")
    bs = _nonempty_list(cfg, "b", "0")
    specs = []
    if family == "omega":
        beta1 = cfg.get("beta1", "0", parse_rational_list)
        for lam in lams:
            for b in bs:
                specs.append(freemod.make_omega(lam, b, beta1))
        return specs
    mk = freemod.make_gamma if family == "gamma" else freemod.make_theta_mod
    for lam in lams:
        for a in _nonempty_list(cfg, "a", "0"):
            for b in bs:
                specs.append(mk(lam, a, b))
    return specs


def _suite_verify_free(cfg, args, rng, window):
    families = cfg.get("families", "gamma,theta,omega", _list_of(_FREE))
    # trials is echoed only (verify_axioms samples nothing); it is
    # validated for compatibility, so trials < 1 still exits 2
    trials = cfg.get("trials", "50", int, least=1)
    explicit = any(k in cfg.values for k in ("lambda", "a", "b", "beta1"))
    n_specs = None if explicit else cfg.get("specs", "5", int, least=1)
    cases = []
    ok = True
    for family in families:
        if explicit:
            specs = _free_grid_specs(cfg, family)
        else:
            specs = [freemod.random_free_spec(rng, family) for _ in range(n_specs)]
        for spec in specs:
            rep = freemod.verify_axioms(spec, trials=trials,
                                        seed=rng.randint(0, 10**6))
            ok = ok and rep["ok"]
            cases.append({"family": family, "params": rep["params"],
                          "pairs": rep["pairs"], "seed": rep["seed"],
                          "trials": rep["trials"], "pass": rep["ok"]})
    return cases, ok, None


def _suite_saturate(cfg, args, rng, window):
    spec = _free_spec_from_cfg(cfg)
    seed_poly = cfg.get("seed_poly", "h", parse_poly)  # inline input wins
    seed_poly = parse_poly(args.words[0]) if args.words else seed_poly
    cap = cfg.get("cap", "8,8", parse_int_pair, least=0)
    expected = cfg.get("expect_one", parse=parse_bool)
    result = freemod.submodule_saturate(spec, seed_poly, cap=cap)
    case = {"family": spec.family, "params": spec.params(),
            "seed_poly": seed_poly.to_text(), "cap": list(cap),
            "basis_size": len(result.basis),
            "contains_one": result.contains_one,
            "saturated": result.saturated,
            "basis": [p.to_text() for p in result.basis]}
    ok = True
    if expected is not None:
        ok = result.contains_one == expected
        case["expected_contains_one"] = expected
    return [case], ok, None


def _suite_omega_quotient(cfg, args, rng, window):
    lam = cfg.get("lambda", "1", _nonzero)
    beta1 = cfg.get("beta1", "0", parse_rational_list)
    spec = freemod.make_omega(lam, 0, beta1)
    layers = cfg.get("i", "0,1,2,3", _list_of(int), least=0)
    # n_max is echoed only, as trials is: each table is one term applied
    # after the same shift, so equal tables act alike on every polynomial
    n_max = cfg.get("n_max", "8", int, least=0)
    cases = []
    ok = True
    for i in layers:
        d_lam, d_a = freemod.omega_quotient_delta_params(spec, i)
        layer = freemod.omega_layer_ops(spec, i)
        delta = freemod.delta_ops(1, d_lam, d_a)
        layer_ok = all(layer[x] == delta[x] for x in ("e", "f", "h"))
        ok = ok and layer_ok
        cases.append({"i": i, "delta_lambda": d_lam, "delta_a": d_a,
                      "max_n": n_max, "pass": layer_ok})
    return cases, ok, None


def _suite_verify_weight(cfg, args, rng, window):
    families = cfg.get("families", "M,N,V", _list_of(_WEIGHT))
    # trials is echoed only, as for verify-free; validated for compatibility
    trials = cfg.get("trials", "50", int, least=1)
    explicit = any(key in cfg.values for key in ("alpha", "beta", "lambda",
                                                 "a", "b", "beta1"))
    n_specs = None if explicit else cfg.get("specs", "3", int, least=1)
    cases = []
    ok = True
    for family in families:
        if explicit:
            specs = [_weight_spec_from_cfg(cfg, family=family)]
        else:
            specs = [weightmod.random_weight_spec(rng, family)
                     for _ in range(n_specs)]
        for spec in specs:
            dual = dual_consistency(spec, window=window, trials=trials,
                                    seed=rng.randint(0, 10**6))
            brk = weight_bracket_report(spec, window=window)
            good = dual["ok"] and brk["ok"]
            ok = ok and good
            cases.append({"family": family, "params": spec.params(),
                          "dual_ok": dual["ok"], "bracket_ok": brk["ok"],
                          "pass": good})
    return cases, ok, None


def _suite_singular(cfg, args, rng, window):
    spec = _weight_spec_from_cfg(cfg)
    crit = simplicity_criterion_weight(spec)
    if not crit.simple and not window.contains(crit.witness):
        raise ValueError(
            f"criterion witness eta[{crit.witness[0]},{crit.witness[1]}] lies "
            f"outside the window {window.as_text()}; widen --window")
    report = singular_vectors(spec, window)
    hits = [{"k": h.k, "s": h.s, "vector": wv_text(h.vector),
             "killed_by": list(h.killed_by), "h_eigenvalue": h.h_eigenvalue}
            for h in report.hits]
    agrees = criterion_agrees(spec, crit, report)
    case = {"family": spec.family, "params": spec.params(),
            "criterion_simple": crit.simple,
            "witness": list(crit.witness) if crit.witness else None,
            "reason": crit.reason, "hits": hits, "pass": agrees}
    return [case], agrees, None


def _suite_verma_check(cfg, args, rng, window):
    spec = _weight_spec_from_cfg(cfg)
    hit = cfg.get("hit", parse=parse_int_pair)
    crit = None if hit else simplicity_criterion_weight(spec)
    if crit and crit.simple:
        raise ValueError("module is simple; give hit=K,S explicitly")
    hit = hit or crit.witness
    if hit[1] < 1:  # a witness has s = 1
        raise ValueError("config key 'hit': s must be at least 1")
    depth = cfg.get("depth", "4", int, least=0)
    win = Window(hit[0] - depth, hit[0] + depth, max(window.s_max, hit[1] + 2))
    try:
        rep = verma_check(spec, hit, win)
    except ValueError as exc:
        if crit is None:
            raise ValueError(f"config key 'hit': {exc}") from None
        # only V at beta = a = 0 gets here, its witness killed by (eb, fb)
        raise ValueError(f"the criterion's witness eta_{hit} is killed only by "
                         f"the barred pair ({', '.join(crit.pair)}); give "
                         "hit=K,S explicitly") from None
    case = {"family": spec.family, "params": spec.params(),
            "hit": list(hit), "direction": rep.direction,
            "depth_dims": rep.depth_dims, "expected_dims": rep.expected_dims,
            "character_ok": rep.character_ok,
            "quotient_nilpotent_ok": rep.quotient_nilpotent_ok,
            "pass": rep.passed}
    return [case], rep.passed, None


def _suite_scan(cfg, args, rng, window):
    # a blank families, as an absent one, keeps every family
    keep = cfg.get("families", "", lambda text: _list_of(_WEIGHT)(
        text or "M,N,V"))
    rows = run_scan([s for s in builtin_scan_grid() if s.family in keep])
    ok = all(r["agrees"] for r in rows)
    return rows, ok, SCAN_CSV_COLUMNS


def _suite_twist_check(cfg, args, rng, window):
    spec = _weight_spec_from_cfg(cfg, family=cfg.get("family", "M",
                                                      _one_of("M")))
    z_values = _nonempty_list(cfg, "z", "1,-2,1/2")
    # the relations are proved over Z[z], so one verdict holds for every z
    automorphism_ok = check_theta_automorphism(z_values[0])["ok"]
    cases = []
    ok = True
    for z in z_values:
        iso = functors.check_twist_iso(z, spec, window)
        inverse_ok = all(
            theta(-z, theta(z, x)) == normal_form(x, localized=True)
            for x in LOCALIZED_LETTERS)
        good = automorphism_ok and iso.intertwines and inverse_ok
        ok = ok and good
        cases.append({"z": z, "automorphism_ok": automorphism_ok,
                      "intertwines": iso.intertwines, "rank": iso.rank,
                      "failing_probe": iso.failing_probe,
                      "inverse_ok": inverse_ok, "window": iso.window,
                      "pass": good})
    return cases, ok, None


def _suite_iso_check(cfg, args, rng, window):
    cases = []
    ok = True
    kinds = cfg.get("kinds", "lambda-rescale,vm",
                    _list_of(_one_of("lambda-rescale", "vm")))
    if "lambda-rescale" in kinds:
        spec_a = _weight_spec_from_cfg(cfg, family=cfg.get(
            "family", "M", _one_of("M", "N")))
        spec_b = replace(spec_a, lam=cfg.get("lambda2", "3", _nonzero))
        res = functors.lambda_rescale_iso(spec_a, spec_b, window)
        ok = ok and res.intertwines
        cases.append({"kind": "lambda-rescale",
                      "params_a": spec_a.params(), "params_b": spec_b.params(),
                      "intertwines": res.intertwines, "rank": res.rank,
                      "failing_probe": res.failing_probe, "window": res.window,
                      "pass": res.intertwines})
    if "vm" in kinds:
        spec_v = _weight_spec_from_cfg(cfg, family="V", beta="3", a="1")
        spec_m = functors.vm_matching_m_spec(spec_v)
        b_m = cfg.get("b_m")
        if b_m is not None:
            spec_m = replace(spec_m, b=b_m)
        res = functors.vm_iso_check(spec_v, spec_m, window)
        ok = ok and res.intertwines
        cases.append({"kind": "vm",
                      "params_v": spec_v.params(), "params_m": spec_m.params(),
                      "intertwines": res.intertwines, "rank": res.rank,
                      "failing_probe": res.failing_probe,
                      "details": res.details, "window": res.window,
                      "pass": res.intertwines})
    return cases, ok, None


def _suite_intertwine(cfg, args, rng, window):
    def side(prefix, default):
        # a side's other keys are read only with its family
        family = cfg.get(prefix + "family", parse=_WEIGHT)
        return _weight_spec_from_cfg(cfg, prefix, family) if family else default
    spec_a = side("a_", weightmod.make_weight_n(0, 1, 1, 3, Fraction(1, 2)))
    spec_b = side("b_", weightmod.make_weight_m(0, 1, 1, 3, Fraction(1, 2)))
    result = functors.intertwiner_search(spec_a, spec_b, window)
    rank = result["maps"][0].rank() if result["maps"] else 0
    intertwines = result["dimension"] > 0 and result["verified"]
    case = {"params_a": spec_a.params(), "params_b": spec_b.params(),
            "intertwines": intertwines, "rank": rank,
            "dimension": result["dimension"], "verified": result["verified"],
            "window": result["window"],
            "codomain_window": result["codomain_window"]}
    ok = result["verified"]
    expect = cfg.get("expect_dimension", parse=int)
    if expect is not None:
        ok = ok and result["dimension"] == expect
        case["expected_dimension"] = expect
    return [case], ok, None


_HANDLERS = {
    "nf": _suite_nf,
    "verify-free": _suite_verify_free,
    "saturate": _suite_saturate,
    "omega-quotient": _suite_omega_quotient,
    "verify-weight": _suite_verify_weight,
    "singular": _suite_singular,
    "verma-check": _suite_verma_check,
    "scan": _suite_scan,
    "twist-check": _suite_twist_check,
    "iso-check": _suite_iso_check,
    "intertwine": _suite_intertwine,
}
SUITES = tuple(_HANDLERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="takiff-rep",
        description="Exact computations with Takiff sl2 module families.")
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("words", nargs="*",
                        help="suite-specific inline input (nf words, "
                             "saturate seed polynomial)")
    parser.add_argument("--config", help="KEY=VALUE config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--window", default=None, metavar="KMIN:KMAX:SMAX")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default=None)
    parser.add_argument("--out", default=None)
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        # fold the value into the flag so windows with negative KMIN parse
        if tok == "--window":
            argv[i:i + 2] = [f"--window={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        # nf reads every inline word, saturate one seed, the others none
        read = {"nf": len(args.words), "saturate": 1}.get(args.suite, 0)
        if args.words[read:]:
            raise ValueError(f"inline input {' '.join(args.words[read:])!r}: "
                             f"not read by {args.suite}")
        cfg = Config(load_config(args.config) if args.config else {})
        seed = cfg.get("seed", "0", int)
        window = cfg.get("window", "-5:5:5", parse_window)
        fmt = cfg.get("format", "json", str)
        out_path = cfg.get("out", parse=str)
        # flags override the config values, whose keys still count as read
        seed = seed if args.seed is None else args.seed
        window = parse_window(args.window) if args.window else window
        fmt, out_path = args.fmt or fmt, args.out or out_path
        rng = random.Random(seed)
        cases, ok, csv_columns = _HANDLERS[args.suite](cfg, args, rng, window)
        unread = sorted(set(cfg.values) - cfg.read)
        if unread:
            raise ValueError(f"config key {unread[0]!r}: not read by "
                             f"{args.suite} with this config")
        config_echo = dict(sorted(cfg.values.items()))
        config_echo["seed"] = seed
        config_echo["window"] = window.as_text()
        if args.words:
            config_echo["args"] = list(args.words)
        # an unknown format or an unwritable out path is a usage error too
        text = emit(make_report(args.suite, config_echo, cases, ok), fmt,
                    csv_columns)
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"takiff-rep: error: {exc}", file=sys.stderr)
        return 2

    elapsed = time.monotonic() - started
    print(f"takiff-rep: suite={args.suite} aggregate="
          f"{'pass' if ok else 'fail'} elapsed={elapsed:.2f}s",
          file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
