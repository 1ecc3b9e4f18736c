"""Command line front end: takiff-rep <suite> [options].

Suites
------
nf             normal forms of words in the (localized) enveloping algebra
verify-free    commutator axioms on Gamma/Theta/Omega modules
saturate       degree-capped submodule saturation from a seed polynomial
omega-quotient Omega b=0 layers: e, f, h as on Delta_1; eb, fb, hb by zero
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

Every suite builds its modules through one table, ``_MAKERS``: each family
(gamma, theta, omega, M, N, V) maps to its library maker and the config keys
of the maker's arguments, in order, with their default texts.  ``_spec``
reads one spec of a family; verify-free's grid is the product of the same
keys' comma-separated values.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction

from . import freemod, functors, weightmod
from .algebra import (LOCALIZED_LETTERS, check_theta_automorphism,
                      normal_form, parse_word_expr, theta)
from .poly import parse_poly
from .report import (Config, emit, list_of, load_config, make_report,
                     parse_bool, parse_int_pair, parse_rational_list,
                     parse_window)
from .scan import (SCAN_CSV_COLUMNS, builtin_scan_grid, criterion_agrees,
                   run_scan)
from .weightmod import (DEFAULT_WINDOW, Window, dual_consistency,
                        simplicity_criterion_weight, singular_vectors,
                        verma_check, weight_bracket_report, wv_text)


def _one_of(*names):
    """A parser of one name out of ``names``."""
    def parse(text):
        name = text.strip()
        if name not in names:
            raise ValueError(f"unknown name {name!r}, expected one of "
                             f"{', '.join(names)}")
        return name
    return parse


def _nonzero(text: str) -> Fraction:
    """A lambda: a rational that must be nonzero."""
    value = Fraction(text)
    if not value:
        raise ValueError("lambda must be nonzero")
    return value


_FREE_FAMILIES, _WEIGHT_FAMILIES = ("gamma", "theta", "omega"), ("M", "N", "V")
_FREE, _WEIGHT = _one_of(*_FREE_FAMILIES), _one_of(*_WEIGHT_FAMILIES)
_FREE_KEYS = {"lambda": "1", "a": "0", "b": "0"}
_WEIGHT_KEYS = {"alpha": "0", "beta": "1", "lambda": "1", "a": "-1"}
# family -> (maker, {config key: default text}), keys in argument order
_MAKERS = {
    "gamma": (freemod.make_gamma, _FREE_KEYS),
    "theta": (freemod.make_theta_mod, _FREE_KEYS),
    "omega": (freemod.make_omega, {"lambda": "1", "b": "0", "beta1": "0"}),
    "M": (weightmod.make_weight_m, {**_WEIGHT_KEYS, "b": "-2"}),
    "N": (weightmod.make_weight_n, {**_WEIGHT_KEYS, "b": "-2"}),
    "V": (weightmod.make_weight_v, {**_WEIGHT_KEYS, "beta1": "1,1"}),
}
_PARSE = {"lambda": _nonzero, "beta1": parse_rational_list}  # else Fraction


def _spec(cfg: Config, family: str, prefix: str = "", **texts):
    """The ``family`` spec of the keys ``prefix + key``.  ``texts`` replace
    default texts; a value that is not a text fixes its key, left unread."""
    maker, defaults = _MAKERS[family]
    return maker(*(
        cfg.get(prefix + key, text, _PARSE.get(key, Fraction))
        if isinstance(text, str) else text
        for key, text in {**defaults, **texts}.items()))


def _grid(cfg: Config, family: str) -> list:
    """The ``family`` specs of every combination of the keys'
    comma-separated values; beta1, itself a list, is one value."""
    maker, defaults = _MAKERS[family]
    def values(key, text):
        if key == "beta1":
            return [cfg.get(key, text, parse_rational_list)]
        return cfg.get(key, text, list_of(_PARSE.get(key, Fraction)))
    return [maker(*args) for args in itertools.product(
        *(values(key, text) for key, text in defaults.items()))]


def _chosen(cfg, rng, families, kind, specs, draw, explicit_specs):
    """(family, spec, seed) for each spec a verify suite checks.

    When a key of any family of ``kind`` is set, each family's specs are
    ``explicit_specs(cfg, family)``; otherwise ``specs`` (a config default)
    random ones from ``draw``.  A family's specs are drawn before their
    seeds, as the report bytes depend on that order.
    """
    explicit = any(key in cfg.values for family in kind
                   for key in _MAKERS[family][1])
    n_specs = None if explicit else cfg.get("specs", specs, int, least=1)
    for family in families:
        chosen = (explicit_specs(cfg, family) if explicit
                  else [draw(rng, family) for _ in range(n_specs)])
        for spec in chosen:
            yield family, spec, rng.randint(0, 10**6)


def _iso_fields(res) -> dict:
    """The case fields of an isomorphism check's result."""
    return {"intertwines": res.intertwines, "rank": res.rank,
            "failing_probe": res.failing_probe, "window": res.window}


# -- suite handlers: each returns (cases, aggregate_pass, csv_columns) ----------

def _suite_nf(cfg, args, rng, window):
    read = lambda text: (text, parse_word_expr(text, localized=True))
    # a blank word is none; inline words override it, as a flag would
    word = cfg.get("word", "", lambda text: [read(text)] if text else [])
    inputs = [read(text) for text in args.words] or word or [
        read(text) for text in ("e*f - f*e", "f*e*h", "eb^-1*eb", "h*eb^-1")]
    # normal_form of an element returns a copy of it, so the idempotent
    # field cannot fail; it is kept for the report's bytes
    cases = []
    for text, elem in inputs:
        nf = normal_form(elem, localized=True)
        cases.append({"input": text, "normal_form": nf.to_text(),
                      "idempotent": normal_form(nf, localized=True) == nf})
    return cases, all(case["idempotent"] for case in cases), None


def _suite_verify_free(cfg, args, rng, window):
    families = cfg.get("families", "gamma,theta,omega", list_of(_FREE))
    # trials is echoed only (verify_axioms samples nothing); it is
    # validated for compatibility, so trials < 1 still exits 2
    trials = cfg.get("trials", "50", int, least=1)
    cases = []
    for family, spec, seed in _chosen(cfg, rng, families, _FREE_FAMILIES, "5",
                                      freemod.random_free_spec, _grid):
        rep = freemod.verify_axioms(spec, trials=trials, seed=seed)
        cases.append({"family": family, "params": rep["params"],
                      "pairs": rep["pairs"], "seed": rep["seed"],
                      "trials": rep["trials"], "pass": rep["ok"]})
    return cases, all(case["pass"] for case in cases), None


def _suite_saturate(cfg, args, rng, window):
    spec = _spec(cfg, cfg.get("family", "gamma", _FREE))
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
    spec = _spec(cfg, "omega", b=0)
    layers = cfg.get("i", "0,1,2,3", list_of(int), least=0)
    # n_max is echoed only, as trials is: each table is one term applied
    # after the same shift, so equal tables act alike on every polynomial
    n_max = cfg.get("n_max", "8", int, least=0)
    cases = []
    for i in layers:
        d_lam, d_a = freemod.omega_quotient_delta_params(spec, i)
        layer = freemod.omega_layer_ops(spec, i)
        delta = freemod.delta_ops(1, d_lam, d_a)
        # e, f and h act as on Delta; eb, fb and hb, each a multiple of
        # hbar at b = 0, act by zero
        ok = (all(layer[x] == delta[x] for x in "efh")
              and all(c.is_zero() for x in ("eb", "fb", "hb")
                      for c, _ in layer[x]))
        cases.append({"i": i, "delta_lambda": d_lam, "delta_a": d_a,
                      "max_n": n_max, "pass": ok})
    return cases, all(case["pass"] for case in cases), None


def _suite_verify_weight(cfg, args, rng, window):
    families = cfg.get("families", "M,N,V", list_of(_WEIGHT))
    # trials is echoed only, as for verify-free; validated for compatibility
    trials = cfg.get("trials", "50", int, least=1)
    cases = []
    for family, spec, seed in _chosen(
            cfg, rng, families, _WEIGHT_FAMILIES, "3",
            weightmod.random_weight_spec,
            lambda cfg, family: [_spec(cfg, family)]):
        dual = dual_consistency(spec, window=window, trials=trials, seed=seed)
        brk = weight_bracket_report(spec, window=window)
        cases.append({"family": family, "params": spec.params(),
                      "dual_ok": dual["ok"], "bracket_ok": brk["ok"],
                      "pass": dual["ok"] and brk["ok"]})
    return cases, all(case["pass"] for case in cases), None


def _suite_singular(cfg, args, rng, window):
    spec = _spec(cfg, cfg.get("family", "M", _WEIGHT))
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
    spec = _spec(cfg, cfg.get("family", "M", _WEIGHT))
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
    keep = cfg.get("families", "", lambda text: list_of(_WEIGHT)(
        text or "M,N,V"))
    rows = run_scan([s for s in builtin_scan_grid() if s.family in keep])
    ok = all(r["agrees"] for r in rows)
    return rows, ok, SCAN_CSV_COLUMNS


def _suite_twist_check(cfg, args, rng, window):
    spec = _spec(cfg, cfg.get("family", "M", _one_of("M")))
    z_values = cfg.get("z", "1,-2,1/2", list_of(Fraction))
    # the relations are proved over Z[z], so one verdict holds for every z
    automorphism_ok = check_theta_automorphism(z_values[0])["ok"]
    cases = []
    for z in z_values:
        iso = functors.check_twist_iso(z, spec, window)
        inverse_ok = all(
            theta(-z, theta(z, x)) == normal_form(x, localized=True)
            for x in LOCALIZED_LETTERS)
        cases.append({"z": z, "automorphism_ok": automorphism_ok,
                      "inverse_ok": inverse_ok, **_iso_fields(iso),
                      "pass": automorphism_ok and iso.intertwines
                      and inverse_ok})
    return cases, all(case["pass"] for case in cases), None


def _suite_iso_check(cfg, args, rng, window):
    cases = []
    kinds = cfg.get("kinds", "lambda-rescale,vm",
                    list_of(_one_of("lambda-rescale", "vm")))
    if "lambda-rescale" in kinds:
        spec_a = _spec(cfg, cfg.get("family", "M", _one_of("M", "N")))
        spec_b = replace(spec_a, lam=cfg.get("lambda2", "3", _nonzero))
        res = functors.lambda_rescale_iso(spec_a, spec_b, window)
        cases.append({"kind": "lambda-rescale",
                      "params_a": spec_a.params(), "params_b": spec_b.params(),
                      **_iso_fields(res), "pass": res.intertwines})
    if "vm" in kinds:
        spec_v = _spec(cfg, "V", beta="3", a="1")
        spec_m = functors.vm_matching_m_spec(spec_v)
        b_m = cfg.get("b_m")
        if b_m is not None:
            spec_m = replace(spec_m, b=b_m)
        try:
            res = functors.vm_iso_check(spec_v, spec_m, window)
        except ValueError as exc:  # only the beta + a = 0 wall gets here
            raise ValueError(f"config keys 'beta' and 'a': {exc}") from None
        cases.append({"kind": "vm",
                      "params_v": spec_v.params(), "params_m": spec_m.params(),
                      "details": res.details, **_iso_fields(res),
                      "pass": res.intertwines})
    return cases, all(case["pass"] for case in cases), None


def _suite_intertwine(cfg, args, rng, window):
    def side(prefix, default):
        # a side's other keys are read only with its family
        family = cfg.get(prefix + "family", parse=_WEIGHT)
        return _spec(cfg, family, prefix) if family else default
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
    expect = cfg.get("expect_dimension", parse=int, least=0)
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
        window = cfg.get("window", DEFAULT_WINDOW.as_text(), parse_window)
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
