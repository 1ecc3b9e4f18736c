"""Property tests of the text round trips and the CLI exit-status
contract, driven by Hypothesis.

Each parser must read back exactly what the matching ``to_text`` prints,
for every polynomial and every algebra element, not only for the
hand-picked examples in test_poly and test_algebra, and the two parsers
must read a sum over h and hb alike, since they share one grammar.  A
config file must read as KEY=VALUE pairs or be refused with ValueError, and
the CLI must answer every config, nf word and saturate seed with exit
status 0, 1 or 2 and never with a traceback.  Runs are derandomized so that
the suite gives the same verdict every time.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from takiffrep.algebra import AlgebraElement, Monomial, parse_word_expr
from takiffrep.cli import main
from takiffrep.poly import PolyHH, parse_poly
from takiffrep.report import load_config

derandomized = settings(deadline=None, derandomize=True, database=None)

rationals = st.fractions(max_denominator=60)
polys = st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                        rationals, max_size=8).map(PolyHH)
# canonical monomials eb^n fb^a f^b hb^c h^d e^g, n < 0 in the localization
monomials = st.builds(Monomial, st.integers(-3, 3),
                      *[st.integers(0, 3)] * 5)
elements = st.dictionaries(monomials, rationals,
                           max_size=6).map(AlgebraElement)
# free-form expressions: signed terms, any letter order, aliases and powers
factors = st.sampled_from(("e", "f", "h", "eb", "fb", "hb", "ebar", "fbar",
                           "hbar", "eb^-1", "h^2", "fb^0"))
terms = st.tuples(st.sampled_from("+-"),
                  st.fractions(min_value=0, max_denominator=9),
                  st.lists(factors, max_size=4))
expressions = st.lists(terms, min_size=1, max_size=4).map(
    lambda ts: " ".join(f"{sign} {'*'.join([str(c), *word])}"
                        for sign, c, word in ts))


@derandomized
@given(polys)
def test_parse_poly_reads_back_to_text(p):
    assert parse_poly(p.to_text()) == p


# integer coefficients, adopted as-is by the private constructor the way
# the saturation builds them
int_polys = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                            st.integers(-20, 20).filter(bool),
                            max_size=6).map(PolyHH._adopt)


def _types(*polys):
    return {type(v) for p in polys for _, v in p.terms()}


@derandomized
@given(int_polys, int_polys, st.integers(-3, 3),
       st.fractions(max_denominator=9))
def test_polyhh_arithmetic_on_ints_is_exact(p, q, d, r):
    # the same operations on Fraction copies are the reference
    pf, qf = PolyHH(dict(p.terms())), PolyHH(dict(q.terms()))
    assert _types(pf, qf) <= {Fraction}
    ints = (p + q, p * q, p.shift_h(d), p.dbar())
    assert ints == (pf + qf, pf * qf, pf.shift_h(Fraction(d)), pf.dbar())
    assert _types(*ints) <= {int}
    assert p.shift_h(r) == pf.shift_h(r)
    assert _types(p.shift_h(r), p + qf, p * qf) <= {int, Fraction}


@derandomized
@given(elements)
def test_parse_word_expr_reads_back_to_text(x):
    assert parse_word_expr(x.to_text(), localized=True) == x


@derandomized
@given(expressions)
def test_to_text_of_a_parsed_expression_reads_back(text):
    x = parse_word_expr(text, localized=True)
    assert parse_word_expr(x.to_text(), localized=True) == x


_sign_runs = st.text(alphabet="+-", max_size=2)


def _sums(names):
    """Sums of '*'-products of small rationals and powers of ``names``, with
    sign runs before terms, after '*' and after '^', and exponents -3..3."""
    factors = st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
        st.sampled_from(names),
        st.builds("{}^{}{}".format, st.sampled_from(names), _sign_runs,
                  st.integers(0, 3)))
    terms = st.lists(st.tuples(_sign_runs, factors).map("".join),
                     min_size=1, max_size=3).map("*".join)
    return st.tuples(terms, st.lists(
        st.tuples(_sign_runs.filter(bool), terms).map(" ".join),
        max_size=3)).map(lambda t: " ".join((t[0], *t[1])))


@derandomized
@given(_sums(("h", "hb")))
def test_parse_word_expr_agrees_with_parse_poly(text):
    # a negative exponent, refused by both parsers, is the only refusal
    try:
        p = parse_poly(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_word_expr(text)
        return
    # h and hb commute, and a normal form puts hb^j before h^i
    assert parse_word_expr(text) == AlgebraElement(
        {Monomial(0, 0, 0, j, i, 0): v for (i, j), v in p.terms()})


# -- config files ------------------------------------------------------------

def _load_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "text.cfg"
        path.write_text(text, encoding="utf-8")
        return load_config(str(path))


@derandomized
@given(st.text())
def test_load_config_reads_any_text_or_refuses_it(text):
    try:
        cfg = _load_text(text)
    except ValueError:
        return
    assert isinstance(cfg, dict)
    assert all(isinstance(k, str) and isinstance(v, str)
               for k, v in cfg.items())


# keys and values without '#', '=' or line breaks, and without the
# surrounding blanks that load_config strips
_plain = st.text(st.characters(exclude_characters="#=\n\r",
                               exclude_categories=("Cs",))).map(str.strip)


@derandomized
@given(st.dictionaries(_plain, _plain, max_size=6))
def test_load_config_round_trips_key_value_lines(cfg):
    text = "".join(f"{k}={v}\n" for k, v in cfg.items())
    assert _load_text(text) == cfg


# -- the CLI exit-status contract under arbitrary configs ---------------------

_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_rational_texts = _fractions.map(str)
_nonzero_texts = _fractions.filter(bool).map(str)
# small windows around k = 0, where the default modules have their witness
_windows = st.builds(lambda lo, hi, s: f"{-lo}:{hi}:{s}",
                     st.integers(0, 2), st.integers(0, 1), st.integers(1, 3))
_junk = st.one_of(
    _rational_texts, _windows,
    st.sampled_from(("", "x", "M", "W", "m", "1/0", "1//2", "--3", "3/-2",
                     " 7 ", "1.5", "nan", "1,,2", ",", "-:0:1", "0:0",
                     "1:0:1", "0:0:0")))
# counts that a suite refuses: malformed, or below its minimum
_count_junk = st.sampled_from(("", "x", "1/2", "1.5", "--3", "-1"))


# keys that no suite reads, such as a misspelt one
_unknown_keys = st.sampled_from(("alpah", "famliy", "spec", "seeds"))


def _one_junk(configs, junk=None):
    """The well-formed ``configs``, one time in three made malformed: one
    value replaced by junk, ``junk[key]`` if given, else ``_junk``, and in
    one of three such draws, or in each where ``configs`` drew no key, a key
    that no suite reads added.  No junk is the simplest draw, the one
    Hypothesis tries most, so most examples reach a suite's work, and a
    refused config is refused for one key, the first the run meets."""
    @st.composite
    def with_junk(draw):
        config = draw(configs)
        if draw(st.integers(0, 2)) == 2:
            keys = sorted(config)
            if keys:
                key = draw(st.sampled_from(keys))
                config[key] = draw((junk or {}).get(key, _junk))
            if not keys or draw(st.integers(0, 2)) == 2:
                config[draw(_unknown_keys)] = draw(_junk)
        return config
    return with_junk()


def _merged(*parts):
    """One config of the keys drawn by each of ``parts``."""
    return st.tuples(*parts).map(
        lambda dicts: {k: v for d in dicts for k, v in d.items()})


def _some_of(names, strategies, required=()):
    """The ``required`` keys and any of ``names``, drawn from ``strategies``."""
    return st.fixed_dictionaries(
        {name: strategies[name] for name in required},
        optional={name: strategies[name] for name in names
                  if name not in required})


# a well-formed config reads every key it names: the keys of a weight spec
# are drawn with the family that reads them, b for M and N, beta1 for V
_valid = {"alpha": _rational_texts, "beta": _rational_texts,
          "lambda": _nonzero_texts, "a": _rational_texts,
          "b": _rational_texts,
          "beta1": st.lists(_rational_texts, max_size=4).map(",".join)}


def _spec_keys(names_of, families, strategies, prefix="", default=None):
    """Any of the keys of one spec, each one its family reads: ``names_of``
    maps a family to its keys, drawn from ``strategies``.  The family key
    is always given, except that ``default``, the family of an absent key,
    may leave it out."""
    @st.composite
    def keys(draw):
        family = draw(st.sampled_from(families))
        config = {prefix + k: v for k, v in draw(
            _some_of(names_of(family), strategies)).items()}
        if family != default or draw(st.booleans()):
            config[prefix + "family"] = family
        return config
    return keys()


def _weight_names(family):
    return ("alpha", "beta", "lambda", "a", "beta1" if family == "V" else "b")


def _weight_keys(families=("M", "N", "V"), prefix="", default="M"):
    return _spec_keys(_weight_names, families, _valid, prefix, default)


_intertwine_configs = _one_junk(_merged(
    # the window is always given, small or malformed, so that no example
    # runs the search on the default window
    _some_of(("window", "expect_dimension"),
             {"window": _windows,
              "expect_dimension": st.integers(0, 2).map(str)},
             required=("window",)),
    # a side's keys are read only with its family
    *[st.one_of(st.just({}), _weight_keys(prefix=side, default=None))
      for side in ("a_", "b_")]))


def _assert_exit_contract(suite, config):
    """Run ``suite`` on ``config``: exit 0, 1 or 2, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([suite, "--config", str(path)])
    assert code in (0, 1, 2), (config, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error" in err.getvalue()
    else:
        # a run that exits 0 or 1 has read every key it was given
        assert "not read" not in err.getvalue()


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_intertwine_configs)
def test_intertwine_config_never_leaks_a_traceback(config):
    _assert_exit_contract("intertwine", config)


_free_families = st.lists(st.sampled_from(("gamma", "theta", "omega")),
                          min_size=1, max_size=3).map(",".join)
_short_lists = st.lists(_rational_texts, min_size=1, max_size=2).map(",".join)
_grid = {"lambda": st.lists(_nonzero_texts, min_size=1,
                            max_size=2).map(",".join),
         "a": _short_lists, "b": _short_lists,
         "beta1": st.lists(_rational_texts, max_size=3).map(",".join)}


@st.composite
def _verify_free_keys(draw):
    """Random specs, which read specs, or a grid, which reads lambda and b,
    a for gamma and theta, beta1 for omega, and not specs."""
    config = draw(_some_of(("families", "trials"), {
        "families": _free_families, "trials": st.integers(1, 3).map(str)}))
    families = config.get("families", "gamma,theta,omega").split(",")
    if draw(st.booleans()):
        # specs stays small so that no example checks many specs
        config.update(draw(_some_of(("specs",), {
            "specs": st.integers(1, 3).map(str)})))
        return config
    names = ["lambda", "b"]
    names += ["a"] if {"gamma", "theta"} & set(families) else []
    names += ["beta1"] if "omega" in families else []
    config.update(draw(_some_of(names, _grid,
                                required=(draw(st.sampled_from(names)),))))
    return config


_verify_free_configs = _one_junk(_verify_free_keys(),
                                 {"trials": _count_junk, "specs": _count_junk})


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_verify_free_configs)
def test_verify_free_config_never_leaks_a_traceback(config):
    _assert_exit_contract("verify-free", config)


# seeds of bidegree at most (2, 2), as the CLI prints them
_seed_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              st.fractions(min_value=-9, max_value=9,
                                           max_denominator=9),
                              max_size=4).map(lambda c: PolyHH(c).to_text())
_saturate_configs = _one_junk(_merged(
    # the cap is always given, from (2, 2) to (4, 4) or malformed, so that
    # every seed fits and no example saturates under the default (8, 8) cap
    _some_of(("cap", "seed_poly", "expect_one"), {
        "cap": st.tuples(st.integers(2, 4), st.integers(2, 4)).map(
            lambda c: f"{c[0]},{c[1]}"),
        "seed_poly": _seed_polys,
        "expect_one": st.sampled_from(("true", "false", "TRUE", "False"))},
        required=("cap",)),
    # omega reads beta1, gamma and theta read a
    _spec_keys(lambda family: ("lambda", "b",
                               "beta1" if family == "omega" else "a"),
               ("gamma", "theta", "omega"),
               {**_valid, "beta1": _grid["beta1"]}, default="gamma")))


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_saturate_configs)
def test_saturate_config_never_leaks_a_traceback(config):
    _assert_exit_contract("saturate", config)


_omega_quotient_configs = _one_junk(st.fixed_dictionaries(
    # n_max is always given, at most 4 or malformed (never the default 8)
    {"n_max": st.integers(0, 4).map(str)},
    optional={"lambda": _nonzero_texts,
              "beta1": st.lists(_rational_texts, max_size=3).map(",".join),
              "i": st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
                  lambda layers: ",".join(map(str, layers)))}),
    {"n_max": _count_junk})


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_omega_quotient_configs)
def test_omega_quotient_config_never_leaks_a_traceback(config):
    _assert_exit_contract("omega-quotient", config)


# inline text for nf words and saturate seeds: well-formed sums, and
# sequences of the tokens of the expression grammar, malformed ones
# included; every number token ends in a blank, so no two digits meet and
# every exponent stays within -3..3
_letters = ("e", "f", "h", "eb", "fb", "hb", "ebar", "fbar", "hbar")
_numbers = st.one_of(
    st.sampled_from(("0", "1/0")),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(str),
    st.integers(-2, 3).map("^{}".format))
_token_texts = st.lists(
    st.one_of(st.sampled_from(_letters + ("+", "-", "*", "^", " ")),
              _numbers.map("{} ".format)),
    max_size=10).map("".join)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(st.one_of(_token_texts, _sums(_letters)))
def test_nf_word_never_leaks_a_traceback(text):
    _assert_exit_contract("nf", {"word": text})


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(st.one_of(_token_texts, _sums(("h", "hb"))),
       st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_saturate_seed_never_leaks_a_traceback(text, cap):
    _assert_exit_contract("saturate", {"cap": f"{cap[0]},{cap[1]}",
                                       "seed_poly": text})


# -- the weight-module suites ---------------------------------------------------

_weight_families = st.lists(st.sampled_from(("M", "N", "V")), min_size=1,
                            max_size=3).map(",".join)


@st.composite
def _verify_weight_keys(draw):
    """Random specs, which read specs, or one spec per family, which reads
    b for M and N, beta1 for V, and not specs (nor family: the families
    key names them)."""
    # trials is always given, at most 3, and the window is small or
    # malformed
    config = draw(_some_of(("window", "trials", "families"), {
        "window": _windows, "trials": st.integers(1, 3).map(str),
        "families": _weight_families}, required=("window", "trials")))
    families = set(config.get("families", "M,N,V").split(","))
    if draw(st.booleans()):
        # specs is always given in random mode, at most 2, so that no
        # example checks many specs
        config["specs"] = draw(st.integers(1, 2).map(str))
        return config
    names = ["alpha", "beta", "lambda", "a"]
    names += ["b"] if families & {"M", "N"} else []
    names += ["beta1"] if "V" in families else []
    config.update(draw(_some_of(names, _valid,
                                required=(draw(st.sampled_from(names)),))))
    return config


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_one_junk(_verify_weight_keys(),
                 {"trials": _count_junk, "specs": _count_junk}))
def test_verify_weight_config_never_leaks_a_traceback(config):
    _assert_exit_contract("verify-weight", config)


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_one_junk(_merged(st.fixed_dictionaries({"window": _windows}),
                         _weight_keys())))
def test_singular_config_never_leaks_a_traceback(config):
    _assert_exit_contract("singular", config)


@st.composite
def _reducible_specs(draw):
    """All keys of an M or N spec on the reducible stratum of
    ``simplicity_criterion_weight``, and maybe its witness as ``hit``: for M,
    beta^2 + a = 0 and (alpha + 2j) beta + b = 0 at an integer j, with
    witness eta[j-1, 1]; N is M(-alpha, -beta) mirrored, k -> -k."""
    family = draw(st.sampled_from(("M", "N")))
    sign = 1 if family == "M" else -1
    alpha, beta = draw(_fractions), draw(_fractions.filter(bool))
    j = draw(st.integers(-2, 2))
    spec = {"family": family, "alpha": alpha, "beta": beta,
            "lambda": draw(_nonzero_texts), "a": -beta * beta,
            "b": -(sign * alpha + 2 * j) * sign * beta}
    if draw(st.booleans()):
        spec["hit"] = f"{sign * (j - 1)},1"
    return {key: str(value) for key, value in spec.items()}


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_one_junk(st.tuples(_reducible_specs(), st.fixed_dictionaries(
    {"depth": st.integers(0, 3).map(str)},
    optional={"window": _windows})).map(lambda t: {**t[0], **t[1]})))
def test_verma_check_config_never_leaks_a_traceback(config):
    _assert_exit_contract("verma-check", config)


# a scan that runs walks up to 521 grid points, so most examples name an
# unknown family and are refused before the scan
@settings(deadline=None, derandomize=True, database=None, max_examples=12)
@given(st.fixed_dictionaries(
    {"families": st.one_of(_junk, _weight_families)},
    optional={"format": st.sampled_from(("json", "csv", "xml"))}))
def test_scan_config_never_leaks_a_traceback(config):
    _assert_exit_contract("scan", config)


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_one_junk(_merged(
    _some_of(("window", "z"), {
        "window": _windows,
        "z": st.lists(_rational_texts, min_size=1, max_size=2).map(",".join)},
        required=("window",)),
    _weight_keys(families=("M",)))))
def test_twist_check_config_never_leaks_a_traceback(config):
    _assert_exit_contract("twist-check", config)


_kinds = st.lists(st.sampled_from(("lambda-rescale", "vm")),
                  min_size=1, max_size=2).map(",".join)


@st.composite
def _iso_check_keys(draw):
    """The keys each kind reads: the lambda rescaling an M or N spec and
    lambda2, the V to M check alpha, beta, lambda, a, beta1 and b_m."""
    config = draw(_some_of(("window", "kinds"), {
        "window": _windows, "kinds": _kinds}, required=("window",)))
    kinds = config.get("kinds", "lambda-rescale,vm").split(",")
    if "lambda-rescale" in kinds:
        config.update(draw(_weight_keys(families=("M", "N"))))
        config.update(draw(_some_of(("lambda2",),
                                    {"lambda2": _nonzero_texts})))
    if "vm" in kinds:
        config.update(draw(_some_of(_weight_names("V") + ("b_m",),
                                    {**_valid, "b_m": _rational_texts})))
    return config


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(_one_junk(_iso_check_keys()))
def test_iso_check_config_never_leaks_a_traceback(config):
    _assert_exit_contract("iso-check", config)
