"""End-to-end tests for the takiff-rep command line interface."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from takiffrep import cli, freemod
from takiffrep.algebra import check_theta_automorphism
from takiffrep.cli import main
from takiffrep.poly import PolyHH
from takiffrep.scan import SCAN_CSV_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_nf_suite(capsys):
    code, doc = run_json(capsys, "nf", "e*f - f*e")
    assert code == 0
    assert doc["schema"] == "1"
    assert doc["suite"] == "nf"
    assert doc["aggregate"] == "pass"
    case = doc["cases"][0]
    assert case["normal_form"] == "1*eb^0*fb^0*f^0*hb^0*h^1*e^0"
    assert case["idempotent"] is True


def test_nf_default_words(capsys):
    code, doc = run_json(capsys, "nf")
    assert code == 0
    assert len(doc["cases"]) >= 3


def test_verify_free_grid(capsys, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("families=gamma\nlambda=1,2\na=0\nb=0,1\ntrials=5\n")
    code, doc = run_json(capsys, "verify-free", "--config", str(cfg))
    assert code == 0
    assert len(doc["cases"]) == 4
    for case in doc["cases"]:
        assert case["pass"] is True
        assert len(case["pairs"]) == 15
        assert case["trials"] == 5


def test_verify_free_random_default(capsys, tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("families=omega\nspecs=2\ntrials=3\n")
    code, doc = run_json(capsys, "verify-free", "--config", str(cfg))
    assert code == 0
    assert len(doc["cases"]) == 2


def test_saturate_inline_seed(capsys):
    code, doc = run_json(capsys, "saturate", "h")
    assert code == 0
    case = doc["cases"][0]
    assert case["contains_one"] is True
    assert case["seed_poly"] == "1*h^1"


def test_saturate_expectation_failure(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("family=omega\nlambda=1\nb=0\nbeta1=1\nexpect_one=true\n")
    code, doc = run_json(capsys, "saturate", "hb", "--config", str(cfg))
    assert code == 1
    assert doc["aggregate"] == "fail"


def test_omega_quotient(capsys):
    code, doc = run_json(capsys, "omega-quotient")
    assert code == 0
    assert [c["i"] for c in doc["cases"]] == [0, 1, 2, 3]
    assert all(c["pass"] for c in doc["cases"])


def _below_zero_blamed_on(capsys, tmp_path, suite, config, key):
    cfg = tmp_path / "blame.cfg"
    cfg.write_text(config)
    assert main([suite, "--config", str(cfg)]) == 2, config
    err = capsys.readouterr().err
    assert err.startswith(f"takiff-rep: error: config key {key!r}: "
                          "must be at least 0"), err


def test_omega_quotient_blames_a_negative_layer_on_i(capsys, tmp_path):
    for config in ("i=-1\n", "i=0,2,-3\n"):
        _below_zero_blamed_on(capsys, tmp_path, "omega-quotient", config, "i")


def test_saturate_blames_a_negative_cap_on_cap(capsys, tmp_path):
    for config in ("cap=8,-1\n", "cap=-1,8\n"):
        _below_zero_blamed_on(capsys, tmp_path, "saturate", config, "cap")
    # a zero cap is still a check: the constant seed fits it
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("cap=0,0\nexpect_one=true\n")
    assert main(["saturate", "1", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["cases"][0]["cap"] == [0, 0]


def test_verify_weight(capsys, tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("families=M\nalpha=0\nbeta=1\nlambda=1\na=2\nb=1/3\n"
                   "trials=10\n")
    code, doc = run_json(capsys, "verify-weight", "--config", str(cfg),
                         "--window=-3:3:4")
    assert code == 0
    case = doc["cases"][0]
    assert case["dual_ok"] and case["bracket_ok"]


@pytest.mark.parametrize("key", ["alpha", "beta", "lambda", "a", "b",
                                 "beta1"])
def test_verify_weight_any_parameter_is_explicit(capsys, tmp_path, key):
    # one spec per family from the config, the other keys at their
    # defaults, instead of `specs` random specs
    cfg = tmp_path / "w.cfg"
    cfg.write_text(f"families=M,V\n{key}=3\ntrials=2\n")
    code, doc = run_json(capsys, "verify-weight", "--config", str(cfg),
                         "--window=-1:1:2")
    assert code == 0
    defaults = {"alpha": "0/1", "beta": "1/1", "lambda": "1/1", "a": "-1/1"}
    want = {"M": {**defaults, "b": "-2/1", "family": "M"},
            "V": {**defaults, "beta1": ["1/1", "1/1"], "family": "V"}}
    for params in want.values():
        if key in params:
            params[key] = ["3/1"] if key == "beta1" else "3/1"
    assert [c["params"] for c in doc["cases"]] == [want["M"], want["V"]]


def test_singular_default_and_window_flag(capsys):
    code, doc = run_json(capsys, "singular", "--window", "-2:2:3")
    assert code == 0
    assert doc["config"]["window"] == "-2:2:3"
    case = doc["cases"][0]
    assert case["criterion_simple"] is False
    assert case["witness"] == [0, 1]
    assert case["hits"][0]["killed_by"] == ["f", "fb"]


def test_singular_witness_outside_window(capsys, tmp_path):
    # the criterion puts the witness at eta[6,1], beyond the default window
    cfg = tmp_path / "v.cfg"
    cfg.write_text("family=V\nbeta=1\na=1\nbeta1=1,2,3\n")
    assert main(["singular", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "eta[6,1]" in err and "-5:5:5" in err
    code, doc = run_json(capsys, "singular", "--config", str(cfg),
                         "--window=-5:8:5")
    assert code == 0
    case = doc["cases"][0]
    assert case["witness"] == [6, 1]
    assert case["pass"] is True


def test_verma_check_suite(capsys):
    code, doc = run_json(capsys, "verma-check")
    assert code == 0
    case = doc["cases"][0]
    assert case["depth_dims"] == [1, 2, 3, 4, 5]
    assert case["pass"] is True


def test_verma_check_blames_depth_and_hit_on_their_keys(capsys, tmp_path):
    cfg = tmp_path / "verma.cfg"
    for config, key in (("depth=-1\n", "depth"), ("hit=0,0\n", "hit"),
                        ("hit=6,-2\n", "hit")):
        cfg.write_text(config)
        assert main(["verma-check", "--config", str(cfg)]) == 2, config
        assert f"config key {key!r}" in capsys.readouterr().err, config
    # depth 0 is the window of the hit column alone, still a check
    cfg.write_text("depth=0\n")
    assert main(["verma-check", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["cases"][0]["pass"] is True


def test_verma_check_blames_a_non_singular_hit_on_its_key(capsys, tmp_path):
    cfg = tmp_path / "verma.cfg"
    cfg.write_text("hit=1,1\n")
    assert main(["verma-check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("takiff-rep: error: config key 'hit': "), err
    assert "not singular" in err


def test_verma_check_names_the_barred_witness_and_asks_for_a_hit(capsys,
                                                                 tmp_path):
    # V at beta = a = 0: the criterion's witness eta_{0,1} is killed only by
    # (eb, fb), so the suite cannot grow a Verma submodule from it
    cfg = tmp_path / "verma.cfg"
    cfg.write_text("family=V\nbeta=0\na=0\n")
    assert main(["verma-check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "killed only by the barred pair (eb, fb)" in err, err
    assert "give hit=K,S explicitly" in err, err
    # a hit that (f, fb) kills at the same point is checked, and reported
    cfg.write_text("family=V\nbeta=0\na=0\nhit=1,1\n")
    assert main(["verma-check", "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().out)["cases"][0]["direction"] == -1


def test_scan_csv_columns_and_json_agreement(capsys):
    code, csv_text = run_cli(capsys, "scan", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert list(rows[0].keys()) == SCAN_CSV_COLUMNS

    code, doc = run_json(capsys, "scan")
    assert code == 0
    assert len(doc["cases"]) == len(rows)
    assert len(rows) >= 500
    for case, row in zip(doc["cases"], rows):
        assert row["family"] == case["family"]
        assert row["params"] == case["params"]
        assert row["simple?"] == ("true" if case["simple?"] else "false")
        assert row["witness_k"] == str(case["witness_k"])
        assert row["witness_s"] == str(case["witness_s"])


def test_twist_check(capsys):
    code, doc = run_json(capsys, "twist-check", "--window=-2:2:3")
    assert code == 0
    assert [c["z"] for c in doc["cases"]] == ["1/1", "-2/1", "1/2"]
    for case in doc["cases"]:
        assert case["automorphism_ok"] and case["intertwines"]
        assert case["inverse_ok"]


def test_twist_check_proves_the_automorphism_once(capsys, monkeypatch):
    # the automorphism verdict holds for every z, so a report with three z
    # values proves it once and still writes the golden bytes
    calls = []

    def counting(z):
        calls.append(z)
        return check_theta_automorphism(z)

    monkeypatch.setattr(cli, "check_theta_automorphism", counting)
    code, out = run_cli(capsys, "twist-check")
    assert code == 0
    assert len(calls) == 1
    assert out == (GOLDEN / "twist_check_default.json").read_text(
        encoding="utf-8")


def test_iso_check(capsys):
    code, doc = run_json(capsys, "iso-check", "--window=-2:2:3")
    assert code == 0
    kinds = {c["kind"]: c for c in doc["cases"]}
    assert kinds["lambda-rescale"]["intertwines"]
    assert kinds["vm"]["intertwines"]
    assert kinds["vm"]["details"]["p_identity_ok"] is True


def test_iso_check_wrong_b_fails(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kinds=vm\nb_m=-5\n")
    code, doc = run_json(capsys, "iso-check", "--config", str(cfg),
                         "--window=-2:2:3")
    assert code == 1
    assert doc["cases"][0]["intertwines"] is False


def test_intertwine_default(capsys):
    code, doc = run_json(capsys, "intertwine", "--window=-3:3:3")
    assert code == 0
    case = doc["cases"][0]
    assert case["intertwines"] is True
    assert case["dimension"] == 1
    assert case["verified"] is True


def test_intertwine_explicit_specs(capsys, tmp_path):
    cfg = tmp_path / "i.cfg"
    cfg.write_text(
        "a_family=M\na_alpha=0\na_beta=1\na_lambda=1\na_a=3\na_b=1/2\n"
        "b_family=M\nb_alpha=2\nb_beta=1\nb_lambda=1\nb_a=3\nb_b=1/2\n"
        "expect_dimension=1\n")
    code, doc = run_json(capsys, "intertwine", "--config", str(cfg),
                         "--window=-3:3:3")
    assert code == 0
    assert doc["cases"][0]["dimension"] == 1


def test_intertwine_refuses_a_negative_expect_dimension(capsys, tmp_path):
    # no space has dimension -1, so the key is a config error, not a fail
    cfg = tmp_path / "i.cfg"
    cfg.write_text("expect_dimension=-1\n")
    assert main(["intertwine", "--config", str(cfg), "--window=0:0:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config key 'expect_dimension': must be at least 0" in captured.err


def test_iso_check_names_the_keys_of_the_beta_plus_a_wall(capsys, tmp_path):
    cfg = tmp_path / "vm.cfg"
    cfg.write_text("kinds=vm\nbeta=-1\na=1\n")
    assert main(["iso-check", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("config keys 'beta' and 'a': the explicit map needs "
            "beta + a != 0") in captured.err


def test_intertwine_refuses_a_prefixed_key_without_its_family(capsys,
                                                              tmp_path):
    # without a_family no a_* key is read, so running the default spec
    # would report it under a config that names other parameters
    cfg = tmp_path / "i.cfg"
    for config, key in (("a_beta=2\nb_beta=2\n", "a_beta"),
                        ("a_family=M\nb_lambda=2\n", "b_lambda")):
        cfg.write_text(config)
        assert main(["intertwine", "--config", str(cfg)]) == 2, config
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config key {key!r}" in captured.err, config


# -- every config key and inline word a run is given is read -----------------

def _refused(capsys, argv, *named):
    """``argv`` exits 2 with nothing on stdout and each of ``named`` on
    stderr."""
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    for text in named:
        assert text in captured.err, (argv, captured.err)


@pytest.mark.parametrize("suite", cli.SUITES)
def test_every_suite_refuses_a_misspelt_key(capsys, tmp_path, suite):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("alpah=2\nwindow=0:0:1\n")
    _refused(capsys, [suite, "--config", str(cfg)],
             f"config key 'alpah': not read by {suite}")


def test_a_repeated_key_is_refused_with_both_lines(capsys, tmp_path):
    # the last line used to win silently: this ran at lambda = 2, exit 0
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("lambda=1\n# lambda again\n\nwindow=0:0:1\nlambda=2\n")
    _refused(capsys, ["twist-check", "--config", str(cfg)],
             f"{cfg}:5: config key 'lambda' already set on line 1")


@pytest.mark.parametrize("suite, config, key", [
    ("iso-check", "kinds=lambda-rescale\nb_m=5\n", "b_m"),
    ("iso-check", "kinds=vm\nlambda2=2\n", "lambda2"),
    ("iso-check", "kinds=vm\nfamily=N\n", "family"),
    ("verify-weight", "families=M\nbeta1=1\n", "beta1"),
    ("verify-weight", "families=M\nfamily=N\n", "family"),
    ("saturate", "family=omega\na=1\n", "a"),
    ("saturate", "family=gamma\nbeta1=1\n", "beta1"),
    ("singular", "family=V\nb=1\n", "b"),
    # specs is read in random mode only
    ("verify-free", "families=gamma\nlambda=1,2\nspecs=2\n", "specs"),
    ("verify-free", "families=gamma\nlambda=1\nspecs=0\n", "specs"),
    ("verify-weight", "families=M\nalpha=1\nspecs=2\n", "specs"),
    # a side's keys are read only with its family
    ("intertwine", "a_beta=2\nb_beta=2\n", "a_beta"),
])
def test_keys_that_the_mode_ignores_are_refused(capsys, tmp_path, suite,
                                                config, key):
    cfg = tmp_path / "mode.cfg"
    cfg.write_text(config + "window=0:0:1\n")
    _refused(capsys, [suite, "--config", str(cfg)], f"config key {key!r}")


@pytest.mark.parametrize("suite, config, expected", [
    ("iso-check", "family=V\nkinds=lambda-rescale\n", "M, N"),
    ("twist-check", "family=N\n", "expected one of M"),
])
def test_a_family_the_suite_does_not_run_on_names_its_key(
        capsys, tmp_path, suite, config, expected):
    cfg = tmp_path / "family.cfg"
    cfg.write_text(config)
    _refused(capsys, [suite, "--config", str(cfg)],
             "config key 'family'", expected)


@pytest.mark.parametrize("suite", [s for s in cli.SUITES
                                   if s not in ("nf", "saturate")])
def test_suites_without_inline_input_refuse_words(capsys, suite):
    _refused(capsys, [suite, "gamma", "extra"],
             f"inline input 'gamma extra': not read by {suite}")


def test_saturate_refuses_a_second_seed(capsys):
    _refused(capsys, ["saturate", "h", "hb"],
             "inline input 'hb': not read by saturate")


def test_flags_and_inline_input_override_keys_that_count_as_read(capsys,
                                                                 tmp_path):
    cfg = tmp_path / "c.cfg"
    unused = tmp_path / "unused.csv"
    cfg.write_text(f"seed=5\nwindow=0:0:1\nformat=csv\nout={unused}\n"
                   "word=e*f\n")
    target = tmp_path / "r.json"
    assert main(["nf", "h", "--config", str(cfg), "--seed", "9",
                 "--window=-1:1:2", "--format", "json",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == "" and not unused.exists()
    doc = json.loads(target.read_text())
    assert (doc["config"]["seed"], doc["config"]["window"]) == (9, "-1:1:2")
    assert [case["input"] for case in doc["cases"]] == ["h"]
    cfg.write_text("seed_poly=hb\n")
    code, doc = run_json(capsys, "saturate", "h", "--config", str(cfg))
    assert code == 0 and doc["cases"][0]["seed_poly"] == "1*h^1"


@pytest.mark.parametrize("argv, config, key", [
    (["nf", "h"], "word=e*\n", "word"),
    (["saturate", "h"], "seed_poly=h^\n", "seed_poly"),
    (["nf", "--seed", "3"], "seed=x\n", "seed"),
    (["nf", "--window=0:0:1"], "window=0\n", "window"),
])
def test_an_overridden_key_is_still_parsed(capsys, tmp_path, argv, config,
                                           key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    _refused(capsys, argv + ["--config", str(cfg)], f"config key {key!r}")


# for each suite and mode, every key that the README lists for it
_COMMON = "seed=1\nwindow=-1:1:2\nformat=json\n"
COMPLETE_CONFIGS = [
    ("nf", "word=e*f\n"),
    ("verify-free", "families=gamma,omega\ntrials=2\nspecs=1\n"),
    ("verify-free", "families=gamma,omega\ntrials=2\nlambda=1\na=0\nb=0\n"
                    "beta1=1\n"),
    ("saturate", "family=theta\nlambda=1\na=0\nb=1\nseed_poly=h\ncap=2,2\n"
                 "expect_one=true\n"),
    ("saturate", "family=omega\nlambda=1\nb=0\nbeta1=1\nseed_poly=hb\n"
                 "cap=2,2\nexpect_one=false\n"),
    ("omega-quotient", "lambda=2\nbeta1=1,2\ni=0,3\nn_max=2\n"),
    ("verify-weight", "families=M,V\ntrials=2\nspecs=1\n"),
    ("verify-weight", "families=M,V\ntrials=2\nalpha=0\nbeta=1\nlambda=1\n"
                      "a=2\nb=1/3\nbeta1=1\n"),
    ("singular", "family=N\nalpha=0\nbeta=1\nlambda=1\na=-1\nb=2\n"),
    ("singular", "family=V\nalpha=0\nbeta=1\nlambda=1\na=2\nbeta1=1,1\n"),
    ("verma-check", "family=M\nalpha=0\nbeta=1\nlambda=1\na=-1\nb=-2\n"
                    "depth=2\nhit=0,1\n"),
    ("scan", "families=V\n"),
    ("twist-check", "family=M\nalpha=0\nbeta=1\nlambda=1\na=-1\nb=-2\nz=1\n"),
    ("iso-check", "kinds=lambda-rescale,vm\nfamily=M\nalpha=0\nbeta=1\n"
                  "lambda=1\na=1\nb=-2\nbeta1=1,1\nlambda2=3\nb_m=-8\n"),
    ("intertwine", "a_family=M\na_alpha=0\na_beta=1\na_lambda=1\na_a=3\n"
                   "a_b=1/2\nb_family=V\nb_alpha=0\nb_beta=1\nb_lambda=1\n"
                   "b_a=3\nb_beta1=1\nexpect_dimension=0\n"),
]


@pytest.mark.parametrize("suite, config", COMPLETE_CONFIGS)
def test_a_config_of_every_listed_key_is_read_whole(capsys, tmp_path, suite,
                                                    config):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(config + _COMMON + f"out={tmp_path / 'r.out'}\n")
    assert main([suite, "--config", str(cfg)]) in (0, 1), config
    assert "error" not in capsys.readouterr().err


def test_omega_quotient_fails_on_a_moved_delta_parameter(capsys, tmp_path,
                                                          monkeypatch):
    # a Delta parameter moved by one at the listed layer 5 fails that layer
    real = freemod.omega_quotient_delta_params
    cfg = tmp_path / "oq.cfg"
    cfg.write_text("lambda=2\nbeta1=1,3\ni=0,5,9\nn_max=0\n")
    for move in ((1, 0), (0, 1), (0, -1)):
        def moved(spec, i, move=move):
            d_lam, d_a = real(spec, i)
            return (d_lam + move[0], d_a + move[1]) if i == 5 else (d_lam, d_a)
        monkeypatch.setattr(freemod, "omega_quotient_delta_params", moved)
        code, doc = run_json(capsys, "omega-quotient", "--config", str(cfg))
        assert code == 1, move
        assert [case["pass"] for case in doc["cases"]] == [True, False, True]


def test_omega_quotient_fails_on_a_constant_term_in_eb(capsys, tmp_path,
                                                       monkeypatch):
    # at b = 0 eb, fb and hb act by zero on every layer; a constant term
    # added to one of them acts on each layer by that constant
    real = freemod._ops_of
    cfg = tmp_path / "oq.cfg"
    cfg.write_text("lambda=2\nbeta1=1,3\ni=0,5,9\nn_max=0\n")
    for x in ("eb", "fb", "hb"):
        def planted(spec, x=x):
            ops = real(spec)
            (c, m), = ops[x]
            return {**ops, x: ((c + PolyHH.const(1), m),)}
        monkeypatch.setattr(freemod, "_ops_of", planted)
        code, doc = run_json(capsys, "omega-quotient", "--config", str(cfg))
        assert code == 1, x
        assert [case["pass"] for case in doc["cases"]] == [False] * 3


def test_seed_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed=5\n")
    code, doc = run_json(capsys, "nf", "h", "--config", str(cfg), "--seed", "9")
    assert doc["config"]["seed"] == 9


def test_determinism_byte_identical(capsys):
    _, out1 = run_cli(capsys, "verify-free", "--seed", "3")
    _, out2 = run_cli(capsys, "verify-free", "--seed", "3")
    assert out1 == out2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "nf", "h*e", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["suite"] == "nf"


def test_malformed_config_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    for suite, config in (("nf", "this line has no equals sign\n"),
                          ("saturate", "cap=8\n"),
                          ("verma-check", "hit=1\n"),
                          ("saturate", "lambda=1/0\n"),
                          ("saturate", "expect_one=maybe\n"),
                          # verify-free's trials is echoed only; it is
                          # validated for compatibility
                          ("verify-free", "families=gamma\ntrials=0\nspecs=1\n"),
                          # inputs that would check nothing
                          ("verify-free", "families=gamma\nspecs=0\n"),
                          ("verify-weight", "families=M\nspecs=0\n"),
                          ("verify-weight", "families=M\ntrials=0\n"),
                          ("iso-check", "kinds=nothing\n"),
                          ("iso-check", "kinds=vm,nothing\n"),
                          ("scan", "families=X\n"),
                          ("twist-check", "z=\n"),
                          ("omega-quotient", "n_max=-1\n"),
                          # a report that cannot be rendered or written
                          ("nf", "format=xml\n"),
                          ("nf", f"out={tmp_path / 'missing' / 'r.json'}\n"),
                          ("nf", f"out={tmp_path}\n")):
        cfg.write_text(config)
        assert main([suite, "--config", str(cfg)]) == 2, config
        assert "error:" in capsys.readouterr().err
    assert main(["nf", "h", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "takiff-rep: error:" in err and "Traceback" not in err
    # an explicit but empty grid would check nothing; it is blamed on its key
    for key in ("lambda", "a", "b"):
        cfg.write_text(f"families=gamma\n{key}=\n")
        assert main(["verify-free", "--config", str(cfg)]) == 2, key
        assert f"config key {key!r}" in capsys.readouterr().err
    # a bad lambda2 is blamed on lambda2, not on lambda
    cfg.write_text("kinds=lambda-rescale\nlambda2=1/0\n")
    assert main(["iso-check", "--config", str(cfg)]) == 2
    assert "config key 'lambda2'" in capsys.readouterr().err
    # expect_one reads true or false in any case, and nothing else
    cfg.write_text("expect_one=maybe\n")
    assert main(["saturate", "--config", str(cfg)]) == 2
    assert "config key 'expect_one'" in capsys.readouterr().err
    for value, code in (("TRUE", 0), ("False", 1)):
        cfg.write_text(f"expect_one={value}\n")
        assert main(["saturate", "--config", str(cfg)]) == code, value
        capsys.readouterr()
    # a bad expression or family name in the config is blamed on its key
    for suite, key, value in (("saturate", "seed_poly", "h^"),
                              ("nf", "word", "e^"),
                              ("saturate", "family", "X"),
                              ("singular", "family", "M,N"),
                              ("verify-free", "families", "gamma,X"),
                              ("verify-weight", "families", "M,X"),
                              ("scan", "families", "M,X"),
                              ("intertwine", "a_family", "X"),
                              ("intertwine", "b_family", "X")):
        cfg.write_text(f"{key}={value}\n")
        assert main([suite, "--config", str(cfg)]) == 2, (suite, key)
        assert f"config key {key!r}" in capsys.readouterr().err, (suite, key)
    # a zero lambda is blamed on its key too
    for suite, config, key in (
            ("saturate", "lambda=0\n", "lambda"),
            ("omega-quotient", "lambda=0\n", "lambda"),
            ("twist-check", "lambda=0\n", "lambda"),
            ("verify-free", "families=gamma\nlambda=1,0\n", "lambda"),
            ("iso-check", "kinds=lambda-rescale\nlambda2=0\n", "lambda2"),
            ("intertwine", "a_family=M\na_lambda=0\n", "a_lambda")):
        cfg.write_text(config)
        assert main([suite, "--config", str(cfg)]) == 2, config
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and "must be nonzero" in err, err
    # a zero denominator in inline input is a usage error too; inline
    # input has no key to name
    for argv in (["nf", "1/0*e"], ["saturate", "1/0*h"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "zero denominator" in err and "config key" not in err
    # so are a dangling exponent and a sign with no term after it
    for text, message in (("e^", "exponent missing"),
                          ("e^ ", "exponent missing"),
                          ("-", "no term"), ("+", "no term"),
                          ("e -", "no term")):
        assert main(["nf", text]) == 2, text
        assert message in capsys.readouterr().err, text


def test_empty_list_entry_is_usage_error(capsys, tmp_path):
    # '1,,2' would otherwise read as (1, 2): beta1 = 1 + 2 hbar, and two
    # twists where three were written
    cfg = tmp_path / "list.cfg"
    for suite, config, key in (
            ("saturate", "family=omega\nbeta1=1,,2\n", "beta1"),
            ("verify-weight", "families=V\nbeta1=1,,2\n", "beta1"),
            ("twist-check", "z=1,,2\n", "z"),
            ("twist-check", "z=1,2,\n", "z"),
            ("verify-free", "families=gamma\nlambda=1,,2\n", "lambda"),
            ("verify-free", "families=gamma\nlambda=,1\n", "lambda")):
        cfg.write_text(config)
        assert main([suite, "--config", str(cfg)]) == 2, config
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and "empty entry" in err, err
    # a blank list is still the empty list
    cfg.write_text("family=omega\nbeta1=\n")
    assert main(["saturate", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["cases"][0]["params"][
        "beta1"] == []


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "takiffrep.cli", "nf", "f*e"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["aggregate"] == "pass"
    # timing goes to stderr, never into the payload
    assert "elapsed" in proc.stderr
    assert "elapsed" not in proc.stdout


# Reports saved while Theta and N still had their own hand-written action
# formulas; deriving them from Gamma and M must not change a byte.
GOLDEN = Path(__file__).parent / "golden"
_FRACTIONAL = "alpha=1/3\nbeta=3/5\nlambda=2/3\na=-9/25\nb=-7/4\n"
GOLDEN_CASES = [
    ("verify_free_theta.json", "verify-free",
     "families=theta\ntrials=5\nspecs=4\n"),
    # saved while verify_axioms still composed (d, m) -> PolyHH tables
    ("verify_free_gamma_omega.json", "verify-free",
     "families=gamma,omega\nspecs=3\ntrials=5\n"),
    ("saturate_theta.json", "saturate", "family=theta\ncap=5,5\n"),
    ("singular_n.json", "singular", "family=N\n"),
    ("intertwine_default.json", "intertwine", None),
    ("iso_check_n.json", "iso-check", "family=N\nkinds=lambda-rescale\n"),
    # saved while nullspace, act_weight and the map checks each still had
    # two or more code paths
    ("twist_check_default.json", "twist-check", None),
    ("iso_check_vm.json", "iso-check", "kinds=vm\n"),
    ("verify_weight_mnv.json", "verify-weight",
     "families=M,N,V\nspecs=1\ntrials=10\n"),
    ("scan_v.csv", "scan", "families=V\nformat=csv\n"),
    # saved while saturation still computed over Fractions
    ("saturate_omega_b0.json", "saturate",
     "family=omega\nb=0\nbeta1=1,1/2\nseed_poly=hb\n"),
    # saved while every word was straightened by bubbling it whole
    ("nf_long.json", "nf", "word=e^2*fb*f^3*hb*h^2*eb^-2*e*f\n"),
    # saved while the intertwiner search still computed over Fractions; the
    # one map it finds fails a relaxed component, so the verdict is fail
    ("intertwine_unverified.json", "intertwine",
     "a_family=V\na_alpha=2\na_beta=1\na_lambda=2\na_a=1\na_beta1=1/2\n"
     "b_family=V\nb_alpha=4\nb_beta=1\nb_lambda=-1\nb_a=-1\nb_beta1=-3/2\n"
     "window=-1:1:1\n"),
    # saved while the intertwiner search still solved for every entry
    # (k, s_in, s_out): a space of dimension 3 on one column, and the empty
    # space of a beta mismatch with its codomain window
    ("intertwine_commutant.json", "intertwine",
     "a_family=M\na_alpha=0\na_beta=0\na_lambda=1\na_a=0\na_b=0\n"
     "b_family=M\nb_alpha=0\nb_beta=0\nb_lambda=1\nb_a=0\nb_b=0\n"
     "window=0:0:3\n"),
    ("intertwine_beta_mismatch.json", "intertwine",
     "a_family=M\na_beta=1\nb_family=M\nb_beta=2\nexpect_dimension=0\n"),
    # saved while the intertwiner search still re-eliminated its kernel
    # for the reported basis and every rank was eliminated: on 0:0:3 the
    # first of three maps has rank 1, so the basis order sets the bytes
    ("intertwine_window_0_0_3.json", "intertwine", "window=0:0:3\n"),
    ("intertwine_commutant_wide.json", "intertwine",
     "a_family=M\na_alpha=0\na_beta=0\na_lambda=1\na_a=0\na_b=0\n"
     "b_family=M\nb_alpha=0\nb_beta=0\nb_lambda=1\nb_a=0\nb_b=0\n"
     "window=-3:3:5\n"),
    ("iso_check_vm_wrong_b.json", "iso-check", "kinds=vm\nb_m=5\n"),
    ("iso_check_window_0_0_1.json", "iso-check", "window=0:0:1\n"),
    # saved while each suite still read its config keys in its own way: a
    # spec whose every parameter is fractional, the twist at fractional z,
    # the rescaling on N, V with a cubic beta1, and the Verma character on
    # N, on both V walls and at depth 16
    ("twist_check_fractional.json", "twist-check", _FRACTIONAL),
    ("iso_check_fractional.json", "iso-check", _FRACTIONAL),
    ("verify_weight_fractional.json", "verify-weight", _FRACTIONAL),
    ("twist_check_fractional_z.json", "twist-check",
     _FRACTIONAL + "z=1/3,-5/2,4\n"),
    ("iso_check_n_rescale.json", "iso-check",
     "family=N\nalpha=1/2\nbeta=2/3\nlambda=-3/2\na=5/7\nb=1/4\n"
     "kinds=lambda-rescale\nlambda2=-7/5\n"),
    ("verify_weight_v_beta1_cubic.json", "verify-weight",
     "alpha=1/2\nbeta=2/3\nlambda=-3/2\na=5/7\nbeta1=1,-2,3/4,5\n"),
    ("verma_check_n.json", "verma-check", "family=N\nb=2\n"),
    ("verma_check_v_plus.json", "verma-check",
     "family=V\nbeta=1\na=1\nbeta1=0\n"),
    ("verma_check_v_minus.json", "verma-check",
     "family=V\nbeta=-1\na=1\nbeta1=1\n"),
    ("verma_check_depth16.json", "verma-check", "depth=16\n"),
    # saved while vm_iso_check still probed every window functional: the
    # defaults, a wide and a one-column window, and a fractional V whose
    # M side is off its matched b, on the window -2:9:2
    ("iso_check_default.json", "iso-check", None),
    ("iso_check_window_m8_8_6.json", "iso-check", "window=-8:8:6\n"),
    ("twist_check_window_m8_8_6.json", "twist-check", "window=-8:8:6\n"),
    ("twist_check_window_0_0_1.json", "twist-check", "window=0:0:1\n"),
    ("iso_check_vm_fractional_wrong_b.json", "iso-check",
     "kinds=vm\nalpha=7\nbeta=-2/3\nlambda=-3/2\na=5/7\nbeta1=1,-2,3/4\n"
     "b_m=1/9\nwindow=-2:9:2\n"),
    # saved while each suite still read its modules through a reader of
    # its own: every console-script run of CI that had no golden case, a
    # verify-free grid over all three free families, and an omega
    # saturation at b != 0; a command carries the inline words that a
    # config cannot express
    ("nf_default.json", "nf", None),
    ("nf_inline_words.json", "nf h*eb^-1 f*eb^-1 eb*eb^-1", None),
    ("verify_free_default.json", "verify-free", None),
    ("verify_free_seed_20221114.json", "verify-free", "seed=20221114\n"),
    ("verify_weight_default.json", "verify-weight", None),
    ("verify_weight_seed_20221114.json", "verify-weight", "seed=20221114\n"),
    ("verify_weight_window_0_0_1.json", "verify-weight", "window=0:0:1\n"),
    ("saturate_default.json", "saturate", None),
    ("omega_quotient_default.json", "omega-quotient", None),
    ("singular_default.json", "singular", None),
    ("singular_window_m6_6_6.json", "singular", "window=-6:6:6\n"),
    ("verma_check_default.json", "verma-check", None),
    ("scan_default.json", "scan", None),
    ("verify_free_grid.json", "verify-free",
     "families=gamma,theta,omega\nlambda=1,-2/3\na=0,5\nb=1/2\nbeta1=1,2\n"),
    ("saturate_omega_b2.json", "saturate",
     "family=omega\nlambda=-3/2\nb=2\nbeta1=1,1/2\nseed_poly=hb\ncap=3,3\n"),
    # saved while each params() still listed its family's fields itself:
    # the CSV cells print params in insertion order
    ("verify_weight_default.csv", "verify-weight", "format=csv\n"),
    ("verify_free_grid.csv", "verify-free",
     "families=gamma,theta,omega\nlambda=1,-2/3\na=0,5\nb=1/2\nbeta1=1,2\n"
     "format=csv\n"),
    # saved while ks_residuals still composed its (k, s) tables in
    # monomials in s: omega with beta1 of degree 4, whose r = 4 terms are
    # the largest the prover composes, at fractional lambda and b
    ("verify_free_omega_beta1_quartic.json", "verify-free",
     "families=omega\nlambda=-3/2\nb=2/5\nbeta1=1,-2,3/4,5,-1/3\n"),
    # saved while omega-quotient still compared only e, f and h: layers
    # 0, 4 and 7 at fractional lambda, beta1 of degree 2
    ("omega_quotient_layers_0_4_7.json", "omega-quotient",
     "lambda=-3/2\nbeta1=1,-2,3/4\ni=0,4,7\n"),
    # saved while the intertwiner search still re-applied every map on
    # every interior probe to verify it: N -> M at beta = a = b = 0 on
    # 0:1:2, a space of dimension 2 whose maps both fail an eb probe
    # outside the codomain window, so the verdict is fail
    ("intertwine_n_to_m_relaxed_0_1_2.json", "intertwine",
     "a_family=N\na_alpha=0\na_beta=0\na_lambda=1\na_a=0\na_b=0\n"
     "b_family=M\nb_alpha=0\nb_beta=0\nb_lambda=1\nb_a=0\nb_b=0\n"
     "window=0:1:2\n"),
    # saved while unit_images still applied each adjoint entry to every
    # window index on its own: V at beta = a = 0, where the barred pair
    # eb, fb kills eta_{k,1} on every column
    ("singular_v_beta_a_zero.json", "singular --window=-2:2:3",
     "family=V\nbeta=0\na=0\nbeta1=1,2\n"),
    # saved while every adjoint table was still a tuple of terms (m, r, c0,
    # c1): M at a beta whose denominator is 3, so that the hbar + beta
    # certificate is rescaled by q = 3; the hit (0, 1) is the witness of
    # beta^2 + a = 0 and alpha_1 beta + b = 0
    ("verma_check_fractional.json", "verma-check",
     "family=M\nalpha=1/3\nbeta=2/3\nlambda=-3/2\na=-4/9\nb=-14/9\n"),
    # saved while chevalley still built each coefficient through the
    # coercing PolyHH constructor and adjoint_table still added every r at
    # beta = 0: theta at fractional lambda, a and b, proved and saturated
    ("verify_free_theta_fractional.json", "verify-free",
     "families=theta\nlambda=-3/2,2/3\na=-9/25\nb=-7/4\n"),
    ("saturate_theta_fractional.json", "saturate",
     "family=theta\nlambda=2/3\na=-9/25\nb=-7/4\ncap=4,4\n"),
    # saved while a letter was still inserted into a monomial by bubbling
    # it past one letter at a time: words with long blocks of one letter,
    # eb^-k among them
    ("nf_blocks.json", "nf e*f^9*eb^-4*hb^3*h^2 h^2*f^3*eb^7*fb^2*e "
     "e^3*hb^5*f^2*eb^-3 f^2*eb^-12*hb^2*e^2 e^2*h*f^6*fb^3*eb^5", None),
]
# the exit status of each golden run: 0 unless listed here
GOLDEN_EXIT = {"intertwine_unverified.json": 1,
               "intertwine_n_to_m_relaxed_0_1_2.json": 1,
               "iso_check_vm_wrong_b.json": 1,
               "iso_check_vm_fractional_wrong_b.json": 1}


@pytest.mark.parametrize("name, command, config", GOLDEN_CASES,
                         ids=[name for name, _, _ in GOLDEN_CASES])
def test_golden_report_bytes(capsys, tmp_path, name, command, config):
    # a command is the suite, then any inline words, split on blanks
    argv = command.split()
    if config is not None:
        cfg = tmp_path / "golden.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    code, out = run_cli(capsys, *argv)
    assert code == GOLDEN_EXIT.get(name, 0)
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
