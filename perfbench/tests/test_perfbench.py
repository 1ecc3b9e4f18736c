"""Tests of the benchmark itself: smoke runs, a vacuity check of the oracle,
and the promise that tracing changes no result.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import takiffrep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
LAYERS = tracing.LAYERS


def run_items(workload, items):
    """Execute exactly ``items``; returns (failed count, digest)."""
    timed = run.timed_run(workloads, workload, None, items, 0, lambda: None)
    return timed.failed, timed.digest


def one_cycle(name, seed=7):
    """One item of every kind in the workload's schedule."""
    workload = workloads.WORKLOADS[name]
    stream = workloads.Stream(workload, seed)
    return workload, [stream.item(i) for i in range(len(workload.schedule))]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_every_kind_gets_its_known_answer(name):
    workload, items = one_cycle(name)
    failed, digest = run_items(workload, items)
    assert failed == 0
    assert digest.count == len(items)


@pytest.mark.parametrize("name", NAMES)
def test_planted_wrong_answer_is_counted_as_failed(name):
    workload, items = one_cycle(name)
    for i, item in enumerate(items):
        planted = list(items)
        planted[i] = dataclasses.replace(item, expect=("planted", item.expect))
        failed, _ = run_items(workload, planted)
        assert failed == 1, item.kind


def test_exception_is_a_failed_verdict():
    workload, items = one_cycle("saturate")
    broken = dataclasses.replace(items[0], args=(items[0].args[0], {(9, 9): 1}))
    ok, payload = workloads.execute(workload, broken)
    assert not ok and "raised" in payload


def test_prefix_leaves_ten_verdicts_beyond_p90():
    assert all(w.prefix >= 100 for w in workloads.WORKLOADS.values())


def test_same_seed_same_items_and_other_seed_other_items():
    workload = workloads.WORKLOADS["free-axioms"]
    a, b, c = (workloads.Stream(workload, s) for s in (3, 3, 4))
    assert [a.item(i) for i in range(8)] == [b.item(i) for i in range(8)]
    assert [a.item(i) for i in range(8)] != [c.item(i) for i in range(8)]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_changes_no_result_and_accounts_for_the_wall(name):
    workload, items = one_cycle(name)
    _, plain = run_items(workload, items)
    tracer = tracing.Tracer()
    original_act = takiffrep.freemod.act
    tracer.install(takiffrep)
    try:
        assert takiffrep.weightmod.act_free is not original_act
        _, traced = run_items(workload, items)
    finally:
        tracer.uninstall()
    assert takiffrep.freemod.act is original_act
    assert takiffrep.weightmod.act_free is original_act
    assert traced.hexdigest() == plain.hexdigest()

    wall = tracer.covered_s() + 0.25
    metrics = tracer.layer_metrics(wall, (0, 0), overhead_frac=0.0)
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER_METRICS}
    # self times telescope to the time the top-level spans cover
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(tracer.covered_s())
    assert metrics["trace.unattributed_s"] == pytest.approx(0.25)
    # the separation the workloads were chosen for
    if name in ("weight-window", "rewrite"):
        assert metrics["poly.mul.calls"] == 0
    if name in ("free-axioms", "rewrite"):
        assert metrics["linalg.rowbasis_add.calls"] == 0
        assert metrics["linalg.nullspace.calls"] == 0
    if name == "rewrite":
        assert metrics["algebra.normal_form.calls"] > 0


def test_spans_round_trip(tmp_path):
    workload, items = one_cycle("rewrite")
    tracer = tracing.Tracer()
    tracer.install(takiffrep)
    try:
        run_items(workload, items[:3])
    finally:
        tracer.uninstall()
    stem = str(tmp_path / "t")
    tracer.write(stem, {"workload": "rewrite"})
    spans = tracing.load_spans(stem)
    assert len(spans) == len(tracer.span_name) > 0
    for name, parent, start, end in spans:
        assert start <= end
        if parent >= 0:
            p_start, p_end = spans[parent][2:]
            assert p_start <= start <= end <= p_end


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_cli_untraced_reports_every_end_to_end_metric():
    result, stdout = run_cli("--workload", "weight-window", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 240
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "digest " in stdout


def test_cli_traced_reports_every_per_layer_metric():
    result, _ = run_cli("--workload", "weight-window", "--seed", "1",
                        "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["attempted"] == 240
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("per_layer")
