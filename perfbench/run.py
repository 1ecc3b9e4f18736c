"""Benchmark of the takiffrep library, run from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the tree this file sits in, with no
install.  Verdicts run in one fresh single-threaded process, so every cache
starts cold as it does for a ``takiff-rep`` user; set-up is also timed in
short-lived child interpreters, one at a time.

``--trace 0`` times verdicts for S seconds (and at least the workload's
prefix of 100 or more verdicts), expresses them at a fixed reference
machine speed (``calibration.py``) and reports the end-to-end metrics.  ``--trace 1``
runs the workload's fixed prefix twice, untraced and then traced, ignores S,
and reports the per-layer metrics.  Both print the environment, the digest of
the prefix's verdict payloads, and as the last line one JSON object with the
keys correct, attempted, failed and metrics.  Details go to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 8


def setup(workload_name: str, seed: int):
    """Import the package from src/ and build the stream and its prefix.

    Returns (seconds taken, package, workloads module, workload, stream,
    prefix items).  The clock starts before ``import takiffrep``.
    """
    started = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import takiffrep
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import takiffrep from {src}: {exc}")
    if Path(takiffrep.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: takiffrep was imported from "
                         f"{takiffrep.__file__}, not from {src}")
    import workloads
    workload = workloads.WORKLOADS[workload_name]
    stream = workloads.Stream(workload, seed)
    prefix = [stream.item(i) for i in range(workload.prefix)]
    return (time.perf_counter() - started, takiffrep, workloads, workload,
            stream, prefix)


def environment() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model}


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it at reference
    speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Timed:
    """What ``timed_run`` measured."""

    starts: List[float]  # verdict start times, perf_counter seconds
    times: List[float]  # raw seconds per verdict
    calibration: calibration.Calibration
    failed: int
    digest: object
    rss_mib: float
    setups: List[float] = field(default_factory=list)


def timed_run(workloads, workload, stream, prefix, seconds: float,
              clear_cache, probe=None) -> Timed:
    """Execute verdicts for ``seconds``, sampling the machine's speed.

    Verdicts run in blocks of the prefix's length, and ``clear_cache`` runs
    before each block.  Every block thus starts as cold as the first, so a
    faster program, which gets through more blocks, is not measured on a
    warmer cache.  Peak RSS is read once the prefix is done, after a fixed
    amount of work.  ``probe``, if given, is called SETUP_PROBES times at
    even intervals between verdicts, so that the set-up samples see the
    machine in as many states as the verdicts do.
    """
    digest = workloads.Digest(len(prefix))
    cal = calibration.Calibration()
    run = Timed([], [], cal, 0, digest, 0.0)
    rss = None
    clock = time.perf_counter
    started = clock()
    index = 0
    while index < len(prefix) or clock() - started < seconds:
        if index == len(prefix):
            rss = peak_rss_mib()
        if index % len(prefix) == 0:
            clear_cache()
        if probe and len(run.setups) < SETUP_PROBES and clock() - started >= (
                len(run.setups) + 1) * seconds / (SETUP_PROBES + 1):
            run.setups.append(probe())
        item = prefix[index] if index < len(prefix) else stream.item(index)
        cal.maybe_sample(clock())
        t0 = clock()
        ok, payload = workloads.execute(workload, item)
        run.times.append(clock() - t0)
        run.starts.append(t0)
        if not ok:
            run.failed += 1
            workloads.report_failure(item, payload)
        digest.add(payload)
        index += 1
    cal.maybe_sample(clock())
    run.rss_mib = rss if rss is not None else peak_rss_mib()
    while probe and len(run.setups) < SETUP_PROBES:
        run.setups.append(probe())
    return run


def untraced(args, setup_s, tk, workloads, workload, stream, prefix):
    run = timed_run(workloads, workload, stream, prefix, args.seconds,
                    tk.algebra._reduce_word.cache_clear,
                    probe=lambda: probe_setup(args.workload, args.seed))
    raw = run.times
    times = run.calibration.rescale(run.starts, raw)
    setups = [setup_s] + run.setups
    ms = [t * 1000 for t in times]
    metrics = {
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_p50_ms": (statistics.median(ms), "ms"),
        "verdict_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (run.rss_mib, "MiB"),
    }
    raw_ms = [t * 1000 for t in raw]
    details = {
        "verdict_s": times, "raw_verdict_s": raw, "setup_samples_s": setups,
        "calibration_s": run.calibration.durations,
        "raw_metrics": {"verdicts_per_s": len(raw) / sum(raw),
                        "verdict_p50_ms": statistics.median(raw_ms),
                        "verdict_p90_ms": statistics.quantiles(raw_ms, n=10)[-1]}}
    return len(times), run.failed, run.failed == 0, run.digest, metrics, details


def traced(args, tk, workloads, workload, stream, prefix):
    import tracing

    reduce_word = tk.algebra._reduce_word  # the whole-word rewrite cache

    def timed_pass():
        """Run exactly the prefix, from a cold cache.

        Returns (failed, digest, seconds inside verdicts, the same at
        reference speed, cache hits and misses during the pass).
        """
        run = timed_run(workloads, workload, stream, prefix, 0,
                        reduce_word.cache_clear)
        info = reduce_word.cache_info()  # cache_clear() zeroed the counters
        return (run.failed, run.digest, sum(run.times),
                sum(run.calibration.rescale(run.starts, run.times)),
                (info.hits, info.misses))

    failed_plain, digest_plain, _, ref_plain, _ = timed_pass()
    tracer = tracing.Tracer()
    tracer.install(tk)
    try:
        failed, digest, wall, ref_wall, cache = timed_pass()
    finally:
        tracer.uninstall()

    layer = tracer.layer_metrics(wall, cache,
                                 overhead_frac=ref_wall / ref_plain - 1)
    units = dict(tracing.PER_LAYER_METRICS)
    metrics = {name: (value, units[name]) for name, value in layer.items()}
    stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
    tracer.write(str(stem), {"workload": args.workload, "seed": args.seed,
                             "digest": digest.hexdigest()})
    correct = (failed == 0 and failed_plain == 0
               and digest.hexdigest() == digest_plain.hexdigest())
    details = {"untraced_wall_ref_s": ref_plain, "traced_wall_ref_s": ref_wall,
               "untraced_digest": digest_plain.hexdigest(),
               "trace_files": [f"{stem}.json", f"{stem}.spans"]}
    return len(prefix), failed, correct, digest, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("free-axioms", "saturate", "weight-window",
                                 "rewrite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # set-up at reference speed, by the calibration just before and after it
    factor = calibration.speed_factor()
    setup_s, tk, workloads, workload, stream, prefix = setup(args.workload,
                                                             args.seed)
    setup_s *= (factor + calibration.speed_factor()) / 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        result = traced(args, tk, workloads, workload, stream, prefix)
    else:
        result = untraced(args, setup_s, tk, workloads, workload, stream,
                          prefix)
    attempted, failed, correct, digest, metrics, details = result

    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "digest": digest.hexdigest(), "digest_items": digest.count,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: v for k, (v, _) in metrics.items()}, **details}
    out = OUT_DIR / (f"run-{args.workload}-seed{args.seed}"
                     f"{'-trace' if args.trace else ''}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {digest.hexdigest()} over the first {digest.count} verdicts")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
