"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same
work twice, untraced then traced (plus, for a solve workload, a short
traced serve-closed probe of the serving layers it does not exercise)
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds diagnostics (raw wall twins,
kernel time, sample counts, failure reasons), and ``perfbench/results/``
keeps the full record and, for traced runs, a Chrome trace.  See
perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported (OpenBLAS here
# is threaded, MAX_THREADS=64, NO_AFFINITY; the box has two cores).
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (0 < q < 100), interpolated between order
    statistics (``statistics.quantiles`` inclusive method: never beyond
    the data)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def e2e_metrics(p) -> tuple[dict, dict]:
    """Time metrics of an untraced pass, calibrated and their raw twins."""

    def times(setup, units, latencies, total_s):
        return {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(units),
            "iter_per_s": p.timed_iterations / total_s,
            "scenarios_per_s": p.timed_answers / total_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": percentile(latencies, 90),
        }

    calibrated = times([s.cal_s for s in p.setup], [c for c, _ in p.units],
                       [c for c, _ in p.latencies], p.timed_cal_s)
    raw = times([s.raw_s for s in p.setup], [r for _, r in p.units],
                [r for _, r in p.latencies], p.timed_raw_s)
    return calibrated, raw


def environment(args) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        revision = ref
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "revision": revision,
    }


def count_failures(passes) -> tuple[int, int, dict, bool]:
    """``(attempted, failed, failures by reason, correct)``.

    ``correct`` means the output is whole: every answer present exactly
    once, finite and, where the workload runs to tolerance, converged --
    failures of the objective-gap tier alone leave it true and are
    counted in ``failed`` (and shown by ``obj_gap``).
    """
    attempted = failed = 0
    reasons: dict[str, int] = {}
    correct = True
    for p in passes:
        for ans in p.answers:
            attempted += 1
            if ans.failure is not None:
                failed += 1
                reasons[ans.failure] = reasons.get(ans.failure, 0) + 1
                correct &= ans.failure == "gap outside tier"
        for defect in p.structural:
            reasons[defect] = reasons.get(defect, 0) + 1
            correct = False
    return attempted, failed, reasons, correct


def gaps(passes) -> list[float]:
    return [a.gap for p in passes for a in p.answers if a.gap is not None]


def obj_gap(passes) -> float:
    """p90 of the relative objective gaps vs HiGHS over the run's
    answers.  The maximum of a few hundred served answers swings with
    the seed; the p90 has tens of answers beyond it and does not."""
    values = gaps(passes)
    if len(values) < 2:
        return values[0] if values else math.inf
    return percentile(values, 90)


def measure(workload: str, seed: int, seconds: float, trace: int, kernel):
    """Run the workload's passes; returns ``(passes, metrics, diagnostics)``.

    Untraced: one pass with several set-ups; end-to-end metrics.  Traced:
    the same work twice, untraced then traced (half the seconds each),
    then, for a solve workload, a short traced serve-closed probe pass
    for ``workloads.SERVE_LAYERS``; per-layer metrics, ``trace.overhead``
    from the first two, and a Chrome trace of the workload's traced pass
    in ``perfbench/results/``.
    """
    import workloads

    diagnostics: dict = {}
    if trace == 0:
        spec = workloads.SPECS[workload]
        p = workloads.run_pass(workload, seed, seconds, kernel,
                               traced=False, setups=spec.setups)
        # Peak RSS of this process so far: set-up plus the timed work,
        # before the oracle's HiGHS solves.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, raw = e2e_metrics(p)
        metrics["peak_rss_mb"] = peak_rss_mb
        p90 = metrics["latency_p90_s"]
        diagnostics["raw"] = raw
        diagnostics["calib_ms"] = p.context["clock"].calib_ms()
        diagnostics["samples"] = {
            "setups": len(p.setup),
            "solve_units": len(p.units),
            "latencies": len(p.latencies),
            "beyond_p90": sum(1 for c, _ in p.latencies if c > p90),
            "distinct_beyond_p90": len({c for c, _ in p.latencies if c > p90}),
        }
        return [p], metrics, diagnostics

    from layers import layer_metrics
    from tracing import SpanRecorder, instrument, write_chrome_trace

    half = seconds / 2.0
    plain = workloads.run_pass(workload, seed, half, kernel, traced=True, setups=1)
    recorder = SpanRecorder()
    with instrument(recorder):
        traced = workloads.run_pass(workload, seed, half, kernel, traced=True,
                                    setups=1, recorder=recorder)

    def layers(recorder, p):
        requests = p.context.get("requests", {})
        return layer_metrics(recorder.spans, frontend=p.context.get("frontend"),
                             feeders={rid: r.feeder for rid, r in requests.items()})

    metrics = layers(recorder, traced)
    if workload != "serve-closed":
        # No serving happens here, and a constant 0 is not a measured
        # time: the shortest traced serve-closed pass measures those
        # layers (its answers are not scored).
        probe_recorder = SpanRecorder()
        with instrument(probe_recorder):
            probe = workloads.run_pass("serve-closed", seed, 0.0, kernel,
                                       traced=True, setups=1,
                                       recorder=probe_recorder)
        probed = layers(probe_recorder, probe)
        metrics.update((k, v) for k, v in probed.items()
                       if k.startswith(workloads.SERVE_LAYERS))
    metrics["trace.overhead"] = traced.timed_cal_s / plain.timed_cal_s - 1.0
    readings = plain.context["clock"].readings + traced.context["clock"].readings
    metrics["calib_ms"] = 1e3 * statistics.median(readings)
    _, raw = e2e_metrics(plain)
    for name, value in raw.items():
        metrics[f"raw.{name}"] = value
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{workload}.json"
    write_chrome_trace(recorder.spans, trace_path)
    diagnostics["trace_file"] = str(trace_path.relative_to(ROOT))
    return [plain, traced], metrics, diagnostics


def score(workload: str, passes) -> tuple[int, int, dict, bool]:
    """Check every answer against HiGHS (off the clock) and count."""
    import workloads

    oracle = workloads.Oracle()
    for p in passes:
        workloads.check_pass(workload, p, oracle)
    return count_failures(passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from calib import CalibrationKernel

    if args.workload not in workloads.SPECS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {sorted(workloads.SPECS)})", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kernel = CalibrationKernel()
    env = environment(args)
    passes, metrics, diagnostics = measure(
        args.workload, args.seed, args.seconds, args.trace, kernel
    )
    attempted, failed, reasons, correct = score(args.workload, passes)
    if args.trace == 0:
        metrics["obj_gap"] = obj_gap(passes)
    diagnostics["failures"] = reasons
    diagnostics["gap_max"] = max(gaps(passes), default=math.inf)

    section = "end_to_end" if args.trace == 0 else "per_layer"
    out_metrics = {}
    for item in declared[section]:
        value = metrics.get(item["name"])
        if value is None or not math.isfinite(value):
            print(f"perfbench: metric {item['name']} is {value!r}", file=sys.stderr)
            return 3
        out_metrics[item["name"]] = {"value": float(value), "unit": item["unit"]}
    if attempted < 1:
        print("perfbench: no operation attempted", file=sys.stderr)
        return 3
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"environment": env, "diagnostics": diagnostics, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
