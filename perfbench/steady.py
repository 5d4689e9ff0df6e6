"""Steadiness check: run a workload under several seeds and report, per
end-to-end metric, the run-to-run spread of the calibrated value next
to its raw wall-clock twin.

    python3 perfbench/steady.py --workloads solve-small serve-closed --seeds 10

Runs one fresh ``run.py`` process at a time (each waited for) from the
checkout root.  The spread is the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median -- the statistic the benchmark's bounds are judged by.  The
table is printed and written to ``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    return result, diagnostics


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report = {}
    for workload in args.workloads:
        cal: dict[str, list] = {}
        raw: dict[str, list] = {}
        counts = []
        for seed in range(1, args.seeds + 1):
            result, diag = run_once(workload, seed, args.seconds)
            counts.append((result["correct"], result["attempted"], result["failed"]))
            for name, item in result["metrics"].items():
                cal.setdefault(name, []).append(item["value"])
                if name in diag["raw"]:
                    raw.setdefault(name, []).append(diag["raw"][name])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        rows = {}
        for name, values in cal.items():
            rows[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "raw_spread": spread(raw[name]) if name in raw else None,
                "bound": bounds[name],
                "values": values,
            }
        report[workload] = {"metrics": rows, "correct_attempted_failed": counts}
        print(f"\n{workload}: spread = IQR/median over {args.seeds} seeds")
        print(f"{'metric':<18}{'median':>12}{'calibrated':>12}{'raw':>10}{'bound':>8}")
        for name, row in rows.items():
            raw_txt = "-" if row["raw_spread"] is None else f"{row['raw_spread']:.3f}"
            print(f"{name:<18}{row['median']:>12.5g}{row['spread']:>12.3f}"
                  f"{raw_txt:>10}{row['bound']:>8.2f}")
        print(flush=True)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
