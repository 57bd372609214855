"""Run one workload under several seeds and report each metric's spread.

    python3 e2ebench/steadiness.py --workload suite-fast --seeds 1-10 --seconds 20

For every end-to-end metric: the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
inter-quartile distance as a share of the median — next to the bound in
``BENCHMARK.json``.  Each run's within-run drift (last pass or half over
the first) is listed too, and so are the spreads of the host slowdown and
of the uncalibrated ``units_per_s``.  Runs execute one after another,
never overlapping.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    # what the calibrated metrics are computed from (run.py's detail line)
    raw = {"raw_units_per_s": [], "slowdown": []}
    for seed in parse_seeds(args.seeds):
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        ).stdout.strip().splitlines()
        detail = json.loads(out[-2])["detail"]
        result = json.loads(out[-1])
        walls = detail.get("pass_walls") or []
        drift = walls[-1] / walls[0] if len(walls) > 1 else None
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for name in raw:
            if detail.get(name) is not None:
                raw[name].append(detail[name])
        print(json.dumps({
            "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "drift": drift,
            "slowdown": detail.get("slowdown"), "raw_units_per_s": detail.get("raw_units_per_s"),
            "run_s": round(time.perf_counter() - started, 1),
            "metrics": {k: round(v["value"], 4) for k, v in result["metrics"].items()},
        }), flush=True)
    for name, series in [*values.items(), *((k, v) for k, v in raw.items() if v)]:
        q1, q2, q3 = statistics.quantiles(series, n=4)
        print(f"{args.workload:13s} {name:15s} median={q2:.4f} q1={q1:.4f} q3={q3:.4f} "
              f"spread={(q3 - q1) / q2:.3f} bound={bounds.get(name, '-')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
