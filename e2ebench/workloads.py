"""The measured passes of the batch workloads, run in a process of their own.

    python3 e2ebench/workloads.py suite-fast  --plan PLAN.json --out OUT.json
    python3 e2ebench/workloads.py kernel-scale --plan PLAN.json --out OUT.json
    python3 e2ebench/workloads.py kernel-scale --plan PLAN.json --setup-only

The orchestrator (``run.py``) starts this script in a hermetic environment,
so the process tree under test is this process and its experiment
children.  ``--setup-only`` stops after the imports and input building a
pass needs: its wall time from interpreter start is the workload's set-up.
The result file holds per-unit timings, the output checks and the
counters the per-layer metrics are computed from.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def suite_setup() -> None:
    import repro.api

    repro.api.list_experiments()


def per_unit(times: Dict[Any, List[float]]) -> Dict[str, Any]:
    """Throughput from each unit's median time over the passes (a pass
    that met a stall of the shared host does not move it), and every
    sample for the latency quantiles."""
    typical = [common.median(values) for values in times.values()]
    return {
        "units_per_s": len(typical) / sum(typical),
        "latencies": [t for values in times.values() for t in values],
    }


def suite_pass(plan: Dict[str, Any]) -> Dict[str, Any]:
    """Back-to-back ``repro.api.run_suite`` passes at the default RunConfig.

    Each experiment's time is calibrated like a kernel instance's: divided
    by the host slowdown read right before and right after it, between
    records, outside the timed intervals."""
    from repro import api
    from repro.obs.report import validate_report

    config = api.resolve_config()
    by_experiment: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    slowdowns: List[float] = []
    pass_walls: List[float] = []
    attempted = failed = 0
    first_tables: Dict[str, str] = {}
    elapsed: Dict[str, List[float]] = {}
    counters: Dict[str, int] = {}
    start = time.perf_counter()
    for order in plan["passes"]:
        before = common.host_slowdown()
        mark = time.perf_counter()
        pass_time = 0.0

        def on_record(experiment, _record, _done, _total):
            # An experiment's latency: from the previous record (or the
            # pass start) to its own record.
            nonlocal mark, before, pass_time
            seconds = time.perf_counter() - mark
            after = common.host_slowdown()
            slowdown = (before + after) / 2
            by_experiment.setdefault(experiment, []).append(seconds / slowdown)
            raw.setdefault(experiment, []).append(seconds)
            slowdowns.append(slowdown)
            pass_time += seconds / slowdown
            before = after
            mark = time.perf_counter()

        result = api.run_suite(order, config=config, on_record=on_record)
        pass_walls.append(pass_time)
        attempted += len(order)
        try:
            validate_report(result.report)
        except ValueError:
            failed += len(order)
            continue
        for record in result.records:
            elapsed.setdefault(record["experiment"], []).append(record["elapsed_s"])
            tables = first_tables.setdefault(record["experiment"], record["table"])
            if not record["ok"] or record["table"] != tables:
                failed += 1
        common.add_counters(counters, result.report)
    return {
        "attempted": attempted,
        "failed": failed,
        "wall_s": time.perf_counter() - start,
        **per_unit(by_experiment),
        "raw_units_per_s": per_unit(raw)["units_per_s"],
        "slowdown": common.median(slowdowns),
        "pass_walls": pass_walls,
        "elapsed": {e: common.median(values) for e, values in elapsed.items()},
        "counters": counters,
        "peak_rss_mb": common.peak_rss_mb(),
    }


def build_instances(plan: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The kernel inputs: random PSIOA pairs and spawning-PCA pairs."""
    from fractions import Fraction

    import numpy as np

    from repro.experiments.common import coin_oblivious_schema
    from repro.semantics.insight import accept_insight
    from repro.systems.coin import coin, coin_observer
    from repro.systems.factory import random_psioa
    from repro.systems.ledger import spawning_pca

    built = []
    for index, spec in enumerate(plan["instances"]):
        if spec["kind"] == "bound":
            n = spec["n"]
            rng = np.random.default_rng(spec["seed"])
            built.append(
                {
                    "kind": "bound",
                    "n": n,
                    "left": random_psioa(("L", index), rng, n_states=n, n_actions=max(2, n // 2)),
                    "right": random_psioa(("R", index), rng, n_states=n, n_actions=max(2, n // 2)),
                }
            )
        else:
            delta = Fraction(spec["k"], 16)

            def biased(d=delta, i=index):
                return coin(("child", i, d), Fraction(1, 2) + d)

            def fair(d=delta, i=index):
                return coin(("child", i, d), Fraction(1, 2))

            built.append(
                {
                    "kind": "creation",
                    "delta": delta,
                    "children": (biased(), fair()),
                    "pcas": (
                        spawning_pca(biased, name=("XA", index)),
                        spawning_pca(fair, name=("XB", index)),
                    ),
                    "kw": dict(
                        schema=coin_oblivious_schema(("spawn", "toss", "head", "tail", "acc")),
                        insight=accept_insight(),
                        environments=[coin_observer()],
                        q1=4,
                        q2=4,
                    ),
                }
            )
    return built


def run_instance(instance: Dict[str, Any]) -> bool:
    """Compute one kernel instance; returns whether its output check holds."""
    if instance["kind"] == "bound":
        from repro.bounded.bounds import composition_constant, measure_time_bound
        from repro.core.composition import compose
        from repro.experiments.e01_composition_bound import C_COMP_CEILING

        n = instance["n"]
        left, right = instance["left"], instance["right"]
        b1 = measure_time_bound(left, states=range(n))
        b2 = measure_time_bound(right, states=range(n))
        states = [(a, b) for a in range(n) for b in range(n)]
        b12 = measure_time_bound(compose(left, right), states=states)
        return composition_constant([b1, b2], b12) <= C_COMP_CEILING
    from repro.secure.implementation import implementation_distance

    kw = instance["kw"]
    d_child = implementation_distance(*instance["children"], **kw)
    d_pca = implementation_distance(*instance["pcas"], **kw)
    # Closed-form oracle: the observer distinguishes the coins exactly by
    # their bias, and creation preserves the distance.
    return d_child == d_pca == instance["delta"]


def kernel_pass(plan: Dict[str, Any]) -> Dict[str, Any]:
    """The seeded kernel list, inline: no isolation, report, service or
    store.  The memo cache is cleared before every instance, so an
    instance's cost does not depend on the seeded order.

    Each instance's time is calibrated (``common.calibrated``): this
    in-process compute slows with the host's contended state much as the
    reference loop does, so the quotient is its cost on the fast host."""
    from repro.obs import metrics
    from repro.perf import cache

    instances = build_instances(plan)
    before = metrics.snapshot()["counters"]
    times: Dict[int, List[float]] = {}
    raw: Dict[int, List[float]] = {}
    slowdowns: List[float] = []
    failed = 0
    start = time.perf_counter()
    for index, instance in enumerate(instances):
        cache.clear()
        ok, seconds, slowdown = common.calibrated(lambda: run_instance(instance))
        times[index] = [seconds]
        raw[index] = [seconds * slowdown]
        slowdowns.append(slowdown)
        failed += not ok
    wall = time.perf_counter() - start
    counters = metrics.subtract_counters(metrics.snapshot()["counters"], before)
    half = len(instances) // 2
    return {
        "attempted": len(instances),
        "failed": failed,
        "wall_s": wall,
        **per_unit(times),
        "raw_units_per_s": per_unit(raw)["units_per_s"],
        "slowdown": common.median(slowdowns),
        "pass_walls": [sum(t for i in range(half) for t in times[i]),
                       sum(t for i in range(half, len(instances)) for t in times[i])],
        "counters": counters,
        "peak_rss_mb": common.peak_rss_mb(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=["suite-fast", "kernel-scale"])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    plan = common.read_json(args.plan)
    if args.setup_only:
        if args.workload == "suite-fast":
            suite_setup()
        else:
            build_instances(plan)
        return 0
    result = suite_pass(plan) if args.workload == "suite-fast" else kernel_pass(plan)
    common.write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
