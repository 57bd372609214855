"""Layer probes for the traced run: on-minus-off costs of single layers.

    python3 e2ebench/probes.py --workload suite-fast --isolated PASS.json --out PROBES.json
    python3 e2ebench/probes.py --workload service-mix --store DIR --out PROBES.json

Each probe runs a fixed input twice, with one layer on and off, through
the program's public surfaces; the difference is the layer's net cost
(negative means the layer saves time).  The inputs do not depend on the
workload seed.  Each probe runs in the traced run of the workload whose
layers it belongs to (``PROBES``), so that no traced run pays for all of
them; the other workloads report its metrics as 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

REPEATS = 5


def _timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def import_probe(env: Dict[str, str]) -> Dict[str, float]:
    """Fresh-interpreter start, ``import repro.api`` and the experiment
    modules, each as the median of ``REPEATS`` subprocess runs."""
    experiments = "; ".join(
        f"import repro.experiments.{module}"
        for module, _claim in _registry().values()
    )
    bare, api, full = [], [], []
    for _ in range(REPEATS):
        bare.append(common.time_python(["-c", "pass"], env))
        api.append(common.time_python(["-c", "import repro.api"], env))
        full.append(common.time_python(["-c", f"import repro.api; {experiments}"], env))
    return {
        "import.bare_s": common.median(bare),
        "import.repro_api_s": common.median(api) - common.median(bare),
        "import.experiments_s": common.median(full) - common.median(api),
    }


def _registry():
    from repro.experiments.common import ALL_EXPERIMENTS

    return ALL_EXPERIMENTS


def isolation_probe(isolated: Dict[str, float]) -> Dict[str, float]:
    """Median over the 15 experiments of guarded-isolated minus inline.
    ``isolated`` holds each experiment's elapsed time in the traced run's
    untraced (isolated, default-config) suite pass."""
    from repro import api

    inline = api.run_suite(config=api.RunConfig(isolated=False)).records
    deltas = [isolated[r["experiment"]] - r["elapsed_s"] for r in inline]
    return {"experiments.isolation_s": common.median(deltas)}


def profile_probe() -> Dict[str, float]:
    """E11 inline with the phase profiler on over off.  The profiler stays
    installed in this process afterwards, so this probe runs last."""
    from repro import api

    off = api.run_suite(["E11"], config=api.RunConfig(isolated=False)).records[0]
    on = api.run_suite(["E11"], config=api.RunConfig(isolated=False, profile=True)).records[0]
    return {"obs.profile.overhead_ratio": on["elapsed_s"] / off["elapsed_s"]}


def cache_probe() -> Dict[str, float]:
    """One kernel block (seed 0) with the memo cache off minus on."""
    import workloads
    from repro.perf import cache

    plan = common.kernel_plan(0, 1)
    walls = {}
    for enabled in (True, False):
        cache.configure(enabled=enabled)
        cache.clear()
        instances = workloads.build_instances(plan)
        walls[enabled] = _timed(lambda: [workloads.run_instance(i) for i in instances])
    return {"perf.cache.net_s": walls[False] - walls[True]}


def store_probe(store: str) -> Dict[str, float]:
    """Each service job shape through ``run_suite`` with a warm store minus
    without one.  ``store`` is the service-mix server's store after its
    plan ran: every shape has passed through it, and the fill job put the
    sweeps of seed ``FILL_SEED`` there."""
    from repro import api

    out: Dict[str, float] = {}
    total = 0.0
    for shape in common.SERVICE_SHAPES:
        with_store = api.RunConfig(cache_dir=store, seed=common.FILL_SEED)
        without = api.RunConfig(seed=common.FILL_SEED)
        warm = _timed(lambda: api.run_suite(list(shape), config=with_store))
        bare = _timed(lambda: api.run_suite(list(shape), config=without))
        out[f"perf.store.net_s.{'_'.join(shape)}"] = warm - bare
        total += warm - bare
    out["perf.store.net_s"] = total
    return out


def dispatch_probe() -> Dict[str, float]:
    """E15 with its sweeps on a fresh ``pool:2`` minus ``serial`` (median of 3)."""
    from repro import api

    def run(backend):
        return _timed(lambda: api.run_suite(["E15"], config=api.RunConfig(backend=backend)))

    pooled: List[float] = []
    serial: List[float] = []
    for _ in range(3):
        pooled.append(run("pool:2"))
        serial.append(run(None))
    return {"perf.dispatch.net_s": common.median(pooled) - common.median(serial)}


#: the probes each workload's traced run measures, in the order they run
#: (the profiler stays installed after its probe, so it runs last)
PROBES: Dict[str, List[str]] = {
    "suite-fast": ["import", "isolation", "dispatch"],
    "kernel-scale": ["cache", "profile"],
    "service-mix": ["store"],
}

#: every metric each probe reports
METRICS: Dict[str, List[str]] = {
    "import": ["import.bare_s", "import.repro_api_s", "import.experiments_s"],
    "isolation": ["experiments.isolation_s"],
    "dispatch": ["perf.dispatch.net_s"],
    "cache": ["perf.cache.net_s"],
    "profile": ["obs.profile.overhead_ratio"],
    "store": [f"perf.store.net_s.{'_'.join(shape)}" for shape in common.SERVICE_SHAPES]
    + ["perf.store.net_s"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(PROBES))
    parser.add_argument("--store", help="a filled store (the service-mix probe)")
    parser.add_argument("--isolated", help="a suite-fast pass result (the isolation probe)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    env = common.hermetic_env(tempfile.gettempdir())
    run = {
        "import": lambda: import_probe(env),
        "isolation": lambda: isolation_probe(common.read_json(args.isolated)["elapsed"]),
        "dispatch": dispatch_probe,
        "cache": cache_probe,
        "profile": profile_probe,
        "store": lambda: store_probe(args.store),
    }
    probes = {name: 0.0 for names in METRICS.values() for name in names}
    for probe in PROBES[args.workload]:
        probes.update(run[probe]())
    common.write_json(args.out, probes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
