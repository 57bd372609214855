"""End-to-end benchmark of the reproduction: one run of one workload.

    python3 e2ebench/run.py --workload suite-fast --seed 1 --seconds 20 --trace 0

Workloads (see ``README.md`` for why each was chosen):

* ``suite-fast``   back-to-back isolated passes of ``repro.api.run_suite``
  over the 15 fast experiments (one closed-loop caller);
* ``kernel-scale`` a seeded list of composition-bound and
  creation-monotonicity kernel instances, inline;
* ``service-mix``  ``python -m repro.service --pool 2 --cache-dir ...``
  under two closed-loop clients submitting a seeded job plan (not in
  ``BENCHMARK.json``; ``suite-fast``'s traced run includes its traced run).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced run (span
self times, counters, layer probes and the tracing overhead).  Every run
works in a private directory under ``.e2ebench_tmp/`` in the checkout and
removes it, and stops every process it started, on every exit path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
from typing import Any, Callable, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: set-up repetitions per batch run (the reported set-up time is their median)
BATCH_SETUPS = 7

WORKLOADS_PY = os.path.join(common.BENCH_DIR, "workloads.py")
PROBES_PY = os.path.join(common.BENCH_DIR, "probes.py")

PLANS: Dict[str, Callable[[int, int], Dict[str, Any]]] = {
    "suite-fast": common.suite_plan,
    "kernel-scale": common.kernel_plan,
    "service-mix": common.service_plan,
}

CACHE_TIERS = ("transition", "decision", "measure", "derived")
INTERN_TIERS = ("fragment", "measure")


def end_to_end(result: Dict[str, Any], setup_s: float) -> Dict[str, Any]:
    latencies = result["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "units_per_s": (result["units_per_s"], "1/s"),
        "latency_s.p50": (common.quantile(latencies, 0.50), "s"),
        "latency_s.p75": (common.quantile(latencies, 0.75), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


# -- batch workloads -------------------------------------------------------------


#: the list a traced run times (per-layer metrics have no bound)
TRACED_LIST: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "suite-fast": lambda plan: {"passes": plan["passes"][:1]},
    "kernel-scale": lambda plan: {
        "instances": plan["instances"][: len(common.KERNEL_SIZES) + 2]
    },
    # The first half of each client's sequence: a resubmission refers to an
    # earlier position, so every one kept still has its original.
    "service-mix": lambda plan: {
        "clients": [sequence[: len(sequence) // 2] for sequence in plan["clients"]]
    },
}


def batch_pass(workload: str, plan_path: str, env: Dict[str, str], out: str) -> Dict[str, Any]:
    common.run_python([WORKLOADS_PY, workload, "--plan", plan_path, "--out", out], env)
    return common.read_json(out)


#: the per-layer metrics of the service's own layers (``repro.service``,
#: the store and the socket pool); ``suite-fast``'s traced run measures
#: them on a service stage, since ``service-mix`` is not in BENCHMARK.json
SERVICE_LAYERS = (
    "service.", "perf.store.", "perf.fingerprint", "perf.cache.persistent.",
    "perf.cache.sweep.", "perf.parallel.socket.", "perf.supervise.",
)


def run_batch(workload: str, plan: Dict[str, Any], tmp: str, trace: bool,
              service_plan: Dict[str, Any]) -> Dict[str, Any]:
    env = common.hermetic_env(tmp)
    plan_path = os.path.join(tmp, "plan.json")
    if not trace:
        common.write_json(plan_path, plan)
        setup_args = [WORKLOADS_PY, workload, "--plan", plan_path, "--setup-only"]
        setups = [
            common.calibrated(lambda: common.run_python(setup_args, env))[1]
            for _ in range(BATCH_SETUPS)
        ]
        result = batch_pass(workload, plan_path, env, os.path.join(tmp, "result.json"))
        return summary(result, end_to_end(result, common.median(setups)))
    # Per-layer metrics have no bound: the traced run times the shortest
    # list (one pass, one kernel block), untraced and then traced.
    common.write_json(plan_path, TRACED_LIST[workload](plan))
    untraced = batch_pass(workload, plan_path, env, os.path.join(tmp, "untraced.json"))
    span_dir = os.path.join(tmp, "spans")
    os.makedirs(span_dir)
    traced_env = common.hermetic_env(tmp, span_dir=span_dir)
    traced = batch_pass(workload, plan_path, traced_env, os.path.join(tmp, "traced.json"))
    probe_args = ["--isolated", os.path.join(tmp, "untraced.json")] if workload == "suite-fast" else []
    layers = per_layer(workload, traced, untraced, span_dir, tmp, probe_args)
    result = summary(traced, layers, extra=untraced)
    if workload == "suite-fast":
        # The service stage: service-mix's traced run, in a directory of its
        # own; its service-layer metrics replace the suite's zeros.
        service_tmp = os.path.join(tmp, "service")
        os.makedirs(service_tmp)
        service = run_service(service_plan, service_tmp, True)
        result["metrics"].update(
            (name, value) for name, value in service["metrics"].items()
            if name.startswith(SERVICE_LAYERS)
        )
        result["attempted"] += service["attempted"]
        result["failed"] += service["failed"]
        result["correct"] = result["failed"] == 0
    return result


# -- service-mix -------------------------------------------------------------------


def run_service(plan: Dict[str, Any], tmp: str, trace: bool) -> Dict[str, Any]:
    """Set up one server (boot, pool alive, cold ``[E12, E15]`` fill), run
    the plan on it, stop it.

    Set-up is the median of ``SERVER_BOOTS`` boots plus the fill.  A traced
    run times half the plan (``TRACED_LIST``) this way, then boots a traced
    server on a copy of the store as it was after the fill, reads the fill
    back warm, and runs the same half plan again."""
    import svcmix

    if trace:
        plan = TRACED_LIST["service-mix"](plan)
    references = svcmix.compute_references(common.reference_keys(plan))
    env = common.hermetic_env(tmp)
    boots: List[float] = []
    for index in range(0 if trace else common.SERVER_BOOTS - 1):
        server = svcmix.Server(tmp, env, f"boot-{index}", fill=False)
        boots.append(server.boot_s)
        server.stop()
    server = svcmix.Server(tmp, env, "server")
    boots.append(server.boot_s)
    try:
        if trace:
            filled = os.path.join(tmp, "filled-store")
            shutil.copytree(server.store, filled)
        untraced = service_list(server, plan, references)
    finally:
        server.stop()
    untraced.update(boot_s=common.median(boots), fill_s=server.fill_s)
    if not trace:
        # Raw: host slowdown readings around the plan or between jobs did
        # not track its time (README, Steadiness), so it is not calibrated.
        return summary(untraced, end_to_end(untraced, common.median(boots) + server.fill_s))
    import spans

    span_dir = os.path.join(tmp, "spans")
    os.makedirs(span_dir)
    spans.install(span_dir)
    traced_env = common.hermetic_env(tmp, span_dir=span_dir)
    traced_server = svcmix.Server(tmp, traced_env, "traced", store=filled)
    try:
        traced = service_list(traced_server, plan, references)
    finally:
        traced_server.stop()
    spans.flush()
    layers = per_layer("service-mix", traced, untraced, span_dir, tmp, ["--store", server.store])
    return summary(traced, layers, extra=untraced)


def service_list(server, plan, references) -> Dict[str, Any]:
    """Drive the plan on a set-up server and collect its results."""
    import svcmix

    result = svcmix.drive(server, plan, references)
    result["peak_rss_mb"] = server.peak_rss_mb()
    result["units_per_s"] = result["attempted"] / result["wall_s"]
    # A failed or rejected job misses every latency limit.
    result["latencies"] = [
        job["latency_s"] if job["ok"] else math.inf for job in result["jobs"]
    ]
    counters: Dict[str, int] = {}
    for job in result["jobs"]:
        for key, value in job.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    result["counters"] = counters
    return result


# -- per-layer metrics ----------------------------------------------------------------


def per_layer(workload, traced, untraced, span_dir, tmp, probe_args) -> Dict[str, Any]:
    """Span self times and counts of the traced list, counters, service
    timings and the tracing overhead, plus the layer probes (``probes.py``)
    this workload's traced run measures."""
    import spans

    merged = spans.load(span_dir)
    totals = spans.layer_totals(merged)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    metrics: Dict[str, Any] = {}
    for experiment in common.experiment_ids():
        runs = [
            s["incl_s"] for s in merged["spans"]
            if s["name"] == "experiments.compute" and s["unit"] == experiment
        ]
        metrics[f"experiments.compute_s.{experiment}"] = (common.median(runs), "s")
    for metric, name in (
        ("kernel.time_bound_s", "kernel.time_bound"),
        ("kernel.m_sig_s", "kernel.m_sig"),
        ("kernel.distance_s", "kernel.distance"),
        ("kernel.execution_measure_s", "kernel.execution_measure"),
        ("perf.fingerprint_s", "perf.fingerprint"),
        ("perf.parallel_map_s", "perf.parallel_map"),
    ):
        metrics[metric] = (self_s(name), "s")
    for metric, name in (
        ("kernel.m_sig.calls", "kernel.m_sig"),
        ("kernel.execution_measure.calls", "kernel.execution_measure"),
        ("perf.fingerprint.calls", "perf.fingerprint"),
        ("perf.parallel_map.calls", "perf.parallel_map"),
    ):
        metrics[metric] = (calls(name), "count")
    # An isolated experiment's own overhead: the guarded call minus the
    # compute span its forked child recorded.
    guarded = [s["self_s"] for s in merged["spans"] if s["name"] == "experiments.guarded"]
    metrics["experiments.guarded_self_s"] = (common.median(guarded), "s")
    reports = calls("api.run_suite")
    metrics["obs.report_s"] = (self_s("obs.report") / reports if reports else 0.0, "s")

    counters = untraced["counters"]

    def counter(name):
        return counters.get(name, 0)

    for tier in CACHE_TIERS:
        metrics[f"perf.cache.{tier}.hit_ratio"] = (
            common.ratio(counter(f"perf.cache.{tier}.hits"), counter(f"perf.cache.{tier}.misses")),
            "ratio",
        )
    for tier in INTERN_TIERS:
        metrics[f"perf.intern.{tier}.hit_ratio"] = (
            common.ratio(counter(f"perf.intern.{tier}.hits"), counter(f"perf.intern.{tier}.misses")),
            "ratio",
        )
    for tier in ("persistent", "sweep"):
        metrics[f"perf.cache.{tier}.hit_ratio"] = (
            common.ratio(counter(f"perf.cache.{tier}.hits"), counter(f"perf.cache.{tier}.misses")),
            "ratio",
        )
    for name in (
        "perf.cache.persistent.writes",
        "perf.parallel.socket.chunks",
        "perf.parallel.socket.retries",
        "perf.supervise.reconnects",
    ):
        metrics[name] = (counter(name), "count")

    # The service's own timings come from the untraced server.
    service = untraced if workload == "service-mix" else {}
    jobs = [job for job in service.get("jobs", []) if job["ok"]]

    def job_median(key):
        return common.median([job[key] for job in jobs])

    metrics.update(
        {
            "service.boot_s": (service.get("boot_s", 0.0), "s"),
            "service.store_fill_s": (service.get("fill_s", 0.0), "s"),
            "service.submit_s.p50": (job_median("submit_s"), "s"),
            "service.queue_wait_s.p50": (job_median("queue_wait_s"), "s"),
            "service.queue_wait_s.p90": (
                common.quantile([job["queue_wait_s"] for job in jobs], 0.90), "s"
            ),
            "service.run_s.p50": (job_median("run_s"), "s"),
            "service.report_s.p50": (job_median("report_s"), "s"),
            "service.overhead_s.p50": (
                common.median([job["latency_s"] - job["compute_s"] for job in jobs]), "s"
            ),
            "service.rejected": (
                sum(job["rejected"] for job in service.get("jobs", [])), "count"
            ),
        }
    )
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"], "ratio")
    metrics["trace.processes"] = (merged["pids"], "count")

    probes_out = os.path.join(tmp, "probes.json")
    common.run_python(
        [PROBES_PY, "--workload", workload, "--out", probes_out, *probe_args],
        common.hermetic_env(tmp),
    )
    for name, value in common.read_json(probes_out).items():
        unit = "ratio" if name.endswith("_ratio") else "s"
        metrics[name] = (value, unit)
    return metrics


# -- output ---------------------------------------------------------------------------


def summary(result, metrics, *, extra=None) -> Dict[str, Any]:
    attempted = result["attempted"] + (extra["attempted"] if extra else 0)
    failed = result["failed"] + (extra["failed"] if extra else 0)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": min(float(value), 1e9), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "detail": {
            "wall_s": result["wall_s"],
            "units": result["attempted"],
            "pass_walls": result.get("pass_walls"),
            "slowdown": result.get("slowdown"),
            "raw_units_per_s": result.get("raw_units_per_s"),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A terminated run still stops its servers and removes its directory.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"no program source at {common.SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    for key in [k for k in os.environ if k.startswith(("REPRO_", "E2EBENCH_"))]:
        del os.environ[key]
    runs_dir = os.path.join(common.ROOT, ".e2ebench_tmp")
    os.makedirs(runs_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=runs_dir)
    tempfile.tempdir = tmp
    os.environ["TMPDIR"] = tmp
    try:
        plan = PLANS[args.workload](args.seed, args.seconds)
        if args.workload == "service-mix":
            result = run_service(plan, tmp, bool(args.trace))
        else:
            service_plan = common.service_plan(args.seed, args.seconds)
            result = run_batch(args.workload, plan, tmp, bool(args.trace), service_plan)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(runs_dir)
        except OSError:
            pass
    detail = result.pop("detail")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
