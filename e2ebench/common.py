"""Shared pieces of the benchmark: seeded plans, hermetic processes, stats.

Every workload runs a *fixed* list of work generated from ``--seed`` and
sized from ``--seconds`` by the per-unit cost constants below — never by
the clock — so two runs with the same arguments do identical work, and runs
with different seeds do the same amount of each kind of work.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
HOOK_DIR = os.path.join(BENCH_DIR, "hook")

# The cost constants below were measured on the 2-core box while its host
# ran slow, so that a run stays inside its share of the time a full check
# of the benchmark may take even then.
#: seconds one isolated fast-suite pass takes on a 2-core box
SUITE_PASS_S = 7.0
#: seconds one kernel block (bound n=16, 20, 24 + two creation pairs) takes
KERNEL_BLOCK_S = 5.0
#: seconds one service job takes, on average over the plan's shapes
SERVICE_JOB_S = 0.85
#: server boots per service-mix run; the median is the boot part of set-up
SERVER_BOOTS = 3
#: closed-loop service clients (the box has 2 cores)
CLIENTS = 2
#: seconds any one benchmark subprocess may take
SUBPROCESS_TIMEOUT_S = 170

KERNEL_SIZES = (16, 20, 24)
#: creation biases delta = k/16
CREATION_KS = tuple(range(1, 8))
#: the job shapes docs/service.md, CI and ROADMAP name
SERVICE_SHAPES = (("E12", "E15"), ("E15",), ("E3",), ("E3", "E9", "E14"), ("E13",))
#: experiments whose output depends on RunConfig.seed
SEEDED_EXPERIMENTS = frozenset({"E15"})
#: seed of the [E12, E15] job that cold-fills the store during set-up
FILL_SEED = 7


def experiment_ids() -> List[str]:
    return [f"E{i}" for i in range(1, 16)]


# -- plans -------------------------------------------------------------------


def suite_plan(seed: int, seconds: int) -> Dict[str, Any]:
    """Back-to-back passes over the 15 fast experiments, each pass in a
    seeded order (isolated children make the order irrelevant to output)."""
    rng = random.Random(seed)
    passes = max(2, round(seconds / SUITE_PASS_S))
    order = []
    for _ in range(passes):
        ids = experiment_ids()
        rng.shuffle(ids)
        order.append(ids)
    return {"passes": order}


def kernel_plan(seed: int, seconds: int) -> Dict[str, Any]:
    """``blocks`` x (one composition-bound pair per size + two creation
    pairs), each block's instances in a seeded order; random automata
    seeds and creation biases are drawn from ``seed``.

    Two creation pairs per block make the instances that cost about 1 s
    (n = 24 and creation) three fifths of the list, so p50 and p75 both
    fall inside that cluster instead of on the gap below it.  The list
    runs once: the cost of a random automaton varies with its seed, so
    more instances steady the throughput more than repeating fewer would.
    """
    rng = random.Random(seed)
    blocks = max(1, round(seconds / KERNEL_BLOCK_S))
    ks: List[int] = []
    while len(ks) < 2 * blocks:
        cycle = list(CREATION_KS)
        rng.shuffle(cycle)
        ks.extend(cycle)
    instances: List[Dict[str, Any]] = []
    for block in range(blocks):
        members: List[Dict[str, Any]] = [
            {"kind": "bound", "n": n, "seed": rng.randrange(2**31)}
            for n in KERNEL_SIZES
        ]
        members += [{"kind": "creation", "k": k} for k in ks[2 * block: 2 * block + 2]]
        rng.shuffle(members)
        instances.extend(members)
    return {"instances": instances}


def service_plan(seed: int, seconds: int) -> Dict[str, Any]:
    """Per client: ``fresh`` jobs (equal counts of every shape, fresh
    seeds) plus one identical resubmission of each, placed after its
    original.  Seeds are unique across clients, so the two clients never
    submit identical jobs (no coalescing between them).

    The order of shapes and the interleaving of resubmissions are fixed
    (drawn from seed 0); ``seed`` draws the fresh jobs' seeds.  With one
    dispatcher serving two clients, a job's latency includes the job the
    other client has running, so a seed-dependent order would make the
    pairings, and with them the latency quantiles, differ between seeds.
    """
    rng = random.Random(seed)
    structure = random.Random(0)
    jobs_per_shape = 2 * CLIENTS  # a fresh job and its resubmission per client
    per_shape = max(1, round(seconds / (SERVICE_JOB_S * jobs_per_shape * len(SERVICE_SHAPES))))
    fresh = per_shape * len(SERVICE_SHAPES)
    seeds = rng.sample(range(100, 10**9), CLIENTS * fresh)
    plan = []
    for client in range(CLIENTS):
        shapes = [list(s) for s in SERVICE_SHAPES for _ in range(per_shape)]
        structure.shuffle(shapes)
        originals = [
            {"shape": shape, "seed": seeds[client * fresh + i]}
            for i, shape in enumerate(shapes)
        ]
        sequence: List[Dict[str, Any]] = []
        pending: List[int] = []
        position: Dict[int, int] = {}
        nxt = 0
        while nxt < fresh or pending:
            if pending and (nxt == fresh or structure.random() < 0.5):
                original = pending.pop(structure.randrange(len(pending)))
                job = dict(originals[original], resubmit_of=position[original])
            else:
                original = nxt
                nxt += 1
                pending.append(original)
                position[original] = len(sequence)
                job = dict(originals[original], resubmit_of=None)
            sequence.append(job)
        plan.append(sequence)
    return {"clients": plan}


def reference_keys(plan: Dict[str, Any]) -> List[List[Any]]:
    """The distinct (experiment, seed) pairs whose tables the service-mix
    check compares against (seed is None where output ignores it)."""
    keys = {("E12", None), ("E15", FILL_SEED)}
    for sequence in plan["clients"]:
        for job in sequence:
            for experiment in job["shape"]:
                keys.add(
                    (experiment, job["seed"] if experiment in SEEDED_EXPERIMENTS else None)
                )
    return sorted(([e, s] for e, s in keys), key=lambda k: (k[0], k[1] or 0))


def reference_key(experiment: str, seed: Optional[int]) -> str:
    return f"{experiment}:{seed if experiment in SEEDED_EXPERIMENTS else ''}"


def add_counters(counters: Dict[str, int], report: Dict[str, Any]) -> Dict[str, int]:
    """Fold a run report's perf counters into ``counters``: the summary's
    cache tiers plus the per-record store, sweep and transport counters."""
    summary = report["summary"]["cache"]["counters"]
    for name, value in summary.items():
        counters[name] = counters.get(name, 0) + value
    for record in report["experiments"]:
        for name, value in record["counters"].items():
            if name.startswith(("perf.parallel", "perf.supervise", "perf.cache")) and name not in summary:
                counters[name] = counters.get(name, 0) + value
    return counters


# -- hermetic processes --------------------------------------------------------


def hermetic_env(tmp: str, *, span_dir: Optional[str] = None) -> Dict[str, str]:
    """The environment every process under test gets: no inherited
    ``REPRO_*`` gates, the checkout's ``src`` on the path, temp files in
    the run's private directory, and the span hook only when tracing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("REPRO_", "E2EBENCH_"))}
    path = [SRC]
    if span_dir is not None:
        path.insert(0, HOOK_DIR)
        env["E2EBENCH_SPAN_DIR"] = span_dir
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def run_python(args: Sequence[str], env: Dict[str, str]) -> str:
    """Run ``python3 args...`` to completion in its own process group;
    returns stdout, raises on a non-zero exit."""
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    except BaseException:
        stop_group(proc)
        raise
    finally:
        stop_group(proc, grace=0)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {err[-2000:]}")
    return out


def stop_group(proc: subprocess.Popen, *, grace: float = 10.0) -> None:
    """Stop ``proc`` and everything in its process group; wait for all."""
    pgid = proc.pid
    if proc.poll() is None and grace > 0:
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=grace)
        except (subprocess.TimeoutExpired, ProcessLookupError):
            pass
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if proc.poll() is None:
        proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.02)


def time_python(args: Sequence[str], env: Dict[str, str]) -> float:
    """Wall seconds of one ``python3 args...`` run (interpreter start to exit)."""
    start = time.perf_counter()
    run_python(args, env)
    return time.perf_counter() - start


# -- host-speed calibration ----------------------------------------------------


#: seconds ``reference_work`` takes on the fast state of the 2-core host
REFERENCE_S = 0.0035


def reference_work() -> int:
    """A fixed pure-Python loop with the kernels' mix of operations: tuple
    keys, dict updates and exact rational arithmetic.  It is benchmark
    code, so a change to the program never moves it."""
    from fractions import Fraction

    table: Dict[Any, int] = {}
    total = Fraction(0)
    for i in range(6000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + 1
        if i % 6 == 0:
            total += Fraction(i % 5, 16)
    return len(table) + total.denominator


def host_slowdown() -> float:
    """How much slower than its fast state the host runs right now: the
    fastest of three reference loops over ``REFERENCE_S``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_S


def calibrated(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``fn()``; returns its result, its wall seconds divided by the
    host slowdown read right before and right after it, and that slowdown."""
    before = host_slowdown()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    slowdown = (before + host_slowdown()) / 2
    return result, elapsed / slowdown, slowdown


# -- stats -------------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its reaped children
    (children here run one at a time, so the tree peak is their sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tree_hwm_mb(root_pid: int) -> float:
    """Sum of peak RSS (``VmHWM``) over ``root_pid`` and its live descendants."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    tree = {root_pid}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parents.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    total_kb = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
