"""In-memory span recorder for the benchmark's traced run.

The benchmark never edits the program: :func:`install` wraps the public
functions of each layer (the ``TARGETS`` table) with recorders that live
only in the process that installed them.  ``hook/sitecustomize.py`` calls
:func:`install` at interpreter start-up whenever ``E2EBENCH_SPAN_DIR`` is
set, so the benchmark's own workload process, the service, its pool
workers and every process they fork all record spans.

Two kinds of wrapper:

* **coarse** boundaries (a suite, an experiment, a sweep, a report) keep
  one span each — ``(id, parent, name, start, end, unit)`` — with the
  parent being the innermost open span of the calling thread; a forked
  child inherits its parent's open stack, so spans recorded in the child
  point at the span that forked it;
* **hot** functions (called up to millions of times per run) only add to a
  per-process ``(calls, inclusive, self)`` aggregate.

Each process keeps its records in memory and writes them to
``<dir>/spans-<pid>-<n>.json`` when it exits — through ``atexit``, through
``os._exit`` (forked children), or on ``SIGTERM``.  :func:`load` merges
every file; a coarse span's self time is its duration minus the time its
same-thread children took and minus the part of its interval covered by
child spans recorded in other processes.
"""

from __future__ import annotations

import atexit
import functools
import glob
import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, hot, unit from the first argument)
TARGETS: List[Tuple[str, str, str, bool, bool]] = [
    ("repro.api.suite", "run_suite", "api.run_suite", False, False),
    ("repro.experiments.common", "run_experiment_guarded", "experiments.guarded", False, True),
    ("repro.experiments.common", "run_experiment", "experiments.compute", False, True),
    ("repro.obs.report", "build_report", "obs.report", False, False),
    ("repro.obs.report", "validate_report", "obs.report", False, False),
    ("repro.perf.parallel", "parallel_map", "perf.parallel_map", False, False),
    ("repro.bounded.bounds", "measure_time_bound", "kernel.time_bound", True, False),
    ("repro.bounded.costmodel", "ReferenceDecoders.m_sig", "kernel.m_sig", True, False),
    ("repro.secure.implementation", "implementation_distance", "kernel.distance", True, False),
    ("repro.semantics.measure", "execution_measure", "kernel.execution_measure", True, False),
    ("repro.perf.fingerprint", "fingerprint", "perf.fingerprint", True, False),
]

_clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: shared by all processes


class _State:
    """Per-process buffers (re-created in every forked child)."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.agg: Dict[str, List[float]] = {}
        self.flushes = 0


_state = _State()
_ids = itertools.count(1)
_local = threading.local()
_span_dir: Optional[str] = None
_lock = threading.Lock()


def _stack() -> List[List[Any]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _job_unit() -> Optional[str]:
    return os.environ.get("REPRO_JOB_ID") or None


def _make_wrapper(fn: Callable, name: str, hot: bool, unit_arg: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        # frame: [span id, child seconds]
        frame = [f"{os.getpid()}:{next(_ids)}", 0.0]
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            with _lock:
                if hot:
                    entry = _state.agg.get(name)
                    if entry is None:
                        entry = _state.agg[name] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
                else:
                    unit = str(args[0]) if unit_arg and args else _job_unit()
                    _state.spans.append(
                        [frame[0], parent, name, start, end, frame[1], unit]
                    )

    return wrapper


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(span_dir: str) -> None:
    """Wrap every target and arrange for this process tree to flush."""
    global _span_dir
    if _span_dir is not None:
        return
    _span_dir = span_dir
    originals: Dict[int, Callable] = {}
    for module_name, path, name, hot, unit_arg in TARGETS:
        owner, attr, fn = _resolve(module_name, path)
        wrapper = _make_wrapper(fn, name, hot, unit_arg)
        setattr(owner, attr, wrapper)
        originals[id(fn)] = wrapper
    # Modules imported while resolving the targets may already hold
    # ``from x import f`` bindings to the originals: point them at the
    # wrappers too (modules imported later read the patched attribute).
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, key, wrapper)

    os.register_at_fork(after_in_child=_reset_in_child)
    atexit.register(flush)
    real_exit = os._exit

    def _exit(code: int) -> None:
        flush()
        real_exit(code)

    os._exit = _exit
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _on_sigterm)


def _reset_in_child() -> None:
    # The parent's records are the parent's to flush, and a lock some other
    # parent thread held at fork time would never be released here.
    global _state, _lock
    _state = _State()
    _lock = threading.Lock()


def _on_sigterm(signum, _frame) -> None:
    flush()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def flush() -> None:
    """Write this process's records to the span directory (idempotent)."""
    if _span_dir is None:
        return
    with _lock:
        spans, agg = _state.spans, _state.agg
        if not spans and not agg:
            return
        _state.spans, _state.agg = [], {}
        _state.flushes += 1
        path = os.path.join(
            _span_dir, f"spans-{os.getpid()}-{_state.flushes}.json"
        )
    payload = {"pid": os.getpid(), "spans": spans, "agg": agg}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


# -- merging ------------------------------------------------------------------


def _covered(interval: Tuple[float, float], children: List[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def load(span_dir: str) -> Dict[str, Any]:
    """Merge every process's span file.

    Returns ``{"spans": [...], "agg": {name: {calls, incl_s, self_s}},
    "pids": n}`` where each span is a dict with ``name``, ``unit``,
    ``pid``, ``incl_s`` and ``self_s``."""
    spans: List[List[Any]] = []
    agg: Dict[str, Dict[str, float]] = {}
    pids = set()
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        pids.add(payload["pid"])
        spans.extend(payload["spans"])
        for name, (calls, incl, self_s) in payload["agg"].items():
            entry = agg.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["incl_s"] += incl
            entry["self_s"] += self_s
    remote_children: Dict[str, List[Tuple[float, float]]] = {}
    for span_id, parent, _name, start, end, _child, _unit in spans:
        if parent is not None and parent.split(":")[0] != span_id.split(":")[0]:
            remote_children.setdefault(parent, []).append((start, end))
    merged = []
    for span_id, _parent, name, start, end, child_s, unit in spans:
        duration = end - start
        remote = _covered((start, end), remote_children.get(span_id, []))
        merged.append(
            {
                "name": name,
                "unit": unit,
                "pid": int(span_id.split(":")[0]),
                "start": start,
                "incl_s": duration,
                "self_s": max(0.0, duration - child_s - remote),
            }
        )
    return {"spans": merged, "agg": agg, "pids": len(pids)}


def layer_totals(merged: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive and self seconds over all processes."""
    totals: Dict[str, Dict[str, float]] = {
        name: dict(entry) for name, entry in merged["agg"].items()
    }
    for span in merged["spans"]:
        entry = totals.setdefault(span["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["incl_s"] += span["incl_s"]
        entry["self_s"] += span["self_s"]
    return totals
