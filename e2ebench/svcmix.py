"""The ``service-mix`` workload: the documented service deployment under two
closed-loop clients.

The server is ``python -m repro.service --port 0 --pool 2 --cache-dir
<private tmp>`` in a process group of its own, so stopping the group stops
its pool workers and every process they forked.  Each client submits its
share of the seeded job plan, follows the job's Server-Sent-Events stream
to the terminal event (no status polling, so latencies are not quantized
by a poll interval), fetches the report and validates it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

import common

TERMINAL = ("done", "failed", "cancelled")


class Server:
    """One service process group, booted and reachable.

    ``store`` is the ``--cache-dir`` (default: an empty directory of the
    server's own).  With ``fill`` the server also runs the ``[E12, E15]``
    fill job before it counts as set up: cold on an empty store, a warm
    read on a store copied from a filled one."""

    def __init__(self, tmp: str, env: Dict[str, str], name: str, *,
                 store: Optional[str] = None, fill: bool = True) -> None:
        from repro.service.client import ServiceClient

        self.dir = os.path.join(tmp, name)
        os.makedirs(self.dir)
        self.store = store or os.path.join(self.dir, "store")
        start = time.perf_counter()
        with open(os.path.join(self.dir, "server.err"), "wb") as err:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service", "--port", "0",
                    "--pool", "2", "--cache-dir", self.store,
                ],
                env=env, cwd=common.ROOT, stdout=subprocess.PIPE,
                stderr=err, text=True, start_new_session=True,
            )
        try:
            banner = self.proc.stdout.readline().strip()
            if "listening on" not in banner:
                raise RuntimeError(f"service did not start: {banner!r}")
            self.url = "http://" + banner.rsplit(" ", 1)[1]
            self.client = ServiceClient(self.url, timeout=120)
            while self.client.health()["pool"]["alive"] < 2:
                if time.perf_counter() - start > 60:
                    raise RuntimeError("pool workers did not come up")
                time.sleep(0.005)
            self.boot_s = time.perf_counter() - start
            self.fill_s = 0.0
            if fill:
                result = run_job(self.client, ["E12", "E15"], common.FILL_SEED)
                if not result["ok"]:
                    raise RuntimeError(f"store fill job failed: {result['error']}")
                self.fill_s = result["latency_s"]
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return common.tree_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        common.stop_group(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def run_job(client, shape: List[str], seed: int) -> Dict[str, Any]:
    """Submit one job and wait for its validated report (closed loop)."""
    from repro.obs import report as report_mod
    from repro.service.client import ServiceClientError

    result: Dict[str, Any] = {"shape": shape, "seed": seed, "ok": False,
                              "rejected": False, "error": None}
    t0 = time.perf_counter()
    try:
        job = client.submit(shape, config={"seed": seed})
        t1 = time.perf_counter()
        times: Dict[str, float] = {}
        state = None
        for event in client.stream_events(job["id"], timeout=170):
            if event.get("event") == "state":
                times[event["state"]] = event["unix"]
                state = event["state"]
                if state in TERMINAL:
                    break
        if state != "done":
            raise RuntimeError(f"job {job['id']} ended {state!r}")
        t2 = time.perf_counter()
        report = client.report(job["id"])
        report_mod.validate_report(report)
        t3 = time.perf_counter()
    except ServiceClientError as exc:
        result["rejected"] = exc.status == 429
        result["error"] = str(exc)
        return result
    except (OSError, ValueError, RuntimeError) as exc:
        result["error"] = repr(exc)
        return result
    records = report["experiments"]
    result.update(
        ok=all(r["ok"] for r in records) and [r["experiment"] for r in records] == shape,
        latency_s=t3 - t0,
        submit_s=t1 - t0,
        report_s=t3 - t2,
        queue_wait_s=times["running"] - times["queued"],
        run_s=times["done"] - times["running"],
        compute_s=sum(r["elapsed_s"] for r in records),
        tables={r["experiment"]: r["table"] for r in records},
        counters=common.add_counters({}, report),
    )
    if not result["ok"]:
        result["error"] = "experiment record not ok"
    return result


def drive(server: Server, plan: Dict[str, Any], references: Dict[str, str]) -> Dict[str, Any]:
    """Run the plan with one closed-loop client per plan sequence (this
    thread plus one more) and check every job's output."""
    from repro.service.client import ServiceClient

    sequences = plan["clients"]
    results: List[List[Optional[Dict[str, Any]]]] = [[None] * len(s) for s in sequences]

    def client_loop(index: int) -> None:
        client = ServiceClient(server.url, tenant=f"client-{index}", timeout=120)
        for position, job in enumerate(sequences[index]):
            try:
                results[index][position] = run_job(client, job["shape"], job["seed"])
            except Exception:  # noqa: BLE001 - a client must finish its plan
                results[index][position] = {
                    "ok": False, "rejected": False, "error": traceback.format_exc(),
                }

    start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(1, len(sequences))]
    for thread in threads:
        thread.start()
    try:
        client_loop(0)
    finally:
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - start

    failed = 0
    jobs: List[Dict[str, Any]] = []
    for index, sequence in enumerate(sequences):
        for position, job in enumerate(sequence):
            result = results[index][position]
            if result["ok"]:
                original = job["resubmit_of"]
                if original is not None and result["tables"] != results[index][original].get("tables"):
                    result.update(ok=False, error="resubmission tables differ")
                elif any(
                    table != references[common.reference_key(e, job["seed"])]
                    for e, table in result["tables"].items()
                ):
                    result.update(ok=False, error="tables differ from the store-less run")
            failed += not result["ok"]
            result["resubmission"] = job["resubmit_of"] is not None
            jobs.append(result)
    return {"attempted": len(jobs), "failed": failed, "wall_s": wall, "jobs": jobs}


def compute_references(keys: List[List[Any]]) -> Dict[str, str]:
    """Each (experiment, seed) table from ``run_suite`` without a store."""
    from repro import api

    references: Dict[str, str] = {}
    for experiment, seed in keys:
        config = api.RunConfig(isolated=False, seed=seed)
        result = api.run_suite([experiment], config=config)
        record = result.records[0]
        if not record["ok"]:
            raise RuntimeError(f"reference run of {experiment} failed: {record['error']}")
        references[common.reference_key(experiment, seed)] = record["table"]
    return references
