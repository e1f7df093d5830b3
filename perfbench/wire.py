"""The ``wire`` workload: a served campaign driven open-loop.

``repro-hcmd serve`` runs in its own process, exactly as an operator
starts it; this process drives it with :mod:`openloop` and reads the
service's own view back from ``GET /v1/status``.  The traffic's shape
(fleet, reports per handed-out copy, campaign time per visit) is the
served campaign's own, recorded in ``reference.json`` (``wire-traffic``)
by ``record_reference.py --workload wire``; its rates are stress points
(see README.md).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time

from openloop import OpenLoopClient, Rung, Traffic, Visits, sustained
from probe import SpeedProbes, measure_cpus, speed_factor
from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
READY_TIMEOUT_S = 60.0

#: Environment of every measured process: one BLAS/OpenMP thread.  An idle
#: BLAS pool spins at ``import numpy`` and adds CPU seconds that are not
#: the program's work (about 0.3 s on the 2-core container).
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def wire_traffic(reference: dict) -> Traffic:
    """The served campaign's scheduler traffic, pooled over the seeds
    recorded in ``reference["wire-traffic"]`` (the fleet size does not
    depend on the seed): every request-work of the in-process run is one
    visit, ``agent.fetch`` counts the copies handed out and
    ``agent.report`` those reported back."""
    runs = list(reference["wire-traffic"].values())
    fleets = {r["n_hosts"] for r in runs}
    if len(fleets) != 1:
        raise ValueError(f"recorded fleet sizes differ: {sorted(fleets)}")
    fetched = sum(r["counts"]["agent.fetch"] for r in runs)
    reported = sum(r["counts"]["agent.report"] for r in runs)
    visits = sum(r["counts"]["agent.fetch"] + r["counts"]["agent.idle"] for r in runs)
    campaign_s = sum(r["completion_time"] for r in runs)
    return Traffic(n_hosts=fleets.pop(), report_frac=min(1.0, reported / fetched),
                   sim_step_s=campaign_s / visits)


class Server:
    """One ``serve`` process, pinned to ``cpus``: launch stamp, ready
    stamp, address."""

    def __init__(self, seed: int, cfg: dict, work_dir: str, cpus: set[int],
                 spans_path: str | None = None):
        serve_args = [
            "--seed", str(seed), "serve",
            "--scale", str(cfg["scale"]), "--proteins", str(cfg["proteins"]),
            "--port", "0", "--max-pending", str(cfg["max_pending"]),
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   spans_path, *serve_args]
        env = dict(os.environ, **ONE_THREAD_ENV)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.stderr_path = os.path.join(work_dir, f"serve-{time.monotonic_ns()}.err")
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            line = self._read_line(READY_TIMEOUT_S)
            match = re.search(r"http://([0-9.]+):([0-9]+)", line)
            if match is None:
                raise RuntimeError(f"serve did not start: {line!r} {self._err()}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.get("/")
            self.ready = time.monotonic()
            self.setup_cpu_s = self.cpu_s()
        except BaseException:
            self.kill()
            raise

    def _read_line(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        if not ready:
            raise RuntimeError(f"serve not ready after {timeout_s:.0f} s")
        return self.proc.stdout.readline()

    def _err(self) -> str:
        with open(self.stderr_path, encoding="utf-8") as fh:
            return fh.read()[-2000:]

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {resp.status}")
            return json.loads(body)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """CPU seconds the ``serve`` process's threads have run
        (nanosecond scheduler accounting, not 10 ms ticks)."""
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/schedstat", encoding="ascii") as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:
                pass  # the thread ended between listdir and open
        return total / 1e9

    def stop(self) -> str:
        """Graceful SIGTERM stop (the service drains); returns stdout."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"serve exited {self.proc.returncode}: {self._err()}")
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self._stderr.closed:
            self._stderr.close()
        if os.path.exists(self.stderr_path):
            os.unlink(self.stderr_path)


def rung_summary(rung: Rung, limit_ms: float) -> dict:
    lat = rung.latencies_ms()
    lag = rung.lag_ms()
    p99 = percentile(lat, 99) if lat else float("inf")
    return {
        "rate": rung.rate,
        "attempted": len(rung.attempted),
        "answered": len(lat),
        "errors": rung.errors(),
        "over_limit": rung.over_limit(limit_ms),
        "p50_ms": percentile(lat, 50) if lat else float("inf"),
        "p99_ms": p99,
        "lag_p99_ms": percentile(lag, 99) if lag else 0.0,
        "backlog": rung.backlog,
        "answered_per_s": busy_rate([r.answered for r in rung.requests
                                     if r.answered is not None]),
        "sustained": sustained(rung, limit_ms, p99),
        "latencies_ms": lat,
    }


def busy_rate(answer_times: list[float]) -> float:
    """Answers per second in the middle 80% of the answering period (the
    start-up and drain tails of a rung are left out)."""
    if len(answer_times) < 10:
        return 0.0
    t10, t90 = percentile(answer_times, 10), percentile(answer_times, 90)
    return 0.8 * len(answer_times) / (t90 - t10) if t90 > t10 else 0.0


async def drive(server: Server, cfg: dict, visits: Visits,
                full: bool) -> tuple[list[dict], dict]:
    """The ladder's base rung, then (with ``full``) the rest of the ladder.
    Returns the rung summaries (base first) and what was read right after
    the base rung: the service's status, when it arrived, the service's
    peak memory and the CPU seconds it spent serving the base rung."""
    limit = cfg["limit_ms"]
    base_rps, *higher = cfg["ladder_rps"]
    rungs = []
    async with OpenLoopClient(server.host, server.port, cfg["connections"],
                              visits) as client:
        t0, cpu0 = time.monotonic(), server.cpu_s()
        rung = await client.run_rung(base_rps, cfg["base_s"])
        cpu, t1 = server.cpu_s() - cpu0, time.monotonic()
        rungs.append(rung_summary(rung, limit))
        # The pipe is empty here, so blocking the loop for one GET delays
        # no request.
        base = {
            "status": server.get("/v1/status"),
            "reported": time.monotonic(),
            "peak_rss_mb": server.peak_rss_mb(),
            "cpu_s": cpu,
            "interval": (t0, t1),
        }
        if full:
            for rate in higher:
                rung = await client.run_rung(rate, cfg["rung_s"])
                rungs.append(rung_summary(rung, limit))
    return rungs, base


def reconcile(status: dict, rungs: list[dict], gets: int) -> list[str]:
    """Client counts against the service's own (``GET /v1/status``)."""
    problems = []
    sent = sum(r["attempted"] for r in rungs)
    if status["requests_total"] != sent + gets:
        problems.append(
            f"requests_total {status['requests_total']} != client {sent} + {gets} GETs")
    refused = sum(status["refused"].values())
    if refused:
        problems.append(f"service refused {refused} requests")
    unanswered = sum(r["attempted"] - r["answered"] for r in rungs)
    if unanswered:
        problems.append(f"{unanswered} requests never answered")
    return problems


def run_wire(seed: int, cfg: dict, traffic: Traffic, work_dir: str,
             trace: bool) -> list[dict]:
    """One benchmark run of the ``wire`` workload: ``cfg["launches"]``
    fresh ``serve`` processes, each serving the base rung; the last one
    also climbs the rest of the rate ladder, and is the traced one with
    ``trace``.  Every launch replays the same seeded visits.  ``serve``
    runs pinned to one probed core (``probe.py``), the generator on the
    others; ``speed`` holds the core-speed factors of its set-up and of
    its base rung."""
    server_cpus = set(measure_cpus(1))
    others = set(os.sched_getaffinity(0)) - server_cpus or server_cpus
    launches = []
    with SpeedProbes(sorted(server_cpus), work_dir, pin_to=others) as probes:
        for i in range(cfg["launches"]):
            last = i == cfg["launches"] - 1
            launches.append(_launch(seed, cfg, traffic, work_dir, server_cpus,
                                    trace and last, full=last))
        by_cpu = probes.samples()
    for launch in launches:
        launch["speed"] = {
            "setup": speed_factor(by_cpu, launch["launched"], launch["ready"]),
            "base": speed_factor(by_cpu, *launch["base_interval"]),
        }
    return launches


def _launch(seed: int, cfg: dict, traffic: Traffic, work_dir: str,
            cpus: set[int], traced: bool, full: bool) -> dict:
    spans_path = os.path.join(work_dir, "serve-spans.json") if traced else None
    server = Server(seed, cfg, work_dir, cpus, spans_path=spans_path)
    try:
        rungs, base = asyncio.run(
            drive(server, cfg, Visits(traffic, seed), full=full))
        status = server.get("/v1/status")
        final = server.stop()
        exited = time.monotonic()
    finally:
        server.kill()
    # GET / at start-up, GET /v1/status after the base rung and at the end.
    problems = reconcile(status, rungs, gets=3)
    if "requests answered" not in final:
        problems.append("serve printed no final table")
    launch = {
        "setup_cpu_s": server.setup_cpu_s,
        "e2e": base["reported"] - server.launched,
        "peak_rss_mb": base["peak_rss_mb"],
        "served_per_cpu_s": rungs[0]["answered"] / base["cpu_s"],
        "rungs": rungs,
        "base_status": base["status"],
        "status": status,
        "problems": problems,
        "launched": server.launched,
        "ready": server.ready,
        "base_interval": base["interval"],
        "lifetime": exited - server.launched,
    }
    if spans_path is not None:
        with open(spans_path, encoding="utf-8") as fh:
            launch["spans"] = json.load(fh)
        os.unlink(spans_path)
    return launch
