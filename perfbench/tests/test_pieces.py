"""Tests for the benchmark's own pieces (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import time

import pytest

import openloop
import probe
import run
from openloop import (
    OpenLoopClient, Request, Rung, Session, Traffic, Visits, schedule, sustained,
)
from spans import SpanRecorder, wrap
from stats import high_percentile, percentile, summarize, valid_name, valid_unit

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


# -- percentile rule -----------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, expected_q", [
    (3, None), (39, None), (40, 75.0), (100, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9),
])
def test_high_percentile_keeps_ten_samples_beyond(n, expected_q):
    values = [float(v) for v in range(n)]
    got = high_percentile(values)
    if expected_q is None:
        assert got is None
        return
    q, value = got
    assert q == expected_q
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10


def test_summarize_reports_median_high_and_count():
    s = summarize([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "n": 3, "high": None}
    s = summarize(range(1000))
    assert s["n"] == 1000 and s["high"][0] == 99.0


# -- self-time arithmetic ------------------------------------------------------

def test_self_time_is_span_minus_direct_children():
    rec = SpanRecorder()
    rec.enter("run")
    rec.enter("leaf")
    rec.exit(1.5)                 # direct child of run
    rec.enter("call")
    rec.enter("leaf")
    rec.exit(0.25)                # grandchild of run, child of call
    rec.exit(1.0)                 # call: 1.0 inclusive
    rec.exit(5.0)                 # run: 5.0 inclusive
    assert rec.total("run") == 5.0
    assert rec.child_total("run") == 2.5
    assert rec.self_time("run") == 2.5
    assert rec.self_time("call") == 0.75
    assert rec.self_time("leaf") == rec.total("leaf") == 1.75
    assert rec.calls("leaf") == 2


def test_merge_and_json_round_trip_add_up():
    rec = SpanRecorder()
    rec.enter("a")
    rec.enter("b")
    rec.exit(1.0)
    rec.exit(3.0)
    other = SpanRecorder()
    other.merge(SpanRecorder.edges_from_json(rec.to_json()))
    other.merge(rec.edges)
    assert other.total("a") == 6.0
    assert other.self_time("a") == 4.0
    assert other.calls("b") == 2


def test_wrap_times_functions_methods_and_classmethods():
    rec = SpanRecorder()

    class Thing:
        def method(self, x):
            return helper(x) + 1

        @classmethod
        def build(cls, x):
            return cls().method(x)

    def helper(x):
        return 2 * x

    wrap(rec, Thing, "method", "Thing.method")
    wrap(rec, Thing, "build", "Thing.build")
    assert Thing.build(3) == 7
    assert Thing().method(1) == 3
    assert rec.calls("Thing.method") == 2
    assert rec.calls("Thing.build") == 1
    assert rec.self_time("Thing.build") <= rec.total("Thing.build")
    edges = {key for key in rec.edges}
    assert ("Thing.build", "Thing.method") in edges
    rec.reset()
    assert rec.edges == {}


# -- open-loop accounting ------------------------------------------------------

def _req(due, sent, answered, status=200, blocked=False, op="heartbeat"):
    r = Request(due=due, op=op, session=Session(host=0, conn=0, t_sim=0.0))
    r.sent, r.answered, r.status, r.blocked = sent, answered, status, blocked
    return r


def test_latency_is_timed_from_due_and_lag_from_free_sends():
    rung = Rung(rate=100.0, requests=[
        _req(due=0.00, sent=0.001, answered=0.011),
        # generator ran 5 ms late: latency still counts from due
        _req(due=0.01, sent=0.015, answered=0.020),
        # blocked on its request-work reply: late, but not the generator's lag
        _req(due=0.02, sent=0.100, answered=0.110, blocked=True, op="report_result"),
    ])
    assert rung.latencies_ms() == pytest.approx([11.0, 10.0, 90.0])
    assert rung.lag_ms() == pytest.approx([1.0, 5.0])


def test_refused_and_lost_requests_count_as_errors_and_over_limit():
    rung = Rung(rate=100.0, requests=[
        _req(0.0, 0.0, 0.001),
        _req(0.0, 0.0, 0.002, status=503),
        _req(0.0, 0.0, None),                # sent, never answered
        _req(0.0, 0.0, 0.500),               # answered after a 250 ms limit
        _req(0.0, None, None),               # never sent: not attempted
    ])
    assert len(rung.attempted) == 4
    assert rung.errors() == 2
    assert rung.over_limit(250.0) == 3


def test_sustained_needs_p99_errors_and_backlog_within_limits():
    ok = Rung(rate=1000.0, requests=[_req(0.0, 0.0, 0.001)], backlog=10)
    assert sustained(ok, limit_ms=250.0, p99_ms=5.0)
    assert not sustained(ok, limit_ms=250.0, p99_ms=300.0)
    growing = Rung(rate=1000.0, requests=[_req(0.0, 0.0, 0.001)], backlog=251)
    assert not sustained(growing, limit_ms=250.0, p99_ms=5.0)


def test_schedule_spaces_visits_of_the_fleet_evenly():
    traffic = Traffic(n_hosts=20, report_frac=1.0, sim_step_s=30.0)
    reqs = schedule(rate=301.0, duration_s=1.0, t0=10.0,
                    visits=Visits(traffic, seed=3), connections=2)
    assert len(reqs) == 301
    gaps = {round(b.due - a.due, 9) for a, b in zip(reqs, reqs[1:])}
    assert gaps == {round(1 / 301.0, 9)}
    sessions = [r.session for r in reqs if r.op == "heartbeat"]
    # first visits have nothing to report; later ones report, then ask
    assert [r.op for r in reqs[:2]] == ["heartbeat", "request_work"]
    assert len(sessions) == 20 + (301 - 40) // 3
    # every pass visits the whole fleet once, so each host comes back
    for k in range(4):
        assert sorted(s.host for s in sessions[20 * k:20 * (k + 1)]) == list(range(20))
    assert all(s.conn == s.host % 2 for s in sessions)
    assert [s.t_sim for s in sessions[:3]] == [0.0, 30.0, 60.0]
    later = reqs[40:43]
    assert [r.op for r in later] == list(openloop.OPS)
    assert later[1].session is later[0].session
    # the report carries the copy of the host's previous visit
    assert later[1].reports.host == later[1].session.host
    assert later[1].reports.t_sim < later[1].session.t_sim


def test_visits_report_their_share_and_continue_across_rungs():
    traffic = Traffic(n_hosts=50, report_frac=0.75, sim_step_s=1.0)
    visits = Visits(traffic, seed=1)
    first = schedule(100.0, 10.0, 0.0, visits, connections=1)
    second = schedule(100.0, 10.0, 0.0, visits, connections=1)
    assert second[0].session.t_sim == first[-1].session.t_sim + 1.0
    reqs = first + second
    revisits = sum(1 for r in reqs if r.op == "heartbeat") - traffic.n_hosts
    n_reports = sum(1 for r in reqs if r.op == "report_result")
    assert abs(n_reports / revisits - 0.75) < 0.08
    again = schedule(100.0, 10.0, 0.0, Visits(traffic, seed=1), connections=1)
    assert [(r.op, r.session.host) for r in again] == [
        (r.op, r.session.host) for r in first]


def test_wire_traffic_pools_the_recorded_campaign_runs():
    import wire

    def recorded(fetch, idle, report, length):
        return {"n_hosts": 10, "completion_time": length, "counts": {
            "agent.fetch": fetch, "agent.idle": idle, "agent.abandon": 0,
            "agent.report": report}}

    traffic = wire.wire_traffic({"wire-traffic": {
        "0": recorded(100, 20, 90, 1200.0), "1": recorded(300, 80, 290, 4800.0)}})
    assert traffic == Traffic(n_hosts=10, report_frac=380 / 400, sim_step_s=6000 / 500)
    with pytest.raises(ValueError):
        wire.wire_traffic({"wire-traffic": {
            "0": recorded(1, 1, 1, 1.0), "1": dict(recorded(1, 1, 1, 1.0), n_hosts=11)}})


def test_a_stall_counts_against_every_request_queued_behind_it():
    """A server that stalls before its first answer: the pipelined requests
    behind it are late by the stall (timed from due), while the generator
    itself stays on schedule."""
    stall_s = 0.2

    async def handle(reader, writer):
        first = True
        while True:
            line = await reader.readline()
            if not line:
                break
            length = 0
            while True:
                h = await reader.readline()
                if h in (b"\r\n", b""):
                    break
                if h.lower().startswith(b"content-length:"):
                    length = int(h.split(b":")[1])
            body = json.loads(await reader.readexactly(length))
            if first:
                await asyncio.sleep(stall_s)
                first = False
            reply = {"assignment": {"token": 1, "cost_reference_s": 1.0}} \
                if "t" in body and "token" not in body else {"ok": True}
            data = json.dumps(reply).encode()
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                         % (len(data), data))
            await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            visits = Visits(Traffic(n_hosts=4, report_frac=1.0, sim_step_s=1.0), seed=0)
            async with OpenLoopClient("127.0.0.1", port, 1, visits) as client:
                return await client.run_rung(rate=100.0, duration_s=0.15)
        finally:
            server.close()
            await server.wait_closed()

    rung = asyncio.run(asyncio.wait_for(main(), timeout=10))
    assert rung.errors() == 0
    lat = rung.latencies_ms()
    assert len(lat) == len(rung.requests) >= 15
    # request k is due k*10 ms after the first; all wait for the stall
    for k, ms in enumerate(lat):
        assert ms >= stall_s * 1e3 - 10.0 * k - 5.0
    assert max(rung.lag_ms()) < 50.0


# -- failure accounting and timeouts -------------------------------------------

def test_wire_failures_count_each_request_once():
    base = {"attempted": 100, "over_limit": 3, "errors": 1}
    ladder = {"attempted": 200, "over_limit": 50, "errors": 2}
    launches = [{"rungs": [base]}, {"rungs": [base, ladder]}]
    assert run.wire_failures(launches) == (400, 3 + 3 + 2)


def test_wire_scales_the_service_cpu_and_start_up_but_not_the_schedule():
    launch = {"setup_cpu_s": 1.5, "e2e": 5.0, "peak_rss_mb": 100.0,
              "launched": 10.0, "ready": 12.0,
              "served_per_cpu_s": 3000.0, "speed": {"setup": 0.5, "base": 2.0}}
    raw = run.wire_series([launch])
    scaled = run.wire_series([launch], scaled=True)
    assert raw["setup_s"] == [1.5] and raw["throughput_per_s"] == [3000.0]
    assert scaled["setup_s"] == [0.75] and scaled["throughput_per_s"] == [1500.0]
    assert raw["e2e_wall_s"] == [5.0]
    # 2 s of start-up at half speed, then 3 s of schedule as measured
    assert scaled["e2e_wall_s"] == [1.0 + 3.0]


def test_each_repeat_gets_the_full_timeout_however_long_the_run(monkeypatch, tmp_path):
    """A run that lasts longer than one repeat's timeout still finishes:
    every repeat is given the whole timeout, and one that runs past it is
    counted as failed instead of ending the run."""
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.2)
    monkeypatch.setattr(run, "MIN_REPEATS", 1)
    given = []

    def fake_launch(spec, timeout=None):
        given.append(run.CHILD_TIMEOUT_S if timeout is None else timeout)
        time.sleep(0.05)
        if len(given) == 3:
            raise subprocess.TimeoutExpired("child.py", run.CHILD_TIMEOUT_S)
        return {"stamps": {"launch": 0.0, "ready": 0.5, "done": 3.5, "report": 4.0,
                           "cpu_ready": 1.0, "cpu_done": 3.0},
                "n_workunits": 10, "peak_rss_mb": 1.0}

    monkeypatch.setattr(run, "launch_child", fake_launch)
    monkeypatch.setattr(run, "check_campaign", lambda *a: (["ok"], 0))
    monkeypatch.setattr(run, "SpeedProbes", _HalfSpeedProbes)
    result = run.child_workload("phase1", 1, seconds=0.6, trace=False,
                                work_dir=str(tmp_path), started=time.monotonic())
    assert len(given) > 5 and set(given) == {run.CHILD_TIMEOUT_S}
    assert result["failed"] == 1 and result["wrong"] == 0
    assert result["attempted"] == len(given)
    assert result["raw"]["throughput_per_s"][0] == 5.0
    # the probed core ran the chunk in half the reference time: factor 2
    assert result["series"]["throughput_per_s"][0] == 2.5
    assert result["series"]["setup_s"][0] == 2.0
    assert result["series"]["e2e_wall_s"][0] == 8.0


class _HalfSpeedProbes:
    """Stands in for :class:`probe.SpeedProbes`: one core whose every chunk
    took half of ``REFERENCE_NS``."""

    def __init__(self, cpus, work_dir):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def samples(self):
        return {0: [(t / 10.0, probe.REFERENCE_NS // 2) for t in range(41)]}


# -- core-speed probes ---------------------------------------------------------

def test_window_takes_the_samples_inside_or_the_nearest():
    samples = [(float(t), t) for t in range(20)]
    assert probe.window(samples, 3.0, 9.0) == [3, 4, 5, 6, 7, 8, 9]
    # too few inside: the MIN_SAMPLES nearest the window's middle (10.25)
    assert sorted(probe.window(samples, 10.1, 10.4)) == [8, 9, 10, 11, 12]
    assert probe.window(samples[:2], 0.0, 0.5) == [0, 1]


def test_speed_factor_is_reference_over_the_median_chunk_time():
    ref = probe.REFERENCE_NS
    fast = [(t / 10.0, ref // 2) for t in range(50)]
    slow = [(t / 10.0, 2 * ref) for t in range(50)]
    assert probe.speed_factor({0: fast}, 1.0, 3.0) == 2.0
    assert probe.speed_factor({0: slow}, 1.0, 3.0) == 0.5
    # one outlier does not move the median
    spiky = fast[:20] + [(2.0, 50 * ref)] + fast[21:]
    assert probe.speed_factor({0: spiky}, 1.0, 3.0) == 2.0
    # several cores: the mean of their median chunk times
    assert probe.speed_factor({0: fast, 1: slow}, 1.0, 3.0) == ref / (1.25 * ref)
    with pytest.raises(RuntimeError):
        probe.speed_factor({0: []}, 1.0, 3.0)


def test_probes_sample_pin_this_process_and_are_reaped(tmp_path):
    before = os.sched_getaffinity(0)
    cpus = probe.measure_cpus(1)
    with probe.SpeedProbes(cpus, str(tmp_path)) as probes:
        assert os.sched_getaffinity(0) == set(cpus)
        procs = list(probes.procs)
        time.sleep(0.3)
        samples = probes.samples()
        assert len(samples[cpus[0]]) >= probe.MIN_SAMPLES
        assert all(ns > 0 for _, ns in samples[cpus[0]])
        assert probe.speed_factor(samples, samples[cpus[0]][0][0], time.monotonic()) > 0
    assert os.sched_getaffinity(0) == before
    assert procs and all(p.returncode is not None for p in procs)


# -- metric names --------------------------------------------------------------

@pytest.mark.parametrize("name, ok", [
    ("setup_s", True), ("boinc.server.on_result.self_s", True),
    ("faulted-sharded", True), ("9lives", True), ("_hidden", False),
    (".dot", False), ("has space", False), ("slash/no", False),
    ("x" * 64, True), ("x" * 65, False), ("", False), ("ünï", False),
])
def test_valid_name(name, ok):
    assert valid_name(name) is ok


def test_valid_unit():
    for unit in ("ms", "s", "1/s", "count", "%", "MiB", "ratio"):
        assert valid_unit(unit)
    assert not valid_unit("kilo bytes")
    assert not valid_unit("x" * 17)


def test_benchmark_json_matches_the_code():
    from layers import PER_LAYER
    from run import END_TO_END, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]]["why"] and len(w["why"]) <= 200
    e2e = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    assert e2e == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    every = names + list(e2e) + list(PER_LAYER)
    assert len(every) == len(set(every))
    assert all(valid_name(n) for n in every)
    assert all(valid_unit(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
