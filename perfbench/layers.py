"""Per-layer accounting for the traced run.

:func:`instrument` wraps the public entry points of each layer with
:mod:`spans` wrappers; the ``*_layers`` functions turn the recorded spans,
the program's public :class:`repro.obs.Profiler` sections and the run's
own outputs into the per-layer metrics of ``BENCHMARK.json``.

The per-layer metric names are listed once, in :data:`PER_LAYER`; every
traced run reports all of them, with 0 for a layer the workload does not
touch (that zero is the prediction "a change there cannot move this
workload").
"""

from __future__ import annotations

import os

from spans import SpanRecorder, wrap

#: Agent callbacks the DES fires, by short name (``VolunteerAgent._x``).
AGENT_CALLBACKS = (
    "start", "when_available", "complete", "interrupt", "fault_crash", "report",
)

#: name -> unit, in report order
PER_LAYER: dict[str, str] = {
    "startup.import_s": "s",
    "proteins.library_s": "s",
    "maxdo.cost_model_s": "s",
    "core.packaging.workunits": "count",
    "core.packaging.materialize_s": "s",
    "grid.hosts.count": "count",
    "grid.hosts.build_s": "s",
    "grid.availability.calls": "count",
    "grid.availability.self_s": "s",
    "grid.des.events": "count",
    "grid.des.self_s": "s",
    "grid.des.events_per_s": "1/s",
    **{f"boinc.agent.callbacks.{cb}": "count" for cb in AGENT_CALLBACKS},
    "boinc.agent.self_s": "s",
    "boinc.agent.report_mean_us": "us",
    "boinc.server.request_work.calls": "count",
    "boinc.server.request_work.self_s": "s",
    "boinc.server.on_result.calls": "count",
    "boinc.server.on_result.self_s": "s",
    "boinc.server.timeouts": "count",
    "boinc.server.reissues": "count",
    "boinc.server.useful_frac": "ratio",
    "boinc.server.redundancy": "ratio",
    "obs.events": "count",
    "obs.trace_bytes": "bytes",
    "obs.sink_self_s": "s",
    "boinc.sharding.shard_wall_max_s": "s",
    "boinc.sharding.shard_wall_sum_s": "s",
    "boinc.sharding.imbalance": "ratio",
    "boinc.sharding.merge_s": "s",
    "service.offered_rps": "1/s",
    "service.generator_lag_ms": "ms",
    "service.backlog": "count",
    "service.rpc_p50_ms": "ms",
    "service.rpc_p99_ms": "ms",
    "service.max_rate_rps": "1/s",
    "service.rpc_wall_p99_ms.heartbeat": "ms",
    "service.rpc_wall_p99_ms.request_work": "ms",
    "service.rpc_wall_p99_ms.report_result": "ms",
    "service.queue_depth_max": "count",
    "service.refused": "count",
    "service.clock_clamps": "count",
    "store.ingest_s": "s",
    "store.check_s": "s",
    "store.merge_s": "s",
    "store.matrix_s": "s",
    "store.export_s": "s",
    "store.rows": "count",
    "store.bytes_read": "bytes",
    "store.bytes_written": "bytes",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
}

#: Span names of the availability layer (leaves).
AVAILABILITY_SPANS = (
    "generate_trace", "AvailabilityTrace.is_available",
    "AvailabilityTrace.next_transition",
)
#: Span names of the observability sinks.
OBS_SPANS = ("Tracer.emit", "JsonlSink.append", "LedgerSink.append")
#: Span names of the server RPC entry points.
SERVER_SPANS = ("GridServer.request_work", "GridServer.on_result")


def instrument(recorder: SpanRecorder, shard_dump_dir: str | None = None) -> None:
    """Spans around every campaign layer's public calls.

    With ``shard_dump_dir``, a shard simulation running in a pool worker
    resets the (fork-inherited) recorder, rides a fresh
    :class:`~repro.obs.Profiler` and writes its spans to that directory
    when it finishes, for :func:`load_shard_dumps` to fold in.
    """
    import json
    from time import perf_counter

    import repro.grid.host as host_mod
    from repro.boinc.server import GridServer
    from repro.boinc.simulator import VolunteerGridSimulation
    from repro.grid.availability import AvailabilityTrace
    from repro.grid.des import Simulator
    from repro.grid.host import HostPopulationModel
    from repro.maxdo.cost_model import CostModel
    from repro.multi.workloads import CrossDockingWorkload
    from repro.obs import Profiler
    from repro.obs.ledger import LedgerSink
    from repro.obs.tracer import JsonlSink, Tracer
    from repro.proteins.library import ProteinLibrary

    wrap(recorder, GridServer, "request_work", "GridServer.request_work")
    wrap(recorder, GridServer, "on_result", "GridServer.on_result")
    wrap(recorder, Simulator, "run", "Simulator.run")
    wrap(recorder, Tracer, "emit", "Tracer.emit")
    wrap(recorder, JsonlSink, "append", "JsonlSink.append")
    wrap(recorder, LedgerSink, "append", "LedgerSink.append")
    wrap(recorder, CrossDockingWorkload, "library_and_costs",
         "CrossDockingWorkload.library_and_costs")
    wrap(recorder, ProteinLibrary, "synthetic", "ProteinLibrary.synthetic")
    wrap(recorder, CostModel, "calibrated", "CostModel.calibrated")
    wrap(recorder, VolunteerGridSimulation, "materialize_workunits",
         "VolunteerGridSimulation.materialize_workunits")
    wrap(recorder, HostPopulationModel, "spec", "HostPopulationModel.spec")
    # host.py binds generate_trace at import; wrap the name it calls.
    wrap(recorder, host_mod, "generate_trace", "generate_trace")
    wrap(recorder, AvailabilityTrace, "is_available",
         "AvailabilityTrace.is_available")
    wrap(recorder, AvailabilityTrace, "next_transition",
         "AvailabilityTrace.next_transition")

    original_run = VolunteerGridSimulation.run

    def run(self, *args, **kwargs):
        in_shard = self.shard is not None and shard_dump_dir is not None
        if in_shard:
            recorder.reset()
            if self.profiler is None:
                self.profiler = Profiler()
        recorder.enter("VolunteerGridSimulation.run")
        t0 = perf_counter()
        try:
            result = original_run(self, *args, **kwargs)
        finally:
            recorder.exit(perf_counter() - t0)
        if in_shard:
            path = os.path.join(
                shard_dump_dir, f"shard-spans-{self.shard.index:04d}.json"
            )
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({
                    "edges": recorder.to_json(),
                    "profile": self.profiler.stats(),
                    "events": result.server.sim.events_processed,
                }, fh)
        return result

    VolunteerGridSimulation.run = run


def load_shard_dumps(dump_dir: str) -> tuple[SpanRecorder, dict, int]:
    """Fold every shard's spans/profile into one recorder; returns
    ``(recorder, profile_stats, des_events)``."""
    import json

    recorder = SpanRecorder()
    profile: dict[str, list] = {}
    events = 0
    for name in sorted(os.listdir(dump_dir)):
        if not name.startswith("shard-spans-"):
            continue
        with open(os.path.join(dump_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        recorder.merge(SpanRecorder.edges_from_json(doc["edges"]))
        for section, (calls, total) in doc["profile"].items():
            entry = profile.setdefault(section, [0, 0.0])
            entry[0] += calls
            entry[1] += total
        events += doc["events"]
        os.unlink(os.path.join(dump_dir, name))
    return recorder, {k: tuple(v) for k, v in profile.items()}, events


def empty_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def campaign_layers(rec: SpanRecorder, profile: dict, events: int) -> tuple[dict, float]:
    """Layer metrics of the DES campaign layers (one process's spans, or
    the fold of every shard's), and the seconds they account for.
    ``profile`` is ``Profiler.stats()``."""
    out: dict[str, float] = {}
    callbacks = {
        k: v for k, v in profile.items()
        if k.startswith("des.") and k != "des.run"
    }
    cb_total = sum(total for _, total in callbacks.values())
    server_timers = sum(
        total for k, (_, total) in callbacks.items()
        if k.startswith("des.GridServer.")
    )
    run_s = rec.total("Simulator.run")
    out["grid.des.events"] = events
    out["grid.des.self_s"] = max(0.0, run_s - cb_total)
    out["grid.des.events_per_s"] = events / run_s if run_s > 0 else 0.0
    # Spans called from inside a fired callback have Simulator.run as
    # their nearest recorded parent (the Profiler times callbacks, it
    # does not open spans).
    inside_callbacks = rec.child_total("Simulator.run")
    out["boinc.agent.self_s"] = max(0.0, cb_total - inside_callbacks - server_timers)
    for cb in AGENT_CALLBACKS:
        calls, _ = profile.get(f"des.VolunteerAgent._{cb}",
                               profile.get(f"des.VolunteerAgent.{cb}", (0, 0.0)))
        out[f"boinc.agent.callbacks.{cb}"] = calls
    calls, total = profile.get("des.VolunteerAgent._report", (0, 0.0))
    out["boinc.agent.report_mean_us"] = total / calls * 1e6 if calls else 0.0
    out["boinc.server.timeouts"] = profile.get(
        "des.GridServer._on_timeout", (0, 0.0))[0]
    out["grid.availability.calls"] = sum(rec.calls(n) for n in AVAILABILITY_SPANS)
    out["grid.availability.self_s"] = sum(rec.self_time(n) for n in AVAILABILITY_SPANS)
    hosts_s = profile.get("setup.hosts", (0, 0.0))[1]
    out["grid.hosts.build_s"] = max(0.0, hosts_s - rec.total("generate_trace"))
    out["core.packaging.materialize_s"] = rec.total(
        "VolunteerGridSimulation.materialize_workunits")
    server_self = {n: rec.self_time(n) for n in SERVER_SPANS}
    out["boinc.server.request_work.calls"] = rec.calls("GridServer.request_work")
    out["boinc.server.request_work.self_s"] = server_self["GridServer.request_work"]
    out["boinc.server.on_result.calls"] = rec.calls("GridServer.on_result")
    out["boinc.server.on_result.self_s"] = server_self["GridServer.on_result"]
    out["obs.sink_self_s"] = sum(rec.self_time(n) for n in OBS_SPANS)
    # The partition of the campaign's own wall time used by
    # unattributed_s (each second counted in exactly one layer).
    attributed = (
        out["grid.des.self_s"] + out["boinc.agent.self_s"] + server_timers
        + sum(server_self.values()) + out["obs.sink_self_s"]
        + out["grid.availability.self_s"] + out["grid.hosts.build_s"]
        + out["core.packaging.materialize_s"]
    )
    return out, attributed


def setup_layers(rec: SpanRecorder) -> dict:
    """Library and cost-model build (the campaign's set-up layers)."""
    library = rec.total("ProteinLibrary.synthetic")
    cost = rec.total("CostModel.calibrated")
    # Anything else library_and_costs does is library assembly.
    rest = max(0.0, rec.total("CrossDockingWorkload.library_and_costs") - library - cost)
    return {"proteins.library_s": library + rest, "maxdo.cost_model_s": cost}
