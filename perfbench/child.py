"""One repeat of a workload in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/child.py SPEC_JSON``; prints one
JSON object on its last stdout line: monotonic timestamps (launch, import
done, ready, work done, report done), CPU stamps at ready and work done,
peak memory, the outputs the parent checks, and — in a traced repeat —
the per-layer figures.

Timestamps use ``time.monotonic()``, which Linux shares across processes,
so the parent's launch stamp and the child's stamps share one clock.  CPU
stamps count this process from its start plus its reaped children (the
shard workers), in nanosecond scheduler accounting.
"""

from __future__ import annotations

import json
import os
import re
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _cpu_s() -> float:
    """CPU seconds of this process since it started, plus those of its
    children that have ended (shard workers are joined when ``run()``
    returns)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _stats_dict(stats) -> dict:
    import dataclasses

    out = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, float):
            value = value.hex()
        elif isinstance(value, dict):
            value = dict(sorted(value.items()))
        out[f.name] = value
    return out


def _trace_digest(path: str) -> tuple[int, str]:
    """(line count, sha256) of a JSONL trace with ``t_wall`` removed."""
    import hashlib

    with open(path, "rb") as fh:
        data = fh.read()
    stripped = re.sub(rb'"t_wall":[-+0-9.eE]+,?', b"", data)
    return data.count(b"\n"), hashlib.sha256(stripped).hexdigest()


def run_campaign(spec: dict, stamps: dict) -> dict:
    from spans import SpanRecorder

    recorder = SpanRecorder() if spec["trace"] else None
    from repro import CampaignConfig, FaultPlan, Profiler, Tracer
    from repro.boinc.sharding import ShardPlan
    from repro.boinc.simulator import VolunteerGridSimulation
    from repro.multi.workloads import CrossDockingWorkload

    stamps["import"] = time.monotonic()
    work_dir = spec["work_dir"]
    if recorder is not None:
        import layers

        layers.instrument(recorder, shard_dump_dir=work_dir)
    wl = spec["campaign"]
    faults = FaultPlan.from_spec(wl["faults"]) if wl["faults"] else FaultPlan.none()
    shards = (
        ShardPlan(n_shards=wl["shards"], n_workers=wl["shard_workers"])
        if wl["shards"] > 1 else None
    )
    tracer = None
    trace_path = os.path.join(work_dir, f"trace-{os.getpid()}.jsonl")
    if wl["trace_channels"]:
        tracer = Tracer.to_jsonl(trace_path, channels=wl["trace_channels"])
    profiler = Profiler() if recorder is not None and shards is None else None
    # The library is the campaign's fixed dataset (HCMD docked one library);
    # the seed drives the grid: fleet, availability, agents and faults.
    library, cost_model = CrossDockingWorkload(
        scale=wl["scale"], n_proteins=wl["proteins"],
    ).library_and_costs(wl["library_seed"])
    sim = VolunteerGridSimulation(
        library, cost_model,
        CampaignConfig(seed=spec["seed"], scale=wl["scale"], faults=faults, shards=shards),
        tracer=tracer, profiler=profiler, ledger=wl["ledger"],
    )
    stamps["ready"] = time.monotonic()
    stamps["cpu_ready"] = _cpu_s()
    result = sim.run()
    stamps["done"] = time.monotonic()
    stamps["cpu_done"] = _cpu_s()
    # The final report a researcher reads (what `simulate` prints).
    metrics = result.metrics()
    report = {
        "completion_weeks": result.completion_weeks,
        "redundancy": metrics.redundancy,
        "useful_result_fraction": metrics.useful_result_fraction,
        "speed_down_net": metrics.speed_down_net,
    }
    if faults.enabled:
        report["faults"] = result.fault_report().as_dict()
    if tracer is not None:
        tracer.close()
    stamps["report"] = time.monotonic()

    stats = result.server.stats
    out = {
        "completion_time": (
            result.completion_time.hex() if result.completion_time is not None else None
        ),
        "stats": _stats_dict(stats),
        "n_workunits": result.server.n_workunits,
        "n_hosts": result.n_hosts,
        "redundancy": report["redundancy"],
        "useful_frac": stats.effective / stats.disclosed if stats.disclosed else 0.0,
        "shard_walls": result.shard_walls,
    }
    if shards is None:
        out["events"] = result.server.sim.events_processed
    if tracer is not None:
        out["trace_counts"] = dict(sorted(tracer.counts.items()))
        out["trace_bytes"] = os.path.getsize(trace_path)
        out["trace_lines"], out["trace_sha"] = _trace_digest(trace_path)
        os.unlink(trace_path)
    if recorder is not None:
        out["layers"] = _campaign_trace_layers(
            recorder, profiler, result, out, stamps, work_dir)
    return out


def _campaign_trace_layers(recorder, profiler, result, out, stamps, work_dir):
    import layers

    lay = layers.empty_layers()
    lay["startup.import_s"] = stamps["import"] - stamps["launch"]
    lay.update(layers.setup_layers(recorder))
    if profiler is not None:
        campaign, attributed = layers.campaign_layers(
            recorder, profiler.stats(), out["events"])
        lay.update(campaign)
    else:
        shard_rec, profile, events = layers.load_shard_dumps(work_dir)
        lay.update(layers.campaign_layers(shard_rec, profile, events)[0])
        walls = result.shard_walls
        run_s = recorder.total("VolunteerGridSimulation.run")
        lay["boinc.sharding.shard_wall_max_s"] = max(walls)
        lay["boinc.sharding.shard_wall_sum_s"] = sum(walls)
        lay["boinc.sharding.imbalance"] = max(walls) / (sum(walls) / len(walls))
        lay["boinc.sharding.merge_s"] = max(0.0, run_s - max(walls))
        # On the parent's timeline the sharded run is one layer.
        attributed = run_s
    lay["core.packaging.workunits"] = out["n_workunits"]
    lay["grid.hosts.count"] = out["n_hosts"]
    lay["boinc.server.useful_frac"] = out["useful_frac"]
    lay["boinc.server.redundancy"] = out["redundancy"]
    counts = out.get("trace_counts", {})
    lay["boinc.server.reissues"] = counts.get("server.reissue", 0)
    lay["obs.events"] = sum(counts.values())
    lay["obs.trace_bytes"] = out.get("trace_bytes", 0)
    e2e = stamps["report"] - stamps["launch"]
    lay["unattributed_s"] = e2e - (
        lay["startup.import_s"] + lay["proteins.library_s"]
        + lay["maxdo.cost_model_s"] + attributed
    )
    return lay


def run_results(spec: dict, stamps: dict) -> dict:
    from spans import SpanRecorder

    recorder = SpanRecorder() if spec["trace"] else None
    import numpy as np
    from repro.store import (
        ResultStore, check_store, energy_matrix, merge_couple_store,
        read_store, store_to_text, text_to_store,
    )

    # Nothing to build: the pass starts as soon as the store is imported.
    stamps["import"] = stamps["ready"] = time.monotonic()
    stamps["cpu_ready"] = _cpu_s()
    work = spec["work_dir"]
    inputs = spec["results"]
    upload_dir = inputs["upload_dir"]
    paths = [os.path.join(upload_dir, n) for n in sorted(os.listdir(upload_dir))]
    uploads = os.path.join(work, f"uploads-{os.getpid()}.store")
    merged_path = os.path.join(work, f"merged-{os.getpid()}.store")
    export_dir = os.path.join(work, f"export-{os.getpid()}")

    def stage(name, func, *args):
        if recorder is None:
            return func(*args)
        recorder.enter(name)
        t0 = time.perf_counter()
        try:
            return func(*args)
        finally:
            recorder.exit(time.perf_counter() - t0)

    def check():
        store = read_store(uploads)
        return store, check_store(store, files_expected=len(paths))

    def merge(store, report):
        bad = set(report.files_with_bad_line_count) | set(report.files_with_bad_values)
        rejected = {
            (s.header.receptor, s.header.ligand) for s in store.segments if s.source in bad
        }
        keep = [
            s for s in store.segments
            if (s.header.receptor, s.header.ligand) not in rejected
        ]
        return merge_couple_store(ResultStore(path=store.path, segments=keep), merged_path)

    stage("store.ingest", text_to_store, paths, uploads)
    store, report = stage("store.check", check)
    stage("store.merge", merge, store, report)
    matrix, _ = stage("store.matrix", energy_matrix, merged_path, inputs["names"])
    written = stage("store.export", store_to_text, merged_path, export_dir)
    stamps["done"] = stamps["report"] = time.monotonic()
    stamps["cpu_done"] = _cpu_s()

    import hashlib

    merged_sha = hashlib.sha256()
    for _, segments in sorted(read_store(merged_path).by_couple().items()):
        for s in segments:
            merged_sha.update(np.ascontiguousarray(s.records).tobytes())
    export_sha = {}
    export_bytes = 0
    for path in written:
        with open(path, "rb") as fh:
            data = fh.read()
        export_bytes += len(data)
        export_sha[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
        os.unlink(path)
    os.rmdir(export_dir)
    store_bytes = os.path.getsize(uploads) + os.path.getsize(merged_path)
    out = {
        "bad_values": sorted(report.files_with_bad_values),
        "bad_line_count": sorted(report.files_with_bad_line_count),
        "files_found": report.files_found,
        "merged_sha": merged_sha.hexdigest(),
        "matrix_sha": hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest(),
        "export_sha": export_sha,
        "rows": store.n_rows,
    }
    if recorder is not None:
        import layers

        lay = layers.empty_layers()
        lay["startup.import_s"] = stamps["import"] - stamps["launch"]
        for name in ("ingest", "check", "merge", "matrix", "export"):
            lay[f"store.{name}_s"] = recorder.total(f"store.{name}")
        lay["store.rows"] = store.n_rows
        merged_size = os.path.getsize(merged_path)
        # Read: the text uploads, the uploads store, the merged store twice
        # (matrix, export).  Written: both stores and the text export.
        lay["store.bytes_read"] = (
            inputs["text_bytes"] + os.path.getsize(uploads) + 2 * merged_size)
        lay["store.bytes_written"] = store_bytes + export_bytes
        e2e = stamps["report"] - stamps["launch"]
        lay["unattributed_s"] = e2e - lay["startup.import_s"] - sum(
            lay[f"store.{n}_s"] for n in ("ingest", "check", "merge", "matrix", "export"))
        out["layers"] = lay
    os.unlink(uploads)
    os.unlink(merged_path)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    stamps = {"launch": spec["launched"]}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    runner = run_results if spec["workload"] == "results" else run_campaign
    out = runner(spec, stamps)
    out["stamps"] = stamps
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
