"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (it needs ``src/repro``).  Each
workload is measured from outside the program: every repeat starts a
fresh interpreter (or a fresh ``repro-hcmd serve`` process), so set-up
and start-up are measured the way a user pays them.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is the separate traced run
that reports the per-layer metrics (see README.md).  Outputs are checked
on every run.  Each workload's report ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, printing no result, when the program cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from layers import OBS_SPANS, PER_LAYER, SERVER_SPANS, empty_layers, setup_layers
from probe import SpeedProbes, measure_cpus, speed_factor
from spans import SpanRecorder
from stats import median, summarize
from wire import ONE_THREAD_ENV

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = os.cpu_count() or 1
#: the longest one repeat (one fresh interpreter) may run
CHILD_TIMEOUT_S = 170.0
MIN_REPEATS = 3

#: the program's default seed: the campaign workloads' fixed protein library
LIBRARY_SEED = 2007
FAULT_SPEC = "crash=20,corrupt=0.05,sabotage=0.02,outage=2x12,loss=0.05,maxreissue=8"

#: Everything a run of each workload depends on.  README.md explains the
#: choices; the names and ``why`` lines match BENCHMARK.json.
WORKLOADS: dict[str, dict] = {
    "phase1": {
        "why": "paper-shape fault-free monolithic phase I: set-up layers, "
               "availability, DES kernel, agent and server happy path",
        "loop": "closed: one campaign per fresh interpreter, run to completion",
        "cpus": 1,
        "campaign": {
            "scale": 1.0, "proteins": 16, "library_seed": LIBRARY_SEED,
            "faults": "", "shards": 1,
            "shard_workers": 1, "trace_channels": None, "ledger": False,
        },
    },
    "faulted-sharded": {
        "why": "faults, reissues, a lifecycle JSONL trace with the ledger and "
               "a 2-shard plan: obs sinks, validator paths, shard balance and merge",
        "loop": "closed: one sharded campaign per fresh interpreter",
        "cpus": min(2, NPROC),
        "campaign": {
            "scale": 4.0, "proteins": 16, "library_seed": LIBRARY_SEED,
            "faults": FAULT_SPEC, "shards": 2,
            "shard_workers": min(2, NPROC),
            "trace_channels": ["server", "agent", "fault", "host"],
            "ledger": True,
        },
    },
    "wire": {
        "why": "repro-hcmd serve driven open-loop at stress rates by its own "
               "fleet's returning hosts: service RPC, single-writer queue, "
               "GridServer mutations, live ledger",
        "loop": "open: the served fleet's host visits on a fixed schedule "
                "over pipelined keep-alive connections",
        "wire": {
            "scale": 2.0, "proteins": 16, "max_pending": 100_000,
            "connections": min(2, NPROC), "limit_ms": 250.0, "launches": 4,
            # stress rates, not a model of volunteer traffic (README.md);
            # every launch serves the base rung, the last climbs the rest
            "ladder_rps": [1000.0, 2000.0, 4000.0, 8000.0, 12000.0],
            "base_s": 3.0, "rung_s": 1.5,
        },
    },
    "results": {
        "why": "Section 5.2 post-processing of seeded uploads with one corrupt "
               "and one short chunk: the result store's read and write paths",
        "loop": "closed: one ingest-check-merge-matrix-export pass per fresh "
                "interpreter",
        "cpus": 1,
        "results": {"proteins": 12, "chunk_positions": 16},
    },
}

#: End-to-end metrics: name -> (unit, better).  Every workload reports
#: every one of them (see README.md for what each means per workload).
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "e2e_wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
}


def launch_child(spec: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """One repeat in a fresh interpreter; returns its JSON report.  Raises
    :class:`subprocess.TimeoutExpired` after ``timeout`` seconds (the
    child is killed and reaped first)."""
    spec = dict(spec, launched=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=ROOT, env=dict(os.environ, **ONE_THREAD_ENV), capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{spec['workload']} repeat failed (exit {proc.returncode}):\n"
            f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def campaign_outcome(sample: dict) -> dict:
    """The part of a campaign repeat that must repeat exactly."""
    keys = ("completion_time", "stats", "n_workunits", "n_hosts", "events",
            "trace_lines", "trace_counts", "trace_sha")
    return {k: sample[k] for k in keys if k in sample}


def check_campaign(workload: str, seed: int, samples: list[dict]) -> tuple[list[str], int]:
    """Verdict lines and the number of repeats whose output is wrong."""
    verdicts, bad = [], 0
    first = campaign_outcome(samples[0])
    reference = load_reference().get(workload, {}).get(str(seed))
    for i, sample in enumerate(samples):
        problems = []
        outcome = campaign_outcome(sample)
        if outcome != first:
            diff = sorted(k for k in outcome if outcome[k] != first.get(k))
            problems.append(f"differs from repeat 0 in {diff}")
        stats = sample["stats"]
        if sample["completion_time"] is None:
            problems.append("campaign did not complete")
        if stats["effective"] + stats["failed"] != sample["n_workunits"]:
            problems.append("a workunit ended neither validated nor failed")
        if reference is not None:
            diff = sorted(k for k in reference if reference[k] != outcome.get(k))
            if diff:
                problems.append(f"differs from the recorded reference in {diff}")
        if problems:
            bad += 1
            verdicts.append(f"repeat {i}: FAIL " + "; ".join(problems))
    ref_note = "recorded reference matched" if reference is not None else (
        f"no recorded reference for seed {seed}")
    if not bad:
        verdicts.append(
            f"{len(samples)} repeats identical (completion, ValidationStats"
            + (", DES events" if "events" in first else "")
            + (", trace lines/types/content" if "trace_sha" in first else "")
            + f"); every workunit closed; {ref_note}")
    return verdicts, bad


def check_results(expected: dict, samples: list[dict]) -> tuple[list[str], int]:
    verdicts, bad = [], 0
    for i, s in enumerate(samples):
        problems = []
        if s["bad_values"] != sorted(expected["bad_values"]):
            problems.append(f"value-check verdicts {s['bad_values']}")
        if s["bad_line_count"] != sorted(expected["bad_line_count"]):
            problems.append(f"line-count verdicts {s['bad_line_count']}")
        if s["files_found"] != expected["n_chunks"]:
            problems.append(f"{s['files_found']} chunks ingested")
        if s["merged_sha"] != expected["merged_sha"]:
            problems.append("merged records differ from the generated ones")
        if s["matrix_sha"] != expected["matrix_sha"]:
            problems.append("energy matrix differs from the numpy reduction")
        if s["export_sha"] != expected["export_sha"]:
            problems.append("text export is not byte-identical")
        if problems:
            bad += 1
            verdicts.append(f"repeat {i}: FAIL " + "; ".join(problems))
    if not bad:
        verdicts.append(
            f"{len(samples)} repeats: verdicts flag exactly the corrupt and the "
            f"short chunk; merged records bit-identical; matrix equals the "
            f"numpy reduction; {len(expected['export_sha'])} exported files "
            f"byte-identical")
    return verdicts, bad


def child_workload(name: str, seed: int, seconds: float, trace: bool,
                   work_dir: str, started: float) -> dict:
    """Repeats in fresh interpreters until ``seconds`` after ``started``
    (input generation included), at least :data:`MIN_REPEATS`.  A repeat
    that runs past :data:`CHILD_TIMEOUT_S` is killed and counted as
    failed; the run goes on with the next one."""
    wl = WORKLOADS[name]
    spec = {"workload": name, "seed": seed, "work_dir": work_dir, "trace": False}
    expected = None
    if name == "results":
        import results_data

        upload_dir = os.path.join(work_dir, "uploads")
        expected = results_data.generate(
            seed, upload_dir, n_proteins=wl["results"]["proteins"],
            chunk_positions=wl["results"]["chunk_positions"])
        spec["results"] = {
            "upload_dir": upload_dir, "names": expected["names"],
            "text_bytes": expected["text_bytes"],
        }
    else:
        spec["campaign"] = wl["campaign"]

    samples, timed_out = [], 0

    def repeat(child_spec: dict) -> None:
        nonlocal timed_out
        try:
            samples.append(launch_child(child_spec))
        except subprocess.TimeoutExpired:
            timed_out += 1

    # Every repeat runs pinned to the probed cores (probe.py).
    with SpeedProbes(measure_cpus(wl["cpus"]), work_dir) as probes:
        if trace:
            repeat(spec)
            repeat(dict(spec, trace=True))
            if len(samples) < 2:
                raise RuntimeError(f"{name}: a traced-run repeat timed out")
        else:
            t0 = time.monotonic()
            while True:
                repeat(spec)
                tried = len(samples) + timed_out
                per_repeat = (time.monotonic() - t0) / tried
                if (tried >= MIN_REPEATS
                        and time.monotonic() - started + per_repeat > seconds):
                    break
            if not samples:
                raise RuntimeError(f"{name}: every repeat timed out")
        by_cpu = probes.samples()
    if expected is not None:
        verdicts, bad = check_results(expected, samples)
        work = [s["rows"] for s in samples]
    else:
        verdicts, bad = check_campaign(name, seed, samples)
        work = [s["n_workunits"] for s in samples]
    if timed_out:
        verdicts.append(f"FAIL {timed_out} repeats killed after "
                        f"{CHILD_TIMEOUT_S:g} s")
    raw = campaign_series(samples, work)
    for s in samples:
        st = s["stamps"]
        s["speed"] = {
            span: speed_factor(by_cpu, st[a], st[b])
            for span, (a, b) in TIMED_SPANS.items()
        }
    return {
        "samples": samples,
        "verdicts": verdicts,
        "attempted": len(samples) + timed_out,
        "failed": bad + timed_out,
        "wrong": bad,
        "series": campaign_series(samples, work, scaled=True),
        "raw": raw,
        "scaled": ["setup_s", "e2e_wall_s", "throughput_per_s"],
        "probe_factor": [s["speed"]["e2e"] for s in samples],
    }


#: The interval of each timing, as (from, to) stamps of a repeat.
TIMED_SPANS = {
    "setup": ("launch", "ready"),
    "work": ("ready", "done"),
    "e2e": ("launch", "report"),
    "report": ("ready", "report"),
}


def campaign_series(samples: list[dict], work: list[int], scaled: bool = False) -> dict:
    """The end-to-end series of campaign and results repeats.  Timings are
    CPU seconds for set-up and work and wall seconds end to end; with
    ``scaled`` each is multiplied by the core-speed factor of its own
    interval (``sample["speed"]``), giving seconds of the reference core."""
    def timed(s: dict, span: str, seconds: float) -> float:
        return seconds * s["speed"][span] if scaled else seconds

    st = [s["stamps"] for s in samples]
    return {
        "setup_s": [timed(s, "setup", t["cpu_ready"]) for s, t in zip(samples, st)],
        "e2e_wall_s": [
            timed(s, "e2e", t["report"] - t["launch"]) for s, t in zip(samples, st)],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "throughput_per_s": [
            w / timed(s, "work", t["cpu_done"] - t["cpu_ready"])
            for w, s, t in zip(work, samples, st)],
    }


def wire_workload(seed: int, trace: bool, work_dir: str) -> dict:
    """A fixed schedule: ``--seconds`` does not apply (see README.md)."""
    import wire

    cfg = WORKLOADS["wire"]["wire"]
    launches = wire.run_wire(
        seed, cfg, wire.wire_traffic(load_reference()), work_dir, trace)
    last = launches[-1]
    ladder = last["rungs"]
    problems = [p for launch in launches for p in launch["problems"]]
    attempted, failed = wire_failures(launches)
    sustained = [r["rate"] for r in ladder if r["sustained"]]
    verdicts = [f"FAIL {p}" for p in problems]
    if not problems:
        verdicts.append(
            f"all {attempted} requests answered; client counts reconcile with "
            f"/v1/status requests_total and refused, in {len(launches)} launches")
    return {
        "launches": launches,
        "ladder": ladder,
        "max_rate_rps": max(sustained) if sustained else 0.0,
        "verdicts": verdicts,
        "attempted": attempted,
        "failed": failed,
        "wrong": len(problems),
        "series": wire_series(launches, scaled=True),
        "raw": wire_series(launches),
        "scaled": ["setup_s", "e2e_wall_s (start-up)", "throughput_per_s"],
        "probe_factor": [launch["speed"]["base"] for launch in launches],
        "rpc_ms": [ms for launch in launches for ms in launch["rungs"][0]["latencies_ms"]],
    }


def wire_series(launches: list[dict], scaled: bool = False) -> dict:
    """The end-to-end series of ``wire`` launches.  With ``scaled`` the
    service's CPU seconds (set-up, base rung) and the start-up part of
    ``e2e_wall_s`` are in seconds of the reference core; the rest of
    ``e2e_wall_s``, the fixed schedule and its drain, is not scaled."""
    def factor(launch: dict, span: str) -> float:
        return launch["speed"][span] if scaled else 1.0

    def e2e(launch: dict) -> float:
        start_up = launch["ready"] - launch["launched"]
        return launch["e2e"] - start_up + start_up * factor(launch, "setup")

    return {
        "setup_s": [l["setup_cpu_s"] * factor(l, "setup") for l in launches],
        "e2e_wall_s": [e2e(l) for l in launches],
        "peak_rss_mb": [l["peak_rss_mb"] for l in launches],
        "throughput_per_s": [
            l["served_per_cpu_s"] / factor(l, "base") for l in launches],
    }


def wire_failures(launches: list[dict]) -> tuple[int, int]:
    """(attempted, failed) requests over every launch.  Each request counts
    at most once: on the base rung a request fails when it is refused,
    errored, lost or answered after the limit; on the higher rungs, which
    probe capacity, only when it is refused, errored or lost.  A count that
    does not reconcile with the service's is a wrong output, not a failed
    request (see :func:`wire.reconcile`)."""
    attempted = failed = 0
    for launch in launches:
        base, *higher = launch["rungs"]
        attempted += sum(r["attempted"] for r in launch["rungs"])
        failed += base["over_limit"] + sum(r["errors"] for r in higher)
    return attempted, failed


def wire_layers(result: dict) -> dict:
    """Per-layer figures of a traced ``wire`` run (its last launch is the
    traced one; the earlier launches are the untraced comparison)."""
    last = result["launches"][-1]
    lay = empty_layers()
    rec = SpanRecorder()
    rec.merge(SpanRecorder.edges_from_json(last["spans"]["edges"]))
    base = last["rungs"][0]
    status = last["status"]
    lay["startup.import_s"] = last["spans"]["import_done"] - last["launched"]
    lay.update(setup_layers(rec))
    lay["core.packaging.materialize_s"] = rec.total(
        "VolunteerGridSimulation.materialize_workunits")
    lay["core.packaging.workunits"] = status["n_workunits"]
    lay["grid.des.self_s"] = rec.self_time("Simulator.run")
    for span, key in zip(SERVER_SPANS, ("request_work", "on_result")):
        lay[f"boinc.server.{key}.calls"] = rec.calls(span)
        lay[f"boinc.server.{key}.self_s"] = rec.self_time(span)
    lay["obs.sink_self_s"] = sum(rec.self_time(n) for n in OBS_SPANS)
    lay["obs.events"] = rec.calls("Tracer.emit")
    stats = status["stats"]
    lay["boinc.server.useful_frac"] = (
        stats["effective"] / stats["disclosed"] if stats["disclosed"] else 0.0)
    lay["boinc.server.redundancy"] = (
        stats["disclosed"] / stats["effective"] if stats["effective"] else 0.0)
    lay["service.offered_rps"] = base["rate"]
    lay["service.generator_lag_ms"] = base["lag_p99_ms"]
    lay["service.backlog"] = base["backlog"]
    lay["service.rpc_p50_ms"] = base["p50_ms"]
    lay["service.rpc_p99_ms"] = base["p99_ms"]
    lay["service.max_rate_rps"] = result["max_rate_rps"]
    for op in ("heartbeat", "request_work", "report_result"):
        sketch = last["base_status"]["rpc_wall_s"].get(op, {})
        lay[f"service.rpc_wall_p99_ms.{op}"] = (
            sketch.get("estimates", {}).get("p99", 0.0) * 1e3)
    lay["service.queue_depth_max"] = status["max_queue_depth"]
    lay["service.refused"] = sum(status["refused"].values())
    lay["service.clock_clamps"] = status["clock_clamps"]
    attributed = (
        lay["startup.import_s"] + lay["proteins.library_s"]
        + lay["maxdo.cost_model_s"] + lay["core.packaging.materialize_s"]
        + lay["grid.des.self_s"] + lay["boinc.server.request_work.self_s"]
        + lay["boinc.server.on_result.self_s"] + lay["obs.sink_self_s"]
    )
    # The traced server's whole life, launch to exit; what is left is the
    # HTTP layer (no public entry point to span) and idle time between
    # scheduled requests.
    lay["unattributed_s"] = last["lifetime"] - attributed
    # Tracing cost: the service's CPU seconds per base-rung request, traced
    # server against the untraced ones, each scaled to the reference core.
    served = result["series"]["throughput_per_s"]
    lay["trace_overhead_frac"] = median(served[:-1]) / served[-1] - 1.0
    return lay


def report_table(name: str, result: dict, trace: bool) -> list[str]:
    lines = [f"workload {name}: {WORKLOADS[name]['loop']}", ""]
    if not trace:
        lines.append(f"{'metric':<18} {'unit':<6} {'median':>12} {'high pct':>20} {'n':>6}")
        for metric, (unit, _) in END_TO_END.items():
            s = summarize(result["series"][metric])
            high = f"p{s['high'][0]:g} {s['high'][1]:.4g}" if s["high"] else "-"
            lines.append(
                f"{metric:<18} {unit:<6} {s['median']:>12.5g} {high:>20} {s['n']:>6}")
    if "raw" in result:
        raw = {m: median(v) for m, v in result["raw"].items()}
        f = result["probe_factor"]
        unscaled = ", ".join(f"{m} {raw[m.split()[0]]:.5g}" for m in result["scaled"])
        lines.append(
            f"scaled to the reference core (probe.py): {', '.join(result['scaled'])}; "
            f"unscaled medians: {unscaled}; core-speed factor median "
            f"{median(f):.3f} (range {min(f):.3f}-{max(f):.3f})")
    if "rpc_ms" in result:
        s = summarize(result["rpc_ms"])
        high = f"p{s['high'][0]:g} {s['high'][1]:.4g}" if s["high"] else "-"
        lines.append(
            f"{'rpc_latency_ms':<18} {'ms':<6} {s['median']:>12.5g} {high:>20} {s['n']:>6}"
            "   (base rung, from due time)")
        lines.append("")
        lines.append(f"{'offered/s':>10} {'sent':>7} {'p50 ms':>9} {'p99 ms':>9} "
                     f"{'lag p99':>8} {'backlog':>8} {'answered/s':>11}  sustained")
        for r in result["ladder"]:
            lines.append(
                f"{r['rate']:>10.0f} {r['attempted']:>7} {r['p50_ms']:>9.2f} "
                f"{r['p99_ms']:>9.2f} {r['lag_p99_ms']:>8.2f} {r['backlog']:>8} "
                f"{r['answered_per_s']:>11.0f}  {r['sustained']}")
        lines.append(f"max_rate_rps (p99 <= "
                     f"{WORKLOADS['wire']['wire']['limit_ms']:g} ms, no growing "
                     f"backlog): {result['max_rate_rps']:g}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    lines.extend(f"check: {v}" for v in result["verdicts"])
    return lines


def layer_table(layers: dict) -> list[str]:
    lines = ["", f"{'per-layer metric':<40} {'unit':<6} {'value':>14}"]
    for name, unit in PER_LAYER.items():
        lines.append(f"{name:<40} {unit:<6} {layers[name]:>14.6g}")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    """One run of one workload: prints its report, then its JSON line."""
    started = time.monotonic()
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        if name == "wire":
            result = wire_workload(seed, trace, work_dir)
        else:
            result = child_workload(name, seed, seconds, trace, work_dir, started)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    for line in report_table(name, result, trace):
        print(line)
    if trace:
        if name == "wire":
            layers = wire_layers(result)
        else:
            plain, traced = result["samples"]
            layers = traced["layers"]
            # Tracing cost on the timed work (ready -> report); start-up
            # is untouched by it and only adds noise.
            work = [(s["stamps"]["report"] - s["stamps"]["ready"]) * s["speed"]["report"]
                    for s in (plain, traced)]
            layers["trace_overhead_frac"] = work[1] / work[0] - 1.0
        for line in layer_table(layers):
            print(line)
        metrics = {n: {"value": float(layers[n]), "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {
            n: {"value": median(result["series"][n]), "unit": u}
            for n, (u, _) in END_TO_END.items()
        }
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no src/repro here; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
