"""Record the seeded campaign outcomes the benchmark checks against.

    python3 perfbench/record_reference.py --workload phase1 --seeds 0-19
    python3 perfbench/record_reference.py --workload wire --seeds 0-19

For a campaign workload, runs one untraced repeat per seed and stores its
completion time, ValidationStats, sizes, DES event count (monolithic) and
trace line and event-type counts (traced workloads) in
``perfbench/reference.json``.  For ``wire``, runs the campaign that
``repro-hcmd serve`` fronts in-process with the agent channel traced and
stores the counts the open-loop generator's traffic is derived from
(fleet size, scheduler contacts, reports, campaign length; see
``wire_traffic`` in wire.py).  Re-record only for a change that is meant
to alter campaign outcomes, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, ROOT, WORKLOADS, campaign_outcome, launch_child, load_reference

#: outcome keys worth pinning across commits (the trace digest is not: it
#: changes with any harmless change to an event's fields)
PINNED = ("completion_time", "stats", "n_workunits", "n_hosts", "events",
          "trace_lines", "trace_counts")

#: agent events the wire traffic is derived from
TRAFFIC_EVENTS = ("agent.fetch", "agent.idle", "agent.abandon", "agent.report")


def served_campaign_traffic(seed: int) -> dict:
    """The served campaign's own scheduler traffic, run in-process: what
    ``repro-hcmd --seed SEED serve --scale S --proteins P`` builds, with
    its hosts' agents instead of the wire."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import Tracer
    from repro.boinc.simulator import scaled_phase1
    from repro.obs.health import NullSink

    cfg = WORKLOADS["wire"]["wire"]
    tracer = Tracer(sink=NullSink(), channels=["agent"])
    result = scaled_phase1(
        scale=cfg["scale"], n_proteins=cfg["proteins"], seed=seed, tracer=tracer,
    ).run()
    return {
        "n_hosts": result.n_hosts,
        "n_workunits": result.server.n_workunits,
        "completion_time": result.completion_time,
        "counts": {e: tracer.counts[e] for e in TRAFFIC_EVENTS},
    }


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[n for n, w in WORKLOADS.items()
                                 if "campaign" in w or "wire" in w])
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,5,9")
    args = parser.parse_args()
    reference = load_reference()
    key = "wire-traffic" if args.workload == "wire" else args.workload
    table = reference.setdefault(key, {})
    work_dir = os.path.join(ROOT, ".perfbench_work", f"ref-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        for seed in parse_seeds(args.seeds):
            if args.workload == "wire":
                table[str(seed)] = served_campaign_traffic(seed)
                print(f"seed {seed}: recorded", file=sys.stderr)
                continue
            spec = {"workload": args.workload, "seed": seed, "work_dir": work_dir,
                    "trace": False, "campaign": WORKLOADS[args.workload]["campaign"]}
            outcome = campaign_outcome(launch_child(spec, timeout=600))
            table[str(seed)] = {k: outcome[k] for k in PINNED if k in outcome}
            print(f"seed {seed}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    reference[key] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
