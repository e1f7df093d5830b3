"""Sharded campaign execution: K servers, one merged result.

A monolithic campaign is one :class:`~repro.boinc.server.GridServer`
plus one DES loop in a single Python process — the one thing the kernel
fast path cannot speed up further.  This module partitions a campaign
into ``K`` *shards* along the release order (contiguous receptor-batch
ranges, balanced by workunit count), runs each shard as an independent
mini-campaign — its own server, DES kernel and volunteer fleet — on a
``ProcessPoolExecutor`` worker, and merges the shard outputs losslessly
into one :class:`~repro.boinc.simulator.CampaignResult`.  The WISDOM
large-scale screening deployments scaled exactly this way: partition the
input database into independently executed chunks, collate afterward.

Determinism contract
--------------------

* Every shard is fully determined by ``(library, cost_model, config,
  ShardSpec)``: shard ``k`` draws its host arrivals from
  ``substream(seed, "host-arrivals", k)`` and numbers its hosts from a
  disjoint id block, so host/agent/fault substreams never collide or
  correlate across shards.
* The merge folds shards in shard-index order regardless of which
  worker finishes first, so the merged result is **bit-identical for
  every worker count** (and for the in-process ``n_workers=1`` path).
* A single shard (``ShardPlan(n_shards=1)``) never reaches this module:
  :meth:`VolunteerGridSimulation.run` short-circuits to the monolithic
  path, which stays bit-identical to a config with no shard plan at all.

Merge semantics
---------------

Every shard artifact is a fold with a ``merge(other)`` method, and
:func:`run_sharded` folds each shard into the parent's folds in shard
order with one loop:

* :meth:`Telemetry.merge` — daily series summed day-aligned, counters
  added, histograms bucket-wise, run-time lists and shipments
  concatenated;
* :meth:`ValidationStats.merge` — field-wise sums (per-regime counts
  included), so :class:`CampaignMetrics` and
  :meth:`CampaignResult.fault_report` come from campaign-global numbers;
* :meth:`HostLedger.merge <repro.obs.ledger.HostLedger.merge>` (with
  ``ledger=``) — a union of disjoint host-id blocks;
* :meth:`Profiler.merge <repro.obs.profile.Profiler.merge>` (with
  ``profiler=``) — calls and seconds summed per section.

Beyond the folds:

* JSONL traces are interleaved by global ``(t_sim, shard, line)`` into
  the path the caller's tracer pointed at; workunit and host ids are
  campaign-global, so ``trace``/``report``/span reconstruction cannot
  tell a sharded trace from a monolithic one (zero orphans).
* ``completion_time`` is the max over shards once **all** shards
  completed, else ``None`` (the campaign-global definition).

What does *not* cross shards: the streaming health monitor, whose SLO
hysteresis depends on global time order; asking for it with
``n_shards > 1`` raises instead of silently dropping data.
"""

from __future__ import annotations

import heapq
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..obs.tracer import JsonlSink, Tracer
from .validator import ValidationStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.ledger import HostLedger
    from ..obs.profile import Profiler
    from .server import ServerConfig
    from .simulator import CampaignResult, Telemetry, VolunteerGridSimulation

__all__ = [
    "ShardPlan",
    "ShardSpec",
    "ShardOutput",
    "plan_shards",
    "run_sharded",
]

#: host-id stride between shards: shard ``k`` numbers its hosts from
#: ``k * HOST_ID_STRIDE``, so host substreams (behavioural draws, fault
#: states, agent RNGs) are disjoint for any realistic fleet size.
HOST_ID_STRIDE = 2**32


@dataclass(frozen=True)
class ShardPlan:
    """How to shard a campaign: K shards on up to N pool workers.

    ``n_shards=1`` (the default) is the monolithic path — bit-identical
    to a config with no shard plan.  ``n_workers=1`` runs the shards
    sequentially in-process (no pool, no pickling); ``n_workers>1`` fans
    them out over a ``ProcessPoolExecutor``.  The merged result does not
    depend on ``n_workers``.
    """

    n_shards: int = 1
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the campaign (all campaign-global numbers)."""

    index: int  #: shard number in ``[0, n_shards)``
    n_shards: int
    batch_lo: int  #: first release position (receptor batch), inclusive
    batch_hi: int  #: last release position, exclusive
    wu_id_base: int  #: global id of the shard's first workunit
    n_workunits: int  #: workunits in ``[batch_lo, batch_hi)``
    host_id_base: int  #: first global host id (``index * HOST_ID_STRIDE``)
    n_hosts_peak: int  #: the shard's share of the campaign's peak fleet


@dataclass
class ShardOutput:
    """What one shard sends back to the merge (must pickle)."""

    spec: ShardSpec
    telemetry: "Telemetry"  #: tracer stripped before crossing the process
    stats: ValidationStats
    completion_time: float | None
    batch_completion: dict[int, float]  #: global batch index -> t_sim
    n_workunits: int
    n_hosts: int
    wall_s: float  #: the shard's own wall-clock execution time
    trace_path: str | None = None
    trace_counts: dict[str, int] | None = None
    ledger: "HostLedger | None" = None  #: when the parent has a ledger
    profiler: "Profiler | None" = None  #: when the parent has a profiler


def plan_shards(sim: "VolunteerGridSimulation", n_shards: int) -> list[ShardSpec]:
    """Partition ``sim``'s campaign into contiguous release-order shards.

    Boundaries fall on receptor-batch edges (the release/shipment unit,
    so batch completion stays shard-local) and are placed to balance the
    cumulative *workunit count* — the DES cost of a shard (events, and
    therefore its wall time) tracks workunits, not reference CPU, so this
    is what evens out the per-shard walls a process pool schedules.

    Each shard's peak host count is the campaign fleet prorated by the
    **larger** of its reference-work share and its workunit share
    (minimum 4, matching the auto-sizing floor): the work share keeps a
    CPU-heavy slice on schedule, the workunit share keeps a slice of
    many cheap workunits from drowning in per-workunit latencies that
    reference work does not see.  ``n_shards=1`` yields the whole
    campaign as shard 0 with the full fleet.
    """
    n = len(sim.library)
    if not 1 <= n_shards <= n:
        raise ValueError(
            f"n_shards must be in [1, {n} receptor batches], got {n_shards}"
        )
    release_order = sim.campaign.release_order
    # Workunits per couple (counts minus merge-tail folds), summed over
    # each receptor batch's ligands — all vectorized, nothing materialized.
    per_couple = (sim.plan.counts - sim.plan.merged).astype(np.int64)
    batch_wus = per_couple[release_order].sum(axis=1)
    batch_work = sim.campaign.batch_work[release_order]
    cum_work = np.concatenate([[0.0], np.cumsum(batch_work)])
    cum_wus = np.concatenate([[0], np.cumsum(batch_wus)])
    total_work = float(cum_work[-1])
    total_wus = int(cum_wus[-1])

    # Boundary k sits where the cumulative workunit count crosses k/K of
    # the total, nudged so every shard keeps at least one batch.
    bounds = [0]
    for k in range(1, n_shards):
        cut = int(np.searchsorted(cum_wus, total_wus * k / n_shards))
        cut = max(cut, bounds[-1] + 1)
        cut = min(cut, n - (n_shards - k))
        bounds.append(cut)
    bounds.append(n)

    specs = []
    for k in range(n_shards):
        lo, hi = bounds[k], bounds[k + 1]
        work = float(cum_work[hi] - cum_work[lo])
        work_share = work / total_work if total_work > 0 else 1.0 / n_shards
        wu_share = (
            (cum_wus[hi] - cum_wus[lo]) / total_wus
            if total_wus > 0
            else 1.0 / n_shards
        )
        share = max(work_share, wu_share)
        n_hosts = max(4, int(round(sim.n_hosts_peak * share)))
        specs.append(
            ShardSpec(
                index=k,
                n_shards=n_shards,
                batch_lo=lo,
                batch_hi=hi,
                wu_id_base=int(cum_wus[lo]),
                n_workunits=int(cum_wus[hi] - cum_wus[lo]),
                host_id_base=k * HOST_ID_STRIDE,
                n_hosts_peak=n_hosts,
            )
        )
    return specs


# -- shard execution ---------------------------------------------------------

def _execute_shard(
    library,
    cost_model,
    config,
    trace_dir: str | None,
    trace_channels: frozenset | None,
    observers: dict[str, type],
    spec: ShardSpec,
) -> ShardOutput:
    """Run one shard to completion and package its picklable output.

    ``observers`` maps a simulation keyword (``ledger``/``profiler``) to
    the class of the parent's fold; each shard folds into a fresh one.
    """
    from .simulator import VolunteerGridSimulation

    tracer = None
    trace_path = None
    if trace_dir is not None:
        trace_path = os.path.join(trace_dir, f"shard-{spec.index:04d}.jsonl")
        tracer = Tracer.to_jsonl(trace_path, channels=trace_channels)
    t0 = perf_counter()
    folds = {name: cls() for name, cls in observers.items()}
    sim = VolunteerGridSimulation(
        library, cost_model, config, tracer=tracer, shard=spec, **folds
    )
    result = sim.run()
    wall_s = perf_counter() - t0
    trace_counts = None
    if tracer is not None:
        tracer.close()
        trace_counts = dict(tracer.counts)
    result.telemetry.tracer = None  # the sink handle must not cross processes
    return ShardOutput(
        spec=spec,
        telemetry=result.telemetry,
        stats=result.server.stats,
        completion_time=result.completion_time,
        batch_completion=dict(result.server.batch_completion),
        n_workunits=result.server.n_workunits,
        n_hosts=result.n_hosts,
        wall_s=wall_s,
        trace_path=trace_path,
        trace_counts=trace_counts,
        **folds,
    )


#: worker-process state installed by :func:`_init_worker`: every
#: :func:`_execute_shard` argument but the spec.  Under the POSIX
#: ``fork`` start method the initargs are inherited by memory, so the
#: (potentially large) library/cost-model matrices are never pickled;
#: per-task payloads are just the small :class:`ShardSpec`.
_WORKER_STATE: tuple | None = None


def _init_worker(*state) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_shard_task(spec: ShardSpec) -> ShardOutput:
    """Module-level pool worker (must pickle), mirroring the docking
    engine's ``dock_couple(n_workers=N)`` fan-out pattern."""
    assert _WORKER_STATE is not None, "pool worker not initialized"
    return _execute_shard(*_WORKER_STATE, spec)


# -- merge -------------------------------------------------------------------

class MergedServerView:
    """Duck-typed stand-in for :class:`GridServer` on a merged result.

    Exposes exactly the server surface :class:`CampaignResult` and the
    downstream tooling read — ``stats``, ``n_workunits``,
    ``completion_time``, ``batch_completion``, ``config`` — backed by the
    campaign-global merged numbers.
    """

    def __init__(
        self,
        stats: ValidationStats,
        n_workunits: int,
        completion_time: float | None,
        batch_completion: dict[int, float],
        config: "ServerConfig",
    ) -> None:
        self.stats = stats
        self.n_workunits = n_workunits
        self.completion_time = completion_time
        self.batch_completion = batch_completion
        self.config = config

    @property
    def n_validated(self) -> int:
        return self.stats.effective

    @property
    def all_done(self) -> bool:
        return self.completion_time is not None


def _iter_trace_lines(path: str, shard: int) -> Iterator[tuple]:
    """Yield ``(t_sim, shard, line_no, raw_line)`` sort keys from one
    shard's JSONL trace (file order is non-decreasing in ``t_sim``)."""
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            t_sim = json.loads(line).get("t_sim")
            key = t_sim if t_sim is not None else float("-inf")
            yield (key, shard, line_no, line)


def _merge_traces(outputs: list[ShardOutput], target_path: str) -> None:
    """Interleave the shard JSONL traces by global ``(t_sim, shard,
    line)`` into ``target_path``, then remove the shard files."""
    streams = [
        _iter_trace_lines(out.trace_path, out.spec.index)
        for out in outputs
        if out.trace_path is not None
    ]
    with open(target_path, "w", encoding="ascii") as fh:
        for _, _, _, line in heapq.merge(*streams):
            fh.write(line + "\n")
    for out in outputs:
        if out.trace_path is not None and out.trace_path != target_path:
            os.remove(out.trace_path)


def _resolve_trace_target(sim: "VolunteerGridSimulation") -> tuple:
    """Where the merged trace must land, from the caller's tracer.

    Only a JSONL sink can span shard processes; an in-memory ring cannot
    be teed across workers, so asking for one with ``n_shards > 1`` is an
    error rather than a silently incomplete trace.
    """
    tracer = sim.tracer
    if tracer is None:
        return None, None, None
    if not isinstance(tracer.sink, JsonlSink):
        raise ValueError(
            "unsupported artifact for a sharded campaign: the in-memory "
            "ring trace (RingSink) cannot cross shard processes; trace a "
            "sharded campaign to a JSONL path (Tracer.to_jsonl / --trace "
            "PATH) instead, or run monolithically with n_shards=1 "
            "(drop --shards)"
        )
    target_path = str(tracer.sink.path)
    return tracer, target_path, tracer.channels


def run_sharded(sim: "VolunteerGridSimulation") -> "CampaignResult":
    """Execute ``sim`` as ``config.shards`` prescribes and merge.

    Called by :meth:`VolunteerGridSimulation.run` when the config carries
    a :class:`ShardPlan` with ``n_shards > 1``.  Returns a merged
    :class:`CampaignResult` indistinguishable (metrics, fault report,
    exports, trace) from one server having run the whole campaign;
    per-shard wall times are kept on ``result.shard_walls``.
    """
    from .simulator import CampaignResult, Telemetry

    plan = sim.config.shards
    if sim.health is not None:
        raise ValueError(
            "unsupported artifact for a sharded campaign: the streaming "
            "health monitor (--health / health=) runs in-process and its "
            "SLO report cannot be recombined across shard processes; run "
            "monolithically with n_shards=1 (drop --shards), or use the "
            "shard-mergeable host ledger (ledger=) instead"
        )
    tracer, target_path, trace_channels = _resolve_trace_target(sim)
    trace_dir = (
        (os.path.dirname(target_path) or ".") if target_path is not None else None
    )

    specs = plan_shards(sim, plan.n_shards)
    shard_config = sim.config.with_(shards=None)
    n_workers = min(plan.n_workers, plan.n_shards)

    # The folds merged across shards; the parent's observers are None
    # unless the caller asked for them.
    merged = {
        "telemetry": Telemetry(sim.horizon_s),
        "stats": ValidationStats(),
        "ledger": sim.ledger,
        "profiler": sim.profiler,
    }
    observers = {
        name: type(merged[name])
        for name in ("ledger", "profiler")
        if merged[name] is not None
    }
    state = (
        sim.library, sim.cost_model, shard_config,
        trace_dir, trace_channels, observers,
    )
    if n_workers <= 1:
        outputs = [_execute_shard(*state, spec) for spec in specs]
    else:
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=state,
        ) as pool:
            # submit order == shard order: the list() below is the
            # deterministic ordered merge, whatever order workers finish.
            outputs = list(pool.map(_run_shard_task, specs))

    if tracer is not None:
        # The caller's sink opened the target file; close it and rewrite
        # it with the globally interleaved stream, keeping the tracer's
        # per-type counts campaign-global.
        tracer.sink.close()
        _merge_traces(outputs, target_path)
        n_lines = 0
        for out in outputs:
            if out.trace_counts:
                tracer.counts.update(out.trace_counts)
                n_lines += sum(out.trace_counts.values())
        tracer.sink.n_written = n_lines

    batch_completion: dict[int, float] = {}
    for out in outputs:
        for name, fold in merged.items():
            if fold is not None:
                fold.merge(getattr(out, name))
        batch_completion.update(out.batch_completion)

    completed = [out.completion_time for out in outputs]
    completion_time = (
        max(completed) if all(t is not None for t in completed) else None
    )
    n_batches = len(sim.library)
    batch_completion_s = np.full(n_batches, np.nan)
    for batch, t in batch_completion.items():
        batch_completion_s[batch] = t

    server = MergedServerView(
        stats=merged["stats"],
        n_workunits=sum(out.n_workunits for out in outputs),
        completion_time=completion_time,
        batch_completion=batch_completion,
        config=sim.server_config,
    )
    fleet = None
    if sim.ledger is not None:
        fleet = sim.ledger.finalize(
            completion_time if completion_time is not None else sim.horizon_s
        )
    result = CampaignResult(
        telemetry=merged["telemetry"],
        server=server,
        completion_time=completion_time,
        horizon_s=sim.horizon_s,
        scale=sim.scale,
        n_hosts=sum(out.n_hosts for out in outputs),
        release_order=sim.campaign.release_order.copy(),
        batch_completion_s=batch_completion_s,
        faults=sim.faults,
        health=None,
        ledger=fleet,
    )
    result.shard_walls = [out.wall_s for out in outputs]
    return result
