"""Volunteer-grid campaign orchestration.

Wires the grid server, the volunteer agents and the telemetry together and
runs a (scaled) HCMD-like campaign end to end:

* workunits are materialized in release order (least-cost receptor batches
  first, Section 5.1) from a :class:`repro.core.packaging.WorkUnitPlan`;
* hosts join over time following the HCMD share schedule (control period,
  prioritization ramp, full-power phase) applied to the WCG growth trend;
* daily telemetry records consumed CPU (VFTP series, Figure 6a), result
  arrivals (Figure 6b), per-workunit device run times (Figure 8) and
  receptor-batch completions (Figure 7);
* the final :class:`repro.core.metrics.CampaignMetrics` feeds the Table 2
  equivalence.

Real WCG scale (1.4M workunits, tens of thousands of hosts) is out of
laptop reach; campaigns run at a configurable ``scale`` — the protein set
and per-protein position counts shrink — and report scale-corrected
aggregates next to raw ones.  Scale-independent quantities (redundancy
factor, speed-down, useful-result fraction, completion shape) are the
reproduction targets; the fluid model (:mod:`repro.fluid`) provides the
full-scale absolute numbers.

Observability: :class:`Telemetry` is built on a
:class:`repro.obs.MetricsRegistry` (every daily series/counter/histogram
it keeps is uniformly exportable), and passing ``tracer=`` /
``profiler=`` to :class:`VolunteerGridSimulation` (or
:func:`scaled_phase1`) threads structured event tracing and per-callback
timing through the DES kernel, the server and every agent.  See
docs/observability.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sharding import ShardSpec

from .. import constants
from ..faults import FaultPlan, FaultReport
from ..obs import MetricsRegistry, Profiler, TeeSink, Tracer
from ..obs.health import HealthMonitor, NullSink, SLOReport
from ..obs.ledger import FleetReport, HostLedger
from ..core.campaign import CampaignPlan
from ..core.metrics import CampaignMetrics
from ..core.packaging import PackagingPolicy, WorkUnitPlan
from ..core.workunit import WorkUnit
from ..grid.des import Simulator
from ..grid.host import HostPopulationModel
from ..grid.population import hcmd_share_schedule, WCGPopulationModel
from ..maxdo.cost_model import CostModel
from ..proteins.library import ProteinLibrary
from ..rng import substream
from ..units import SECONDS_PER_DAY, SECONDS_PER_WEEK, weeks
from .agent import VolunteerAgent
from .config import CampaignConfig
from .credit import AccountingMode
from .server import GridServer, ServerConfig
from .validator import ValidationPolicy

__all__ = [
    "Telemetry",
    "CampaignResult",
    "CampaignConfig",
    "VolunteerGridSimulation",
    "scaled_phase1",
]


#: Device run-time histogram bucket bounds, in hours (the Figure 8 axis:
#: the paper's mean is ~13 h for ~3.3 h reference workunits).
RUN_HOURS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 13.0, 24.0, 48.0, 96.0)

#: telemetry registry entries merged structurally (everything else in a
#: campaign registry is a counter and merges by addition)
_DAILY_SERIES = (
    "campaign.daily_cpu_s",
    "campaign.daily_results",
    "campaign.daily_useful",
)
_HISTOGRAMS = ("campaign.run_active_hours",)


class Telemetry:
    """Daily-bucketed campaign telemetry, kept in a metrics registry.

    Public accessors (``daily_cpu_s``, ``weekly_vftp`` ...) are unchanged
    from the original hand-rolled class, but the underlying storage is a
    :class:`repro.obs.MetricsRegistry` of daily series / counters /
    histograms, so every recorded quantity exports uniformly through
    ``registry.as_dict()`` (and rides along in ``metrics.json``).

    Out-of-horizon samples are clamped to the edge day *and* counted in
    the ``telemetry.clamped_samples`` counter; with a tracer attached each
    clamp additionally emits a ``telemetry.clamp`` warning event, so the
    information loss is observable instead of silent.
    """

    def __init__(
        self,
        horizon_s: float,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.horizon_s = horizon_s
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        n_days = int(np.ceil(horizon_s / SECONDS_PER_DAY)) + 1
        reg = self.registry
        self._cpu = reg.daily_series(
            "campaign.daily_cpu_s", n_days,
            help="accounted volunteer CPU seconds per day (VFTP series)",
        )
        self._results = reg.daily_series(
            "campaign.daily_results", n_days, dtype=np.int64,
            help="results disclosed per day",
        )
        self._useful = reg.daily_series(
            "campaign.daily_useful", n_days, dtype=np.int64,
            help="workunits validated per day",
        )
        self._credit = reg.counter(
            "campaign.claimed_credit_points", help="total claimed credit points"
        )
        self._shipped = reg.counter(
            "campaign.shipped_bytes",
            help="result bytes shipped to the storage server",
        )
        self._clamped = reg.counter(
            "telemetry.clamped_samples",
            help="samples clamped to the horizon edge (see telemetry.clamp)",
        )
        self._run_hours = reg.histogram(
            "campaign.run_active_hours", RUN_HOURS_BUCKETS,
            help="per-result device-side active run time (hours, Figure 8)",
        )
        self._last_day = n_days - 1
        self.run_active_s: list[float] = []
        self.run_reference_s: list[float] = []
        #: (time, bytes) per receptor batch shipped to the storage server
        self.shipments: list[tuple[float, int]] = []

    # -- registry-backed views (the original public attributes) -----------

    @property
    def daily_cpu_s(self) -> np.ndarray:
        return self._cpu.values

    @property
    def daily_results(self) -> np.ndarray:
        return self._results.values

    @property
    def daily_useful(self) -> np.ndarray:
        return self._useful.values

    @property
    def total_claimed_credit(self) -> float:
        return self._credit.value

    @property
    def clamped_samples(self) -> int:
        """Samples that fell outside the horizon and were edge-clamped."""
        return int(self._clamped.value)

    # -- recording ---------------------------------------------------------

    def _day(self, t: float) -> int:
        """The day bucket of ``t``, clamped to the horizon — loudly.

        A sample outside ``[0, horizon]`` still lands in the edge bucket
        (the series stays well-formed) but is counted and, when tracing,
        reported as a ``telemetry.clamp`` event instead of being silently
        folded in.
        """
        day = int(t / SECONDS_PER_DAY)
        last = self._last_day
        if 0 <= day <= last:
            return day
        self._clamped.inc()
        if self.tracer is not None:
            self.tracer.emit(
                "telemetry.clamp", t_sim=t, day=day,
                horizon_days=last,
            )
        return min(max(day, 0), last)

    def record_result(self, t: float, accounted_cpu_s: float) -> None:
        day = self._day(t)
        self._results.add(day)
        self._cpu.add(day, accounted_cpu_s)

    def record_validation(self, t: float) -> None:
        self._useful.add(self._day(t))

    def record_credit(self, points: float) -> None:
        self._credit.inc(points)

    def record_fault(self, kind: str) -> None:
        """Count one injected fault / recovery action.

        The ``fault.<kind>`` counter is created lazily on first use, so a
        fault-free campaign's registry export stays byte-identical — no
        zero-valued fault counters appear out of nowhere.
        """
        self.registry.counter(
            f"fault.{kind}",
            help=f"injected faults / recovery actions: {kind}",
        ).inc()

    def record_shipment(self, t: float, n_bytes: int) -> None:
        """A completed receptor batch shipped to the storage server."""
        self.shipments.append((t, n_bytes))
        self._shipped.inc(n_bytes)

    def record_workunit_run(
        self, t: float, active_s: float, reference_s: float
    ) -> None:
        self.run_active_s.append(active_s)
        self.run_reference_s.append(reference_s)
        self._run_hours.observe(active_s / 3600.0)

    def merge(self, other: "Telemetry") -> None:
        """Fold one shard's (or campaign's) telemetry into this one.

        Day-aligned: both registries were built over the same horizon, so
        the daily series add element-wise.  Lazily-created counters (the
        ``fault.*`` family) are created here only when ``other`` actually
        has them, preserving the monolithic contract that a fault-free
        export carries no zero-valued fault counters.
        """
        for name in other.registry.names():
            metric = other.registry.get(name)
            if name in _DAILY_SERIES:
                target = self.registry.get(name)
                if len(target.values) != len(metric.values):
                    raise ValueError(
                        f"shard horizon mismatch merging {name}: "
                        f"{len(metric.values)} vs {len(target.values)} days"
                    )
                target.values += metric.values
            elif name in _HISTOGRAMS:
                target = self.registry.get(name)
                if target.bounds != metric.bounds:
                    raise ValueError(
                        f"histogram bounds mismatch merging {name}"
                    )
                for i, count in enumerate(metric.bucket_counts):
                    target.bucket_counts[i] += count
                target.sum += metric.sum
                target.count += metric.count
            elif metric.kind == "counter":
                self.registry.counter(name, help=metric.help).inc(metric.value)
            else:  # pragma: no cover - campaign telemetry has no other kinds
                raise TypeError(
                    f"cannot merge metric {name!r} of kind {metric.kind!r}"
                )
        self.run_active_s.extend(other.run_active_s)
        self.run_reference_s.extend(other.run_reference_s)
        self.shipments.extend(other.shipments)

    def weekly_vftp(self) -> np.ndarray:
        """Average VFTP per project week (the Figure 6a series)."""
        n_weeks = len(self.daily_cpu_s) // 7
        daily_vftp = self.daily_cpu_s[: n_weeks * 7] / SECONDS_PER_DAY
        return daily_vftp.reshape(n_weeks, 7).mean(axis=1)

    def weekly_results(self) -> tuple[np.ndarray, np.ndarray]:
        """Results per week: (all disclosed, useful) — Figure 6b."""
        n_weeks = len(self.daily_results) // 7
        disclosed = self.daily_results[: n_weeks * 7].reshape(n_weeks, 7).sum(axis=1)
        useful = self.daily_useful[: n_weeks * 7].reshape(n_weeks, 7).sum(axis=1)
        return disclosed, useful


@dataclass
class CampaignResult:
    """Everything a finished (or horizon-capped) campaign produced."""

    telemetry: Telemetry
    server: GridServer
    completion_time: float | None
    horizon_s: float
    scale: float
    n_hosts: int
    #: receptor library indices in release order
    release_order: np.ndarray
    #: completion time of each receptor batch (by release position), NaN if
    #: incomplete
    batch_completion_s: np.ndarray
    #: the fault plan the campaign ran under (empty = fault-free)
    faults: FaultPlan = FaultPlan.none()
    #: the final SLO report when a health monitor rode the campaign
    #: (``health=True``), else None
    health: SLOReport | None = None
    #: the final per-host fleet report when a host ledger rode the
    #: campaign (``ledger=True``), else None
    ledger: FleetReport | None = None
    #: per-shard wall-clock seconds when the campaign ran sharded
    #: (:mod:`repro.boinc.sharding`), else None
    shard_walls: list[float] | None = None

    @property
    def span_s(self) -> float:
        """Campaign span: completion if reached, else the horizon."""
        return self.completion_time if self.completion_time is not None else self.horizon_s

    @property
    def completion_weeks(self) -> float | None:
        if self.completion_time is None:
            return None
        return self.completion_time / SECONDS_PER_WEEK

    def metrics(self) -> CampaignMetrics:
        stats = self.server.stats
        return CampaignMetrics(
            span_seconds=self.span_s,
            consumed_cpu_s=stats.consumed_cpu_s,
            useful_reference_cpu_s=stats.useful_reference_s,
            results_disclosed=stats.disclosed,
            results_effective=stats.effective,
        )

    def fault_report(self) -> FaultReport:
        """The campaign-level error budget (what was injected, what the
        defences caught, what slipped through, what failed terminally)."""
        return FaultReport.collect(
            self.faults,
            self.server.stats,
            self.telemetry.registry,
            total_workunits=self.server.n_workunits,
        )

    def mean_device_run_hours(self) -> float:
        """Average device-side run time per result (paper: ~13 h)."""
        runs = np.asarray(self.telemetry.run_active_s)
        if runs.size == 0:
            raise ValueError("no workunit completed")
        return float(runs.mean()) / 3600.0

    def vftp_from_credit(self) -> float:
        """The Section 8 points-based VFTP estimate for this campaign."""
        from .credit import vftp_from_credit

        return vftp_from_credit(self.telemetry.total_claimed_credit, self.span_s)

    def vftp_from_useful_work(self) -> float:
        """Ground truth: reference work delivered per wall-clock second —
        what the points estimator is supposed to approximate."""
        return self.server.stats.useful_reference_s / self.span_s

    def shipped_bytes_total(self) -> int:
        """Result volume shipped to the storage server so far (§5.2)."""
        return sum(b for _, b in self.telemetry.shipments)

    def shipment_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(times_s, cumulative_bytes) of the storage-server deliveries."""
        if not self.telemetry.shipments:
            return np.empty(0), np.empty(0, dtype=np.int64)
        ordered = sorted(self.telemetry.shipments)
        times = np.array([t for t, _ in ordered])
        sizes = np.cumsum([b for _, b in ordered])
        return times, sizes

    def export(self, directory, profiler: Profiler | None = None) -> list:
        """Dump the campaign telemetry as CSV/JSON artifacts.

        Writes daily series, weekly aggregates, the per-result run times
        and the final metrics into ``directory``; returns the paths.
        Passing the campaign's :class:`~repro.obs.Profiler` additionally
        writes its machine-readable dump as ``profile.json``.
        """
        from pathlib import Path

        from ..analysis.export import export_json, export_series_csv

        directory = Path(directory)
        t = self.telemetry
        n_days = len(t.daily_cpu_s)
        paths = [
            export_series_csv(
                directory / "daily.csv",
                {
                    "day": np.arange(n_days),
                    "cpu_seconds": t.daily_cpu_s,
                    "results": t.daily_results,
                    "useful": t.daily_useful,
                },
            ),
            export_series_csv(
                directory / "workunit_runs.csv",
                {
                    "active_seconds": np.asarray(t.run_active_s),
                    "reference_seconds": np.asarray(t.run_reference_s),
                },
            ),
        ]
        m = self.metrics()
        payload = {
            "completion_weeks": self.completion_weeks,
            "n_hosts": self.n_hosts,
            "scale": self.scale,
            "vftp": m.vftp,
            "redundancy": m.redundancy,
            "useful_result_fraction": m.useful_result_fraction,
            "speed_down_raw": m.speed_down_raw,
            "speed_down_net": m.speed_down_net,
            "shipped_bytes": self.shipped_bytes_total(),
            # every registry metric (daily series, counters,
            # histograms) rides along, self-describing
            "registry": t.registry.as_dict(),
        }
        if self.faults.enabled:
            # Fault-free exports stay byte-identical: the error budget
            # only appears when a plan was active.
            payload["faults"] = self.fault_report().as_dict()
        if self.health is not None:
            # Same contract: the SLO report appears only when a monitor
            # rode the campaign.
            payload["health"] = self.health.as_dict()
        if self.ledger is not None:
            # And the fleet forensics only when a host ledger rode it.
            payload["ledger"] = self.ledger.as_dict()
        paths.append(
            export_json(
                directory / "metrics.json",
                payload,
                experiment="scaled phase-I campaign",
            )
        )
        if profiler is not None:
            paths.append(
                export_json(
                    directory / "profile.json",
                    profiler.to_dict(),
                    experiment="scaled phase-I campaign",
                )
            )
        return paths


class VolunteerGridSimulation:
    """A configurable volunteer-grid campaign.

    The preferred construction is a :class:`CampaignConfig`::

        sim = VolunteerGridSimulation(library, cost_model, CampaignConfig(
            seed=7, faults=FaultPlan.from_spec("corrupt=0.1"),
        ))

    (or equivalently :meth:`from_config`).  The historical 16-keyword
    style — ``VolunteerGridSimulation(library, cost_model, packaging=...,
    server_config=..., seed=...)`` — is retired: the keywords are folded
    into a config by :meth:`CampaignConfig.from_kwargs`, which emits the
    :class:`DeprecationWarning` (``server_config`` maps to the ``server``
    field; migration notes in docs/usage.md).
    """

    def __init__(
        self,
        library: ProteinLibrary,
        cost_model: CostModel,
        config: CampaignConfig | None = None,
        *,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
        health: "bool | HealthMonitor | None" = None,
        ledger: "bool | HostLedger | None" = None,
        shard: "ShardSpec | None" = None,
        **legacy,
    ) -> None:
        if legacy:
            if config is not None:
                raise TypeError(
                    "pass either a CampaignConfig or legacy keyword arguments, "
                    "not both: " + ", ".join(sorted(legacy))
                )
            # from_kwargs owns the DeprecationWarning (one warning per
            # legacy entry point, pointing at the CampaignConfig field
            # mapping and the docs/usage.md migration notes).
            config = CampaignConfig.from_kwargs(**legacy)
        if config is None:
            config = CampaignConfig()
        #: the resolved campaign configuration (frozen)
        self.config = config
        self.library = library
        self.cost_model = cost_model
        #: structured event tracing for the DES/server/agents (opt-in)
        self.tracer = tracer
        #: per-callback and per-phase wall-time aggregation (opt-in)
        self.profiler = profiler
        #: streaming SLO/health monitor riding the trace stream (opt-in;
        #: ``health=True`` builds one with default thresholds)
        if health is True:
            health = HealthMonitor()
        self.health = health if isinstance(health, HealthMonitor) else None
        #: streaming per-host behavioral ledger riding the trace stream
        #: (opt-in; ``ledger=True`` builds one with default thresholds)
        if ledger is True:
            ledger = HostLedger()
        self.ledger = ledger if isinstance(ledger, HostLedger) else None
        #: when set, this simulation runs one shard of a larger campaign:
        #: a contiguous release-order slice with campaign-global workunit
        #: and host numbering (see :mod:`repro.boinc.sharding`)
        self.shard = shard
        if (
            shard is not None
            and config.shards is not None
            and config.shards.n_shards > 1
        ):
            raise ValueError(
                "a shard simulation must carry a config without a "
                "multi-shard plan (run_sharded strips it)"
            )
        self.packaging = (
            config.packaging
            if config.packaging is not None
            else PackagingPolicy(target_hours=3.65)
        )
        self.horizon_s = weeks(config.horizon_weeks)
        self.scale = config.scale
        self.seed = config.seed
        #: the fault-injection plan (empty = fault-free campaign)
        self.faults = config.faults
        self.share_schedule = (
            config.share_schedule
            if config.share_schedule is not None
            else hcmd_share_schedule()
        )
        self.population = (
            config.population
            if config.population is not None
            else WCGPopulationModel.calibrated()
        )
        self.host_model = (
            config.host_model
            if config.host_model is not None
            else HostPopulationModel(seed=self.seed, horizon=self.horizon_s)
        )
        server_config = (
            config.server
            if config.server is not None
            else ServerConfig(
                # The value-range validation method replaced quorum
                # comparison mid-campaign; week 16 reproduces the overall
                # 1.37 redundancy factor for a 26-week campaign.
                validation=ValidationPolicy(switch_time=weeks(16.0))
            )
        )
        if self.faults.enabled:
            overrides = {}
            if self.faults.max_reissues is not None:
                overrides["max_reissues"] = self.faults.max_reissues
            if self.faults.outages is not None:
                overrides["outages"] = self.faults.outage_windows(
                    self.seed, self.horizon_s
                )
            if overrides:
                server_config = replace(server_config, **overrides)
        self.server_config = server_config

        #: phase I ran on the UD agent (wall-clock accounting); pass
        #: ``AccountingMode.BOINC_CPU_TIME`` for a phase-II-style campaign.
        self.accounting = (
            config.accounting
            if config.accounting is not None
            else AccountingMode.UD_WALL_CLOCK
        )
        self.plan = WorkUnitPlan(cost_model, self.packaging)
        self.campaign = CampaignPlan(library, cost_model, policy=config.release_policy)
        if self.shard is not None:
            # The shard planner already prorated the campaign fleet.
            n_hosts_peak = self.shard.n_hosts_peak
        else:
            n_hosts_peak = config.n_hosts_peak
            if n_hosts_peak is None:
                n_hosts_peak = self._auto_host_count()
        self.n_hosts_peak = n_hosts_peak

    @classmethod
    def from_config(
        cls,
        library: ProteinLibrary,
        cost_model: CostModel,
        config: CampaignConfig,
        *,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
        health: "bool | HealthMonitor | None" = None,
        ledger: "bool | HostLedger | None" = None,
    ) -> "VolunteerGridSimulation":
        """Build a simulation from a :class:`CampaignConfig` (no shim)."""
        return cls(
            library, cost_model, config,
            tracer=tracer, profiler=profiler, health=health, ledger=ledger,
        )

    # -- sizing ------------------------------------------------------------

    def _auto_host_count(self) -> int:
        """Peak host count so the campaign finishes in ~26 weeks.

        Weekly useful capacity of one peak-share host ~ (availability x
        week-seconds) / net-speed-down; the share schedule scales the host
        count per week.
        """
        profile = self.host_model.profile
        availability = profile.mean_on_hours / (
            profile.mean_on_hours + profile.mean_off_hours
        )
        net_speed_down = profile.expected_net_speed_down(n=20_000)
        weekly_capacity = availability * SECONDS_PER_WEEK / net_speed_down
        shares = np.asarray(
            self.share_schedule.share(np.arange(constants.PROJECT_DURATION_WEEKS) + 0.5)
        )
        share_weeks = float(shares.sum() / self.share_schedule.full_share)
        # Margin over the bare work: quorum/invalid redundancy (~1.3x),
        # checkpoint-kill losses, report/poll dead time, and the straggler
        # tail of the last batches (deadline-bound reissues).
        total = self.campaign.total_work * 2.4
        return max(4, int(np.ceil(total / (weekly_capacity * share_weeks))))

    def _host_arrival_times(self) -> np.ndarray:
        """Join times implementing share(t) x growth(t) host counts."""
        n_weeks = int(np.ceil(self.horizon_s / SECONDS_PER_WEEK))
        week_idx = np.arange(n_weeks, dtype=np.float64)
        shares = np.asarray(self.share_schedule.share(week_idx + 0.5))
        day0 = constants.WCG_LAUNCH_TO_HCMD_DAYS
        growth = np.asarray(
            self.population.trend(day0 + 7.0 * (week_idx + 0.5))
        )
        project_end_week = float(constants.PROJECT_DURATION_WEEKS)
        ref = self.share_schedule.full_share * float(
            self.population.trend(day0 + 7.0 * project_end_week)
        )
        target = np.maximum(
            1, np.round(self.n_hosts_peak * shares * growth / ref).astype(np.int64)
        )
        target = np.maximum.accumulate(target)  # hosts never leave
        arrivals: list[float] = []
        current = 0
        # Shard k draws its fleet from its own substream, so shards of
        # one campaign never share or correlate their arrival processes
        # (shard None / index 0 keeps today's monolithic stream).
        shard_index = self.shard.index if self.shard is not None else 0
        rng = substream(self.seed, "host-arrivals", shard_index)
        for w in range(n_weeks):
            new = int(target[w] - current)
            if new > 0:
                times = w * SECONDS_PER_WEEK + rng.random(new) * SECONDS_PER_WEEK
                arrivals.extend(float(t) for t in np.sort(times))
                current = int(target[w])
        return np.asarray(arrivals)

    # -- campaign materialization -------------------------------------------

    def materialize_workunits(self) -> list[tuple[WorkUnit, int]]:
        """The campaign's ``(workunit, batch)`` list in release order.

        A shard materializes only its own release-order slice; workunit ids
        and batch indices stay campaign-global so merged traces, spans and
        batch telemetry are collision-free.  The list is deterministic for a
        given library/cost-model/config, which is what lets a wire-driven
        load generator rebuild the exact same workunits independently of
        the scheduler service (see :mod:`repro.service`).
        """
        shard = self.shard
        batch_lo = shard.batch_lo if shard is not None else 0
        wu_id_base = shard.wu_id_base if shard is not None else 0
        ordered_couples = self.campaign.ordered_couples(
            batch_lo, shard.batch_hi if shard is not None else None
        )
        n = len(self.library)
        pos_base = batch_lo * n
        workunits: list[tuple[WorkUnit, int]] = []
        wu_id = wu_id_base
        for pos, couple in enumerate(ordered_couples, start=pos_base):
            batch = pos // n
            for wu in self.plan.iter_workunits([couple], id_start=wu_id):
                workunits.append((wu, batch))
                wu_id += 1
        return workunits

    @property
    def wu_id_base(self) -> int:
        """First workunit id of this (shard of the) campaign."""
        return self.shard.wu_id_base if self.shard is not None else 0

    def batch_result_bytes(self, result_format: str = "text") -> list[int]:
        """Result bytes shipped per receptor batch, by release position.

        Result volume ships when a receptor batch completes ("when one
        protein has been docked with the 168 others", Section 5.2): one
        line per (position, orientation couple) against every ligand.

        ``result_format`` prices the shipment in either representation:
        ``"text"`` (the paper's line-oriented files, 118 bytes/line — the
        default, and what the shipment telemetry models) or ``"columnar"``
        (the packed store of :mod:`repro.store`: 56 bytes/row plus one
        segment frame per couple file in the batch).
        """
        from ..maxdo.resultfile import BYTES_PER_LINE
        from ..store.format import ROW_BYTES, SEGMENT_OVERHEAD_BYTES

        if result_format not in ("text", "columnar"):
            raise ValueError(
                f"result_format must be 'text' or 'columnar', "
                f"got {result_format!r}"
            )
        n = len(self.library)
        if result_format == "text":
            per_row, per_batch = BYTES_PER_LINE, 0
        else:
            per_row, per_batch = ROW_BYTES, n * SEGMENT_OVERHEAD_BYTES
        return [
            int(self.library.nsep[int(r)]) * n * constants.N_ROT_COUPLES
            * per_row + per_batch
            for r in self.campaign.release_order
        ]

    # -- execution ----------------------------------------------------------

    def run(self, server_factory: Callable[..., GridServer] | None = None) -> CampaignResult:
        """Run the campaign to completion (or the horizon).

        With a :class:`~repro.boinc.sharding.ShardPlan` of more than one
        shard in the config, execution is delegated to
        :func:`repro.boinc.sharding.run_sharded` (K independent shard
        simulations, merged losslessly); a plan of one shard — or none —
        runs the monolithic path below, bit-identical either way.

        ``server_factory`` swaps the in-process :class:`GridServer` for a
        stand-in with the same agent-facing surface — the wire-driven
        load-generator mode (:mod:`repro.service.loadgen`) injects a
        socket-backed proxy here.  The factory is called with the same
        keyword arguments as the ``GridServer`` constructor and may ignore
        the ones it does not need.
        """
        shards = self.config.shards
        if shards is not None and shards.n_shards > 1:
            if server_factory is not None:
                raise ValueError(
                    "server_factory is incompatible with a multi-shard plan; "
                    "run the load generator against a single-shard campaign"
                )
            from .sharding import run_sharded

            return run_sharded(self)
        if server_factory is not None and self.health is not None:
            raise ValueError(
                "health monitoring needs the in-process server's event "
                "stream; run the wire-driven campaign without health="
            )
        if server_factory is not None and self.ledger is not None:
            raise ValueError(
                "the host ledger needs the in-process server's event "
                "stream; run the wire-driven campaign without ledger= "
                "(the scheduler service keeps its own, see GET /v1/hosts)"
            )
        tracer = self.tracer
        restore_sink = None
        if self.health is not None or self.ledger is not None:
            # Tee the trace stream into the observers (one tee, ledger
            # lane first).  Without a user-supplied tracer, build an
            # observer-only one: events feed the monitor/ledger and are
            # then discarded (NullSink), restricted to the lifecycle
            # channels so the DES kernel's high-rate events skip the emit
            # path entirely.  With a user tracer, the tee inherits its
            # channel filter — a filter that drops "host" starves the
            # ledger of credit and trust events (documented in
            # repro.obs.ledger).
            folds = [f for f in (self.ledger, self.health) if f is not None]
            if tracer is None:
                channels = ["server", "agent", "fault"]
                if self.health is not None:
                    channels.append("health")
                if self.ledger is not None:
                    channels.append("host")
                tracer = Tracer(
                    sink=TeeSink(NullSink(), folds), channels=tuple(channels)
                )
            else:
                restore_sink = tracer.sink
                tracer.sink = TeeSink(restore_sink, folds)
            if self.health is not None:
                self.health.bind(tracer)
        # The kernel's vectorized fast path is only disabled by *its own*
        # instrumentation: a tracer whose channel filter excludes ``des``
        # would drop every kernel event anyway (they are all ``des.*``),
        # so hand the kernel None and keep the fast path.
        sim_tracer = tracer
        if (
            tracer is not None
            and tracer.channels is not None
            and "des" not in tracer.channels
        ):
            sim_tracer = None
        sim = Simulator(tracer=sim_tracer, profiler=self.profiler)
        telemetry = Telemetry(self.horizon_s, tracer=tracer)
        profiler = self.profiler if self.profiler is not None else Profiler()

        with profiler.timed("setup.workunits"):
            workunits = self.materialize_workunits()

        batch_bytes = self.batch_result_bytes()

        make_server = server_factory if server_factory is not None else GridServer
        server = make_server(
            sim=sim,
            workunits=workunits,
            config=self.server_config,
            on_workunit_valid=lambda wu, t: telemetry.record_validation(t),
            on_batch_complete=lambda batch, t: telemetry.record_shipment(
                t, batch_bytes[batch]
            ),
            tracer=tracer,
            id_base=self.wu_id_base,
        )
        if self.health is not None:
            self.health.configure_campaign(
                len(workunits), self.server_config.max_reissues
            )

        with profiler.timed("setup.hosts"):
            arrivals = self._host_arrival_times()
            agents: list[VolunteerAgent] = []
            starts: list[tuple[float, Callable[[], None]]] = []
            # Shards number their hosts from disjoint id blocks: every
            # host-keyed substream (behaviour, agent RNG, fault state)
            # stays independent across the shards of one campaign.
            host_id_base = (
                self.shard.host_id_base if self.shard is not None else 0
            )
            for idx, join_t in enumerate(arrivals):
                host_id = host_id_base + idx
                spec = self.host_model.spec(
                    host_id,
                    join_time=float(join_t),
                    faults=self.faults.host_state(self.seed, host_id),
                )
                agent = VolunteerAgent(
                    sim,
                    server,
                    spec,
                    telemetry,
                    rng=substream(self.seed, "agent", host_id),
                    accounting=self.accounting,
                    tracer=tracer,
                )
                agents.append(agent)
                starts.append((float(join_t), agent.start))
            # Arrival times are generated sorted, so the batch load takes
            # the append-only path (no per-event heap sift-up).
            sim.schedule_batch_at(starts)

        with profiler.timed("des.run"):
            sim.run(until=self.horizon_s)

        # A wire-backed server proxy needs a final clock advance on the
        # *remote* side: trailing deadline timers there fire only when told
        # the campaign horizon was reached (the in-process GridServer has
        # no such hook — its timers live in `sim` and already fired).
        finalize = getattr(server, "finalize_campaign", None)
        if finalize is not None:
            finalize(self.horizon_s)

        t_final = (
            server.completion_time
            if server.completion_time is not None
            else self.horizon_s
        )
        health_report = None
        if self.health is not None:
            health_report = self.health.finalize(t_final)
        ledger_report = None
        if self.ledger is not None:
            ledger_report = self.ledger.finalize(t_final)
        if restore_sink is not None:
            tracer.sink = restore_sink  # unwrap: the tracer outlives us

        n_batches = len(self.library)
        batch_completion = np.full(n_batches, np.nan)
        for batch, t in server.batch_completion.items():
            batch_completion[batch] = t
        return CampaignResult(
            telemetry=telemetry,
            server=server,
            completion_time=server.completion_time,
            horizon_s=self.horizon_s,
            scale=self.scale,
            n_hosts=len(agents),
            release_order=self.campaign.release_order.copy(),
            batch_completion_s=batch_completion,
            faults=self.faults,
            health=health_report,
            ledger=ledger_report,
        )


def scaled_phase1(
    scale: float = 200.0,
    n_proteins: int = 24,
    seed: int = constants.DEFAULT_SEED,
    target_hours: float = 3.65,
    horizon_weeks: float = 40.0,
    config: CampaignConfig | None = None,
    tracer: Tracer | None = None,
    profiler: Profiler | None = None,
    health: "bool | HealthMonitor | None" = None,
    ledger: "bool | HostLedger | None" = None,
    **kwargs,
) -> VolunteerGridSimulation:
    """A phase-I-like campaign shrunk by ``scale``.

    ``n_proteins`` proteins keep the phase-1 per-protein statistics; the
    per-protein position counts are divided by ``scale``; packaging uses
    the deployed ~3.3 h workunits.  The default configuration yields a few
    thousand workunits — minutes of simulation — while preserving the
    scale-free observables (redundancy, speed-down, useful fraction,
    three-phase shape).

    A :class:`CampaignConfig` passed as ``config=`` supplies the
    remaining knobs (fault plan, server policy, host model, ...); its
    ``scale``/``seed``/``horizon_weeks`` are overridden by this
    function's arguments, and its ``packaging`` only when unset.  Legacy
    keyword arguments (``accounting=``, ``server_config=``,
    ``n_hosts_peak=``, ``faults=``, ...) are folded into the config
    unchanged, so existing callers keep working.  ``tracer=Tracer.
    to_jsonl(path)`` records a structured campaign trace and
    ``profiler=Profiler()`` aggregates per-callback wall time (see
    docs/observability.md).

    This function is a thin adapter over the campaign-first API: the
    library and cost model come from
    :class:`repro.multi.CrossDockingWorkload` (the workload a
    ``Campaign.cross_docking(...)`` runs on a multi-campaign grid), so
    both entry points materialize bit-identical campaigns.
    """
    # Imported lazily: repro.multi.engine imports this module, so a
    # module-level import here would be circular.
    from ..multi.workloads import CrossDockingWorkload

    workload = CrossDockingWorkload(
        scale=scale, n_proteins=n_proteins, target_hours=target_hours
    )
    library, cost_model = workload.library_and_costs(seed)
    if config is None:
        config = CampaignConfig()
    if config.packaging is None:
        config = config.with_(packaging=PackagingPolicy(target_hours=target_hours))
    config = config.with_(horizon_weeks=horizon_weeks, scale=scale, seed=seed)
    if kwargs:
        config = config.with_(**kwargs)
    return VolunteerGridSimulation(
        library, cost_model, config,
        tracer=tracer, profiler=profiler, health=health, ledger=ledger,
    )
