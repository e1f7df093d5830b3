"""The multi-campaign grid engine.

One DES substrate, one volunteer fleet, N campaigns.  Each campaign
keeps its own :class:`~repro.boinc.server.GridServer` (workunit
database, deadlines, validation, reissue — untouched), and a
:class:`CampaignRouter` stands between the fleet and the servers: it
exposes the exact agent-facing surface of a single ``GridServer``
(``all_done`` / ``request_work`` / ``on_result`` / ``config``), decides
*which campaign serves each work request* under the configured
scheduling policy, and routes results and telemetry back to the owning
campaign.  The volunteer agent code does not know the router exists.

Identity contract
-----------------

A grid with exactly one registered cross-docking campaign — no pending
admission, no drain — **is** the monolithic engine:
:meth:`MultiGridSimulation.run` delegates wholesale to
:class:`~repro.boinc.simulator.VolunteerGridSimulation`, so traces,
metrics and golden digests are bit-identical by construction.  The
router path itself adds no randomness (all substreams are the
monolithic ones; policies only reorder deterministic candidate lists),
so even ``force_router=True`` with one campaign reproduces the
monolithic statistics exactly — the test suite pins both properties.

Workunit id namespaces
----------------------

Campaign ``k`` numbers its workunits from ``k * WU_ID_STRIDE``
(mirroring the host-id striding of :mod:`repro.boinc.sharding`), so ids
stay globally unique across campaigns, result routing is a constant-time
integer division, and merged traces never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .. import constants
from ..boinc.agent import VolunteerAgent
from ..boinc.credit import AccountingMode
from ..boinc.server import GridServer, Instance, ServerConfig
from ..boinc.simulator import CampaignResult, Telemetry, VolunteerGridSimulation
from ..boinc.validator import ValidationPolicy, ValidationStats
from ..core.packaging import PackagingPolicy
from ..faults import ResultQuality, ServerUnavailable
from ..grid.des import Simulator
from ..grid.host import HostPopulationModel
from ..grid.population import WCGPopulationModel, hcmd_share_schedule
from ..obs import Profiler, Tracer
from ..rng import substream
from ..units import SECONDS_PER_WEEK, weeks
from .campaign import Campaign, GridConfig
from .policies import SchedulingPolicy, make_policy
from .workloads import CrossDockingWorkload, WorkloadBuild

__all__ = [
    "WU_ID_STRIDE",
    "CampaignRuntime",
    "CampaignRouter",
    "MultiGridSimulation",
    "GridResult",
]

#: workunit-id stride between campaigns: campaign ``k`` numbers its
#: workunits from ``k * WU_ID_STRIDE`` (far above any realistic campaign
#: size), so the owning campaign of a result is ``wu_id // WU_ID_STRIDE``.
WU_ID_STRIDE = 2**40


class _CampaignTracer:
    """Tracer proxy stamping ``campaign=<name>`` into every event.

    Handed to each campaign's server and telemetry in place of the grid
    tracer, so the server-channel lifecycle (``server.issue`` /
    ``result`` / ``validate`` / ``batch_complete`` ...) is attributable
    per campaign in a merged trace.  Agent-channel events stay
    host-level (one agent serves many campaigns over its life); the
    workunit-id namespace maps them back to campaigns.
    """

    __slots__ = ("_tracer", "_campaign")

    def __init__(self, tracer: Tracer, campaign: str) -> None:
        self._tracer = tracer
        self._campaign = campaign

    def emit(self, etype: str, t_sim: float | None = None, **fields) -> None:
        self._tracer.emit(etype, t_sim=t_sim, campaign=self._campaign, **fields)


class _AgentTelemetry:
    """One host's telemetry view, routed to the campaign it serves.

    Agents are strictly sequential — one instance at a time, reported
    before the next fetch — so a single mutable ``current`` pointer, set
    by the router at issue and report time, attributes every agent-side
    sample (run times, results, credit, faults) to the right campaign.
    Before the first fetch it points at the grid-level telemetry.
    """

    __slots__ = ("current",)

    def __init__(self, default: Telemetry) -> None:
        self.current = default

    def record_result(self, t: float, accounted_cpu_s: float) -> None:
        self.current.record_result(t, accounted_cpu_s)

    def record_credit(self, points: float) -> None:
        self.current.record_credit(points)

    def record_fault(self, kind: str) -> None:
        self.current.record_fault(kind)

    def record_workunit_run(
        self, t: float, active_s: float, reference_s: float
    ) -> None:
        self.current.record_workunit_run(t, active_s, reference_s)


@dataclass(frozen=True)
class _RouterConfig:
    """The slice of ``ServerConfig`` agents read through the router."""

    deadline_s: float


class CampaignRuntime:
    """One campaign's live state on the grid."""

    def __init__(
        self,
        index: int,
        campaign: Campaign,
        build: WorkloadBuild,
        server: GridServer,
        telemetry: Telemetry,
    ) -> None:
        self.index = index
        self.campaign = campaign
        self.build = build
        self.server = server
        self.telemetry = telemetry
        self.name = campaign.name
        #: admitted to scheduling (False until ``submit_week``)
        self.admitted = campaign.submit_week == 0.0
        #: drained: no new issues, outstanding results still accepted
        self.drained = False
        #: cumulative reference seconds issued — the fair-share measure
        self.issued_reference_s = 0.0
        self._complete_emitted = False

    @property
    def is_candidate(self) -> bool:
        """Eligible to serve the next work request."""
        return self.admitted and not self.drained and not self.server.all_done

    @property
    def settled(self) -> bool:
        """Nothing left to schedule here (done, or drained for good)."""
        return self.drained or self.server.all_done


class CampaignRouter:
    """The agent-facing façade over N campaign servers.

    Duck-types the ``GridServer`` surface volunteer agents consume; every
    work request walks the policy's preference ordering (quota-capped
    campaigns demoted behind everyone under quota) until a campaign hands
    out an instance.  Results route back by workunit-id namespace.
    """

    def __init__(
        self,
        sim: Simulator,
        runtimes: list[CampaignRuntime],
        policy: SchedulingPolicy,
        grid_telemetry: Telemetry,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.runtimes = runtimes
        self.policy = policy
        self.grid_telemetry = grid_telemetry
        self.tracer = tracer
        #: the agent-visible config: the loosest deadline on the grid
        #: (only consulted for the post-abandon revisit delay)
        self.config = _RouterConfig(
            deadline_s=max(rt.server.config.deadline_s for rt in runtimes)
        )
        self._views: dict[int, _AgentTelemetry] = {}
        self._pending_admissions = sum(
            1 for rt in runtimes if not rt.admitted
        )
        for rt in runtimes:
            if rt.admitted and tracer is not None:
                tracer.emit(
                    "grid.admit", t_sim=0.0, campaign=rt.name,
                    n_workunits=rt.server.n_workunits,
                )

    # -- fleet wiring ------------------------------------------------------

    def register_host(self, host_id: int, view: _AgentTelemetry) -> None:
        """Attach one agent's routed-telemetry view."""
        self._views[host_id] = view

    # -- lifecycle ---------------------------------------------------------

    def admit(self, runtime: CampaignRuntime) -> None:
        """Mid-run admission: the campaign joins the candidate set."""
        runtime.admitted = True
        self._pending_admissions -= 1
        if self.tracer is not None:
            self.tracer.emit(
                "grid.admit", t_sim=self.sim.now, campaign=runtime.name,
                n_workunits=runtime.server.n_workunits,
            )

    def drain(self, runtime: CampaignRuntime) -> None:
        """Mid-run drain: no new issues; outstanding results still land."""
        runtime.drained = True
        if self.tracer is not None:
            self.tracer.emit(
                "grid.drain", t_sim=self.sim.now, campaign=runtime.name,
                validated=runtime.server.n_validated,
                n_workunits=runtime.server.n_workunits,
            )

    # -- the GridServer surface agents consume -----------------------------

    @property
    def all_done(self) -> bool:
        """True once no campaign will ever need the fleet again."""
        if self._pending_admissions:
            return False
        return all(rt.settled for rt in self.runtimes if rt.admitted)

    def request_work(self, host_id: int) -> Instance | None:
        """Serve one work request under the scheduling policy.

        Walks the policy ordering (under-quota campaigns first) until a
        campaign issues an instance.  Returns ``None`` when nobody has
        issuable work; raises :class:`ServerUnavailable` only when every
        candidate campaign's server refused (all mid-outage).
        """
        candidates = [rt for rt in self.runtimes if rt.is_candidate]
        if not candidates:
            return None
        week = self.sim.now / SECONDS_PER_WEEK
        order = self.policy.order(candidates, week)
        order = self._quota_partition(order)
        refused_until: list[float] = []
        for rt in order:
            try:
                instance = rt.server.request_work(host_id)
            except ServerUnavailable as exc:
                refused_until.append(exc.until)
                continue
            if instance is None:
                continue
            rt.issued_reference_s += instance.wu.cost_reference_s
            view = self._views.get(host_id)
            if view is not None:
                view.current = rt.telemetry
            return instance
        if refused_until and len(refused_until) == len(order):
            raise ServerUnavailable(min(refused_until))
        return None

    def _quota_partition(
        self, order: list[CampaignRuntime]
    ) -> list[CampaignRuntime]:
        """Demote over-quota campaigns behind everyone under quota.

        A campaign is over quota when its share of all issued reference
        work exceeds its ``quota_fraction``.  Over-quota campaigns stay
        in the ordering — work-conserving: they are served rather than
        letting a volunteer idle — but only after every under-quota
        campaign had its chance.
        """
        total = sum(rt.issued_reference_s for rt in self.runtimes)
        if total <= 0.0:
            return order
        over = [
            rt
            for rt in order
            if rt.campaign.quota_fraction is not None
            and rt.issued_reference_s > rt.campaign.quota_fraction * total
        ]
        if not over:
            return order
        over_ids = {id(rt) for rt in over}
        return [rt for rt in order if id(rt) not in over_ids] + over

    def on_result(
        self,
        instance: Instance,
        valid: bool,
        accounted_cpu_s: float,
        quality: "ResultQuality | None" = None,
    ) -> None:
        """Route a result report to its owning campaign's server."""
        rt = self.runtime_of(instance.wu.wu_id)
        view = self._views.get(instance.host_id)
        if view is not None:
            view.current = rt.telemetry
        was_done = rt.server.all_done
        rt.server.on_result(
            instance, valid, accounted_cpu_s, quality=quality
        )
        if not was_done:
            self._note_completions()

    def runtime_of(self, wu_id: int) -> CampaignRuntime:
        """The campaign owning workunit ``wu_id`` (id-namespace lookup)."""
        index = wu_id // WU_ID_STRIDE
        if not 0 <= index < len(self.runtimes):
            raise KeyError(f"workunit {wu_id} belongs to no campaign")
        return self.runtimes[index]

    def _note_completions(self) -> None:
        """Emit ``grid.complete`` for campaigns that just finished.

        Checked after result deliveries for *all* runtimes, because a
        deadline-driven terminal failure can complete a campaign from
        inside a DES timer without passing through the router.
        """
        if self.tracer is None:
            return
        for rt in self.runtimes:
            if rt.server.all_done and not rt._complete_emitted:
                rt._complete_emitted = True
                self.tracer.emit(
                    "grid.complete",
                    t_sim=self.sim.now,
                    campaign=rt.name,
                    validated=rt.server.n_validated,
                    failed=rt.server.stats.failed,
                )


@dataclass
class GridResult:
    """What a finished (or horizon-capped) multi-campaign grid produced."""

    config: GridConfig
    #: per-campaign results, in registration order
    campaigns: dict[str, CampaignResult]
    horizon_s: float
    n_hosts: int
    #: grid-level telemetry (pre-first-fetch agent events); None when the
    #: run delegated to the monolithic single-campaign engine
    grid_telemetry: Telemetry | None = None
    #: True when the single-campaign fast path ran (bit-identity mode)
    delegated: bool = False

    def __getitem__(self, name: str) -> CampaignResult:
        return self.campaigns[name]

    @property
    def completion_time(self) -> float | None:
        """Grid completion: when the *last* campaign closed (None if any
        campaign was still open at the horizon)."""
        times = [r.completion_time for r in self.campaigns.values()]
        if any(t is None for t in times):
            return None
        return max(times)

    def merged_stats(self) -> ValidationStats:
        """Campaign stats folded into one grid-global ValidationStats."""
        merged = ValidationStats()
        for result in self.campaigns.values():
            merged.merge(result.server.stats)
        return merged

    def merged_telemetry(self) -> Telemetry:
        """All telemetry (campaigns + grid-level) folded day-aligned."""
        merged = Telemetry(self.horizon_s)
        if self.grid_telemetry is not None:
            merged.merge(self.grid_telemetry)
        for result in self.campaigns.values():
            merged.merge(result.telemetry)
        return merged

    def issued_share(self) -> dict[str, float]:
        """Each campaign's share of the grid's useful reference work."""
        useful = {
            name: r.server.stats.useful_reference_s
            for name, r in self.campaigns.items()
        }
        total = sum(useful.values())
        if total <= 0.0:
            return {name: 0.0 for name in useful}
        return {name: v / total for name, v in useful.items()}


class MultiGridSimulation:
    """Run a :class:`GridConfig`: N campaigns on one volunteer fleet.

    ``force_router=True`` keeps a single-campaign grid on the router
    path instead of delegating to the monolithic engine — the router
    adds no randomness, so the statistics still reconcile exactly; the
    flag exists for that very test.
    """

    def __init__(
        self,
        config: GridConfig,
        *,
        tracer: Tracer | None = None,
        profiler: Profiler | None = None,
        force_router: bool = False,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.profiler = profiler
        self.force_router = force_router
        self.horizon_s = weeks(config.horizon_weeks)
        self.seed = config.seed
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
        self.accounting = (
            config.accounting
            if config.accounting is not None
            else AccountingMode.UD_WALL_CLOCK
        )
        self.faults = config.faults
        #: builds are pure functions of (workload, seed, id base): the
        #: same grid config always materializes identical workunits, the
        #: root of the deterministic mid-run-admission replay guarantee
        self.builds: list[WorkloadBuild] = [
            c.workload.build(self.seed, index * WU_ID_STRIDE)
            for index, c in enumerate(config.campaigns)
        ]
        n_hosts_peak = config.n_hosts_peak
        if n_hosts_peak is None:
            n_hosts_peak = self._auto_host_count()
        self.n_hosts_peak = n_hosts_peak

    # -- fleet sizing (mirrors the monolithic engine) ----------------------

    def _auto_host_count(self) -> int:
        """Peak fleet sized so the *total registered work* lands in ~26
        weeks — the same capacity model as the monolithic auto-sizing,
        summed over campaigns."""
        profile = self.host_model.profile
        availability = profile.mean_on_hours / (
            profile.mean_on_hours + profile.mean_off_hours
        )
        net_speed_down = profile.expected_net_speed_down(n=20_000)
        weekly_capacity = availability * SECONDS_PER_WEEK / net_speed_down
        shares = np.asarray(
            self.share_schedule.share(
                np.arange(constants.PROJECT_DURATION_WEEKS) + 0.5
            )
        )
        share_weeks = float(shares.sum() / self.share_schedule.full_share)
        total = sum(b.total_reference_s for b in self.builds) * 2.4
        return max(4, int(np.ceil(total / (weekly_capacity * share_weeks))))

    def _host_arrival_times(self) -> np.ndarray:
        """Join times implementing share(t) x growth(t) — the monolithic
        arrival process verbatim (substream 0), so a single-campaign grid
        recruits the identical fleet."""
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
            1,
            np.round(self.n_hosts_peak * shares * growth / ref).astype(np.int64),
        )
        target = np.maximum.accumulate(target)  # hosts never leave
        arrivals: list[float] = []
        current = 0
        rng = substream(self.seed, "host-arrivals", 0)
        for w in range(n_weeks):
            new = int(target[w] - current)
            if new > 0:
                times = w * SECONDS_PER_WEEK + rng.random(new) * SECONDS_PER_WEEK
                arrivals.extend(float(t) for t in np.sort(times))
                current = int(target[w])
        return np.asarray(arrivals)

    # -- single-campaign delegation ----------------------------------------

    @property
    def delegates_to_monolithic(self) -> bool:
        """True when this grid is exactly the monolithic engine's case:
        one cross-docking campaign, full-lifetime, default weights."""
        if self.force_router or len(self.config.campaigns) != 1:
            return False
        c = self.config.campaigns[0]
        return (
            isinstance(c.workload, CrossDockingWorkload)
            and c.submit_week == 0.0
            and c.drain_week is None
        )

    def _monolithic(self) -> VolunteerGridSimulation:
        """The equivalent single-campaign simulation (bit-identical)."""
        from ..boinc.config import CampaignConfig

        c = self.config.campaigns[0]
        workload = c.workload
        library, cost_model = workload.library_and_costs(self.seed)
        cfg = CampaignConfig(
            packaging=workload.packaging
            if workload.packaging is not None
            else PackagingPolicy(target_hours=workload.target_hours),
            server=c.server,
            faults=self.faults,
            host_model=self.config.host_model,
            share_schedule=self.config.share_schedule,
            population=self.config.population,
            n_hosts_peak=self.config.n_hosts_peak,
            horizon_weeks=self.config.horizon_weeks,
            scale=workload.scale,
            seed=self.seed,
            accounting=self.config.accounting,
            release_policy=workload.release_policy,
        )
        return VolunteerGridSimulation(
            library, cost_model, cfg,
            tracer=self.tracer, profiler=self.profiler,
        )

    # -- server resolution -------------------------------------------------

    def _server_config(self, campaign: Campaign) -> ServerConfig:
        """Resolve one campaign's server policy + grid fault overrides."""
        server_config = (
            campaign.server
            if campaign.server is not None
            else ServerConfig(
                validation=ValidationPolicy(switch_time=weeks(16.0))
            )
        )
        if self.faults.enabled:
            overrides = {}
            if self.faults.max_reissues is not None:
                overrides["max_reissues"] = self.faults.max_reissues
            if self.faults.outages is not None:
                # One physical server farm: an infrastructure outage hits
                # every campaign's scheduler at the same wall times.
                overrides["outages"] = self.faults.outage_windows(
                    self.seed, self.horizon_s
                )
            if overrides:
                server_config = replace(server_config, **overrides)
        return server_config

    # -- execution ---------------------------------------------------------

    def run(self) -> GridResult:
        """Run the grid to completion of every campaign (or the horizon)."""
        if self.delegates_to_monolithic:
            result = self._monolithic().run()
            return GridResult(
                config=self.config,
                campaigns={self.config.campaigns[0].name: result},
                horizon_s=self.horizon_s,
                n_hosts=result.n_hosts,
                grid_telemetry=None,
                delegated=True,
            )

        tracer = self.tracer
        sim_tracer = tracer
        if (
            tracer is not None
            and tracer.channels is not None
            and "des" not in tracer.channels
        ):
            sim_tracer = None
        sim = Simulator(tracer=sim_tracer, profiler=self.profiler)
        profiler = self.profiler if self.profiler is not None else Profiler()
        grid_telemetry = Telemetry(self.horizon_s, tracer=tracer)

        with profiler.timed("setup.campaigns"):
            runtimes: list[CampaignRuntime] = []
            for index, campaign in enumerate(self.config.campaigns):
                build = self.builds[index]
                campaign_tracer = (
                    _CampaignTracer(tracer, campaign.name)
                    if tracer is not None
                    else None
                )
                telemetry = Telemetry(self.horizon_s, tracer=campaign_tracer)
                batch_bytes = build.batch_bytes
                server = GridServer(
                    sim=sim,
                    workunits=build.workunits,
                    config=self._server_config(campaign),
                    on_workunit_valid=(
                        lambda wu, t, _tele=telemetry: _tele.record_validation(t)
                    ),
                    on_batch_complete=(
                        lambda batch, t, _tele=telemetry, _bytes=batch_bytes:
                        _tele.record_shipment(t, _bytes[batch])
                    ),
                    tracer=campaign_tracer,
                    id_base=index * WU_ID_STRIDE,
                )
                runtimes.append(
                    CampaignRuntime(index, campaign, build, server, telemetry)
                )

        router = CampaignRouter(
            sim,
            runtimes,
            make_policy(self.config.policy, self.seed),
            grid_telemetry,
            tracer=tracer,
        )
        for rt in runtimes:
            if not rt.admitted:
                sim.schedule_at(
                    weeks(rt.campaign.submit_week), router.admit, rt
                )
            if rt.campaign.drain_week is not None:
                sim.schedule_at(
                    min(weeks(rt.campaign.drain_week), self.horizon_s),
                    router.drain, rt,
                )

        with profiler.timed("setup.hosts"):
            arrivals = self._host_arrival_times()
            agents: list[VolunteerAgent] = []
            starts = []
            for host_id, join_t in enumerate(arrivals):
                view = _AgentTelemetry(grid_telemetry)
                router.register_host(host_id, view)
                spec = self.host_model.spec(
                    host_id,
                    join_time=float(join_t),
                    faults=self.faults.host_state(self.seed, host_id),
                )
                agent = VolunteerAgent(
                    sim,
                    router,
                    spec,
                    view,
                    rng=substream(self.seed, "agent", host_id),
                    accounting=self.accounting,
                    tracer=tracer,
                )
                agents.append(agent)
                starts.append((float(join_t), agent.start))
            sim.schedule_batch_at(starts)

        with profiler.timed("des.run"):
            sim.run(until=self.horizon_s)

        campaigns: dict[str, CampaignResult] = {}
        for rt in runtimes:
            build = rt.build
            n_batches = build.n_batches
            batch_completion = np.full(n_batches, np.nan)
            for batch, t in rt.server.batch_completion.items():
                batch_completion[batch] = t
            release_order = (
                build.release_order
                if build.release_order is not None
                else np.arange(n_batches)
            )
            workload = rt.campaign.workload
            campaigns[rt.name] = CampaignResult(
                telemetry=rt.telemetry,
                server=rt.server,
                completion_time=rt.server.completion_time,
                horizon_s=self.horizon_s,
                scale=getattr(workload, "scale", 1.0),
                n_hosts=len(agents),
                release_order=release_order.copy(),
                batch_completion_s=batch_completion,
                faults=self.faults,
            )
        return GridResult(
            config=self.config,
            campaigns=campaigns,
            horizon_s=self.horizon_s,
            n_hosts=len(agents),
            grid_telemetry=grid_telemetry,
            delegated=False,
        )
