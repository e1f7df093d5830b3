"""Acceptance tests for the per-host behavioral ledger (repro.obs.ledger).

The contract under test (see the module docstring of
:mod:`repro.obs.ledger`):

* **exact reconciliation** — on a faulted adaptive campaign the fleet
  totals agree with :class:`ValidationStats`, the fault report, the
  campaign telemetry and the adaptive-replication streaks, with zero
  orphan events;
* **bit-identity** — a ledger-enabled campaign reproduces the golden
  digests captured before the ledger existed (the ledger observes, it
  never perturbs);
* **offline equivalence** — refolding a recorded trace reproduces the
  live ledger exactly (what ``repro-hcmd hosts`` relies on);
* **sharded determinism** — for a fixed shard plan the merged fleet
  report is identical across worker counts and runs, and ``K=1``
  matches the monolithic ledger;
* the service surface: ``GET /v1/hosts`` and ``GET /v1/metrics``.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from repro import CampaignConfig, ShardPlan, Tracer, scaled_phase1
from repro.boinc.server import ServerConfig
from repro.boinc.validator import AdaptiveReplication, ValidationPolicy
from repro.faults import FaultPlan
from repro.obs import FleetReport, HealthMonitor, HostLedger, SLOConfig
from repro.obs.tracer import iter_trace
from repro.units import weeks

# Golden values captured at the pre-sharding HEAD (see tests/test_sharding.py
# — same campaign, same channels).  A ledger-enabled run must keep
# reproducing these bytes: the ledger observes the stream, never the sim.
GOLDEN = {
    "completion_time": 6807430.00267922,
    "disclosed": 78,
    "effective": 38,
    "trace_digest":
        "351a01958365616baa218e62417c43d7937c67ab8bd772d470f3f823dab70dd3",
    "registry_digest":
        "07a05502e2add67f3a763cee360d98671d9bc65f3eed318f826d5ef9b9c552c6",
}
LIFECYCLE_CHANNELS = ("server", "agent", "fault")


def _faulted_adaptive_campaign(ledger=True, tracer=None, health=None):
    """A seconds-fast campaign exercising every ledger dimension: crashes,
    corruption, sabotage, adaptive trust streaks and spot checks."""
    return scaled_phase1(
        scale=700, n_proteins=6, seed=42,
        config=CampaignConfig(
            faults=FaultPlan.from_spec("crash=3,corrupt=0.05,sabotage=0.02")
        ),
        server_config=ServerConfig(
            validation=ValidationPolicy(switch_time=weeks(10.0)),
            adaptive=AdaptiveReplication(trust_after=3, spot_check_rate=0.1),
        ),
        ledger=ledger,
        tracer=tracer,
        health=health,
    )


class TestReconciliation:
    @pytest.fixture(scope="class")
    def run(self):
        result = _faulted_adaptive_campaign().run()
        assert isinstance(result.ledger, FleetReport)
        return result

    def test_totals_match_validation_stats(self, run):
        totals = run.ledger.totals
        stats = run.server.stats
        assert totals["results"] == stats.disclosed
        assert totals["validated"] == stats.effective
        assert totals["invalid"] == stats.invalid
        assert totals["late"] == stats.late
        assert totals["sabotage_caught"] == stats.sabotage_caught
        assert totals["bad_validated"] == stats.bad_validated
        assert totals["refused"] == stats.refused_rpcs
        assert totals["cpu_s"] == pytest.approx(stats.consumed_cpu_s)

    def test_totals_match_fault_report(self, run):
        totals = run.ledger.totals
        report = run.fault_report()
        assert totals["crashes"] == report.injected["crashes"]
        assert totals["corrupted"] == report.injected["corrupted"]
        assert totals["sabotaged"] == report.injected["sabotaged"]
        assert totals["report_lost"] == report.injected["report_lost"]
        assert totals["sabotage_caught"] == report.sabotage_caught
        assert totals["bad_validated"] == report.bad_validated
        assert totals["invalid"] == report.invalid_rejected

    def test_credit_matches_telemetry(self, run):
        assert run.ledger.totals["credit"] == pytest.approx(
            run.telemetry.total_claimed_credit
        )

    def test_streaks_match_adaptive_replication(self, run):
        adaptive = run.server.config.adaptive
        for host_id, streak in adaptive.streaks().items():
            assert run.ledger.host(host_id)["streak"] == streak

    def test_every_host_accounted(self, run):
        """Zero orphans: every host that appears in the event stream has
        a classified record, and the class histogram covers them all.
        (Hosts the scheduler never touched have nothing to ledger.)"""
        assert 1 <= run.ledger.n_hosts <= run.n_hosts
        assert len(run.ledger.hosts) == run.ledger.n_hosts
        assert sum(run.ledger.classes.values()) == run.ledger.n_hosts
        assert run.ledger.n_observed > 0
        for doc in run.ledger.hosts:
            assert doc["class"] in ("suspect-saboteur", "flaky", "straggler",
                                    "reliable")

    def test_rides_into_metrics_json(self, run, tmp_path):
        run.export(tmp_path)
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["ledger"]["totals"]["results"] == run.server.stats.disclosed


class TestBitIdentity:
    def test_ledger_on_reproduces_golden_digests(self, tmp_path):
        """The pre-ledger golden campaign, byte for byte, with the ledger
        folding alongside."""
        tracer = Tracer.to_jsonl(
            tmp_path / "trace.jsonl", channels=LIFECYCLE_CHANNELS
        )
        result = scaled_phase1(
            scale=700, n_proteins=6, seed=42,
            config=CampaignConfig(), tracer=tracer, ledger=True,
        ).run()
        tracer.close()

        assert result.completion_time == GOLDEN["completion_time"]
        assert result.server.stats.disclosed == GOLDEN["disclosed"]
        assert result.server.stats.effective == GOLDEN["effective"]
        digest = hashlib.sha256()
        for e in iter_trace(tmp_path / "trace.jsonl"):
            digest.update(
                repr((e.etype, e.t_sim, tuple(sorted(e.fields.items())))).encode()
            )
        assert digest.hexdigest() == GOLDEN["trace_digest"]
        registry = json.dumps(result.telemetry.registry.as_dict(), sort_keys=True)
        assert (
            hashlib.sha256(registry.encode()).hexdigest()
            == GOLDEN["registry_digest"]
        )
        assert result.ledger is not None
        assert result.ledger.totals["results"] == GOLDEN["disclosed"]


class TestOfflineEquivalence:
    def test_refolding_a_trace_reproduces_the_live_ledger(self, tmp_path):
        """The ``repro-hcmd hosts`` contract: a trace recorded with the
        lifecycle + ``host`` channels refolds into the exact fleet report
        the live campaign produced."""
        tracer = Tracer.to_jsonl(
            tmp_path / "trace.jsonl", channels=LIFECYCLE_CHANNELS + ("host",)
        )
        result = _faulted_adaptive_campaign(tracer=tracer).run()
        tracer.close()

        refolded = HostLedger()
        for event in iter_trace(tmp_path / "trace.jsonl"):
            refolded.observe(event)
        fleet = refolded.finalize(result.ledger.t_end)
        assert fleet.as_dict() == result.ledger.as_dict()


class TestBothObservers:
    """Health monitor and ledger on one tracer: one tee, two lanes, and
    each observer sees exactly what it sees alone."""

    CHANNELS = LIFECYCLE_CHANNELS + ("host", "health")
    #: thresholds low enough that this small campaign breaches and clears
    #: rules, so the trace carries drain-timed ``health.*`` events
    TIGHT = SLOConfig(
        starvation_idle_polls=1, deadline_reissues=1, backlog_workunits=1,
        burn_fraction=0.05,
    )

    def _run(self, tmp_path, name, **observers):
        path = tmp_path / f"{name}.jsonl"
        tracer = Tracer.to_jsonl(path, channels=self.CHANNELS)
        result = _faulted_adaptive_campaign(tracer=tracer, **observers).run()
        tracer.close()
        lines = path.read_text(encoding="ascii").splitlines()
        stripped = [re.sub(r'"t_wall":[^,}]*,?', "", line) for line in lines]
        return result, stripped

    def test_each_observer_matches_its_solo_run(self, tmp_path):
        both, both_trace = self._run(
            tmp_path, "both", health=HealthMonitor(self.TIGHT), ledger=True
        )
        health, health_trace = self._run(
            tmp_path, "health", health=HealthMonitor(self.TIGHT), ledger=False
        )
        ledger, _ = self._run(tmp_path, "ledger", ledger=True)
        assert not health.health.healthy
        assert both.health.as_dict() == health.health.as_dict()
        assert both.ledger.as_dict() == ledger.ledger.as_dict()
        assert both_trace == health_trace

    def test_both_on_reproduces_golden_digests(self, tmp_path):
        tracer = Tracer.to_jsonl(
            tmp_path / "trace.jsonl", channels=LIFECYCLE_CHANNELS
        )
        result = scaled_phase1(
            scale=700, n_proteins=6, seed=42,
            config=CampaignConfig(), tracer=tracer, health=True, ledger=True,
        ).run()
        tracer.close()
        assert result.completion_time == GOLDEN["completion_time"]
        digest = hashlib.sha256()
        for e in iter_trace(tmp_path / "trace.jsonl"):
            digest.update(
                repr((e.etype, e.t_sim, tuple(sorted(e.fields.items())))).encode()
            )
        assert digest.hexdigest() == GOLDEN["trace_digest"]
        registry = json.dumps(result.telemetry.registry.as_dict(), sort_keys=True)
        assert (
            hashlib.sha256(registry.encode()).hexdigest()
            == GOLDEN["registry_digest"]
        )


class TestShardedFleetReport:
    def _run(self, n_shards, n_workers):
        config = CampaignConfig().with_(
            shards=ShardPlan(n_shards=n_shards, n_workers=n_workers)
        )
        return scaled_phase1(
            scale=700, n_proteins=6, seed=42, config=config, ledger=True
        ).run()

    def test_merged_report_identical_across_worker_counts(self):
        sequential = self._run(4, 1)
        pooled = self._run(4, 2)
        assert sequential.ledger is not None
        assert sequential.ledger.as_dict() == pooled.ledger.as_dict()

    def test_merged_report_identical_across_runs(self):
        assert self._run(4, 2).ledger.as_dict() == self._run(4, 2).ledger.as_dict()

    def test_single_shard_matches_monolithic(self):
        sharded = self._run(1, 1)
        monolithic = scaled_phase1(
            scale=700, n_proteins=6, seed=42,
            config=CampaignConfig(), ledger=True,
        ).run()
        assert sharded.ledger.as_dict() == monolithic.ledger.as_dict()


class TestServiceEndpoints:
    def test_hosts_and_metrics_endpoints(self):
        from repro.service import SchedulerClient, serve_in_thread

        handle = serve_in_thread(
            scaled_phase1(scale=900, n_proteins=5, seed=11, horizon_weeks=30.0)
        )
        client = SchedulerClient(*handle.address)
        try:
            work = client.request_work(host=0, t=3600.0)
            assignment = work["assignment"]
            client.report_result(
                assignment["token"], valid=True,
                accounted_cpu_s=assignment["cost_reference_s"], t=7200.0,
            )

            fleet = client.hosts()
            assert fleet["n_hosts"] >= 1
            assert fleet["now_s"] >= 7200.0
            assert fleet["totals"]["results"] == 1
            host0 = next(doc for doc in fleet["hosts"] if doc["host"] == 0)
            assert host0["validated"] + host0["results"] >= 1

            text = client.metrics_text()
            assert "# TYPE" in text
            assert "service_rpc_wall_s_request_work" in text
            assert 'quantile="0.5"' in text
            # The forensics endpoints measure themselves too.
            assert client.hosts()  # second call after /v1/metrics was hit
            assert "service_rpc_wall_s_metrics" in client.metrics_text()
        finally:
            client.close()
            handle.stop()


class TestHostsCli:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ledger") / "trace.jsonl"
        tracer = Tracer.to_jsonl(path, channels=LIFECYCLE_CHANNELS + ("host",))
        _faulted_adaptive_campaign(ledger=False, tracer=tracer).run()
        tracer.close()
        return path

    def test_fleet_table(self, trace_path, capsys):
        from repro.cli import main

        assert main(["hosts", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "fleet:" in out
        assert "host class" in out

    def test_host_detail_with_timeline(self, trace_path, capsys):
        from repro.cli import main

        assert main(["hosts", str(trace_path), "--host", "0", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "host 0" in out
        assert "trust streak" in out
        assert "host=0" in out  # the timeline tail

    def test_json_format_round_trips(self, trace_path, capsys):
        from repro.cli import main

        assert main(["hosts", str(trace_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_hosts"] == len(doc["hosts"])

    def test_markdown_format(self, trace_path, capsys):
        from repro.cli import main

        assert main(["hosts", str(trace_path), "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "## Fleet forensics" in out
        assert "| host |" in out

    def test_missing_file_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["hosts", "/nonexistent/trace.jsonl"]) == 2
        assert "trace" in capsys.readouterr().err.lower()
