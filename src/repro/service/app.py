"""The live scheduler service: an asyncio HTTP/JSON facade on GridServer.

The paper's campaign ran on a real BOINC server fielding scheduler RPCs
from ~100k volunteer hosts; here the same :class:`~repro.boinc.server.
GridServer` that the DES drives in-process answers ``request-work`` /
``report-result`` / ``heartbeat`` over real sockets.

Design (see docs/service.md for the wire reference):

* **Single-writer loop.**  All server mutations go through one bounded
  :class:`asyncio.Queue` drained by one writer task, so RPCs apply in a
  total order and the determinism contract survives the network: a
  deterministic replay driven over the wire reconciles exactly with the
  in-process run.
* **Clock carried on the wire.**  A mutating RPC may carry a campaign
  timestamp ``t``; the writer advances the service's discrete-event clock
  with ``sim.run(until=t)`` first, firing any due deadline timers and
  outage boundaries *before* the mutation — exactly the interleaving the
  shared-heap in-process run produces.  Without ``t`` (live mode) the
  clock advances with scaled wall time.
* **Backpressure to the socket.**  A full write queue refuses the RPC
  with ``503`` + ``Retry-After`` (reason ``overload``) instead of
  buffering unboundedly; outage windows from :mod:`repro.faults` surface
  the in-process :class:`~repro.faults.ServerUnavailable` as ``503``
  (reason ``outage``); graceful shutdown refuses new mutations (reason
  ``draining``) while the queue drains.  Every refusal is counted and,
  with a tracer, emitted as a ``service.refuse`` event.

The HTTP layer is a deliberately small hand-rolled HTTP/1.1 on asyncio
streams (keep-alive, JSON bodies) — no third-party server dependency.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..boinc.server import GridServer
from ..boinc.simulator import Telemetry
from ..faults import ResultQuality, ServerUnavailable
from ..grid.des import Simulator
from ..obs import HostLedger, MetricsRegistry, TeeSink, Tracer
from ..obs.health import NullSink
from ..obs.metrics import render_prometheus
from .protocol import (
    ENDPOINTS,
    WIRE_PROTOCOL_VERSION,
    error_payload,
    refusal_payload,
    stats_as_dict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..boinc.simulator import VolunteerGridSimulation

__all__ = ["ServiceConfig", "SchedulerService", "ServiceHandle", "serve_in_thread"]

#: RPC op keys, used for route dispatch and latency sketch names.
_OPS = (
    "discover", "status", "hosts", "metrics",
    "heartbeat", "request_work", "report_result", "finalize",
)

#: (method, path) -> op key.  Kept in lockstep with
#: :data:`repro.service.protocol.ENDPOINTS` (tested).
ROUTES: dict[tuple[str, str], str] = {
    ("GET", "/"): "discover",
    ("GET", "/v1/status"): "status",
    ("GET", "/v1/hosts"): "hosts",
    ("GET", "/v1/metrics"): "metrics",
    ("POST", "/v1/heartbeat"): "heartbeat",
    ("POST", "/v1/request-work"): "request_work",
    ("POST", "/v1/report-result"): "report_result",
    ("POST", "/v1/finalize"): "finalize",
}

#: Ops that mutate GridServer state and therefore go through the
#: single-writer queue; the rest are answered inline (read-only).
_WRITER_OPS = frozenset({"request_work", "report_result", "finalize"})

_MAX_HEADER_LINES = 64


@dataclass(frozen=True)
class ServiceConfig:
    """Socket and backpressure knobs for :class:`SchedulerService`."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick a free port (read it back from ``address``)
    port: int = 0
    #: bound on queued-but-unapplied mutations; a full queue refuses with
    #: 503 ``overload`` instead of buffering unboundedly
    max_pending: int = 1024
    #: live mode: simulated seconds per wall-clock second (ignored by
    #: RPCs that carry an explicit ``t``)
    time_scale: float = 1.0
    #: Retry-After for overload refusals (seconds)
    overload_retry_s: float = 1.0
    #: Retry-After for refusals during graceful drain (seconds)
    drain_retry_s: float = 5.0
    #: artificial per-mutation writer delay — a test/bench knob that makes
    #: overload deterministic to provoke (0 = off)
    writer_delay_s: float = 0.0
    #: largest accepted request body
    max_body_bytes: int = 1 << 20


class SchedulerService:
    """HTTP/JSON RPC front-end over one campaign's :class:`GridServer`.

    Built from a :class:`~repro.boinc.simulator.VolunteerGridSimulation`
    (which supplies the materialized workunits, server policy and
    horizon); owns a private DES kernel whose clock the RPCs advance.
    Start with :meth:`start` inside a running event loop, or use
    :func:`serve_in_thread` from synchronous code.
    """

    def __init__(
        self,
        sim_model: "VolunteerGridSimulation",
        config: ServiceConfig | None = None,
        tracer: Tracer | None = None,
        campaign: str = "hcmd",
    ) -> None:
        shards = sim_model.config.shards
        if shards is not None and shards.n_shards > 1:
            raise ValueError(
                "the scheduler service fronts a single GridServer; "
                "serve a campaign without a multi-shard plan"
            )
        self.cfg = config if config is not None else ServiceConfig()
        self.tracer = tracer
        # The kernel's fast path is only disabled by its own
        # instrumentation (same contract as VolunteerGridSimulation.run).
        sim_tracer = tracer
        if (
            tracer is not None
            and tracer.channels is not None
            and "des" not in tracer.channels
        ):
            sim_tracer = None
        self.sim = Simulator(tracer=sim_tracer)
        self.horizon_s = sim_model.horizon_s
        self.telemetry = Telemetry(sim_model.horizon_s, tracer=tracer)
        # Per-host behavioral ledger behind GET /v1/hosts, fed by a tee on
        # the server's event stream (same pattern as the in-process run).
        # With a caller-supplied tracer the tee rides its sink (a channel
        # filter excluding "server"/"host" starves the ledger — documented
        # in docs/observability.md); without one, a private tracer feeds
        # the ledger and nothing else.
        self.ledger = HostLedger()
        self._ledger_restore_sink = None
        if tracer is not None:
            self._ledger_restore_sink = tracer.sink
            tracer.sink = TeeSink(tracer.sink, [self.ledger])
            server_tracer = tracer
        else:
            server_tracer = Tracer(
                sink=TeeSink(NullSink(), [self.ledger]),
                channels=("server", "host"),
            )
        workunits = sim_model.materialize_workunits()
        batch_bytes = sim_model.batch_result_bytes()
        self.server = GridServer(
            sim=self.sim,
            workunits=workunits,
            config=sim_model.server_config,
            on_workunit_valid=lambda wu, t: self.telemetry.record_validation(t),
            on_batch_complete=lambda batch, t: self.telemetry.record_shipment(
                t, batch_bytes[batch]
            ),
            tracer=server_tracer,
            id_base=sim_model.wu_id_base,
        )
        #: the served campaign's name; scopes every assignment on the
        #: wire (multi-campaign grids run one service per campaign)
        self.campaign_name = campaign
        #: campaign identity echoed by ``GET /`` so a load generator can
        #: verify it rebuilt the same campaign before driving it
        self.identity = {
            "campaign": campaign,
            "n_workunits": self.server.n_workunits,
            "seed": sim_model.seed,
            "deadline_s": sim_model.server_config.deadline_s,
            "horizon_s": sim_model.horizon_s,
            "scale": sim_model.scale,
        }
        # -- wire-layer state ------------------------------------------------
        self._next_token = 1
        self._instances: dict[int, Any] = {}
        self.metrics = MetricsRegistry()
        self._latency = {
            op: self.metrics.quantiles(
                f"service.rpc_wall_s.{op}",
                help=f"wall-clock seconds to answer one {op} RPC",
            )
            for op in _OPS
        }
        self.refused: dict[str, int] = {"overload": 0, "draining": 0, "outage": 0}
        self.requests_total = 0
        self.max_queue_depth = 0
        #: mutations whose ``t`` was behind the clock and got clamped
        self.clock_clamps = 0
        self.draining = False
        self.address: tuple[str, int] | None = None
        self._queue: asyncio.Queue | None = None
        self._writer_task: asyncio.Task | None = None
        self._http: asyncio.AbstractServer | None = None
        self._t0_wall: float | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the socket and start the writer loop; returns (host, port)."""
        self._queue = asyncio.Queue(maxsize=self.cfg.max_pending)
        self._writer_task = asyncio.create_task(self._writer_loop())
        self._http = await asyncio.start_server(
            self._handle_conn, self.cfg.host, self.cfg.port
        )
        self.address = self._http.sockets[0].getsockname()[:2]
        self._t0_wall = time.monotonic()
        if self.tracer is not None:
            self.tracer.emit(
                "service.listen", t_sim=self.sim.now,
                host=self.address[0], port=self.address[1],
                n_workunits=self.server.n_workunits,
            )
        return self.address

    async def drain(self) -> None:
        """Refuse new mutations, then wait for the queued ones to apply."""
        if self._queue is None:
            return
        self.draining = True
        pending = self._queue.qsize()
        if self.tracer is not None:
            self.tracer.emit(
                "service.drain", t_sim=self.sim.now, phase="begin", pending=pending,
            )
        await self._queue.join()
        if self.tracer is not None:
            self.tracer.emit(
                "service.drain", t_sim=self.sim.now, phase="end", pending=0,
            )

    async def shutdown(self) -> None:
        """Graceful stop: drain the write queue, then close the socket."""
        await self.drain()
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
        # Nudge idle keep-alive connections off their readline and wait
        # for the handlers to unwind, so nothing is left mid-await when
        # the event loop goes away.
        for conn in list(self._conn_writers):
            conn.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        if self._ledger_restore_sink is not None and self.tracer is not None:
            # Unwrap the ledger tee: the caller's tracer outlives us.
            self.tracer.sink = self._ledger_restore_sink
            self._ledger_restore_sink = None

    # -- clock --------------------------------------------------------------

    def _resolve_t(self, body: dict[str, Any]) -> float:
        """The campaign time a mutation applies at.

        Replay mode sends ``t`` explicitly; live mode maps wall-clock
        seconds since start through ``time_scale``.
        """
        t = body.get("t")
        if t is None:
            elapsed = time.monotonic() - (self._t0_wall or time.monotonic())
            t = elapsed * self.cfg.time_scale
        return float(t)

    def _advance(self, t: float) -> None:
        """Run the DES clock up to ``t`` (clamped into [now, horizon]).

        Fires every due server-side event — deadline timeouts, outage
        window boundaries — in (time, seq) order before the caller's
        mutation, the same interleaving an in-process run produces.
        """
        t = min(t, self.horizon_s)
        if t < self.sim.now:
            self.clock_clamps += 1
            return
        self.sim.run(until=t)

    # -- writer (the only place GridServer state changes) --------------------

    async def _writer_loop(self) -> None:
        assert self._queue is not None
        while True:
            op, body, fut = await self._queue.get()
            try:
                if self.cfg.writer_delay_s > 0.0:
                    await asyncio.sleep(self.cfg.writer_delay_s)
                result = self._apply(op, body)
            except KeyError as exc:
                result = (400, error_payload("bad-request", f"missing field {exc}"), {})
            except (TypeError, ValueError) as exc:
                result = (400, error_payload("bad-request", str(exc)), {})
            except Exception as exc:  # defensive: a bug must not kill the loop
                result = (500, error_payload("internal", f"{type(exc).__name__}: {exc}"), {})
            finally:
                self._queue.task_done()
            if not fut.done():
                fut.set_result(result)

    def _apply(self, op: str, body: dict[str, Any]):
        if op == "request_work":
            return self._apply_request_work(body)
        if op == "report_result":
            return self._apply_report_result(body)
        return self._apply_finalize(body)

    def _outage(self, exc: ServerUnavailable):
        self.refused["outage"] += 1
        retry_after = max(0.0, exc.until - self.sim.now)
        return (
            503,
            refusal_payload("outage", retry_after, until_s=exc.until),
            {"Retry-After": f"{retry_after:.0f}"},
        )

    def _apply_request_work(self, body: dict[str, Any]):
        host = int(body["host"])
        self._advance(self._resolve_t(body))
        try:
            instance = self.server.request_work(host)
        except ServerUnavailable as exc:
            return self._outage(exc)
        if instance is None:
            return 200, {"assignment": None, "all_done": self.server.all_done}, {}
        token = self._next_token
        self._next_token += 1
        self._instances[token] = instance
        wu = instance.wu
        assignment = {
            "token": token,
            "campaign": self.campaign_name,
            "wu": wu.wu_id,
            "copy": instance.copy,
            "receptor": wu.receptor,
            "ligand": wu.ligand,
            "nsep": wu.nsep,
            "cost_reference_s": wu.cost_reference_s,
            "deadline_s": self.server.config.deadline_s,
        }
        return 200, {"assignment": assignment, "all_done": False}, {}

    def _apply_report_result(self, body: dict[str, Any]):
        token = int(body["token"])
        instance = self._instances.get(token)
        if instance is None:
            return 410, error_payload("unknown-token", f"token {token}"), {}
        self._advance(self._resolve_t(body))
        quality_name = body.get("quality")
        quality = ResultQuality(quality_name) if quality_name is not None else None
        try:
            self.server.on_result(
                instance,
                bool(body["valid"]),
                float(body["accounted_cpu_s"]),
                quality=quality,
            )
        except ServerUnavailable as exc:
            # Token survives: the agent backs off and re-reports the same
            # instance, exactly like the in-process retry path.
            return self._outage(exc)
        del self._instances[token]
        return 200, {"accepted": True, "all_done": self.server.all_done}, {}

    def _apply_finalize(self, body: dict[str, Any]):
        self._advance(float(body["t"]))
        return 200, {"summary": self._summary()}, {}

    # -- read-only payloads --------------------------------------------------

    def _summary(self) -> dict[str, Any]:
        server = self.server
        return {
            "now_s": self.sim.now,
            "all_done": server.all_done,
            "completion_time": server.completion_time,
            "n_workunits": server.n_workunits,
            "stats": stats_as_dict(server.stats),
            "batch_completion": {
                str(batch): t for batch, t in sorted(server.batch_completion.items())
            },
        }

    def _status_payload(self) -> dict[str, Any]:
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        latency = {
            op: sketch.as_dict()
            for op, sketch in self._latency.items()
            if sketch.count
        }
        payload = self._summary()
        payload.update(
            n_validated=self.server.stats.effective,
            draining=self.draining,
            queue_depth=queue_depth,
            max_queue_depth=self.max_queue_depth,
            requests_total=self.requests_total,
            refused=dict(self.refused),
            clock_clamps=self.clock_clamps,
            outstanding_tokens=len(self._instances),
            rpc_wall_s=latency,
        )
        return payload

    def _hosts_payload(self) -> dict[str, Any]:
        """The fleet snapshot behind ``GET /v1/hosts`` (ledger as JSON)."""
        fleet = self.ledger.finalize(self.sim.now)
        payload = fleet.as_dict()
        payload["campaign"] = self.campaign_name
        payload["now_s"] = self.sim.now
        return payload

    def _metrics_text(self) -> str:
        """``GET /v1/metrics``: the registry in Prometheus text format."""
        return render_prometheus(self.metrics)

    def _discover_payload(self) -> dict[str, Any]:
        return {
            "service": "repro-scheduler",
            "wire_protocol": WIRE_PROTOCOL_VERSION,
            "endpoints": [
                {"method": m, "path": p, "summary": s} for m, p, s in ENDPOINTS
            ],
            "campaign": self.identity,
        }

    def _heartbeat_payload(self, body: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "host": int(body.get("host", -1)),
            "now_s": self.sim.now,
            "all_done": self.server.all_done,
            "n_validated": self.server.stats.effective,
            "n_workunits": self.server.n_workunits,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "draining": self.draining,
        }

    # -- HTTP ---------------------------------------------------------------

    async def _dispatch(self, op: str, body: dict[str, Any]):
        """Route one parsed request; returns (status, payload, headers)."""
        if op in _WRITER_OPS:
            if self.draining:
                self._refuse_wire(op, "draining")
                return (
                    503,
                    refusal_payload("draining", self.cfg.drain_retry_s),
                    {"Retry-After": f"{self.cfg.drain_retry_s:.0f}"},
                )
            assert self._queue is not None
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            try:
                self._queue.put_nowait((op, body, fut))
            except asyncio.QueueFull:
                self._refuse_wire(op, "overload")
                return (
                    503,
                    refusal_payload("overload", self.cfg.overload_retry_s),
                    {"Retry-After": f"{self.cfg.overload_retry_s:.0f}"},
                )
            self.max_queue_depth = max(self.max_queue_depth, self._queue.qsize())
            return await fut
        if op == "discover":
            return 200, self._discover_payload(), {}
        if op == "status":
            return 200, self._status_payload(), {}
        if op == "hosts":
            return 200, self._hosts_payload(), {}
        if op == "metrics":
            return 200, self._metrics_text(), {}
        return 200, self._heartbeat_payload(body), {}

    def _refuse_wire(self, op: str, reason: str) -> None:
        self.refused[reason] += 1
        if self.tracer is not None:
            self.tracer.emit(
                "service.refuse", t_sim=self.sim.now, op=op, reason=reason,
            )

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, raw_body = request
                t0 = time.perf_counter()
                op = ROUTES.get((method, path))
                if op is None:
                    status, payload, extra = (
                        404, error_payload("unknown-endpoint", f"{method} {path}"), {}
                    )
                else:
                    self.requests_total += 1
                    try:
                        body = json.loads(raw_body) if raw_body else {}
                        if not isinstance(body, dict):
                            raise ValueError("request body must be a JSON object")
                    except ValueError as exc:
                        body = None
                        status, payload, extra = (
                            400, error_payload("bad-request", str(exc)), {}
                        )
                    if body is not None:
                        try:
                            status, payload, extra = await self._dispatch(op, body)
                        except KeyError as exc:
                            status, payload, extra = (
                                400,
                                error_payload("bad-request", f"missing field {exc}"),
                                {},
                            )
                wall = time.perf_counter() - t0
                if op is not None:
                    self._latency[op].observe(wall)
                    if self.tracer is not None:
                        self.tracer.emit(
                            "service.request", t_sim=self.sim.now,
                            op=op, status=status, wall_ms=wall * 1e3,
                        )
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            hline = await reader.readline()
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length = int(headers.get("content-length", "0"))
        if length > self.cfg.max_body_bytes:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict[str, Any] | str",
        extra_headers: dict[str, str],
        keep_alive: bool,
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   410: "Gone", 500: "Internal Server Error",
                   503: "Service Unavailable"}
        if isinstance(payload, str):
            # Text exposition (GET /v1/metrics); everything else is JSON.
            body = payload.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, separators=(",", ":")).encode()
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head += [f"{k}: {v}" for k, v in extra_headers.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()


class ServiceHandle:
    """A running service on a background thread (synchronous control)."""

    def __init__(
        self,
        service: SchedulerService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self.loop = loop
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        assert self.service.address is not None
        return self.service.address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, close the socket, join the thread."""
        fut = asyncio.run_coroutine_threadsafe(self.service.shutdown(), self.loop)
        fut.result(timeout=timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=timeout)


def serve_in_thread(
    sim_model: "VolunteerGridSimulation",
    config: ServiceConfig | None = None,
    tracer: Tracer | None = None,
    campaign: str = "hcmd",
) -> ServiceHandle:
    """Start a :class:`SchedulerService` on a daemon thread.

    The campaign materialization happens on the calling thread (so errors
    surface immediately); the returned handle exposes the bound address
    and a blocking :meth:`~ServiceHandle.stop`.
    """
    service = SchedulerService(
        sim_model, config=config, tracer=tracer, campaign=campaign
    )
    started = threading.Event()
    failure: list[BaseException] = []
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(service.start())
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-scheduler", daemon=True)
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return ServiceHandle(service, loop, thread)
