"""Open-loop HTTP load generator for the scheduler service.

Simulated volunteer hosts arrive on a fixed schedule, independent of how
fast the service answers, one request every ``1/rate`` seconds over a
few pipelined keep-alive connections (a request is written when due,
without waiting for earlier replies on its connection).  A host's visit
is a heartbeat, then a report-result for the copy it took on its
previous visit, then a request-work for the next: a BOINC scheduler
contact reports finished work and asks for more.  Who visits, how often
a copy is reported back, and how far campaign time moves per visit come
from a :class:`Traffic` profile: the served campaign's own fleet, passed
over in seeded random order, so every host comes back many times.

Every request is timed from its *due* time, so a stall counts against
every request queued behind it, and the generator's own lateness (sent
minus due) is reported separately.  A report-result can only be sent
once the earlier request-work reply carried its token; if that reply is
still out at ``due``, the report goes out late and its latency — still
measured from its due time — shows it.

One process, one asyncio loop: the generator never competes with its
own worker processes for the machine.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import deque
from dataclasses import dataclass, field

OPS = ("heartbeat", "report_result", "request_work")
PATHS = {
    "heartbeat": "/v1/heartbeat",
    "request_work": "/v1/request-work",
    "report_result": "/v1/report-result",
}


@dataclass
class Request:
    due: float
    op: str
    #: the visit this request belongs to
    session: "Session"
    #: for a report-result: the earlier visit whose copy it reports
    reports: "Session | None" = None
    sent: float | None = None
    answered: float | None = None
    status: int | None = None
    #: sent late because the request-work reply it reports on had not
    #: arrived at ``due``
    blocked: bool = False


@dataclass
class Session:
    """One visit of one host."""

    host: int
    conn: int
    t_sim: float
    #: the reply to this visit's request-work: an assignment or None
    assignment: asyncio.Future | None = None


@dataclass(frozen=True)
class Traffic:
    """Who calls the service and how; wire.py derives it from the served
    campaign's own lifecycle trace."""

    #: the served campaign's fleet: visits come from host ids 0..n_hosts-1
    n_hosts: int
    #: share of handed-out copies whose host reports back (the rest are
    #: abandoned and left to the server's deadline)
    report_frac: float
    #: campaign seconds between two consecutive visits
    sim_step_s: float


class Visits:
    """The seeded stream of host visits, continued across rungs: passes
    over the whole fleet, each in a fresh random order."""

    def __init__(self, traffic: Traffic, seed: int) -> None:
        self.traffic = traffic
        self.rng = random.Random(seed)
        self.count = 0
        self._order: list[int] = []
        self._last: dict[int, Session] = {}

    def next(self, connections: int) -> tuple[Session, Session | None]:
        """The next visit, and the host's previous visit when this one
        reports the copy taken then (None on a host's first visit, or
        when that copy is abandoned)."""
        if not self._order:
            self._order = list(range(self.traffic.n_hosts))
            self.rng.shuffle(self._order)
        host = self._order.pop()
        # A host keeps its connection, so its report always follows the
        # request-work reply it reports on down the same pipe.
        session = Session(host=host, conn=host % connections,
                          t_sim=self.count * self.traffic.sim_step_s)
        self.count += 1
        reports = self.rng.random() < self.traffic.report_frac
        earlier = self._last.get(host) if reports else None
        self._last[host] = session
        return session, earlier


@dataclass
class Rung:
    """Outcome of one offered rate."""

    rate: float
    requests: list[Request] = field(default_factory=list)
    #: requests due by the rung's end but not yet answered at its end
    backlog: int = 0

    @property
    def attempted(self) -> list[Request]:
        return [r for r in self.requests if r.sent is not None]

    def latencies_ms(self) -> list[float]:
        return [
            (r.answered - r.due) * 1e3 for r in self.requests
            if r.answered is not None
        ]

    def lag_ms(self) -> list[float]:
        """How late the generator wrote each request it was free to send."""
        return [
            (r.sent - r.due) * 1e3 for r in self.requests
            if r.sent is not None and not r.blocked
        ]

    def errors(self) -> int:
        """Requests sent but unanswered, refused or failed."""
        return sum(
            1 for r in self.attempted if r.answered is None or r.status != 200
        )

    def over_limit(self, limit_ms: float) -> int:
        """Requests answered after the limit, plus every error (a refused
        or lost request misses any limit)."""
        late = sum(1 for ms in self.latencies_ms() if ms > limit_ms)
        return late + self.errors()


def sustained(rung: Rung, limit_ms: float, p99_ms: float) -> bool:
    """A rate is sustained when its p99 meets the limit, nothing failed,
    and the backlog at its end fits in what the limit allows in flight."""
    return (
        p99_ms <= limit_ms
        and rung.errors() == 0
        and rung.backlog <= rung.rate * limit_ms / 1e3
    )


def schedule(rate: float, duration_s: float, t0: float, visits: Visits,
             connections: int) -> list[Request]:
    """Requests of one rung, evenly spaced: whole visits until
    ``rate * duration_s`` requests are due (the last visit may add two)."""
    n = max(1, int(rate * duration_s))
    requests: list[Request] = []
    while len(requests) < n:
        session, earlier = visits.next(connections)
        for op in OPS:
            if op == "report_result" and earlier is None:
                continue
            due = t0 + len(requests) / rate
            requests.append(Request(due=due, op=op, session=session,
                                    reports=earlier if op == "report_result" else None))
    return requests


def _encode(req: Request, token: int | None = None, cost: float = 0.0) -> bytes:
    s = req.session
    if req.op == "heartbeat":
        body = {"host": s.host}
    elif req.op == "request_work":
        body = {"host": s.host, "t": s.t_sim}
    else:
        body = {"token": token, "valid": True, "accounted_cpu_s": cost, "t": s.t_sim}
    payload = json.dumps(body, separators=(",", ":")).encode()
    head = (
        f"POST {PATHS[req.op]} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode() + payload


class _Conn:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.inflight: deque[Request] = deque()


class OpenLoopClient:
    """Drives one service over ``connections`` pipelined connections."""

    def __init__(self, host: str, port: int, connections: int,
                 visits: Visits) -> None:
        self.host = host
        self.port = port
        self.n_conns = connections
        self.visits = visits
        self._conns: list[_Conn] = []
        self._readers: list[asyncio.Task] = []
        self._outstanding = 0
        self._idle: asyncio.Event | None = None

    async def __aenter__(self) -> "OpenLoopClient":
        self._idle = asyncio.Event()
        self._idle.set()
        for _ in range(self.n_conns):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            conn = _Conn(reader, writer)
            self._conns.append(conn)
            self._readers.append(asyncio.create_task(self._read_loop(conn)))
        return self

    async def __aexit__(self, *exc) -> None:
        for conn in self._conns:
            conn.writer.close()
        for task in self._readers:
            task.cancel()
        for task in self._readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for conn in self._conns:
            try:
                await conn.writer.wait_closed()
            except ConnectionError:
                pass

    def _send(self, req: Request, data: bytes) -> None:
        conn = self._conns[req.session.conn]
        req.sent = asyncio.get_running_loop().time()
        conn.inflight.append(req)
        self._outstanding += 1
        self._idle.clear()
        conn.writer.write(data)

    def _send_report(self, req: Request) -> None:
        assignment = req.reports.assignment.result()
        if assignment is None:
            return  # no work handed out: nothing to report
        self._send(req, _encode(req, assignment["token"], assignment["cost_reference_s"]))

    async def _read_loop(self, conn: _Conn) -> None:
        loop = asyncio.get_running_loop()
        reader = conn.reader
        while True:
            status_line = await reader.readline()
            if not status_line:
                return
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                if line[:15].lower() == b"content-length:":
                    length = int(line[15:])
            body = await reader.readexactly(length) if length else b""
            req = conn.inflight.popleft()
            req.answered = loop.time()
            req.status = int(status_line.split()[1])
            if req.op == "request_work":
                assignment = None
                if req.status == 200:
                    assignment = json.loads(body).get("assignment")
                req.session.assignment.set_result(assignment)
            self._outstanding -= 1
            if self._outstanding == 0:
                self._idle.set()

    async def run_rung(self, rate: float, duration_s: float,
                       drain_timeout_s: float = 30.0) -> Rung:
        """Offer ``rate`` requests/s for ``duration_s``, then wait until
        every request is answered (or the drain timeout passes)."""
        loop = asyncio.get_running_loop()
        t0 = loop.time() + 0.05
        reqs = schedule(rate, duration_s, t0, self.visits, self.n_conns)
        rung = Rung(rate=rate, requests=reqs)
        for req in reqs:
            if req.op == "request_work":
                req.session.assignment = loop.create_future()
        for req in reqs:
            delay = req.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if req.op == "report_result":
                fut = req.reports.assignment
                if not fut.done():
                    req.blocked = True
                    fut.add_done_callback(lambda _f, r=req: self._send_report(r))
                    continue
                self._send_report(req)
            else:
                self._send(req, _encode(req))
        # The last request is due now: count what is still unanswered.
        now = loop.time()
        rung.backlog = sum(
            1 for r in reqs
            if r.due <= now and r.answered is None
            and (r.op != "report_result" or r.sent is not None or r.blocked)
        )
        try:
            await asyncio.wait_for(self._wait_idle(reqs), timeout=drain_timeout_s)
        except asyncio.TimeoutError:
            pass
        return rung

    async def _wait_idle(self, reqs: list[Request]) -> None:
        # A blocked report is written from a reply callback, so wait for
        # every request-work reply first, then for the pipe to empty.
        await asyncio.gather(*(
            r.session.assignment for r in reqs if r.op == "request_work"
        ))
        await asyncio.sleep(0)
        await self._idle.wait()
