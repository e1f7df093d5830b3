"""Core-speed probes: the benchmark's timings in seconds of a reference core.

The benchmark runs on shared machines.  There the speed one core gives a
process swings by up to 2x over seconds to minutes, and each core swings on
its own: on the 2-core container a fixed chunk of work, timed back to back
for four minutes in one process, took from 0.10 s to 0.24 s, and two such
loops on the two cores did not move together (correlation 0.03).  CPU
seconds do not remove that; a slow core takes more CPU seconds for the same
work.

A probe is a process pinned to the core the measured process is pinned
to.  Every :data:`PERIOD_S` it wakes and times one fixed chunk of
pure-Python work (a heap-ordered event loop over a heap far larger than the
CPU caches, the shape of the simulator's kernel) in thread CPU time.  The median chunk time over a measured interval
says how fast that core ran during it, and a timing multiplied by
``REFERENCE_NS / median`` is in seconds of the reference core, the core on
which one chunk takes exactly :data:`REFERENCE_NS`.  The program's own
speed still shows in full: the probe runs none of its code.

    python3 perfbench/probe.py CPU OUT   # one probe; the benchmark starts them

Each line of ``OUT`` is ``<time.monotonic()> <chunk thread-CPU ns>``.  A
probe exits when the process that started it is gone.
"""

from __future__ import annotations

import heapq
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: How often a probe wakes to time one chunk.
PERIOD_S = 0.05
#: Events per chunk; 1-2 ms of one core of the 2-core container.
CHUNK_EVENTS = 150
#: Entries of the probe's heap (about 60 MB with their events and dicts).
HEAP_ENTRIES = 200_000
#: Thread-CPU nanoseconds of one chunk on the reference core (about the
#: fastest the 2-core container ran it).
REFERENCE_NS = 1_000_000
#: Samples a window needs; a shorter window takes the nearest ones.
MIN_SAMPLES = 5
#: How long a probe may take to give its first samples.
START_TIMEOUT_S = 20.0


class _Event:
    __slots__ = ("t", "host", "kind")

    def __init__(self, t: float, host: int, kind: int):
        self.t, self.host, self.kind = t, host, kind


class ChunkLoop:
    """The probe's fixed work: a seeded event loop over a
    :data:`HEAP_ENTRIES`-entry heap of event objects."""

    def __init__(self):
        self.rng = random.Random(7)
        self.heap: list = []
        self.seq = 0
        self.counts: dict[int, int] = {}
        self.busy: dict[int, float] = {}
        for host in range(HEAP_ENTRIES):
            self._push(self.rng.expovariate(1.0), _Event(0.0, host, 0))

    def _push(self, t: float, ev: _Event) -> None:
        heapq.heappush(self.heap, (t, self.seq, ev))
        self.seq += 1

    def chunk(self, n: int = CHUNK_EVENTS) -> None:
        for _ in range(n):
            t, _, ev = heapq.heappop(self.heap)
            self.counts[ev.kind] = self.counts.get(ev.kind, 0) + 1
            self.busy[ev.host] = self.busy.get(ev.host, 0.0) + t * 1e-3
            kind = (ev.kind + 1) % 3
            self._push(t + self.rng.expovariate(1.0 + kind), _Event(t, ev.host, kind))


def window(samples: list[tuple[float, int]], start: float, end: float) -> list[int]:
    """Chunk times of the samples taken in ``[start, end]``; when there are
    fewer than :data:`MIN_SAMPLES`, the ones nearest the window's middle."""
    inside = [ns for t, ns in samples if start <= t <= end]
    if len(inside) >= MIN_SAMPLES or len(samples) <= len(inside):
        return inside
    middle = (start + end) / 2.0
    nearest = sorted(samples, key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
    return [ns for _, ns in nearest]


def speed_factor(by_cpu: dict[int, list[tuple[float, int]]],
                 start: float, end: float) -> float:
    """``REFERENCE_NS`` over the chunk time of the cores in ``[start, end]``
    (per core the median, over cores the mean): a timing times this factor
    is in seconds of the reference core."""
    medians = []
    for cpu, samples in sorted(by_cpu.items()):
        chosen = window(samples, start, end)
        if not chosen:
            raise RuntimeError(f"the probe on CPU {cpu} gave no samples")
        medians.append(statistics.median(chosen))
    return REFERENCE_NS / (sum(medians) / len(medians))


def measure_cpus(n: int) -> list[int]:
    """The ``n`` highest-numbered CPUs this process may run on (fewer when
    it may run on fewer)."""
    return sorted(os.sched_getaffinity(0))[-n:]


class SpeedProbes:
    """One probe per CPU in ``cpus``, started on entry, stopped and reaped
    on exit.  While inside, this process (and every process it starts) is
    pinned to ``pin_to``, by default ``cpus``."""

    def __init__(self, cpus: list[int], work_dir: str, pin_to: set[int] | None = None):
        self.cpus = list(cpus)
        self.pin_to = set(self.cpus) if pin_to is None else set(pin_to)
        self.paths = {cpu: os.path.join(work_dir, f"probe-{cpu}.log") for cpu in self.cpus}
        self.procs: list[subprocess.Popen] = []
        self._affinity = None

    def __enter__(self) -> "SpeedProbes":
        try:
            for cpu, path in self.paths.items():
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "probe.py"), str(cpu), path]))
            deadline = time.monotonic() + START_TIMEOUT_S
            while any(len(s) < MIN_SAMPLES for s in self.samples().values()):
                if time.monotonic() > deadline or any(
                        p.poll() is not None for p in self.procs):
                    raise RuntimeError("a core-speed probe did not start")
                time.sleep(PERIOD_S)
        except BaseException:
            self.stop()
            raise
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.pin_to)
        return self

    def __exit__(self, *exc) -> None:
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
        self.stop()

    def stop(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []

    def samples(self) -> dict[int, list[tuple[float, int]]]:
        out = {}
        for cpu, path in self.paths.items():
            rows = []
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        parts = line.split()
                        if len(parts) == 2 and line.endswith("\n"):
                            rows.append((float(parts[0]), int(parts[1])))
            out[cpu] = rows
        return out


def main(argv: list[str]) -> int:
    cpu, out_path = int(argv[0]), argv[1]
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    loop = ChunkLoop()
    loop.chunk()  # warm the heap and the dicts before the first sample
    with open(out_path, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            t0 = time.thread_time_ns()
            loop.chunk()
            ns = time.thread_time_ns() - t0
            out.write(f"{time.monotonic():.4f} {ns}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
