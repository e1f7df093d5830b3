"""Opt-in profiling hooks: per-subsystem wall-time aggregation.

A :class:`Profiler` accumulates (calls, total seconds) per named section.
Sections are either timed inline with :meth:`Profiler.timed` or recorded
after the fact with :meth:`Profiler.record`.  The DES kernel can time every
fired callback (pass ``profiler=`` to :class:`repro.grid.des.Simulator`),
which attributes simulated-campaign wall time to agent/server callbacks by
qualified name; :class:`repro.boinc.simulator.VolunteerGridSimulation`
times its own setup phases the same way.

The disabled cost follows the tracer convention: hot paths hold a profiler
reference that is ``None`` when profiling is off, so the check is one
identity comparison.  See docs/observability.md.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["Profiler"]


class Profiler:
    """Accumulate wall-time per named section."""

    def __init__(self) -> None:
        #: section name -> [n_calls, total_seconds]
        self._sections: dict[str, list[float]] = {}

    def record(self, name: str, seconds: float) -> None:
        """Attribute ``seconds`` of wall time to section ``name``."""
        entry = self._sections.get(name)
        if entry is None:
            self._sections[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's sections in (calls and seconds add)."""
        for name, (calls, total) in other._sections.items():
            entry = self._sections.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += total

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into section ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start)

    @property
    def total_seconds(self) -> float:
        return sum(total for _, total in self._sections.values())

    def stats(self) -> dict[str, tuple[int, float]]:
        """Section name -> (calls, total seconds)."""
        return {
            name: (int(calls), total)
            for name, (calls, total) in self._sections.items()
        }

    def summary_rows(self) -> list[tuple[str, int, float, float]]:
        """(section, calls, total_s, mean_s) rows, heaviest first."""
        rows = [
            (name, int(calls), total, total / calls if calls else 0.0)
            for name, (calls, total) in self._sections.items()
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows

    def to_dict(self) -> dict:
        """Machine-readable dump (the ``profile.json`` artifact shape).

        Sections are sorted heaviest-first to match :meth:`render`, so the
        JSON artifact and the terminal table agree line for line.
        """
        return {
            "total_seconds": self.total_seconds,
            "sections": [
                {
                    "section": name,
                    "calls": calls,
                    "total_s": total,
                    "mean_ms": mean * 1e3,
                }
                for name, calls, total, mean in self.summary_rows()
            ],
        }

    def render(self) -> str:
        """A plain-text summary table (heaviest sections first)."""
        from ..analysis.report import render_table

        return render_table(
            ["section", "calls", "total (s)", "mean (ms)"],
            [
                [name, calls, f"{total:.3f}", f"{mean * 1e3:.3f}"]
                for name, calls, total, mean in self.summary_rows()
            ],
        )
