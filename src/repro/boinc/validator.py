"""Result validation and redundancy accounting (Section 5.1).

"World Community Grid's system sends more than one copy of each workunit to
the volunteers.  This is called redundant computing.  [...]  The redundancy
factor for all projects is 1.37 [...].  It was higher at the beginning,
because the results were compared to each other to be validated, but later
we provided a method to validate the results by checking the values
returned in the result file."

Two validation regimes, switched at a configurable campaign time:

* **quorum** (early): a workunit needs two agreeing (valid) results;
* **bounds** (late): a single result passing the value-range check
  validates the workunit.

Accounting definitions (consistent with the paper's numbers — the 3.94M
"effective" results match one canonical result per deployed workunit):

* *disclosed* — every result the server receives, including invalid
  copies, extra quorum copies and results arriving after validation;
* *effective* — one per validated workunit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["ValidationPolicy", "AdaptiveReplication", "ValidationStats"]


@dataclass(frozen=True)
class ValidationPolicy:
    """When to switch from quorum comparison to value-range validation."""

    #: campaign time (seconds) at which bounds validation replaces quorum
    switch_time: float
    quorum: int = 2

    def quorum_at(self, t: float) -> int:
        """Valid results required to validate a workunit at time ``t``."""
        return self.quorum if t < self.switch_time else 1

    def replication_at(self, t: float) -> int:
        """Copies initially issued for a workunit entering service at ``t``."""
        return self.quorum_at(t)


class AdaptiveReplication:
    """BOINC-style adaptive replication: trust hosts with a clean record.

    The fixed quorum of the early campaign pays a ~2x redundancy tax on
    every workunit.  BOINC's adaptive replication (the middleware phase II
    moves to, Section 8) drops the second copy for hosts that have
    returned ``trust_after`` consecutive valid results, spot-checking them
    with probability ``spot_check_rate``; any invalid result resets the
    host's record.

    This object tracks per-host streaks; the server consults
    :meth:`needs_partner` when a trusted-host result would otherwise wait
    for a quorum partner.
    """

    def __init__(self, trust_after: int = 10, spot_check_rate: float = 0.1) -> None:
        if trust_after < 1:
            raise ValueError("trust_after must be at least 1")
        if not 0.0 <= spot_check_rate <= 1.0:
            raise ValueError("spot_check_rate must be in [0, 1]")
        self.trust_after = trust_after
        self.spot_check_rate = spot_check_rate
        self._streaks: dict[int, int] = {}
        self._spot_counter = 0

    def is_trusted(self, host_id: int) -> bool:
        return self._streaks.get(host_id, 0) >= self.trust_after

    def streak(self, host_id: int) -> int:
        """The host's current run of consecutive valid results."""
        return self._streaks.get(host_id, 0)

    def streaks(self) -> dict[int, int]:
        """A snapshot of every tracked host's streak (for the ledger)."""
        return dict(self._streaks)

    def record_valid(self, host_id: int) -> None:
        self._streaks[host_id] = self._streaks.get(host_id, 0) + 1

    def record_invalid(self, host_id: int) -> None:
        """An invalid result wipes the host's trust."""
        self._streaks[host_id] = 0

    def needs_partner(self, host_id: int) -> bool:
        """Whether a result from ``host_id`` still needs quorum backup.

        Untrusted hosts always do; trusted hosts are deterministically
        spot-checked every ``1/spot_check_rate``-th trusted result (a
        counter, not a coin flip, so campaigns stay replayable).
        """
        if not self.is_trusted(host_id):
            return True
        if self.spot_check_rate <= 0.0:
            return False
        self._spot_counter += 1
        period = max(1, round(1.0 / self.spot_check_rate))
        return self._spot_counter % period == 0


@dataclass
class ValidationStats:
    """Running counters the campaign metrics are computed from."""

    disclosed: int = 0  #: all results received
    effective: int = 0  #: workunits validated (one canonical result each)
    invalid: int = 0  #: results failing the validity draw / range check
    late: int = 0  #: results for already-validated workunits
    quorum_extra: int = 0  #: valid results consumed by quorum comparison
    consumed_cpu_s: float = 0.0  #: accounted device time, all results
    useful_reference_s: float = 0.0  #: reference cost of validated workunits
    # -- fault-injection accounting (all zero on a fault-free campaign) ----
    failed: int = 0  #: workunits terminally failed (reissue budget exhausted)
    bad_validated: int = 0  #: workunits validated on sabotaged results
    sabotage_caught: int = 0  #: sabotaged results exposed by quorum compare
    refused_rpcs: int = 0  #: RPCs refused during server outage windows
    _by_regime: dict[str, int] = field(
        default_factory=lambda: {"quorum": 0, "bounds": 0, "adaptive": 0}
    )

    def record_result(self, cpu_s: float) -> None:
        self.disclosed += 1
        self.consumed_cpu_s += cpu_s

    def record_validation(self, reference_cost_s: float, regime: str) -> None:
        self.effective += 1
        self.useful_reference_s += reference_cost_s
        self._by_regime[regime] += 1

    @property
    def redundancy_factor(self) -> float:
        """Disclosed / effective (paper: 1.37)."""
        if self.effective == 0:
            raise ValueError("no workunit validated yet")
        return self.disclosed / self.effective

    @property
    def useful_fraction(self) -> float:
        """Effective / disclosed (paper: 73%)."""
        if self.disclosed == 0:
            raise ValueError("no result disclosed yet")
        return self.effective / self.disclosed

    @property
    def validated_by_regime(self) -> dict[str, int]:
        return dict(self._by_regime)

    def merge(self, other: "ValidationStats") -> None:
        """Fold another shard's (or campaign's) counters in: all fields,
        the per-regime validation counts included, are additive."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, dict):
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, f.name, mine + theirs)
