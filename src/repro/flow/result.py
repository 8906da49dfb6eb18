"""Workflow accounting: per-stage ServeResults rolled into one SLO.

A workflow run is judged twice over.  Each model stage keeps its own
:class:`~repro.serve.slo.ServeResult` (queue waits, batch sizes, a
per-stage SLO), and the :class:`WorkflowResult` rolls them up into a
workflow-level view: end-to-end latency percentiles over whole
cascades, a workflow SLO, and goodput in *workflows* per second.

Two invariants are enforced in the constructor, mirroring
:class:`~repro.serve.slo.ServeResult` and
:class:`~repro.cluster.result.ClusterResult`:

* **exactly-once at the workflow level** — every offered workflow
  request resolves into exactly one terminal state, crosschecked
  against the per-request status list;
* **exactly-once through every fan-out** — each region's spawned
  sub-requests are fully accounted: ``spawned = joined + abandoned``.

A completed request's ``stage_intervals`` tile its journey without
gaps — interval end times telescope exactly to the workflow
end-to-end latency — which is what makes the per-stage waterfall of a
cascade trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.errors import FlowError
from repro.serve.slo import ServeResult
from repro.serve.workload import (
    ABANDONED,
    COMPLETED,
    PENDING,
    REJECTED,
    SHED,
    TIMED_OUT,
)


@dataclass
class WorkflowRequest:
    """One workflow request's journey through the whole graph."""

    request_id: int
    arrival_time: float
    #: Absolute deadline on the sim clock shared by every stage this
    #: request touches, or None for no limit.
    deadline_at: Optional[float] = None
    status: str = PENDING
    completed_at: Optional[float] = None
    #: The final item payload delivered at the sink (completed only).
    output: Any = field(repr=False, default=None)
    #: ``(stage, t0, t1)`` triples tiling arrival → completion; a
    #: fan-out region appears as one ``"fanout+join"`` interval.
    stage_intervals: list[tuple[str, float, float]] = field(
        default_factory=list)
    #: Causal trace context riding across every stage boundary.
    trace: Optional[object] = field(repr=False, default=None)

    @property
    def e2e_latency(self) -> Optional[float]:
        """Arrival-to-completion latency, or None if not completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival_time


@dataclass
class StageResult:
    """One model stage's serving outcome inside a workflow run."""

    name: str
    result: ServeResult


@dataclass
class FanOutAccount:
    """Exactly-once ledger of one fan-out region."""

    step: str
    join: str
    spawned: int
    joined: int
    abandoned: int


@dataclass
class WorkflowResult:
    """Outcome of one workflow run (the workflow-level roll-up)."""

    workflow: str
    offered: int
    completed: int
    shed: int
    rejected: int
    timed_out: int
    abandoned: int
    wall_seconds: float
    prepare_seconds: float = 0.0
    slo_seconds: Optional[float] = None
    requests: list[WorkflowRequest] = field(default_factory=list)
    stages: list[StageResult] = field(default_factory=list)
    fan_out: list[FanOutAccount] = field(default_factory=list)
    #: Leading completed workflows excluded from latency statistics.
    warmup: int = 0

    def __post_init__(self) -> None:
        accounted = (self.completed + self.shed + self.rejected
                     + self.timed_out + self.abandoned)
        if accounted != self.offered:
            raise FlowError(
                f"workflow accounting broken: {self.completed} "
                f"completed + {self.shed} shed + {self.rejected} "
                f"rejected + {self.timed_out} timed out + "
                f"{self.abandoned} abandoned != {self.offered} "
                "offered")
        if self.requests:
            by_status = {
                COMPLETED: self.completed, SHED: self.shed,
                REJECTED: self.rejected, TIMED_OUT: self.timed_out,
                ABANDONED: self.abandoned,
            }
            for status, expected in by_status.items():
                actual = sum(1 for r in self.requests
                             if r.status == status)
                if actual != expected:
                    raise FlowError(
                        f"{actual} workflow requests in state "
                        f"{status!r} but the tally says {expected}")
        for acct in self.fan_out:
            if acct.spawned != acct.joined + acct.abandoned:
                raise FlowError(
                    f"fan-out accounting broken at {acct.step!r}: "
                    f"{acct.spawned} spawned != {acct.joined} joined "
                    f"+ {acct.abandoned} abandoned")
        if self.warmup < 0:
            raise FlowError("warmup must be >= 0")

    # -- request views --------------------------------------------------
    def completed_requests(self) -> list[WorkflowRequest]:
        """Completed workflow requests in arrival order."""
        return [r for r in self.requests if r.status == COMPLETED]

    def _steady_state(self) -> list[WorkflowRequest]:
        """Completed requests past the warmup transient."""
        return self.completed_requests()[self.warmup:]

    def e2e_latencies(self) -> list[float]:
        """Whole-cascade latency per steady-state request."""
        return [r.e2e_latency for r in self._steady_state()
                if r.e2e_latency is not None]

    def stage(self, name: str) -> StageResult:
        """The stage roll-up for one model step."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise FlowError(
            f"no stage {name!r} in this workflow result; stages: "
            f"{[s.name for s in self.stages]}")

    # -- percentiles ----------------------------------------------------
    def latency_percentile(self, q: float) -> float:
        """Workflow end-to-end latency percentile (q in [0, 100])."""
        latencies = self.e2e_latencies()
        if not latencies:
            raise ValueError(
                "no completed workflow requests past warmup: latency "
                "percentiles are undefined for this run")
        return float(np.percentile(latencies, q))

    @property
    def p50(self) -> float:
        """Median workflow end-to-end latency."""
        return self.latency_percentile(50)

    @property
    def p95(self) -> float:
        """95th-percentile workflow end-to-end latency."""
        return self.latency_percentile(95)

    @property
    def p99(self) -> float:
        """99th-percentile workflow end-to-end latency."""
        return self.latency_percentile(99)

    @property
    def mean_latency(self) -> float:
        """Mean workflow end-to-end latency."""
        latencies = self.e2e_latencies()
        if not latencies:
            raise ValueError(
                "no completed workflow requests past warmup: mean "
                "latency is undefined for this run")
        return float(np.mean(latencies))

    # -- rates ----------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Completed workflows per second of wall time."""
        if self.wall_seconds <= 0:
            raise FlowError("run has no elapsed time")
        return self.completed / self.wall_seconds

    @property
    def slo_attainment(self) -> float:
        """Fraction of steady-state completed workflows within the
        workflow SLO (1.0 when no SLO or nothing completed)."""
        if self.slo_seconds is None:
            return 1.0
        latencies = self.e2e_latencies()
        if not latencies:
            return 1.0
        good = sum(1 for lat in latencies if lat <= self.slo_seconds)
        return good / len(latencies)

    @property
    def goodput(self) -> float:
        """Steady-state within-SLO completed workflows per second."""
        if self.wall_seconds <= 0:
            raise FlowError("run has no elapsed time")
        if self.slo_seconds is None:
            return self.throughput
        latencies = self.e2e_latencies()
        good = sum(1 for lat in latencies if lat <= self.slo_seconds)
        return good / self.wall_seconds

    @property
    def loss_rate(self) -> float:
        """Fraction of offered workflows that never completed."""
        if self.offered == 0:
            return 0.0
        return 1.0 - self.completed / self.offered

    @property
    def slo_met(self) -> bool:
        """True when p99 workflow latency is within the SLO and no
        workflow request was lost."""
        if self.slo_seconds is None:
            raise FlowError("run has no workflow SLO configured")
        if self.completed < self.offered:
            return False
        try:
            return self.p99 <= self.slo_seconds
        except ValueError:
            return False

    @property
    def sub_requests_spawned(self) -> int:
        """Total sub-requests spawned across every fan-out region."""
        return sum(a.spawned for a in self.fan_out)

    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        head = (f"{self.workflow}: {self.completed}/{self.offered} "
                f"workflows in {self.wall_seconds:.2f} s")
        losses = []
        if self.shed:
            losses.append(f"{self.shed} shed")
        if self.rejected:
            losses.append(f"{self.rejected} rejected")
        if self.timed_out:
            losses.append(f"{self.timed_out} timed out")
        if self.abandoned:
            losses.append(f"{self.abandoned} abandoned")
        if losses:
            head += " (" + ", ".join(losses) + ")"
        try:
            tail = (f", p50 {self.p50 * 1000:.1f} ms / p99 "
                    f"{self.p99 * 1000:.1f} ms")
        except ValueError:
            return head + ", no completed workflows"
        if self.slo_seconds is not None:
            tail += (f", goodput {self.goodput:.1f} wf/s vs SLO "
                     f"{self.slo_seconds * 1000:.0f} ms "
                     f"({'met' if self.slo_met else 'MISSED'})")
        return head + tail
