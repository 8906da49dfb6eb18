"""repro.serve — online inference serving on the simulated stack.

The paper evaluates the NCS rig as a *batch* co-processor: a fixed
image set, fed as fast as the sticks drain it.  This package turns
the same simulated hardware into an *online service* — the regime the
ROADMAP's "heavy traffic from millions of users" north star actually
lives in — where requests arrive on their own clock and tail latency
under load, not aggregate throughput, decides viability:

* :mod:`workload` — seeded open-loop arrival processes (Poisson,
  bursty MMPP, diurnal ramp, trace replay) emitting :class:`Request`
  objects with arrival timestamps on the sim clock;
* :mod:`queue` — bounded admission queue with block / shed-oldest /
  reject-newest overload policies and per-request deadlines;
* :mod:`batcher` — dynamic batching (max batch size + max wait,
  Triton-style) sized to each backend's preferred batch;
* :mod:`router` — multi-backend dispatch (round-robin,
  least-outstanding, latency-EWMA) over the existing ``IntelVPU`` /
  ``IntelCPU`` / ``NvGPU`` targets, with re-routing on device death
  (reusing the fault-tolerant multi-VPU scheduler underneath);
* :mod:`slo` / :mod:`report` — per-request latency recording,
  p50/p95/p99 against a configurable SLO, goodput vs
  shed/timed-out/abandoned accounting;
* :mod:`stage` — the :class:`ServingStage`, the one wiring of queue →
  batcher → router over backends, with the terminal-state tallies
  every serving owner (server, cluster host, workflow stage) reports;
* :mod:`server` — the :class:`InferenceServer` harness running one
  stage on one simulated timeline;
* :mod:`sweep` — bisection for the maximum sustainable arrival rate
  under a p99 SLO (the serving analogue of the paper's scaling
  study).

Everything is deterministic: seeded workloads on the DES kernel's
reproducible clock mean two runs with the same configuration produce
byte-identical SLO reports.
"""

from repro.serve.workload import (
    ABANDONED,
    COMPLETED,
    PENDING,
    REJECTED,
    SHED,
    TIMED_OUT,
    BurstyWorkload,
    DiurnalWorkload,
    PoissonWorkload,
    Request,
    TraceWorkload,
    Workload,
)
from repro.serve.queue import (
    BLOCK,
    REJECT_NEWEST,
    SHED_OLDEST,
    AdmissionQueue,
)
from repro.serve.batcher import DynamicBatcher
from repro.serve.router import (
    LATENCY_EWMA,
    LEAST_OUTSTANDING,
    ROUND_ROBIN,
    Backend,
    Router,
)
from repro.serve.slo import ServeResult
from repro.serve.report import render_slo_report
from repro.serve.stage import ServingStage
from repro.serve.server import InferenceServer
from repro.serve.sweep import (
    SweepPoint,
    SweepResult,
    find_max_rate,
    render_sweep_table,
)

__all__ = [
    "Workload",
    "PoissonWorkload",
    "BurstyWorkload",
    "DiurnalWorkload",
    "TraceWorkload",
    "Request",
    "PENDING",
    "COMPLETED",
    "SHED",
    "REJECTED",
    "TIMED_OUT",
    "ABANDONED",
    "AdmissionQueue",
    "BLOCK",
    "SHED_OLDEST",
    "REJECT_NEWEST",
    "DynamicBatcher",
    "Router",
    "Backend",
    "ROUND_ROBIN",
    "LEAST_OUTSTANDING",
    "LATENCY_EWMA",
    "ServeResult",
    "render_slo_report",
    "ServingStage",
    "InferenceServer",
    "SweepPoint",
    "SweepResult",
    "find_max_rate",
    "render_sweep_table",
]
