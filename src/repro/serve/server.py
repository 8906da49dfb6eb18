"""The online inference server: workload → one serving stage.

:class:`InferenceServer` runs one
:class:`~repro.serve.stage.ServingStage` on one simulated timeline,
NCSw-style: register named targets, then ``run`` an open-loop
workload through them.  Device preparation (stick boot,
graph allocation, host warm-up) happens before the measured window,
exactly as the batch framework does, so serving latency numbers are
steady-state numbers.

The run terminates when every offered request has resolved into one
of the five terminal states — completed, shed, rejected, timed out,
or abandoned — and the returned
:class:`~repro.serve.slo.ServeResult` enforces that accounting in
its constructor.  Everything is deterministic: a seeded workload plus
the DES kernel's determinism contract means two runs with the same
configuration produce byte-identical SLO reports.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import FrameworkError
from repro.ncsw.targets import TargetDevice
from repro.serve.queue import POLICIES as ADMISSION_POLICIES
from repro.serve.queue import REJECT_NEWEST
from repro.serve.router import ROUND_ROBIN
from repro.serve.slo import ServeResult
from repro.serve.stage import DEFAULT_MAX_WAIT_S, ServingStage, open_loop
from repro.serve.workload import COMPLETED, Request, Workload
from repro.sim.core import Environment, Event


class InferenceServer:
    """Open-loop serving harness over prepared NCSw targets."""

    def __init__(self, *,
                 queue_depth: Optional[int] = 64,
                 admission: str = REJECT_NEWEST,
                 max_batch_size: Optional[int] = None,
                 max_wait_s: float = DEFAULT_MAX_WAIT_S,
                 policy: str = ROUND_ROBIN,
                 slo_seconds: Optional[float] = 0.250,
                 deadline_seconds: Optional[float] = None,
                 warmup: int = 0,
                 obs=None) -> None:
        if admission not in ADMISSION_POLICIES:
            raise FrameworkError(
                f"unknown admission policy {admission!r}; one of "
                f"{ADMISSION_POLICIES}")
        if slo_seconds is not None and slo_seconds <= 0:
            raise FrameworkError(
                f"slo_seconds must be positive, got {slo_seconds}")
        if warmup < 0:
            raise FrameworkError("warmup must be >= 0")
        self.queue_depth = queue_depth
        self.admission = admission
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.policy = policy
        self.slo_seconds = slo_seconds
        self.deadline_seconds = deadline_seconds
        self.warmup = warmup
        self.obs = obs
        self._targets: dict[str, TargetDevice] = {}

    def add_target(self, name: str, target: TargetDevice) -> None:
        """Register a serving backend under a unique name."""
        if name in self._targets:
            raise FrameworkError(f"duplicate target {name!r}")
        self._targets[name] = target

    # -- the run ---------------------------------------------------------
    def run(self, workload: Workload, num_requests: int) -> ServeResult:
        """Serve *num_requests* drawn from *workload*; blocks until
        every request has resolved and returns the accounting."""
        if not self._targets:
            raise FrameworkError("server needs at least one target")
        requests = workload.requests(
            num_requests, deadline_s=self.deadline_seconds)

        env = Environment()
        if self.obs is not None:
            self.obs.attach(env)
        state = _RunState(self, env, len(requests))
        stage = state.stage

        def main() -> Generator[Event, None, tuple[float, float]]:
            obs = env.obs
            prep = None
            if obs is not None:
                prep = obs.tracer.begin("prepare", track="serve",
                                        backends=len(stage.backends))
            yield env.all_of(stage.prepare())
            if obs is not None:
                obs.tracer.end(prep)
            t0 = env.now
            stage.start()
            yield env.process(open_loop(env, requests, "serve",
                                        stage.queue.offer))
            yield state.all_resolved
            wall = env.now - t0
            yield from stage.shutdown()
            return wall, t0

        wall, epoch = env.run(until=env.process(main()))
        return stage.result(
            requests, wall_seconds=wall, prepare_seconds=epoch,
            slo_seconds=self.slo_seconds,
            warmup=min(self.warmup, stage.tallies[COMPLETED]))


class _RunState:
    """One run's serving stage plus the bookkeeping and serving
    metrics its owner hooks keep."""

    def __init__(self, server: InferenceServer, env: Environment,
                 offered: int) -> None:
        self.offered = offered
        self.warmup = server.warmup
        self.all_resolved = env.event()
        self.stage = ServingStage(
            env, server._targets,
            on_complete=self.complete,
            on_drop=self.resolve,
            queue_depth=server.queue_depth,
            admission=server.admission,
            max_batch_size=server.max_batch_size,
            max_wait_s=server.max_wait_s,
            policy=server.policy)

    def resolve(self, request: Request) -> None:
        """A request reached a terminal state; the last one ends the
        run."""
        resolved = len(self.stage.resolved)
        if resolved > self.offered:
            raise FrameworkError(
                "request resolved twice: serving accounting is "
                "broken")
        if resolved == self.offered:
            self.all_resolved.succeed()

    def complete(self, req: Request) -> None:
        """A request completed; record the serving latency metrics."""
        obs = self.stage.env.obs
        if obs is not None:
            metrics = obs.metrics
            if req.e2e_latency is not None:
                metrics.histogram("serve.e2e_seconds").observe(
                    req.e2e_latency)
            if req.queue_wait is not None:
                metrics.histogram(
                    "serve.queue_wait_seconds").observe(req.queue_wait)
            if req.batch_wait is not None:
                metrics.histogram(
                    "serve.batch_wait_seconds").observe(req.batch_wait)
            if req.service_seconds is not None:
                metrics.histogram(
                    "serve.service_seconds").observe(
                        req.service_seconds)
            metrics.counter("serve.completed").inc()
            if (self.warmup > 0 and self.stage.tallies[COMPLETED]
                    == self.warmup):
                # Steady-state window: drop the cold-start
                # transient from the serving histograms.
                for hist in list(metrics.histograms()):
                    if hist.name.startswith("serve."):
                        hist.reset()
        self.resolve(req)
