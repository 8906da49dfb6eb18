"""One serving stage: admission queue → batcher → router over backends.

:class:`ServingStage` is the open-loop serving step that the
single-host :class:`~repro.serve.server.InferenceServer`, each cluster
:class:`~repro.cluster.host.HostRank` and each model stage of a
:mod:`repro.flow` workflow run.  It wires the four serving components
under one metrics prefix, tallies the five terminal states of every
request it resolves, and builds the
:class:`~repro.serve.slo.ServeResult`.  Owners offer requests to its
queue and keep their own metrics and ledgers in its two callbacks.
The stage creates no simulation event or process and emits no metric
of its own, so it is invisible in every trace and metrics dump.

:func:`open_loop` is the arrival process all three owners share.
"""

from __future__ import annotations

from typing import (Any, Callable, Generator, Mapping, Optional,
                    Sequence)

from repro.errors import FrameworkError
from repro.ncsw.faults import FailureEvent
from repro.ncsw.targets import TargetDevice
from repro.serve.batcher import DynamicBatcher
from repro.serve.queue import REJECT_NEWEST, AdmissionQueue
from repro.serve.router import ROUND_ROBIN, Backend, Router
from repro.serve.slo import ServeResult
from repro.serve.workload import (ABANDONED, COMPLETED, REJECTED, SHED,
                                  TERMINAL_STATES, TIMED_OUT, Request)
from repro.sim.core import Environment, Event

#: Maximum batcher wait (seconds) used when none is given: two
#: milliseconds, roughly one USB transfer — long enough to fill a
#: window under load, short enough to stay invisible in a 250 ms SLO.
DEFAULT_MAX_WAIT_S = 0.002


class ServingStage:
    """Admission queue → dynamic batcher → router over named targets."""

    def __init__(self, env: Environment,
                 targets: Mapping[str, TargetDevice], *,
                 on_complete: Callable[[Request], None],
                 on_drop: Callable[[Request], None],
                 name: str = "serve",
                 queue_depth: Optional[int] = 64,
                 admission: str = REJECT_NEWEST,
                 max_batch_size: Optional[int] = None,
                 max_wait_s: float = DEFAULT_MAX_WAIT_S,
                 policy: str = ROUND_ROBIN) -> None:
        self.env = env
        #: Metric/track namespace of every component (``serve``,
        #: ``rank<N>``, ``flow.<step>``).
        self.name = name
        self.targets = dict(targets)
        self.on_complete = on_complete
        self.on_drop = on_drop
        self.queue = AdmissionQueue(env, depth=queue_depth,
                                    policy=admission,
                                    on_drop=self._request_dropped,
                                    name=name)
        self.backends = [Backend(env, bname, target,
                                 metrics_prefix=name)
                         for bname, target in self.targets.items()]
        self.router = Router(env, self.backends, policy=policy,
                             on_complete=self._batch_completed,
                             on_abandon=self._request_dropped,
                             metrics_prefix=name)
        self.batcher = DynamicBatcher(env, self.queue, self.router,
                                      max_batch_size=max_batch_size,
                                      max_wait_s=max_wait_s,
                                      on_timeout=self._request_dropped,
                                      metrics_prefix=name)
        #: Requests resolved per terminal status.
        self.tallies = dict.fromkeys(TERMINAL_STATES, 0)
        #: Every request this stage resolved, in resolution order.
        self.resolved: list[Request] = []
        self._closed = False
        self._batcher_proc: Optional[Event] = None
        self._worker_procs: list[Event] = []

    # -- lifecycle -------------------------------------------------------
    def prepare(self) -> list[Event]:
        """Start every target's preparation (boot, graph, warm-up)."""
        return [target.prepare(self.env)
                for target in self.targets.values()]

    def start(self) -> None:
        """Fork the backends' serve loops, then the batcher."""
        self._worker_procs = self.router.start()
        self._batcher_proc = self.batcher.run()

    def close(self) -> None:
        """End admission: queue the poison pill behind all offered
        work (idempotent)."""
        if not self._closed:
            self._closed = True
            self.queue.close()

    def shutdown(self) -> Generator[Event, None, None]:
        """Orderly shutdown, run inline by the owner's process.

        Closes admission, waits for the batcher to flush, then pills
        the backends and waits for them.  Call once every request the
        owner cares about is resolved, so no pill strands one.
        """
        self.close()
        yield self._batcher_proc
        self.router.close()
        yield self.env.all_of(self._worker_procs)

    def halt(self) -> None:
        """Stop mid-flight without resolving anything (host death).

        Queued requests are drained unresolved, a half-formed batch is
        dropped and in-flight batches never get completion stamps, so
        every unresolved request stays PENDING for the owner to
        re-shard.
        """
        self.queue.drain()
        self.batcher.halt()
        for backend in self.backends:
            backend.halt()

    # -- resolution (the components' callbacks) --------------------------
    def _tally(self, request: Request) -> None:
        if request.status not in self.tallies:
            raise FrameworkError(
                f"request {request.request_id} resolved in "
                f"non-terminal state {request.status!r}")
        self.tallies[request.status] += 1
        self.resolved.append(request)

    def _batch_completed(self, batch: list[Request]) -> None:
        for request in batch:
            self._tally(request)
            self.on_complete(request)

    def _request_dropped(self, request: Request) -> None:
        self._tally(request)
        self.on_drop(request)

    # -- accounting ------------------------------------------------------
    def result(self, requests: list[Request], *, wall_seconds: float,
               prepare_seconds: float, slo_seconds: Optional[float],
               warmup: int = 0,
               failures: Sequence[FailureEvent] = ()) -> ServeResult:
        """The :class:`ServeResult` of *requests* under this stage's
        tallies.

        *requests* is the owner's offered list; ServeResult checks
        their statuses against the tallies.  Device failures of every
        target come first, then the owner's *failures*.
        """
        tallies = self.tallies
        return ServeResult(
            offered=len(requests),
            completed=tallies[COMPLETED],
            shed=tallies[SHED],
            rejected=tallies[REJECTED],
            timed_out=tallies[TIMED_OUT],
            abandoned=tallies[ABANDONED],
            wall_seconds=wall_seconds,
            prepare_seconds=prepare_seconds,
            slo_seconds=slo_seconds,
            requests=requests,
            failures=[event for target in self.targets.values()
                      for event in target.fault_stats().events]
            + list(failures),
            warmup=warmup,
        )


def open_loop(env: Environment, requests: Sequence[Any], track: str,
              offer: Callable[[Any], Any]) -> Generator[Event, None, None]:
    """Open-loop arrival process: requests land on their own clock.

    Workload arrival times (and deadlines) are offsets from serving
    start; they are rebased onto the simulation clock here (device
    preparation has already consumed some simulated time).  Each
    arrival is counted as ``<track>.offered`` and handed to *offer*,
    which never stalls this loop — under the ``block`` policy the put
    pends in the background while arrivals keep their own schedule.
    """
    obs = env.obs
    epoch = env.now
    for request in requests:
        request.arrival_time += epoch
        if request.deadline_at is not None:
            request.deadline_at += epoch
        if request.arrival_time > env.now:
            yield env.timeout(request.arrival_time - env.now)
        if obs is not None:
            obs.metrics.counter(f"{track}.offered").inc()
            # Backdate the arrival hop to the nominal arrival time so
            # the waterfall telescopes exactly to the e2e latency even
            # for same-instant burst arrivals.
            obs.reqtrace.begin(
                request, track=track,
                t=obs.tracer.timestamp(request.arrival_time))
        offer(request)
