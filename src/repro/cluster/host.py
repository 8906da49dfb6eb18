"""One simulated serving host (an MPI rank) in the cluster.

A :class:`HostRank` is one :class:`~repro.serve.stage.ServingStage`
over the host's target, namespaced under ``rank<N>`` so per-host
queues, batchers and backends stay distinguishable in one
observability session, fed by an ingest process that drains the
host's :class:`~repro.mpi.stream.StreamWindow` shard channel.

Resolution flows upward: the stage tallies every terminal state
(completed, shed, rejected, timed out, abandoned) and the host reports
each one to the cluster frontend via ``on_resolve``, whose ownership
ledger enforces the cluster-wide exactly-once invariant.

Death is a first-class state: :meth:`kill` tears the whole rank down
mid-flight — the shard channel is aborted, the ingest interrupted,
the queue drained, the batcher and backend halted — leaving every
unresolved request it owned PENDING for the frontend to re-shard.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.errors import FrameworkError
from repro.mpi.stream import StreamWindow
from repro.ncsw.faults import FailureEvent
from repro.ncsw.targets import TargetDevice
from repro.serve.queue import BLOCK
from repro.serve.slo import ServeResult
from repro.serve.stage import DEFAULT_MAX_WAIT_S, ServingStage
from repro.serve.workload import Request
from repro.sim.core import Environment, Event, Interrupt, Process


class HostRank:
    """A serving host behind one shard channel of the cluster."""

    def __init__(self, env: Environment, rank: int, name: str,
                 target: TargetDevice, stream: StreamWindow,
                 on_resolve: Callable[["HostRank", Request], None],
                 *,
                 queue_depth: Optional[int] = 64,
                 admission: str = "reject-newest",
                 max_batch_size: Optional[int] = None,
                 max_wait_s: float = DEFAULT_MAX_WAIT_S) -> None:
        if rank < 1:
            raise FrameworkError(
                f"host ranks start at 1 (rank 0 is the frontend), "
                f"got {rank}")
        self.env = env
        self.rank = rank
        self.name = name
        self.stream = stream
        self.on_resolve = on_resolve
        self.stage = ServingStage(env, {name: target},
                                  name=f"rank{rank}",
                                  queue_depth=queue_depth,
                                  admission=admission,
                                  max_batch_size=max_batch_size,
                                  max_wait_s=max_wait_s,
                                  on_complete=self._complete,
                                  on_drop=self._resolve_dropped)
        self.dead = False
        self.died_at: Optional[float] = None
        self.failure: Optional[FailureEvent] = None
        #: Unresolved requests stranded by :meth:`kill` (count).
        self.resharded = 0
        # -- autoscaling lifecycle (see repro.cluster.autoscale) -------
        #: Pool slot this generation serves (set by the frontend).
        self.slot: Optional[int] = None
        #: Sim time this host joined the ring, or None (fixed runs
        #: leave it None: active from the serving epoch).
        self.activated_at: Optional[float] = None
        #: True while a scale-in drain is in progress (out of the
        #: ring, still resolving its owned backlog).
        self.draining = False
        #: Sim time a scale-in drain completed, or None.
        self.drained_at: Optional[float] = None
        self._ingest_proc: Optional[Process] = None
        self._lifecycle_proc: Optional[Event] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> Event:
        """Fork the stage and the ingest; returns the lifecycle
        process, which completes at orderly shutdown or death."""
        self.stage.start()
        self._ingest_proc = self.env.process(self._ingest())
        self._lifecycle_proc = self.env.process(self._lifecycle())
        return self._lifecycle_proc

    def _ingest(self) -> Generator[Event, None, None]:
        """Drain the shard channel into the admission queue."""
        queue = self.stage.queue
        try:
            while True:
                item = yield self.stream.pop()
                if item is None:
                    break  # EOS: stream closed (or aborted at death)
                if self.dead:
                    # Straggler raced the abort; the frontend already
                    # re-sharded it, so it must not enter this queue.
                    continue
                event = queue.offer(item)
                if (queue.policy == BLOCK and event is not None
                        and not event.triggered):
                    # Blocking admission: stop popping until the put
                    # lands, so backpressure reaches the shard channel
                    # (its window fills and the frontend spills).
                    yield event
        except Interrupt:
            return  # killed while waiting: channel already aborted
        if not self.dead:
            self.stage.close()

    def _lifecycle(self) -> Generator[Event, None, None]:
        """Orderly shutdown after the stream closes (live hosts)."""
        yield self._ingest_proc
        if self.dead:
            return  # batcher/backend were halted, not drained
        yield from self.stage.shutdown()

    def kill(self) -> None:
        """Tear the whole rank down mid-flight (host failure).

        Order matters: mark dead first (silences late callbacks and
        straggler ingests), interrupt the ingest, abort the shard
        channel (releasing blocked frontend pushes), drain the queue,
        then halt the batcher and backend so no in-flight batch ever
        stamps completion on a request the frontend is re-sharding.
        """
        if self.dead:
            return
        self.dead = True
        self.died_at = self.env.now
        if self._ingest_proc is not None and self._ingest_proc.is_alive:
            self._ingest_proc.interrupt("host killed")
        self.stream.abort()
        self.stage.halt()

    # -- resolution callbacks (the stage's owner hooks) ------------------
    def _resolve_dropped(self, request: Request) -> None:
        """A request reached a non-completed terminal state here."""
        self.on_resolve(self, request)

    def _complete(self, request: Request) -> None:
        """A request completed on this host's backend."""
        obs = self.env.obs
        if obs is not None:
            prefix = self.stage.name
            obs.metrics.counter(f"{prefix}.completed").inc()
            if request.e2e_latency is not None:
                obs.metrics.histogram(f"{prefix}.e2e_seconds").observe(
                    request.e2e_latency)
        self.on_resolve(self, request)

    # -- accounting ------------------------------------------------------
    def result(self, slo_seconds: Optional[float],
               wall_seconds: float,
               prepare_seconds: float) -> ServeResult:
        """This host's shard of the cluster accounting.

        ``offered`` is the number of requests this host *resolved* —
        ownership of anything it never resolved moved back to the
        frontend at death — so the per-host ServeResult satisfies the
        same exactly-once invariant as a single-host run.  Warmup
        trimming happens at cluster level, over the merged completion
        order, not per shard.
        """
        requests = sorted(self.stage.resolved,
                          key=lambda r: (r.arrival_time, r.request_id))
        return self.stage.result(
            requests, wall_seconds=wall_seconds,
            prepare_seconds=prepare_seconds, slo_seconds=slo_seconds,
            failures=[self.failure] if self.failure is not None
            else ())
