"""The flow coordinator: walks a compiled DAG on the serving stack.

:class:`FlowCoordinator` executes a
:class:`~repro.flow.compiler.CompiledWorkflow` against an open-loop
workload.  Every :class:`~repro.flow.steps.InferStep` gets its *own*
:class:`~repro.serve.stage.ServingStage` over fresh targets, so each
stage batches independently: the batcher asks its own router for the
next backend's ``preferred_batch_size``, which means a VPU detect
stage forms stick-count windows while a CPU classify stage fills
16-wide ones, concurrently on one simulated clock.

Items travel as tokens.  A *trunk* token is the workflow request
itself walking the spine of the graph; a fan-out parks the trunk at a
:class:`_Barrier` and spawns *sub*-tokens (one per crop, one per
ensemble member) that rejoin at the paired join step.  Every spawned
sub-token is accounted exactly once — it either reaches the join or
is abandoned to its stage's overload/fault policy — so the region's
``spawned = joined + abandoned`` ledger in the
:class:`~repro.flow.result.WorkflowResult` always balances.  A trunk
token lost at a stage resolves the whole workflow request with that
stage's terminal status.

Determinism: user hooks draw randomness from generators seeded by
(run seed, workflow, step, item lineage), stage request ids are a
single monotonic counter, and all observability is guarded by
``env.obs is not None`` and creates no simulation events — a run is
byte-identical with obs off or on, and same-seed runs replay exactly.
The workflow request's :class:`~repro.obs.reqtrace.TraceContext`
rides onto every stage request it spawns, so one ``trace-analyze``
waterfall shows the whole cascade.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

import numpy as np

from repro.errors import FlowError
from repro.flow.compiler import CompiledWorkflow
from repro.flow.result import (FanOutAccount, StageResult,
                               WorkflowRequest, WorkflowResult)
from repro.flow.steps import (BranchStep, FanOutStep, InferStep, Item,
                              JoinStep, Step, TransformStep)
from repro.serve.queue import POLICIES as ADMISSION_POLICIES
from repro.serve.queue import REJECT_NEWEST
from repro.serve.router import ROUND_ROBIN
from repro.serve.stage import DEFAULT_MAX_WAIT_S, ServingStage, open_loop
from repro.serve.workload import (ABANDONED, COMPLETED, TERMINAL_STATES,
                                  Request, Workload)
from repro.sim.core import Environment, Event


@dataclass
class _Barrier:
    """Join barrier for one fan-out region of one workflow request."""

    parent: "_Token"            # trunk token parked at the barrier
    fanout: str
    join: str
    expected: int
    opened_at: float
    #: ``(spawn_index, data)`` of every sub-item that reached the join.
    joined: list[tuple[int, Any]] = field(default_factory=list)
    abandoned: int = 0


@dataclass
class _Token:
    """One item in flight, bound to its workflow request."""

    flow_req: WorkflowRequest
    item: Item
    #: (request_id, spawn indices...): the deterministic identity used
    #: to seed per-item RNGs and to order join inputs.
    lineage: tuple[int, ...]
    #: None for trunk tokens; the region barrier for sub-tokens.
    barrier: Optional[_Barrier] = None
    #: Trace context this token's stage requests carry.  Only the
    #: trunk and each region's *first* sub-token (the representative)
    #: keep the workflow context — siblings sharing one context would
    #: interleave hops and break the waterfall's telescoping.
    trace: Optional[object] = None


class _Stage(ServingStage):
    """One InferStep's private serving stage inside a run."""

    def __init__(self, run: "_FlowRun", step: InferStep) -> None:
        cfg = run.coordinator
        super().__init__(
            run.env, step.make_targets(), name=f"flow.{step.name}",
            queue_depth=(step.queue_depth if step.queue_depth is not None
                         else cfg.queue_depth),
            admission=cfg.admission,
            max_batch_size=step.max_batch_size,
            max_wait_s=(step.max_wait_s if step.max_wait_s is not None
                        else cfg.max_wait_s),
            policy=cfg.policy,
            on_complete=self._completed,
            on_drop=self._dropped)
        self.step = step
        #: Every serve request submitted to this stage, in order.
        self.requests: list[Request] = []
        self._run = run
        self._tokens: Dict[int, _Token] = {}

    def submit(self, token: _Token) -> None:
        """Wrap *token* in a stage request and offer it for admission."""
        run = self._run
        req = Request(request_id=run.next_stage_id(),
                      arrival_time=run.env.now,
                      deadline_at=token.flow_req.deadline_at,
                      tensor=token.item.tensor,
                      trace=token.trace)
        self.requests.append(req)
        self._tokens[req.request_id] = token
        self.queue.offer(req)

    def _completed(self, req: Request) -> None:
        token = self._tokens.pop(req.request_id)
        self._run.on_stage_complete(self, token, req)

    def _dropped(self, req: Request) -> None:
        token = self._tokens.pop(req.request_id)
        self._run.on_stage_drop(token, req)


@dataclass
class _FanAccount:
    join: str
    spawned: int = 0
    joined: int = 0
    abandoned: int = 0


class _FlowRun:
    """All per-run state: stages, tokens, barriers, accounting."""

    def __init__(self, coordinator: "FlowCoordinator",
                 env: Environment,
                 flow_requests: list[WorkflowRequest],
                 payloads: list[Optional[np.ndarray]]) -> None:
        self.coordinator = coordinator
        self.env = env
        self.wf = coordinator.workflow
        self.flow_requests = flow_requests
        self.payloads = payloads
        self.stages: Dict[str, _Stage] = {
            name: _Stage(self, step)
            for name in self.wf.order
            if isinstance((step := self.wf.steps[name]), InferStep)}
        self.fan_accounts: Dict[str, _FanAccount] = {
            fo: _FanAccount(join=jn)
            for fo, jn in self.wf.join_of.items()}
        self.counts = dict.fromkeys(TERMINAL_STATES, 0)
        self.resolved = 0
        self.all_resolved = env.event()
        self._next_stage_id = 0

    def next_stage_id(self) -> int:
        """Monotonic id shared by every stage (deterministic)."""
        rid = self._next_stage_id
        self._next_stage_id += 1
        return rid

    def rng_for(self, step: str, lineage: tuple[int, ...]
                ) -> np.random.Generator:
        """Seeded RNG for one (step, item) — stable across replays."""
        digest = hashlib.sha256(
            f"repro-flow:{self.coordinator.seed}:{self.wf.name}:"
            f"{step}:{lineage}".encode()).digest()
        return np.random.default_rng(
            int.from_bytes(digest[:8], "little"))

    # -- arrivals --------------------------------------------------------
    def admit(self, flow_req: WorkflowRequest) -> None:
        """Start an arrived workflow request's trunk token at the
        entry step."""
        token = _Token(flow_req=flow_req,
                       item=Item(data=None,
                                 tensor=self.payloads[flow_req.request_id]),
                       lineage=(flow_req.request_id,),
                       trace=flow_req.trace)
        self.deliver(token, self.wf.entry)

    # -- graph walking ---------------------------------------------------
    def deliver(self, token: _Token, name: str) -> None:
        """Hand *token* to step *name* at the current sim time."""
        step = self.wf.steps[name]
        if isinstance(step, InferStep):
            self.stages[name].submit(token)
        elif isinstance(step, TransformStep):
            self._transform(token, step)
        elif isinstance(step, BranchStep):
            self._branch(token, step)
        elif isinstance(step, FanOutStep):
            self._fan_out(token, step)
        elif isinstance(step, JoinStep):
            self._join(token, step)
        else:  # pragma: no cover - the step kinds are closed
            raise FlowError(f"unknown step kind {step.kind!r}")

    def advance_past(self, token: _Token, name: str) -> None:
        """Move past a single-successor step (or land at a sink)."""
        succs = self.wf.succs[name]
        if not succs:
            self._at_sink(token, name)
            return
        self.deliver(token, succs[0])

    def _record_interval(self, token: _Token, label: str,
                         t0: float, t1: float) -> None:
        # Sub-token timings are folded into the region interval the
        # barrier records; only the trunk tiles the workflow journey.
        if token.barrier is None:
            token.flow_req.stage_intervals.append((label, t0, t1))

    # -- step semantics --------------------------------------------------
    def _transform(self, token: _Token, step: TransformStep) -> None:
        env = self.env
        t0 = env.now
        rng = self.rng_for(step.name, token.lineage)
        token.item = Item(data=step.fn(token.item.data, rng),
                          tensor=token.item.tensor)
        if step.cost_s <= 0:
            self._record_interval(token, step.name, t0, t0)
            self.advance_past(token, step.name)
            return

        def delayed() -> Generator[Event, None, None]:
            yield env.timeout(step.cost_s)
            self._record_interval(token, step.name, t0, env.now)
            self.advance_past(token, step.name)

        env.process(delayed())

    def _branch(self, token: _Token, step: BranchStep) -> None:
        choice = step.route(token.item.data)
        succs = self.wf.succs[step.name]
        if choice not in succs:
            raise FlowError(
                f"branch {step.name!r} routed to {choice!r}, not one "
                f"of its successors {list(succs)}")
        now = self.env.now
        self._record_interval(token, step.name, now, now)
        if self.env.obs is not None:
            self.env.obs.metrics.counter(
                f"flow.{step.name}.to.{choice}").inc()
        self.deliver(token, choice)

    def _fan_out(self, token: _Token, step: FanOutStep) -> None:
        if token.barrier is not None:  # compiler forbids; belt+braces
            raise FlowError(
                f"fan-out {step.name!r} reached inside the region of "
                f"{token.barrier.fanout!r} (nested fan-out)")
        env = self.env
        succs = self.wf.succs[step.name]
        if step.fn is not None:
            rng = self.rng_for(step.name, token.lineage)
            subs = step.fn(token.item, rng)
            if not isinstance(subs, list) or not all(
                    isinstance(s, Item) for s in subs):
                raise FlowError(
                    f"fan-out {step.name!r}: fn must return a list "
                    f"of Item, got {subs!r}")
            plan = [(succs[0], item) for item in subs]
        else:
            plan = [(succ, token.item) for succ in succs]
        barrier = _Barrier(parent=token, fanout=step.name,
                           join=self.wf.join_of[step.name],
                           expected=len(plan), opened_at=env.now)
        self.fan_accounts[step.name].spawned += len(plan)
        if env.obs is not None:
            env.obs.metrics.counter(
                f"flow.{step.name}.spawned").inc(len(plan))
        if not plan:
            self._close_barrier(barrier)
            return
        for i, (succ, item) in enumerate(plan):
            sub = _Token(flow_req=token.flow_req, item=item,
                         lineage=token.lineage + (i,),
                         barrier=barrier,
                         trace=token.trace if i == 0 else None)
            self.deliver(sub, succ)

    def _join(self, token: _Token, step: JoinStep) -> None:
        if token.barrier is None:
            raise FlowError(
                f"join {step.name!r} reached by a request outside "
                "any fan-out region")
        barrier = token.barrier
        if barrier.join != step.name:  # compiler forbids; belt+braces
            raise FlowError(
                f"join {step.name!r} reached from the region of "
                f"{barrier.fanout!r}, whose barrier is "
                f"{barrier.join!r}")
        barrier.joined.append((token.lineage[-1], token.item.data))
        self._check_barrier(barrier)

    def _check_barrier(self, barrier: _Barrier) -> None:
        if len(barrier.joined) + barrier.abandoned < barrier.expected:
            return
        self._close_barrier(barrier)

    def _close_barrier(self, barrier: _Barrier) -> None:
        env = self.env
        acct = self.fan_accounts[barrier.fanout]
        acct.joined += len(barrier.joined)
        acct.abandoned += barrier.abandoned
        trunk = barrier.parent
        label = f"{barrier.fanout}+{barrier.join}"
        if not barrier.joined and barrier.expected > 0:
            # Every sub-request was lost: nothing to aggregate, so the
            # whole workflow request is abandoned at the barrier.
            trunk.flow_req.stage_intervals.append(
                (label, barrier.opened_at, env.now))
            self.resolve_flow(trunk.flow_req, ABANDONED)
            return
        step = self.wf.steps[barrier.join]
        assert isinstance(step, JoinStep)
        ordered = [data for _, data in
                   sorted(barrier.joined, key=lambda p: p[0])]
        trunk.item = Item(data=step.reduce(ordered),
                          tensor=trunk.item.tensor)
        if step.cost_s <= 0:
            trunk.flow_req.stage_intervals.append(
                (label, barrier.opened_at, env.now))
            self.advance_past(trunk, barrier.join)
            return

        def delayed() -> Generator[Event, None, None]:
            yield env.timeout(step.cost_s)
            trunk.flow_req.stage_intervals.append(
                (label, barrier.opened_at, env.now))
            self.advance_past(trunk, barrier.join)

        env.process(delayed())

    def _at_sink(self, token: _Token, name: str) -> None:
        if token.barrier is not None:  # compiler forbids; belt+braces
            raise FlowError(
                f"sub-request escaped the region of "
                f"{token.barrier.fanout!r} to sink {name!r} without "
                "a join barrier")
        self.resolve_flow(token.flow_req, COMPLETED,
                          output=token.item.data)

    # -- stage callbacks -------------------------------------------------
    def on_stage_complete(self, stage: _Stage, token: _Token,
                          req: Request) -> None:
        step = stage.step
        data = token.item.data
        if step.decode is not None:
            rng = self.rng_for(step.name, token.lineage)
            data = step.decode(req.record, token.item, rng)
        token.item = Item(data=data, tensor=token.item.tensor)
        assert req.completed_at is not None
        self._record_interval(token, step.name, req.arrival_time,
                              req.completed_at)
        self.advance_past(token, step.name)

    def on_stage_drop(self, token: _Token, req: Request) -> None:
        if token.barrier is None:
            # The workflow request itself was lost at this stage; it
            # inherits the stage's terminal status.
            self.resolve_flow(token.flow_req, req.status)
            return
        token.barrier.abandoned += 1
        self._check_barrier(token.barrier)

    # -- resolution ------------------------------------------------------
    def resolve_flow(self, flow_req: WorkflowRequest, status: str,
                     output: Any = None) -> None:
        env = self.env
        flow_req.status = status
        flow_req.output = output
        obs = env.obs
        if status == COMPLETED:
            flow_req.completed_at = env.now
            if obs is not None:
                obs.reqtrace.hop(flow_req.trace, "completed",
                                 track="flow")
                metrics = obs.metrics
                metrics.counter("flow.completed").inc()
                latency = flow_req.e2e_latency
                if latency is not None:
                    metrics.histogram("flow.e2e_seconds").observe(
                        latency)
                if (self.coordinator.warmup > 0
                        and self.counts["completed"] + 1
                        == self.coordinator.warmup):
                    # Steady-state window: drop the cold-start
                    # transient from the workflow histograms.
                    for hist in list(metrics.histograms()):
                        if hist.name.startswith("flow."):
                            hist.reset()
        elif obs is not None:
            obs.metrics.counter(f"flow.{status}").inc()
        self.counts[status] += 1
        self.resolved += 1
        if self.resolved > len(self.flow_requests):
            raise FlowError(
                "workflow request resolved twice: flow accounting is "
                "broken")
        if self.resolved == len(self.flow_requests):
            self.all_resolved.succeed()


class FlowCoordinator:
    """Executes a compiled workflow over an open-loop workload."""

    def __init__(self, workflow: CompiledWorkflow, *,
                 seed: int = 0,
                 queue_depth: Optional[int] = 64,
                 admission: str = REJECT_NEWEST,
                 max_wait_s: float = DEFAULT_MAX_WAIT_S,
                 policy: str = ROUND_ROBIN,
                 slo_seconds: Optional[float] = None,
                 deadline_seconds: Optional[float] = None,
                 warmup: int = 0,
                 obs=None) -> None:
        if not isinstance(workflow, CompiledWorkflow):
            raise FlowError(
                "FlowCoordinator needs a CompiledWorkflow (call "
                "compile_workflow first)")
        if not workflow.infer_steps():
            raise FlowError(
                f"workflow {workflow.name!r} has no model stages; "
                "nothing to serve")
        if admission not in ADMISSION_POLICIES:
            raise FlowError(
                f"unknown admission policy {admission!r}; one of "
                f"{ADMISSION_POLICIES}")
        if slo_seconds is not None and slo_seconds <= 0:
            raise FlowError(
                f"slo_seconds must be positive, got {slo_seconds}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise FlowError(
                f"deadline_seconds must be positive, got "
                f"{deadline_seconds}")
        if warmup < 0:
            raise FlowError("warmup must be >= 0")
        self.workflow = workflow
        self.seed = int(seed)
        self.queue_depth = queue_depth
        self.admission = admission
        self.max_wait_s = max_wait_s
        self.policy = policy
        self.slo_seconds = slo_seconds
        self.deadline_seconds = deadline_seconds
        self.warmup = warmup
        self.obs = obs
        #: The last run's serving stages, retained for inspection (the
        #: per-stage batching tests read batcher caps from here).
        self.stages: Dict[str, _Stage] = {}

    def run(self, workload: Workload, num_requests: int,
            payloads: Optional[list[Optional[np.ndarray]]] = None
            ) -> WorkflowResult:
        """Run *num_requests* workflow requests drawn from *workload*;
        blocks until every one resolves and returns the roll-up."""
        if num_requests < 1:
            raise FlowError(
                f"need at least one request, got {num_requests}")
        times = workload.arrival_times(num_requests)
        tensors: list[Optional[np.ndarray]]
        if payloads is None:
            tensors = [None] * num_requests
        else:
            tensors = list(payloads)
            if len(tensors) != num_requests:
                raise FlowError(
                    f"{len(tensors)} payloads for {num_requests} "
                    "requests")
        deadline = self.deadline_seconds
        flow_requests = [
            WorkflowRequest(request_id=i, arrival_time=t,
                            deadline_at=(t + deadline
                                         if deadline is not None
                                         else None))
            for i, t in enumerate(times)]

        env = Environment()
        if self.obs is not None:
            self.obs.attach(env)
        run = _FlowRun(self, env, flow_requests, tensors)

        def main() -> Generator[Event, None, tuple[float, float]]:
            obs = env.obs
            prep = None
            stages = list(run.stages.values())
            if obs is not None:
                prep = obs.tracer.begin(
                    "prepare", track="flow",
                    stages=len(stages),
                    backends=sum(len(s.targets) for s in stages))
            yield env.all_of([event for stage in stages
                              for event in stage.prepare()])
            if obs is not None:
                obs.tracer.end(prep)
            t0 = env.now
            for stage in stages:
                stage.start()
            yield env.process(open_loop(env, flow_requests, "flow",
                                        run.admit))
            yield run.all_resolved
            wall = env.now - t0
            # All work is resolved, so no poison pill can strand a
            # request anywhere.
            for stage in stages:
                yield from stage.shutdown()
            return wall, t0

        wall, epoch = env.run(until=env.process(main()))
        self.stages = run.stages

        stages_out = [StageResult(name=name, result=stage.result(
                          stage.requests, wall_seconds=wall,
                          prepare_seconds=epoch,
                          slo_seconds=stage.step.slo_seconds))
                      for name, stage in run.stages.items()]
        fan_out = [FanOutAccount(step=fo, join=acct.join,
                                 spawned=acct.spawned,
                                 joined=acct.joined,
                                 abandoned=acct.abandoned)
                   for fo, acct in run.fan_accounts.items()]
        return WorkflowResult(
            workflow=self.workflow.name,
            offered=len(flow_requests),
            completed=run.counts["completed"],
            shed=run.counts["shed"],
            rejected=run.counts["rejected"],
            timed_out=run.counts["timed_out"],
            abandoned=run.counts["abandoned"],
            wall_seconds=wall,
            prepare_seconds=epoch,
            slo_seconds=self.slo_seconds,
            requests=flow_requests,
            stages=stages_out,
            fan_out=fan_out,
            warmup=min(self.warmup, run.counts["completed"]),
        )
