"""ServingStage contract: its tallies are the truth its owners report.

Every serving owner (server, cluster host, workflow stage) builds its
ServeResult from a :class:`~repro.serve.stage.ServingStage`, so the
stage's per-status tallies must equal the statuses of the requests it
resolved — under every admission policy, with deadlines expiring and a
stick dying mid-run — and :meth:`~ServingStage.halt` must leave
everything unresolved PENDING and untallied for a re-shard.  A live
camera is a constant-rate trace into the same stage; the last test
pins its frame-drop and latency trade-offs.
"""

from collections import Counter

import pytest

from repro.ncsw import IntelVPU
from repro.ncsw.faults import DeviceFault, FaultPlan
from repro.obs import ObsSession
from repro.serve import (
    BLOCK,
    COMPLETED,
    PENDING,
    REJECT_NEWEST,
    SHED_OLDEST,
    InferenceServer,
    PoissonWorkload,
    TraceWorkload,
)
from repro.serve.stage import ServingStage
from repro.sim import Environment

REQUESTS = 200


def _serve(graph, admission, plan=None, obs=None):
    """One stage run over 2 micro sticks at ~4x capacity with a 4 ms
    deadline; returns (stage, requests, result, completed, dropped)."""
    env = Environment()
    if obs is not None:
        obs.attach(env)
    target = IntelVPU(graph=graph, num_devices=2, functional=False,
                      fault_plan=plan, call_timeout=0.05)
    completed, dropped = [], []
    stage = ServingStage(env, {"vpu": target}, queue_depth=4,
                         admission=admission,
                         on_complete=completed.append,
                         on_drop=dropped.append)
    requests = PoissonWorkload(1500.0, seed=3).requests(
        REQUESTS, deadline_s=0.004)

    def main():
        yield env.all_of(stage.prepare())
        t0 = env.now
        stage.start()
        for req in requests:
            req.arrival_time += t0
            req.deadline_at += t0
            if req.arrival_time > env.now:
                yield env.timeout(req.arrival_time - env.now)
            stage.queue.offer(req)
        while (any(r.status == PENDING for r in requests)
               and env.now < t0 + 10.0):
            yield env.timeout(0.01)
        wall = env.now - t0
        yield from stage.shutdown()
        return wall, t0

    wall, t0 = env.run(until=env.process(main()))
    result = stage.result(requests, wall_seconds=wall,
                          prepare_seconds=t0, slo_seconds=None)
    return stage, requests, result, completed, dropped


@pytest.fixture(scope="module")
def kill_at(chaos_graph):
    """A stick-death time inside the serving window of a healthy run."""
    _, _, base, _, _ = _serve(chaos_graph, REJECT_NEWEST)
    return base.prepare_seconds + 0.3 * base.wall_seconds


@pytest.mark.parametrize("admission", [BLOCK, SHED_OLDEST,
                                       REJECT_NEWEST])
def test_tallies_equal_resolved_statuses_and_the_result(
        chaos_graph, kill_at, admission):
    stage, requests, result, completed, dropped = _serve(
        chaos_graph, admission, plan=FaultPlan.kill(0, kill_at))
    assert result.degraded and result.failures[0].device == "ncs0"
    # Each offered request resolved exactly once, through the stage.
    assert sorted(id(r) for r in stage.resolved) == \
        sorted(id(r) for r in requests)
    statuses = Counter(r.status for r in stage.resolved)
    assert {s: n for s, n in stage.tallies.items() if n} == \
        dict(statuses)
    # The owner callbacks saw the same split, in resolution order.
    assert completed == [r for r in stage.resolved
                         if r.status == COMPLETED]
    assert dropped == [r for r in stage.resolved
                       if r.status != COMPLETED]
    # The ServeResult carries the tallies.
    assert (result.completed, result.shed, result.rejected,
            result.timed_out, result.abandoned) == (
        stage.tallies["completed"], stage.tallies["shed"],
        stage.tallies["rejected"], stage.tallies["timed_out"],
        stage.tallies["abandoned"])
    # The overload actually exercised the policy and the deadlines.
    assert result.completed > 0 and result.timed_out > 0
    if admission == SHED_OLDEST:
        assert result.shed > 0 and result.rejected == 0
    elif admission == REJECT_NEWEST:
        assert result.rejected > 0 and result.shed == 0
    else:
        assert result.shed == result.rejected == 0


@pytest.mark.parametrize("admission", [BLOCK, SHED_OLDEST,
                                       REJECT_NEWEST])
def test_tallies_are_obs_neutral(chaos_graph, kill_at, admission):
    plan = FaultPlan.kill(0, kill_at)
    _, off, _, _, _ = _serve(chaos_graph, admission, plan=plan)
    stage, on, _, _, _ = _serve(chaos_graph, admission, plan=plan,
                                obs=ObsSession())
    assert [(r.status, r.completed_at) for r in off] == \
        [(r.status, r.completed_at) for r in on]
    assert sum(stage.tallies.values()) == REQUESTS


def test_halt_leaves_unresolved_requests_pending(chaos_graph):
    env = Environment()
    target = IntelVPU(graph=chaos_graph, num_devices=2,
                      functional=False)
    stage = ServingStage(env, {"vpu": target}, queue_depth=None,
                         on_complete=lambda r: None,
                         on_drop=lambda r: None)
    requests = PoissonWorkload(1.0, seed=0).requests(60)
    snapshot = {}

    def main():
        yield env.all_of(stage.prepare())
        stage.start()
        for req in requests:  # one burst: the queue backs up
            req.arrival_time = env.now
            stage.queue.offer(req)
        for _ in range(1000):
            if stage.resolved:
                break
            yield env.timeout(0.001)
        snapshot["queued"] = len(stage.queue)
        snapshot["in_flight"] = [r for r in requests
                                 if r.dispatched_at is not None
                                 and r.status == PENDING]
        stage.halt()
        snapshot["tallies"] = dict(stage.tallies)
        snapshot["resolved"] = list(stage.resolved)
        yield env.timeout(1.0)  # long enough for any batch to finish

    env.run(until=env.process(main()))
    assert snapshot["queued"] > 0 and snapshot["in_flight"]
    assert len(stage.queue) == 0  # drained, not resolved
    assert stage.tallies == snapshot["tallies"]
    assert [id(r) for r in stage.resolved] == \
        [id(r) for r in snapshot["resolved"]]
    resolved = {id(r) for r in stage.resolved}
    unresolved = [r for r in requests if id(r) not in resolved]
    assert len(unresolved) == len(requests) - len(resolved)
    assert all(r.status == PENDING for r in unresolved)
    assert all(r.completed_at is None
               for r in snapshot["in_flight"])


def test_block_admission_survives_total_device_loss(chaos_graph,
                                                     kill_at):
    plan = FaultPlan([DeviceFault(device_index=0, at=kill_at),
                      DeviceFault(device_index=1, at=kill_at + 1e-4)])
    stage, requests, result, _, _ = _serve(chaos_graph, BLOCK,
                                           plan=plan)
    assert result.abandoned > 0 and result.completed > 0
    assert result.shed == result.rejected == 0
    assert sum(stage.tallies.values()) == len(requests)


def _camera(graph, sticks, fps, depth=4, admission=REJECT_NEWEST):
    """A constant-rate camera into one backend per stick."""
    server = InferenceServer(queue_depth=depth, admission=admission,
                             slo_seconds=None)
    for i in range(sticks):
        server.add_target(f"ncs{i}", IntelVPU(
            graph=graph, num_devices=1, functional=False))
    return server.run(TraceWorkload([i / fps for i in range(150)]), 150)


def test_constant_rate_camera_through_per_stick_backends(chaos_graph):
    service = chaos_graph.inference_seconds
    calm = _camera(chaos_graph, 1, fps=30)
    assert calm.completed == 150 and calm.p95 < 3 * service
    # ~5x one stick's capacity: the live queue turns frames away and
    # the stick sustains close to its service rate.
    one = _camera(chaos_graph, 1, fps=3000)
    assert one.loss_rate > 0.5
    assert one.throughput == pytest.approx(1 / service, rel=0.25)
    four = _camera(chaos_graph, 4, fps=3000)
    assert four.throughput > 2.5 * one.throughput
    assert four.loss_rate < one.loss_rate
    # A deeper queue trades latency for fewer drops.
    shallow = _camera(chaos_graph, 1, fps=3000, depth=1)
    deep = _camera(chaos_graph, 1, fps=3000, depth=8)
    assert deep.p95 > shallow.p95 and deep.loss_rate <= shallow.loss_rate
    # Which frames the lossy policies lose differs; how many cannot.
    rejected = _camera(chaos_graph, 1, fps=3000, depth=2)
    shed = _camera(chaos_graph, 1, fps=3000, depth=2,
                   admission=SHED_OLDEST)
    assert rejected.rejected == pytest.approx(shed.shed, abs=3)
