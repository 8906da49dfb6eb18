"""Unit tests for the DES kernel core (events, processes, clock)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Environment, Interrupt


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)

    env.process(proc())
    env.run()
    assert env.now == 3.5


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_at_fires_at_absolute_time():
    env = Environment()
    delays = [0.1, 0.2, 0.7, 1e-9, 0.3]
    fired = []

    def chained():
        for d in delays:
            yield env.timeout(d)
        fired.append(("chain", env.now))

    def folded():
        when = env.now
        for d in delays:
            when += d
        value = yield env.timeout_at(when, value="done")
        fired.append((value, env.now))

    env.process(chained())
    env.process(folded())
    env.run()
    # The folded event lands on the chain's float, not on now + sum().
    assert fired[0][1] == fired[1][1]
    assert {tag for tag, _ in fired} == {"chain", "done"}


def test_timeout_at_rejects_past_and_nan():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.timeout_at(1.0)
    with pytest.raises(ValueError):
        env.timeout_at(float("nan"))
    event = env.timeout_at(2.0)  # now itself is allowed
    env.run()
    assert event.processed and env.now == 2.0


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    marks = []

    def proc():
        yield env.timeout(1)
        marks.append(env.now)
        yield env.timeout(2)
        marks.append(env.now)

    env.process(proc())
    env.run()
    assert marks == [1, 3]


def test_process_return_value_via_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_run_until_time_stops_early():
    env = Environment()
    marks = []

    def proc():
        for _ in range(10):
            yield env.timeout(1)
            marks.append(env.now)

    env.process(proc())
    env.run(until=4.5)
    assert env.now == 4.5
    assert marks == [1, 2, 3, 4]


def test_run_until_past_raises():
    env = Environment()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    env.run()
    with pytest.raises(ValueError):
        env.run(until=5)


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1)
        order.append(name)

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_determinism_two_runs_identical():
    def build():
        env = Environment()
        trace = []

        def worker(name, period):
            while env.now < 10:
                yield env.timeout(period)
                trace.append((env.now, name))

        env.process(worker("x", 1.5))
        env.process(worker("y", 2.0))
        env.run(until=10)
        return trace

    assert build() == build()


def test_process_waits_on_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(2)
        log.append("child")
        return "done"

    def parent():
        result = yield env.process(child())
        log.append(f"parent:{result}")

    env.process(parent())
    env.run()
    assert log == ["child", "parent:done"]


def test_event_manual_succeed():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield env.timeout(1)
        ev.succeed(99)

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [99]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    caught = []

    def waiter(ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(ev))

    def firer():
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_in_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("oops")

    env.process(bad())
    with pytest.raises(ValueError, match="oops"):
        env.run()


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 123

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_all_of_waits_for_every_event():
    env = Environment()
    done_at = []

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield env.all_of([t1, t2])
        done_at.append(env.now)
        assert set(result.values()) == {"a", "b"}

    env.process(proc())
    env.run()
    assert done_at == [5]


def test_any_of_fires_on_first():
    env = Environment()
    done_at = []

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield env.any_of([t1, t2])
        done_at.append(env.now)
        assert "fast" in result.values()

    env.process(proc())
    env.run()
    assert done_at == [1]


def test_and_operator():
    env = Environment()
    done_at = []

    def proc():
        yield env.timeout(2) & env.timeout(3)
        done_at.append(env.now)

    env.process(proc())
    env.run()
    assert done_at == [3]


def test_or_operator():
    env = Environment()
    done_at = []

    def proc():
        yield env.timeout(2) | env.timeout(3)
        done_at.append(env.now)

    env.process(proc())
    env.run()
    assert done_at == [2]


def test_interrupt_raises_in_target():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("slept")
        except Interrupt as i:
            log.append((env.now, f"interrupted:{i.cause}"))

    def interrupter(target):
        yield env.timeout(1)
        target.interrupt("wakeup")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    # Interrupted at t=1, never resumed by the stale timeout.
    assert log == [(1, "interrupted:wakeup")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_step_on_empty_queue_raises_deadlock():
    env = Environment()
    with pytest.raises(DeadlockError):
        env.step()


def test_run_until_event_never_fires_deadlocks():
    env = Environment()
    ev = env.event()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    with pytest.raises(DeadlockError):
        env.run(until=ev)


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_peek_skips_cancelled_head():
    """A cancelled event at the head of the queue is not the next
    *scheduled* event; peek reports the live one behind it."""
    env = Environment()
    a = env.timeout(5)
    env.timeout(7)
    env.cancel(a)
    assert env.peek() == 7.0
    assert env._cancelled == 0   # the popped head is no longer counted
    env.run()
    assert env.now == 7.0


def test_cancel_heavy_timeouts_stay_compacted():
    """The serve pattern — most deadline timers are cancelled by
    completion — must not accumulate tombstones in the queue."""
    env = Environment()
    fired = []

    def main():
        survivor = env.timeout(500.0, value="survivor")
        doomed = [env.timeout(100.0 + i * 1e-4) for i in range(5000)]
        for t in doomed:
            env.cancel(t)
        # Lazy delete compacts once tombstones outnumber live
        # entries: the 5000 cancelled timers must not linger.
        assert len(env._queue) < 100
        fired.append((yield survivor))

    env.run(until=env.process(main()))
    assert fired == ["survivor"]
    assert env.now == 500.0


def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []

    def waiter(ev):
        fired.append((yield ev))

    def main():
        doomed = env.timeout(1.0, value="doomed")
        env.process(waiter(doomed))
        yield env.timeout(0.5)   # the waiter is subscribed by now
        env.cancel(doomed)
        fired.append((yield env.timeout(2.0, value="kept")))
        env.cancel(doomed)       # double-cancel is a no-op

    env.run(until=env.process(main()))
    assert fired == ["kept"]


def test_far_future_and_past_events_fire_in_order():
    """Events spanning nine orders of magnitude keep global order."""
    env = Environment()
    fired = []

    def waiter(tag, ev):
        yield ev
        fired.append((tag, env.now))

    env.process(waiter("near", env.timeout(0.001)))
    env.process(waiter("far", env.timeout(1e6)))
    env.process(waiter("mid", env.timeout(42.0)))
    env.run()
    assert fired == [("near", 0.001), ("mid", 42.0), ("far", 1e6)]


def test_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(5)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_nested_process_exception_propagates_to_parent():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1)
        raise KeyError("inner")

    def parent():
        try:
            yield env.process(child())
        except KeyError:
            caught.append("got it")

    env.process(parent())
    env.run()
    assert caught == ["got it"]
