"""Unit tests for Monitor time-series probes."""

import pytest

from repro.sim import Environment, Monitor


def _advance(env, t):
    def proc():
        yield env.timeout(t)
    env.process(proc())
    env.run()


def test_monitor_empty():
    env = Environment()
    m = Monitor(env)
    assert len(m) == 0
    assert m.last == 0.0
    assert m.time_average() == 0.0
    assert m.integral() == 0.0
    assert m.maximum() == 0.0


def test_monitor_records_time_and_value():
    env = Environment()
    m = Monitor(env, name="queue")

    def proc():
        m.record(1)
        yield env.timeout(2)
        m.record(3)

    env.process(proc())
    env.run()
    assert m.times == [0, 2]
    assert m.values == [1, 3]
    assert m.last == 3


def test_monitor_time_average_piecewise():
    env = Environment()
    m = Monitor(env)

    def proc():
        m.record(0)          # value 0 on [0, 4)
        yield env.timeout(4)
        m.record(10)         # value 10 on [4, 8)
        yield env.timeout(4)

    env.process(proc())
    env.run()
    # average = (0*4 + 10*4) / 8 = 5
    assert m.time_average() == pytest.approx(5.0)


def test_monitor_integral_power_to_energy():
    env = Environment()
    power = Monitor(env)

    def proc():
        power.record(2.5)     # 2.5 W on [0, 10)
        yield env.timeout(10)
        power.record(0.9)     # 0.9 W on [10, 20)
        yield env.timeout(10)

    env.process(proc())
    env.run()
    assert power.integral() == pytest.approx(2.5 * 10 + 0.9 * 10)


def test_monitor_integral_until():
    env = Environment()
    m = Monitor(env)

    def proc():
        m.record(4)
        yield env.timeout(10)

    env.process(proc())
    env.run()
    assert m.integral(until=3) == pytest.approx(12)


def test_monitor_maximum():
    env = Environment()
    m = Monitor(env)
    m.record(1)
    m.record(9)
    m.record(4)
    assert m.maximum() == 9


def test_monitor_until_before_first_sample():
    env = Environment()
    m = Monitor(env)

    def proc():
        yield env.timeout(5)
        m.record(10)          # first sample only at t=5
        yield env.timeout(5)

    env.process(proc())
    env.run()
    # A window that ends strictly before any sample holds no signal.
    assert m.time_average(until=3) == 0.0
    assert m.integral(until=3) == 0.0
    # At exactly the first sample time the zero-duration fallback
    # still reports the sample value (consistent with single-sample).
    assert m.time_average(until=5) == 10
    assert m.integral(until=5) == 0.0


def test_monitor_single_sample_average():
    env = Environment()
    m = Monitor(env)
    m.record(7)
    # No duration elapsed -> average falls back to the sample value.
    assert m.time_average() == 7

