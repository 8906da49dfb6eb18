"""Measurement probes for simulation models.

:class:`Monitor` accumulates ``(time, value)`` samples and computes
time-weighted statistics — used for link utilisation, queue depths and
power draw.  Structured event tracing lives in :mod:`repro.obs`.
"""

from __future__ import annotations

from repro.sim.core import Environment


class Monitor:
    """Piecewise-constant signal sampled against the simulated clock."""

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, value: float) -> None:
        """Record *value* effective from the current simulated time."""
        self.times.append(self.env.now)
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last(self) -> float:
        """Most recently recorded value (0.0 if nothing recorded)."""
        return self.values[-1] if self.values else 0.0

    def time_average(self, until: float | None = None) -> float:
        """Time-weighted mean of the signal from first sample to *until*.

        An *until* strictly before the first sample means no part of
        the signal is in the window, so the average is 0.0 (matching
        :meth:`integral`); ``until == first sample time`` keeps the
        zero-duration fallback of returning the sample value.
        """
        if not self.values:
            return 0.0
        end = self.env.now if until is None else until
        if end < self.times[0]:
            return 0.0
        total = 0.0
        duration = 0.0
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            t_next = self.times[i + 1] if i + 1 < len(self.times) else end
            t_next = min(t_next, end)
            if t_next <= t:
                continue
            total += v * (t_next - t)
            duration += t_next - t
        return total / duration if duration > 0 else self.values[0]

    def integral(self, until: float | None = None) -> float:
        """Integral of the signal over time (e.g. power -> energy)."""
        if not self.values:
            return 0.0
        end = self.env.now if until is None else until
        total = 0.0
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            t_next = self.times[i + 1] if i + 1 < len(self.times) else end
            t_next = min(t_next, end)
            if t_next > t:
                total += v * (t_next - t)
        return total

    def maximum(self) -> float:
        """Largest recorded value (0.0 if nothing recorded)."""
        return max(self.values) if self.values else 0.0
