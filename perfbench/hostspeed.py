"""Host-speed reference for the benchmark's host-time metrics.

The benchmark's host metrics (``setup_s``, ``host_items_per_s``) are
reported at a nominal host speed.  Each timing is scaled by
``REFERENCE_S`` over the time that ``reference_work``, a fixed loop that
shares no code with the program, took on the same process just before
and after it.  On a host whose speed drifts (a machine shared with other
tenants, frequency scaling) the drift cancels, while the program's own
cost still shows in full: a change that makes the program slower makes
its timing longer and leaves the reference as it was.
"""

import heapq
import statistics
import time

import numpy as np

#: Seconds ``reference_work`` is taken to last on the nominal host.
REFERENCE_S = 0.15


def reference_work() -> int:
    """Fixed work in the program's mix: generator processes resumed from
    a heap of timestamped events, dict traffic, then small BLAS calls."""
    def process(i: int):
        t = 0.0
        for k in range(20):
            t += (i * 7 + k) % 13 * 1e-3
            yield t

    heap: list = []
    seq = tally = 0
    for i in range(5000):
        gen = process(i)
        heapq.heappush(heap, (next(gen), seq, gen))
        seq += 1
    while heap:
        t, _, gen = heapq.heappop(heap)
        event = {"t": t, "seq": seq}
        tally += event["seq"] & 1
        try:
            heapq.heappush(heap, (next(gen), seq, gen))
            seq += 1
        except StopIteration:
            pass
    a = np.arange(4096, dtype=np.float32).reshape(64, 64)
    for _ in range(50):
        a = (a @ a.T) * 1e-6
    return tally


def reference_seconds(repeats: int = 1) -> float:
    """Host seconds of ``reference_work``, median of *repeats*."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
