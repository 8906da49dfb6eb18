#!/usr/bin/env python3
"""Edge streaming — live camera inference on NCS sticks.

The VPU was built "to accelerate computer vision applications on the
edge" (paper §II-A); the paper's HPC study measures batch throughput,
but an edge deployment is judged on *sustained fps, frame drops and
end-to-end latency*.  This example streams a simulated camera at
several frame rates into 1-8 sticks running paper-scale GoogLeNet and
reports those numbers — including the knee where the rig stops keeping
up and starts dropping frames.

The camera is a constant-rate trace (one frame every ``1 / fps``
seconds) served open-loop by :class:`~repro.serve.InferenceServer`,
one backend per stick, so a full queue turns frames away at the door
(``reject-newest``) instead of stalling the camera.

Run:  python examples/edge_streaming.py
"""

from repro.harness.experiment import paper_timing_graph
from repro.ncsw import IntelVPU
from repro.serve import InferenceServer, TraceWorkload


def stream(devices: int, fps: float, frames: int = 240,
           queue_depth: int = 4):
    graph = paper_timing_graph()
    server = InferenceServer(queue_depth=queue_depth, slo_seconds=None)
    for i in range(devices):
        server.add_target(f"ncs{i}", IntelVPU(graph=graph, num_devices=1,
                                              functional=False))
    camera = TraceWorkload([i / fps for i in range(frames)])
    return server.run(camera, frames)


def main() -> None:
    print("live streaming of paper-scale GoogLeNet "
          "(~10 fps per stick capacity):\n")
    print(f"{'sticks':>6} {'offered':>9} {'sustained':>10} "
          f"{'drops':>7} {'p50 ms':>8} {'p95 ms':>8}")
    for devices, fps in [(1, 5), (1, 10), (1, 30),
                         (4, 30), (4, 60),
                         (8, 60), (8, 90)]:
        r = stream(devices, fps)
        print(f"{devices:>6} {fps:>7.0f}Hz {r.throughput:>9.1f}f "
              f"{r.loss_rate:>6.1%} {r.p50 * 1000:>8.1f} "
              f"{r.p95 * 1000:>8.1f}")

    print("\nqueue-depth trade-off (1 stick, 30 Hz offered):")
    for depth in (1, 2, 4, 8):
        r = stream(1, 30, queue_depth=depth)
        print(f"  depth {depth}: {r.loss_rate:5.1%} dropped, "
              f"p95 latency {r.p95 * 1000:7.1f} ms")
    print("\n(deeper queues trade latency for fewer drops — the "
          "classic live-pipeline knob)")


if __name__ == "__main__":
    main()
