"""The Myriad 2 chip model.

Assembles the component models — SHAVE array, CMX, DDR, DMA, SIPP,
power islands — and exposes the operation the NCS device model needs:
run one compiled-graph inference as a DES process, with per-layer
timing, SHAVE utilisation accounting and power-island gating.

A compiled graph's schedule is fixed, so an inference is not simulated
layer by layer.  Its :class:`~repro.vpu.compiler.compile.ExecutionSummary`
(per-layer seconds, SHAVE and DMA counter increments, cached on the
graph) is folded ahead of time; the inference waits on one kernel event
at the exact float the per-layer timeout chain would have reached, and
the SHAVE/DMA counters are credited when it completes.  A run stopped
mid-inference therefore sees none of that inference's counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.errors import AllocationError, SimulationError
from repro.sim.core import Environment, Event
from repro.sim.resources import Resource
from repro.units import MHZ
from repro.vpu.clock import Clock
from repro.vpu.cmx import CMXMemory, CMX_SLICE_BYTES, CMX_SLICES
from repro.vpu.compiler.compile import CompiledGraph
from repro.vpu.ddr import DDRChannel
from repro.vpu.dma import DMAEngine
from repro.vpu.power_islands import PowerIslands
from repro.vpu.shave import ShaveConfig, ShaveProcessor
from repro.vpu.sipp import SIPPPipeline


@dataclass(frozen=True)
class Myriad2Config:
    """Chip-level configuration (MA2450 defaults)."""

    num_shaves: int = 12
    freq_hz: float = 600 * MHZ
    cmx_slices: int = CMX_SLICES
    cmx_slice_bytes: int = int(CMX_SLICE_BYTES)
    shave: ShaveConfig = ShaveConfig()

    def __post_init__(self) -> None:
        if not 1 <= self.num_shaves <= 12:
            raise SimulationError(
                f"Myriad 2 has 1-12 SHAVEs, got {self.num_shaves}")


class Myriad2:
    """One Myriad 2 VPU bound to a simulation environment."""

    def __init__(self, env: Environment,
                 config: Myriad2Config | None = None,
                 name: str = "myriad2") -> None:
        self.env = env
        self.config = config or Myriad2Config()
        self.name = name
        self.clock = Clock(self.config.freq_hz)
        self.shaves = [ShaveProcessor(i, self.config.shave)
                       for i in range(self.config.num_shaves)]
        self.cmx = CMXMemory(self.config.cmx_slices,
                             self.config.cmx_slice_bytes)
        self.ddr = DDRChannel()
        self.dma = DMAEngine(self.ddr)
        self.dma.bind(env)
        self.sipp = SIPPPipeline(self.config.freq_hz)
        self.sipp.bind(env)
        self.islands = PowerIslands(env)
        self.islands.power_on("risc0")  # runtime scheduler always up
        # The SHAVE array runs one graph at a time (the NCS runtime
        # scheduler serialises executions).
        self._shave_array = Resource(env, capacity=1)
        self.inferences_completed = 0
        #: Islands an inference on ``n`` SHAVEs ungates, indexed by n.
        self._island_groups = [
            tuple(f"shave{i}" for i in range(n)) + ("cmx", "ddr_if")
            for n in range(self.config.num_shaves + 1)]
        self._graph_handles: dict[int, int] = {}
        self._next_handle = 1

    # -- graph lifecycle ----------------------------------------------------
    def allocate_graph(self, graph: CompiledGraph) -> int:
        """Reserve DDR for the graph's weights; returns a handle."""
        if graph.num_shaves > self.config.num_shaves:
            raise AllocationError(
                f"graph compiled for {graph.num_shaves} SHAVEs but chip "
                f"has {self.config.num_shaves}")
        if abs(graph.freq_hz - self.config.freq_hz) > 1.0:
            # Dispatch/memory cycle counts were baked at compile time
            # for a specific clock; running them on a different clock
            # silently mis-times seconds-based costs.
            raise AllocationError(
                f"graph compiled for {graph.freq_hz / 1e6:.0f} MHz but "
                f"chip runs at {self.config.freq_hz / 1e6:.0f} MHz")
        nbytes = graph.weight_bytes_total + graph.input_tensor_bytes * 2
        self.ddr.alloc(nbytes)
        handle = self._next_handle
        self._next_handle += 1
        self._graph_handles[handle] = nbytes
        return handle

    def deallocate_graph(self, handle: int) -> None:
        """Release a graph's DDR reservation."""
        try:
            nbytes = self._graph_handles.pop(handle)
        except KeyError:
            raise AllocationError(
                f"unknown graph handle {handle}") from None
        self.ddr.release(nbytes)

    # -- inference --------------------------------------------------------------
    def run_inference(self, graph: CompiledGraph) -> Event:
        """Execute one inference as a DES process.

        The process waits for the SHAVE array, ungates the SHAVE, CMX
        and DDR-interface islands in one step, waits on a single kernel
        event at the inference's completion time, then credits the
        SHAVE and DMA counters and gates the islands again.  Its event
        value is a dict of per-layer seconds in schedule order (NCAPI
        ``TIME_TAKEN`` analogue).
        """
        return self.env.process(self._inference(graph))

    def _inference(self, graph: CompiledGraph
                   ) -> Generator[Event, None, dict[str, float]]:
        with self._shave_array.request() as req:
            yield req
            used = min(graph.num_shaves, len(self.shaves))
            summary = graph.execution_summary(used, self.clock.freq_hz)
            group = self._island_groups[used]
            self.islands.set_group(group, True)
            try:
                yield self.env.timeout_at(
                    summary.finish_time(self.env.now))
                for shave, (cycles, runs) in zip(self.shaves,
                                                 summary.shave_credits):
                    shave.busy_cycles += cycles
                    shave.kernels_run += runs
                self.dma.transfers += summary.dma_transfers
                self.dma.bytes_moved += summary.dma_bytes
            finally:
                self.islands.set_group(group, False)
            self.inferences_completed += 1
            return dict(summary.per_layer)

    # -- misc ----------------------------------------------------------------------
    def shave_utilization(self) -> list[float]:
        """Busy fraction of each SHAVE over the elapsed simulation."""
        total = self.clock.to_cycles(self.env.now)
        return [s.utilization(int(total)) for s in self.shaves]
