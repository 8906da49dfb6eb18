"""Differential tests: the folded inference against the per-layer loop.

``Myriad2`` runs an inference as one kernel event, with the per-layer
seconds and the SHAVE/DMA counter increments precomputed in the
graph's :class:`~repro.vpu.compiler.compile.ExecutionSummary`.  The
reference below is the per-layer loop it replaced: one timeout per
layer, counters credited layer by layer, islands gated one at a time.
Both must agree exactly (``==``, never ``approx``) on completion
times, per-layer dicts, counters, energy and peak power.
"""

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.nn import build_googlenet, get_model
from repro.nn.weights import initialize_network
from repro.sim import Environment
from repro.vpu import Myriad2, Myriad2Config, compile_graph


class ReferenceMyriad2(Myriad2):
    """The chip model with the per-layer inference loop."""

    def _inference(self, graph):
        with self._shave_array.request() as req:
            yield req
            used = min(graph.num_shaves, len(self.shaves))
            for i in range(used):
                self.islands.power_on(f"shave{i}")
            self.islands.power_on("cmx")
            self.islands.power_on("ddr_if")

            per_layer = {}
            try:
                for sched in graph.layers:
                    seconds = self.clock.to_seconds(sched.total_cycles)
                    yield self.env.timeout(seconds)
                    per_layer[sched.name] = seconds
                    share = min(sched.assignment.shaves_used, used)
                    for i in range(share):
                        self.shaves[i].record_execution(
                            sched.timing.compute_cycles)
                    if not sched.tile_plan.fits_cmx:
                        self.dma.transfers += 1
                        self.dma.bytes_moved += (
                            sched.tile_plan.ddr_traffic_bytes)
            finally:
                for i in range(used):
                    self.islands.power_off(f"shave{i}")
                self.islands.power_off("cmx")
                self.islands.power_off("ddr_if")
            self.inferences_completed += 1
            return per_layer


@pytest.fixture(scope="module")
def networks():
    micro = get_model("googlenet-micro")
    initialize_network(micro)
    # Paper scale: zero weights, compile only needs shapes.
    return {"googlenet-micro": micro, "googlenet": build_googlenet()}


@pytest.fixture(scope="module")
def graphs(networks):
    return {(name, shaves): compile_graph(net, num_shaves=shaves)
            for name, net in networks.items() for shaves in (4, 12)}


def _drive(chip_cls, graph, chip_shaves):
    """Three competing client processes plus an unrelated ticker."""
    env = Environment()
    chip = chip_cls(env, Myriad2Config(num_shaves=chip_shaves))
    log = []

    def client(tag, start, count, gap):
        yield env.timeout(start)
        for k in range(count):
            per_layer = yield chip.run_inference(graph)
            log.append((env.now, tag, k, list(per_layer.items())))
            yield env.timeout(gap)

    def ticker():
        for k in range(40):
            yield env.timeout(0.0123 * (1 + k % 3))
            log.append((env.now, "tick", k, None))

    procs = [env.process(client("a", 0.0, 4, 0.0)),
             env.process(client("b", 0.001, 3, 0.0007)),
             env.process(client("c", 0.05, 2, 0.0)),
             env.process(ticker())]
    env.run(until=env.all_of(procs))
    return env, chip, log


def _state(env, chip):
    return {
        "now": env.now,
        "completed": chip.inferences_completed,
        "shaves": [(s.busy_cycles, s.kernels_run) for s in chip.shaves],
        "utilization": chip.shave_utilization(),
        "dma": (chip.dma.transfers, chip.dma.bytes_moved),
        "energy": chip.islands.energy_joules(),
        "peak": chip.islands.monitor.maximum(),
        "islands": {n: chip.islands.is_on(n) for n in chip.islands.islands},
    }


@pytest.mark.parametrize("model", ["googlenet-micro", "googlenet"])
@pytest.mark.parametrize("graph_shaves,chip_shaves",
                         [(12, 12), (4, 4), (12, 4)])
def test_folded_inference_matches_per_layer_loop(graphs, model,
                                                 graph_shaves,
                                                 chip_shaves):
    graph = graphs[(model, graph_shaves)]
    env, chip, log = _drive(Myriad2, graph, chip_shaves)
    ref_env, ref_chip, ref_log = _drive(ReferenceMyriad2, graph,
                                        chip_shaves)
    # Completion times, fire order and per-layer dicts (key order too).
    assert log == ref_log
    assert _state(env, chip) == _state(ref_env, ref_chip)
    assert chip.inferences_completed == 9
    assert any(busy for busy, _ in _state(env, chip)["shaves"])


@pytest.mark.parametrize("model", ["googlenet-micro", "googlenet"])
def test_dma_counters_match_on_spilling_graph(networks, model):
    # A small CMX forces some layers (not all) to stream through DDR.
    graph = compile_graph(networks[model], cmx_bytes=8 * 1024)
    spills = [not s.tile_plan.fits_cmx for s in graph.layers]
    assert any(spills) and not all(spills)
    env, chip, log = _drive(Myriad2, graph, 12)
    ref_env, ref_chip, ref_log = _drive(ReferenceMyriad2, graph, 12)
    assert log == ref_log
    assert chip.dma.transfers > 0
    assert _state(env, chip) == _state(ref_env, ref_chip)


def _events_per_inference(graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(graph)
    before = env._seq
    env.run(until=chip.run_inference(graph))
    return env._seq - before


def test_event_count_independent_of_layer_count(networks, graphs):
    micro = graphs[("googlenet-micro", 12)]
    paper = graphs[("googlenet", 12)]
    # Without ReLU fusion the same network schedules 142 layers, not 85.
    unfused = compile_graph(networks["googlenet"], fuse_relu=False)
    assert len(unfused.layers) > len(paper.layers)
    counts = {_events_per_inference(g) for g in (micro, paper, unfused)}
    assert len(counts) == 1
    assert counts.pop() < len(paper.layers)


def test_summary_cached_per_shave_count(graphs):
    graph = graphs[("googlenet-micro", 12)]
    a = graph.execution_summary(12, graph.freq_hz)
    assert graph.execution_summary(12, graph.freq_hz) is a
    b = graph.execution_summary(4, graph.freq_hz)
    assert b is not a
    assert len(b.shave_credits) == 4
    # The cache is derived data and stays out of the graph file.
    from repro.vpu import CompiledGraph
    assert CompiledGraph.from_bytes(graph.to_bytes())._summaries == {}


def test_doctored_negative_cycles_raise(graphs):
    graph = graphs[("googlenet-micro", 12)]
    first = graph.layers[0]
    bad = replace(first, timing=replace(first.timing, compute_cycles=-1))
    doctored = replace(graph, layers=[bad] + graph.layers[1:])
    env = Environment()
    chip = Myriad2(env)
    with pytest.raises(SimulationError, match="negative cycle count"):
        env.run(until=chip.run_inference(doctored))
    assert all(s.kernels_run == 0 for s in chip.shaves)
    assert not chip.islands.is_on("shave0")
