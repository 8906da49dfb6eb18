"""Tests for the assembled Myriad 2 chip model."""

import pytest

from repro.errors import AllocationError, SimulationError
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.sim import Environment
from repro.vpu import Myriad2, Myriad2Config, compile_graph


@pytest.fixture(scope="module")
def micro_graph():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_graph(net)


def test_config_validation():
    with pytest.raises(SimulationError):
        Myriad2Config(num_shaves=0)
    with pytest.raises(SimulationError):
        Myriad2Config(num_shaves=13)


def test_chip_construction_defaults():
    env = Environment()
    chip = Myriad2(env)
    assert len(chip.shaves) == 12
    assert chip.cmx.capacity == 2 * 1024 ** 2
    assert chip.islands.count == 20
    assert chip.islands.is_on("risc0")  # runtime scheduler island


def test_inference_advances_clock_by_estimate(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    done = env.run(until=chip.run_inference(micro_graph))
    assert env.now == pytest.approx(micro_graph.inference_seconds)
    assert chip.inferences_completed == 1
    # Per-layer times returned like NCAPI TIME_TAKEN.
    assert isinstance(done, dict)
    assert len(done) == len(micro_graph.layers)
    assert sum(done.values()) == pytest.approx(env.now)


def test_inferences_serialise_on_shave_array(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)

    def both():
        a = chip.run_inference(micro_graph)
        b = chip.run_inference(micro_graph)
        yield a & b

    env.run(until=env.process(both()))
    assert env.now == pytest.approx(2 * micro_graph.inference_seconds)


def test_graph_allocation_reserves_ddr(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    before = chip.ddr.free
    handle = chip.allocate_graph(micro_graph)
    assert chip.ddr.free < before
    chip.deallocate_graph(handle)
    assert chip.ddr.free == before
    with pytest.raises(AllocationError):
        chip.deallocate_graph(handle)


def test_graph_shave_mismatch_rejected(micro_graph):
    env = Environment()
    chip = Myriad2(env, Myriad2Config(num_shaves=4))
    # micro_graph was compiled for 12 SHAVEs.
    with pytest.raises(AllocationError):
        chip.allocate_graph(micro_graph)


def test_shave_utilization_recorded(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    env.run(until=chip.run_inference(micro_graph))
    utils = chip.shave_utilization()
    assert len(utils) == 12
    assert utils[0] > 0  # shave0 participates in every layer


def test_power_islands_gate_around_inference(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    env.run(until=chip.run_inference(micro_graph))
    # After the run, SHAVEs are gated again.
    assert not chip.islands.is_on("shave0")
    # Energy was consumed during the inference window.
    assert chip.islands.energy_joules() > 0


def test_energy_scales_with_inference_count(micro_graph):
    def run(n):
        env = Environment()
        chip = Myriad2(env)
        chip.allocate_graph(micro_graph)

        def proc():
            for _ in range(n):
                yield chip.run_inference(micro_graph)

        env.run(until=env.process(proc()))
        return chip.islands.energy_joules()

    assert run(4) == pytest.approx(4 * run(1), rel=0.05)


def test_ddr_traffic_accounted_for_spilled_layers(micro_graph):
    env = Environment()
    chip = Myriad2(env)
    chip.allocate_graph(micro_graph)
    env.run(until=chip.run_inference(micro_graph))
    spilled = [l for l in micro_graph.layers if not l.tile_plan.fits_cmx]
    if spilled:
        assert chip.dma.bytes_moved > 0
    else:
        assert chip.dma.bytes_moved == 0
