"""Determinism contract of the CLI entry points, run in-process.

Each row runs a command twice.  Without observability flags the two
runs must print byte-identical output; with them, the plain run's
output must be a byte prefix of the observed run's output
(observability appends, it never changes the report).  ``needles``
must appear in the plain output; ``files`` maps each written file to
a string it must contain (``.json`` files must also parse).
"""

import json

import pytest

from repro.harness.cli import main

CASES = [
    pytest.param(["split-sweep", "--smoke"], [],
                 ["dominates worst single device: yes", "pareto"], {},
                 id="split-sweep"),
    pytest.param(["split-sweep", "--smoke", "--devices", "cpu+vpu2",
                  "--objective", "throughput"], [],
                 ["best cut (throughput)"], {},
                 id="split-sweep-throughput"),
    pytest.param(["cluster-sweep", "--smoke"], [], ["load sweep"], {},
                 id="cluster-sweep"),
    pytest.param(["serve-run", "--backends", "vpu2+cpu", "--requests",
                  "60", "--rate", "25", "--seed", "7"],
                 ["--metrics", "{tmp}/metrics.jsonl"], ["vpu2+cpu"],
                 {"metrics.jsonl": "split_front"},
                 id="serve-run-split"),
    pytest.param(["autoscale-run", "--smoke"],
                 ["--metrics", "{tmp}/on.jsonl"], ["scale timeline"],
                 {"on.jsonl": "cluster.scale_out"}, id="autoscale-run"),
    pytest.param(["workflow-run", "--smoke"],
                 ["--trace", "{tmp}/wf.json", "--metrics",
                  "{tmp}/wf.jsonl"],
                 ["fan-out region: crop .. aggregate", "spawned"],
                 {"wf.json": "traceEvents", "wf.jsonl": "flow"},
                 id="workflow-run"),
    pytest.param(["cluster-run", "--hosts", "2", "--requests", "60",
                  "--rate", "400", "--slo", "20000", "--seed", "7"],
                 ["--metrics", "{tmp}/on.jsonl"], ["cluster serve report"],
                 {"on.jsonl": "cluster"}, id="cluster-run"),
]


@pytest.mark.parametrize("argv, obs, needles, files", CASES)
def test_rerun_is_byte_identical(argv, obs, needles, files, tmp_path,
                                 capsys):
    assert main(argv) == 0
    plain = capsys.readouterr().out
    for needle in needles:
        assert needle in plain
    assert main(argv + [a.format(tmp=tmp_path) for a in obs]) == 0
    second = capsys.readouterr().out
    if obs:
        assert second.startswith(plain)
        assert len(second) > len(plain)
    else:
        assert second == plain
    for name, needle in files.items():
        text = (tmp_path / name).read_text()
        assert needle in text
        if name.endswith(".json"):
            json.loads(text)
