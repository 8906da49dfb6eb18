"""Self-test of the benchmark at reduced size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit and direction, that simulated metrics repeat exactly for a seed,
that the seed reaches the program's arrivals, and that a failed check or
a checkout without sources exits non-zero without printing metrics.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Requests (images) per unit in the self-test.
SIZE = 48


def _run(workload: str, seed: int, trace: int,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", str(SIZE)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    done = _run(workload, 3, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{m['unit']:8s} ({m['better']} is better)" in table
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    if trace and workload == "classify_precision":
        # nn/tensors/numerics self times account for Network.forward.
        note = next(line for line in lines if "Network.forward" in line)
        words = note.split()
        forward = float(words[words.index("Network.forward") + 1])
        compute = float(words[words.index("self") + 1])
        assert forward > 0 and compute == pytest.approx(forward,
                                                        abs=2e-3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_simulated_metrics_repeat_for_a_seed(name):
    outcomes = []
    for _ in range(2):
        workload = WORKLOADS[name](SIZE)
        workload.setup(5)
        outcome = workload.unit()
        workload.check(outcome)
        outcomes.append(workload.sim_metrics(outcome))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reaches_the_arrivals(name):
    arrivals = []
    for seed in (1, 2):
        workload = WORKLOADS[name](SIZE)
        workload.setup(seed)
        arrivals.append(workload.offsets)
        outcome = workload.unit()
        if name == "classify_precision":
            result, requests = outcome[3], outcome[3].requests
        else:
            result, requests = outcome, workload.requests(outcome)
        # The program saw exactly the generated offsets, rebased onto
        # its serving epoch.
        served = [r.arrival_time - result.prepare_seconds for r in
                  sorted(requests, key=lambda r: r.request_id)]
        assert served == pytest.approx(arrivals[-1][:SIZE], abs=1e-9)
    assert arrivals[0] != arrivals[1]


def test_failed_check_exits_nonzero_without_metrics(monkeypatch, capsys):
    def fail(self, outcome):
        raise CheckFailed("injected")

    monkeypatch.setattr(WORKLOADS["cluster_hetero"], "check", fail)
    code = run.main(["--workload", "cluster_hetero", "--seed", "1",
                     "--seconds", "0", "--size", str(SIZE)])
    out = capsys.readouterr().out
    assert code != 0
    assert '"metrics"' not in out


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("serve_vpu8", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
