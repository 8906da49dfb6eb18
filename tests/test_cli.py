"""Tests for the experiment CLI."""

import argparse

import pytest

from repro.errors import ConfigError
from repro.harness.cli import build_parser, main, parse_backends


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig6a", "fig7b", "headline", "report", "profile"):
        assert name in out


def test_list_prints_every_subcommand_but_itself(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert [line.split()[0] for line in lines] == \
        [name for name in sub.choices if name != "list"]
    for line in lines:  # every command shows its help string
        name, text = line.split(maxsplit=1)
        assert text == sub.choices[name].description


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figZZ"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fig6b_command_renders(capsys):
    assert main(["fig6b", "--images", "32"]) == 0
    out = capsys.readouterr().out
    assert "fig6b" in out
    assert "paper reference" in out
    assert "=vpu" in out  # line chart legend


def test_fig6a_command_renders_bars(capsys):
    assert main(["fig6a", "--images", "32"]) == 0
    out = capsys.readouterr().out
    assert "Set-1" in out
    assert "#" in out  # bar chart marks


def test_headline_without_error_rows(capsys):
    assert main(["headline", "--images", "32", "--scale", "none"]) == 0
    out = capsys.readouterr().out
    assert "vpu_single_ms" in out
    assert "cpu_top1_error" not in out


def test_fig7b_smoke_scale(capsys):
    assert main(["fig7b", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "fig7b" in out


def test_profile_command(capsys):
    assert main(["profile", "--model", "googlenet-micro",
                 "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out
    assert "Convolution" in out


def test_profile_shave_option(capsys):
    assert main(["profile", "--model", "googlenet-micro",
                 "--shaves", "4", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out


def test_json_dir_option(tmp_path, capsys):
    assert main(["fig6b", "--images", "16",
                 "--json-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fig6b.json").exists()
    from repro.harness.export import load_figure_json
    fig = load_figure_json(tmp_path / "fig6b.json")
    assert fig.figure_id == "fig6b"


def test_report_markdown_option(tmp_path, capsys):
    md_path = tmp_path / "report.md"
    assert main(["report", "--images", "16", "--scale", "none",
                 "--markdown", str(md_path)]) == 0
    text = md_path.read_text()
    assert text.startswith("# Reproduction report")
    assert "## fig6a" in text and "## fig8b" in text
    assert "| metric | paper | measured | ratio |" in text


def test_trace_option_writes_chrome_trace(tmp_path, capsys):
    import json

    trace = tmp_path / "fig6b.trace.json"
    assert main(["fig6b", "--images", "16",
                 "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "utilisation report" in out
    assert "wrote trace" in out and "perfetto" in out
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    tracks = {e["args"]["name"] for e in events
              if e.get("ph") == "M" and e["name"] == "thread_name"}
    assert any(t.startswith("ncs") for t in tracks)
    assert "inference" in {e["name"] for e in events
                           if e.get("ph") == "X"}


def test_profile_run_command(capsys):
    assert main(["profile-run", "--target", "vpu2", "--images", "16",
                 "--batch", "4"]) == 0
    out = capsys.readouterr().out
    assert "img/s" in out
    assert "utilisation report" in out
    assert "ncs0" in out and "ncs1" in out


def test_profile_run_trace_file(tmp_path, capsys):
    import json

    trace = tmp_path / "run.json"
    assert main(["profile-run", "--target", "cpu", "--images", "8",
                 "--batch", "4", "--trace", str(trace)]) == 0
    assert json.loads(trace.read_text())["traceEvents"]


def test_audit_command(capsys):
    assert main(["audit", "--images", "48", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "claims verified" in out
    assert "vpu-single-latency" in out
    assert " NO" not in out


def test_list_mentions_serve_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "serve-run" in out and "serve-sweep" in out


def test_serve_run_command_renders_report(capsys):
    assert main(["serve-run", "--backends", "vpu4", "--requests", "24",
                 "--rate", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "serve report" in out
    assert "workload       : poisson @ 20 req/s (seed 3)" in out
    assert "completed      : 24 (100.0%)" in out
    assert "SLO p99 <=" in out
    assert "goodput" in out


def test_serve_run_is_deterministic(capsys):
    args = ["serve-run", "--backends", "vpu2", "--requests", "16",
            "--rate", "10", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_serve_run_bursty_workload(capsys):
    assert main(["serve-run", "--backends", "vpu4", "--requests", "24",
                 "--workload", "bursty", "--rate", "8"]) == 0
    out = capsys.readouterr().out
    assert "bursty" in out


def test_serve_run_kill_stick_degrades(capsys):
    assert main(["serve-run", "--backends", "vpu2", "--requests", "40",
                 "--rate", "15", "--kill-stick", "0",
                 "--kill-at", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "baseline:" in out
    assert "chaos: kill stick 0" in out
    assert "device failures: ncs0" in out


def test_serve_run_replay_trace(tmp_path, capsys):
    trace = tmp_path / "arrivals.txt"
    trace.write_text("".join(f"{0.2 * i:.3f}\n" for i in range(12)))
    assert main(["serve-run", "--backends", "vpu2",
                 "--workload", "replay", "--replay", str(trace),
                 "--requests", "12"]) == 0
    out = capsys.readouterr().out
    assert "trace replay (12 arrivals)" in out


def test_serve_sweep_scales_with_sticks(capsys):
    assert main(["serve-sweep", "--configs", "vpu1,vpu2",
                 "--steps", "2", "--requests", "24"]) == 0
    out = capsys.readouterr().out
    assert "load sweep" in out
    assert "vpu1" in out and "vpu2" in out
    assert "1.00x" in out


def test_list_mentions_cluster_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "cluster-run" in out and "cluster-sweep" in out


def test_cluster_run_command_renders_report(capsys):
    args = ["cluster-run", "--hosts", "2", "--requests", "24",
            "--rate", "40", "--slo", "5000", "--seed", "2"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "cluster serve report" in out
    assert "hosts           : 2 (2 live at end)" in out
    assert "poisson @ 40 req/s (seed 2)" in out
    assert "offered         : 24" in out
    # Byte-identical on a re-run: the determinism contract.
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_cluster_run_kill_host_resurvives(capsys):
    assert main(["cluster-run", "--hosts", "2", "--requests", "40",
                 "--rate", "400", "--slo", "20000",
                 "--kill-host", "0", "--kill-at", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "baseline:" in out
    assert "chaos: kill host 0" in out
    assert "died @" in out and "survived" in out
    assert "completed       : 40" in out  # nothing lost


def test_cluster_run_hosts_split_backends(capsys):
    assert main(["cluster-run", "--hosts", "2", "--host-backends",
                 "vpu2+cpu", "--requests", "24"]) == 0
    out = capsys.readouterr().out
    assert "hosts           : 2 (2 live at end)" in out
    assert "offered         : 24" in out
    assert "host0" in out and "host1" in out


def test_cluster_sweep_smoke(capsys):
    assert main(["cluster-sweep", "--smoke", "--hosts", "1,2",
                 "--requests", "24", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "load sweep" in out
    assert "hosts=1" in out and "hosts=2" in out


def test_list_mentions_autoscale_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "autoscale-run" in out and "autoscale-sweep" in out


def test_autoscale_run_smoke_is_deterministic(capsys):
    args = ["autoscale-run", "--smoke"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "policy: reactive" in out
    assert "scale timeline" in out
    assert "host-seconds" in out
    assert "abandoned       : 0 (0 at the frontend)" in out
    # Byte-identical on a re-run: the determinism contract.
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_autoscale_run_predictive_smoke(capsys):
    assert main(["autoscale-run", "--smoke",
                 "--policy", "predictive"]) == 0
    out = capsys.readouterr().out
    assert "policy: predictive" in out
    assert "scale timeline" in out


def test_autoscale_sweep_smoke_renders_frontier(capsys):
    assert main(["autoscale-sweep", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "cost vs SLO frontier" in out
    assert "fixed-1" in out
    assert "reactive" in out and "predictive" in out
    assert "closed-loop capacity" in out


def test_list_mentions_workflow_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "workflow-run" in out and "workflow-sweep" in out


def test_workflow_run_smoke_is_deterministic(capsys):
    args = ["workflow-run", "--smoke"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "workflow cascade-micro" in out
    assert "fan-out region: crop .. aggregate" in out
    assert "== workflow report: cascade-micro ==" in out
    assert "spawned" in out and "abandoned" in out
    # Byte-identical on a re-run: the determinism contract.
    assert main(args) == 0
    assert capsys.readouterr().out == out


def test_workflow_run_escalate_smoke(capsys):
    assert main(["workflow-run", "--workflow", "escalate",
                 "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "classify-fp16" in out and "classify-fp32" in out
    assert "gate [branch]" in out


def test_workflow_run_trace_appends_only(tmp_path, capsys):
    # Observability must not change the report: the obs run's output
    # starts with the obs-off run's bytes, then appends obs extras.
    args = ["workflow-run", "--smoke", "--workflow", "ensemble"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    trace = tmp_path / "wf.json"
    assert main(args + ["--trace", str(trace)]) == 0
    traced = capsys.readouterr().out
    assert traced.startswith(plain.rstrip("\n"))
    assert "utilisation" in traced or "util" in traced
    assert trace.exists()


def test_workflow_sweep_smoke_renders_table(capsys):
    assert main(["workflow-sweep", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "cascade vs monolithic" in out
    assert "monolithic" in out
    assert "worst-case workflow loss" in out


def test_workflow_run_rejects_bad_scale(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["workflow-run", "--scale", "huge"])


def test_parse_backends_grammar():
    specs = parse_backends("cpu, gpu,vpu8,vpu4+cpu,cpu+vpu2")
    assert [(s.token, s.front, s.back, s.sticks) for s in specs] == [
        ("cpu", "cpu", None, None),
        ("gpu", "gpu", None, None),
        ("vpu8", "vpu", None, 8),
        ("vpu4+cpu", "vpu", "cpu", 4),
        ("cpu+vpu2", "cpu", "vpu", 2),
    ]
    assert [s.is_vpu for s in specs] == [False, False, True, False,
                                         False]
    for bad in ("", "tpu", "vpu", "vpu0", "vpu9", "cpu+gpu",
                "vpu2+vpu4", "vpu2+cpu+gpu"):
        with pytest.raises(ConfigError):
            parse_backends(bad, "--host-backends")


@pytest.fixture(scope="module")
def metrics_dump(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "serve.jsonl"
    assert main(["serve-run", "--backends", "vpu1", "--requests", "8",
                 "--rate", "10", "--metrics", str(path)]) == 0
    return path


# Every row is bad input: exit 2, one ``repro <command>:`` line on
# stdout, no traceback.  ``{tmp}`` is the test's scratch directory.
BAD_INPUT = [
    pytest.param(["serve-run", "--backends", "tpu9"], "unknown token",
                 id="serve-unknown-token"),
    pytest.param(["serve-run", "--kill-stick", "0", "--kill-at", "1.5"],
                 None, id="serve-kill-at"),
    pytest.param(["serve-run", "--workload", "replay"], None,
                 id="serve-replay-without-file"),
    pytest.param(["serve-run", "--backends", "vpu9"], "1-8",
                 id="serve-vpu9"),
    pytest.param(["serve-run", "--backends", "vpu0"], "1-8",
                 id="serve-vpu0"),
    pytest.param(["serve-run", "--requests", "0"], None,
                 id="serve-requests-0"),
    pytest.param(["serve-run", "--queue-depth", "0"], None,
                 id="serve-queue-depth-0"),
    pytest.param(["serve-run", "--slo", "-1"], None, id="serve-slo-neg"),
    pytest.param(["serve-run", "--rate", "0"], None, id="serve-rate-0"),
    pytest.param(["serve-run", "--backends", "vpu2", "--kill-stick",
                  "7"], "--kill-stick", id="serve-kill-stick-7"),
    pytest.param(["serve-run", "--workload", "replay", "--replay",
                  "{tmp}/missing.txt"], "FileNotFoundError",
                 id="serve-replay-missing"),
    pytest.param(["serve-run", "--trace", "{tmp}/missing/t.json"],
                 "does not exist", id="serve-trace-missing-dir"),
    pytest.param(["cluster-run", "--host-backends", "tpu9"],
                 "unknown token", id="cluster-unknown-token"),
    pytest.param(["cluster-run", "--hosts", "2", "--kill-host", "5"],
                 None, id="cluster-kill-host"),
    pytest.param(["cluster-run", "--kill-host", "0", "--kill-at", "1.5"],
                 None, id="cluster-kill-at"),
    pytest.param(["cluster-run", "--hosts", "0"], None,
                 id="cluster-hosts-0"),
    pytest.param(["trace-analyze", "{metrics}", "--window", "0"], None,
                 id="trace-analyze-window-0"),
    pytest.param(["workflow-run", "--requests", "0"], None,
                 id="workflow-requests-0"),
    pytest.param(["serve-sweep", "--steps", "0"], None,
                 id="serve-sweep-steps-0"),
    pytest.param(["chaos-run", "--devices", "9"], None,
                 id="chaos-devices-9"),
    pytest.param(["split-sweep", "--devices", "vpu4"], "<front>+<back>",
                 id="split-sweep-single-device"),
]


@pytest.mark.parametrize("argv, needle", BAD_INPUT)
def test_bad_input_exits_2(argv, needle, tmp_path, metrics_dump,
                           capsys):
    argv = [a.format(tmp=tmp_path, metrics=metrics_dump) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1, captured.out
    assert lines[0].startswith(f"repro {argv[0]}: ")
    assert "Traceback" not in captured.out + captured.err
    if needle is not None:
        assert needle in captured.out
