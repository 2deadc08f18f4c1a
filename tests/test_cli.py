"""Tests for the command-line interface."""

import dataclasses

import pytest

import repro.cluster
import repro.serve
from repro.cli import build_parser, main
from repro.scenario import ScenarioRun


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_datasets_command(capsys):
    rc, out = run_cli(capsys, "datasets", "--scale", "0.1")
    assert rc == 0
    assert "papers100m-mini" in out
    assert "mag240m-mini" in out
    assert "tiny" not in out


def test_datasets_all_includes_tiny(capsys):
    rc, out = run_cli(capsys, "datasets", "--scale", "0.1", "--all")
    assert rc == 0
    assert "tiny" in out


def test_run_command(capsys):
    rc, out = run_cli(capsys, "run", "gnndrive-gpu", "--dataset", "tiny",
                      "--scale", "1.0", "--batch-size", "20",
                      "--epochs", "1", "--eval")
    assert rc == 0
    assert "gnndrive-gpu on tiny" in out
    assert "epoch" in out


def test_run_command_reports_failure(capsys):
    # A 1-paper-GB host cannot hold Ginex's default-fraction caches and
    # feature working set for this batch size.
    rc, out = run_cli(capsys, "run", "ginex", "--dataset", "tiny",
                      "--scale", "1.0", "--batch-size", "200",
                      "--host-gb", "0.05", "--epochs", "1")
    assert rc == 1
    assert "OOM" in out


def test_compare_command_subset(capsys):
    rc, out = run_cli(capsys, "compare", "--dataset", "tiny",
                      "--scale", "1.0", "--batch-size", "20",
                      "--epochs", "1",
                      "--systems", "gnndrive-gpu", "pyg+")
    assert rc == 0
    assert "gnndrive-gpu" in out and "pyg+" in out
    assert "vs first" in out


def test_experiment_unknown_name(capsys):
    rc, out = run_cli(capsys, "experiment", "fig99")
    assert rc == 2
    assert "unknown experiment" in out


def test_experiment_tab1(capsys):
    rc, out = run_cli(capsys, "experiment", "tab1")
    assert rc == 0
    assert "Reproduced Table 1" in out


def test_fio_command(capsys):
    rc, out = run_cli(capsys, "experiment", "figB1")
    assert rc == 0
    assert "sync bandwidth" in out


@pytest.mark.parametrize("command", ["oracle", "fio"])
def test_removed_commands_are_unknown(command, capsys):
    """``repro oracle`` and ``repro fio`` forked ``repro bench oracle``
    and ``repro experiment figB1``; both are gone."""
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv,message", [
    (["serve", "--replicas", "0"], "serve: num_replicas must be >= 1"),
    (["run", "pyg+", "--dataset", "tiny", "--batch-size", "0"],
     "run: batch_size must be >= 1, got 0"),
    (["run", "gnndrive-gpu", "--seed", "-1"], "run: seed must be >= 0, got -1"),
    (["serve", "--seed", "-1"], "serve: seed must be >= 0, got -1"),
    (["cluster", "--seed", "-1"], "cluster: seed must be >= 0, got -1"),
], ids=["serve-replicas", "run-batch-size", "run-seed", "serve-seed",
        "cluster-seed"])
def test_invalid_value_is_a_usage_error(capsys, argv, message):
    """A value the configuration rejects exits 2 with its message, like
    argparse's usage errors, not 1 like a failed run; a given batch size
    reaches the check even when it is 0."""
    rc, out = run_cli(capsys, *argv)
    assert rc == 2
    assert message in out


def test_cluster_has_no_kind_flag(capsys):
    """The cluster router runs open-loop Poisson arrivals only."""
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--kind", "trace"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kind trace" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro serve / repro cluster: the shared request-run report
# ----------------------------------------------------------------------
#: command -> (module and name of the scenario function it calls, the
#: flags of a tiny clean run, sets of conflicting fault flags)
REQUEST_COMMANDS = {
    "serve": (repro.serve, "run_serve_scenario", ["--requests", "20"],
              [["--chaos", "--replica-chaos"],
               ["--replica-chaos", "--faults", "plan.json"]]),
    "cluster": (repro.cluster, "run_cluster_scenario",
                ["--requests", "60"],
                [["--shard-chaos", "--faults", "plan.json"]]),
}

#: A completed run broken three ways, and what the report prints for it.
BROKEN_RUNS = {
    "oom": (lambda run: ScenarioRun("OOM", error="OOM on host memory: "
                                                 "planted"),
            "OOM (OOM on host memory: planted)"),
    "finding": (lambda run: dataclasses.replace(
                    run, findings=["[leak] host: planted"]),
                "sanitizer finding: [leak] host: planted"),
    "accounting": (lambda run: dataclasses.replace(
                       run, stats=dataclasses.replace(
                           run.stats, offered=run.stats.offered + 1)),
                   "accounting violation: "),
}


@pytest.mark.parametrize("command,flags", [
    ("serve", []),
    ("cluster", []),
    ("serve", ["--kind", "closed"]),
    ("cluster", ["--rate-shape", "diurnal"]),
    ("cluster", ["--rate-shape", "flash"]),
], ids=["serve", "cluster", "serve-closed", "cluster-diurnal",
        "cluster-flash"])
def test_request_command_clean_run(capsys, command, flags):
    rc, out = run_cli(capsys, command, *REQUEST_COMMANDS[command][2],
                      *flags)
    assert rc == 0
    for row in ("offered", "SLO attainment", "p99 latency (ms)"):
        assert row in out


def test_closed_loop_title_names_its_clients_and_no_rate(capsys):
    """The closed loop paces itself by completions, so --rate changes
    neither its run nor its title."""
    titles = []
    for rate in ("5", "500"):
        rc, out = run_cli(capsys, "serve", "--kind", "closed",
                          "--requests", "20", "--rate", rate)
        assert rc == 0
        titles.append(out.splitlines()[0])
    assert titles[0] == titles[1]
    assert "closed-loop clients" in titles[0]
    assert "req/s" not in titles[0]


@pytest.mark.parametrize("broken", BROKEN_RUNS)
@pytest.mark.parametrize("command", REQUEST_COMMANDS)
def test_request_command_fails_on_a_broken_run(capsys, monkeypatch,
                                               command, broken):
    module, name, flags, _ = REQUEST_COMMANDS[command]
    real = getattr(module, name)
    breaks, expected = BROKEN_RUNS[broken]
    monkeypatch.setattr(module, name,
                        lambda scenario: breaks(real(scenario)))
    rc, out = run_cli(capsys, command, *flags)
    assert rc == 1
    assert expected in out


@pytest.mark.parametrize("command,flags", [
    (command, flags) for command, spec in REQUEST_COMMANDS.items()
    for flags in spec[3]])
def test_request_command_rejects_conflicting_fault_flags(capsys, command,
                                                         flags):
    rc, out = run_cli(capsys, command, *flags)
    assert rc == 2
    assert "pick at most one of" in out
