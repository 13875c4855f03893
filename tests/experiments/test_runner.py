"""Tests for the experiment registry (quick mode)."""

import os

import pytest

from repro.config import RunConfig
from repro.experiments.runner import (
    EXPERIMENT_FAMILIES,
    EXPERIMENTS,
    ExperimentOutput,
    main,
    run_experiment,
)
from repro.experiments.tables import fmt_ms, fmt_pct, render_table

QUICK = RunConfig(quick=True)


def test_registry_covers_every_table_and_figure():
    assert set(EXPERIMENTS) == {
        "table1", "table4", "table5", "table6",
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10_11",
        "fault_matrix", "fleet", "serverless", "overcommit",
    }


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("table99")


@pytest.mark.parametrize("name", ["table1", "table6", "fig3", "fig4"])
def test_quick_experiments_produce_tables(name):
    out = run_experiment(name, QUICK)
    assert isinstance(out, ExperimentOutput)
    assert out.rows
    assert out.headers
    assert name in out.experiment
    assert out.text.count("\n") >= len(out.rows)


def test_table4_accuracy_in_quick_mode():
    out = run_experiment("table4", QUICK)
    for row in out.rows:
        assert float(row[3]) > 90.0
        assert float(row[6]) > 90.0


def test_table5_pinned_quick_values():
    """Pin the quick-mode Table Vb rows: the per-metric normalization must
    not drift (guards the dead-code cleanup and the fused MMU rewrite)."""
    out = run_experiment("table5", QUICK)
    assert out.rows == [
        ["m15_clear_refs", "0.0", "0.1", "0.3", "2.234"],
        ["m16_pt_walk_user", "2.0", "14.5", "82.3", "594.187"],
        ["m5_pf_kernel", "0.0", "0.3", "3.3", "33.580"],
        ["m6_pf_user", "2.5", "27.3", "347.1", "3,483.000"],
        ["m18_rb_copy", "0.0", "0.0", "0.0", "0.671"],
        ["m17_reverse_map", "5.9", "24.6", "255.7", "15,738.000"],
    ]


def test_cli_main_runs_one(capsys):
    assert main(["table6", "--quick"]) == 0
    captured = capsys.readouterr()
    assert "Table VI" in captured.out


def test_experiment_families_partition_registry():
    flat = [n for family in EXPERIMENT_FAMILIES for n in family]
    assert sorted(flat) == sorted(EXPERIMENTS)
    assert len(flat) == len(set(flat))


def test_cli_jobs_output_matches_serial(capsys):
    """--jobs must not change output content or ordering, and workers get
    the non-default configuration by argument (main sets no env var)."""
    argv = ["all", "--quick", "--hosts", "4", "--vms", "4",
            "--instances", "120", "--overcommit-ratio", "1.0,2.5"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert "(4 hosts, seed 7)" in serial
    assert "Serverless churn: 120 instances" in serial
    assert main(argv + ["--jobs", "4"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial


def _assert_rejected(monkeypatch, capsys, experiment, flags, field):
    """``main`` exits 2 naming ``field`` and never calls the experiment."""
    def boom(config):
        raise AssertionError(f"{experiment} ran despite a bad configuration")

    monkeypatch.setitem(EXPERIMENTS, experiment, boom)
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--quick", *flags])
    assert exc.value.code == 2
    assert field in capsys.readouterr().err


def test_cli_rejects_bad_jobs(monkeypatch, capsys):
    _assert_rejected(monkeypatch, capsys, "table6", ["--jobs", "0"], "--jobs")


@pytest.mark.parametrize(
    "experiment, flags, field",
    [
        ("fleet", ["--hosts", "1"], "fleet_hosts"),
        ("fleet", ["--vms", "0"], "fleet_vms"),
        ("serverless", ["--instances", "0"], "serverless_instances"),
        ("overcommit", ["--overcommit-ratio", "0.5"], "overcommit_ratios"),
        ("overcommit", ["--overcommit-ratio", "abc"], "overcommit_ratios"),
        ("overcommit", ["--overcommit-ratio", ","], "overcommit_ratios"),
    ],
)
def test_cli_rejects_bad_config(monkeypatch, capsys, experiment, flags, field):
    _assert_rejected(monkeypatch, capsys, experiment, flags, field)


@pytest.mark.parametrize(
    "name, value", [("REPRO_VCPUS", "0"), ("REPRO_EXPERIMENT_CACHE", "maybe")]
)
def test_cli_rejects_bad_environment_switch(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    _assert_rejected(monkeypatch, capsys, "table1", [], name)


def test_cli_leaves_environment_unchanged(capsys):
    before = dict(os.environ)
    assert main(["fleet", "--quick", "--hosts", "4", "--vms", "4"]) == 0
    capsys.readouterr()
    assert dict(os.environ) == before


def test_cli_metrics_prints_registry(capsys):
    assert main(["table6", "--quick", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "Observability metrics" in out
    assert "Table VI" in out


def test_cli_metrics_tables_match_plain(capsys):
    """--metrics observes; it must not change the experiment tables."""
    assert main(["table6", "--quick"]) == 0
    plain = capsys.readouterr().out
    assert main(["table6", "--quick", "--metrics"]) == 0
    with_metrics = capsys.readouterr().out
    assert with_metrics.startswith(plain.rstrip("\n"))


def test_cli_metrics_trace_out(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert main(["table6", "--quick", "--metrics",
                 "--trace-out", str(out)]) == 0
    capsys.readouterr()
    from repro.obs.trace import TraceBuffer

    buf = TraceBuffer.read_jsonl(out)
    assert buf.to_jsonl() == out.read_text()


def test_cli_trace_out_requires_metrics():
    with pytest.raises(SystemExit):
        main(["table6", "--quick", "--trace-out", "/tmp/x.jsonl"])


def test_render_table_alignment():
    text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], "T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert all(len(line) == len(lines[1]) for line in lines[1:])


def test_formatters():
    assert fmt_ms(1500.0) == "1.5"
    assert fmt_pct(42.4) == "42"
