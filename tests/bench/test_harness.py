"""Tests for the benchmark harness, tables and CLI."""

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.figures import FIGURES, baseline_rates, fig5
from repro.bench.harness import (
    RAID_PROFILE,
    SMMP_PROFILE,
    ExperimentProfile,
    RunResult,
    run_cell,
    scaled,
)
from repro.bench.tables import render_fig5, render_results, render_series
from repro.apps.pingpong import build_pingpong


class TestScaled:
    def test_scales_and_floors(self):
        assert scaled(1000, 0.15) == 150
        assert scaled(1000, 0.0001) == 1
        assert scaled(10, 1.0) == 10


class TestProfiles:
    def test_profile_builds_config(self):
        config = SMMP_PROFILE.config(seed=3)
        assert config.network.seed == 3
        assert config.network.jitter == SMMP_PROFILE.jitter
        assert config.lp_speed_factors == SMMP_PROFILE.speed_factors

    def test_overrides_win(self):
        config = RAID_PROFILE.config(gvt_period=123.0, events_per_turn=4)
        assert config.gvt_period == 123.0
        assert config.events_per_turn == 4

    def test_profiles_differ(self):
        assert SMMP_PROFILE.speed_factors != RAID_PROFILE.speed_factors


class TestRunCell:
    def test_replicates_average(self):
        profile = ExperimentProfile("t", speed_factors={1: 1.2}, jitter=0.3)
        result = run_cell("pp", 1.0, lambda: build_pingpong(60), profile,
                          replicates=3)
        assert isinstance(result, RunResult)
        assert result.replicates == 3
        assert result.committed_events == 60
        assert result.execution_time_us > 0
        assert result.stddev_us >= 0
        assert result.wall_seconds > 0

    def test_stat_hook_collects_extra(self):
        profile = ExperimentProfile("t", speed_factors={}, jitter=0.0)
        result = run_cell(
            "pp", 0.0, lambda: build_pingpong(10), profile, replicates=1,
            stat_hook=lambda sim, stats: {"lps": len(sim.lps)},
        )
        assert result.extra == {"lps": 2}


class TestTables:
    def _result(self, label, x, t=1.5e6, **extra):
        return RunResult(label=label, x=x, execution_time_us=t, stddev_us=1e4,
                         replicates=2, committed_events=10,
                         committed_per_second=1000.0, rollbacks=3.0,
                         physical_messages=7.0, wall_seconds=0.1, extra=extra)

    def test_render_results(self):
        text = render_results([self._result("a", 1.0)], "Title")
        assert "Title" in text
        assert "1.500" in text

    def test_render_fig5(self):
        rows = [self._result("SMMP/PC+AC", 0, normalized=1.0),
                self._result("SMMP/DYN+LC", 0, t=1.2e6, normalized=1.25)]
        text = render_fig5(rows)
        assert "1.250" in text and "SMMP" in text

    def test_render_series_with_constant(self):
        rows = [
            self._result("Unaggregated", 0.0, t=2.0e6),
            self._result("FAW", 10.0, t=1.5e6),
            self._result("FAW", 20.0, t=1.0e6),
        ]
        text = render_series(rows, "w", "T")
        assert "Unaggregated: 2.000 s (constant)" in text
        lines = text.splitlines()
        assert any(line.strip().startswith("10") for line in lines)


class TestFiguresRegistry:
    def test_all_figures_registered(self):
        assert set(FIGURES) == {"5", "6", "7", "8", "9", "baseline"}

    def test_baseline_tiny_run(self):
        results = baseline_rates(scale=0.01, replicates=1)
        assert {r.label for r in results} == {"SMMP baseline", "RAID baseline"}
        for r in results:
            assert r.committed_events > 0

    def test_fig5_tiny_run_annotates_normalized(self):
        results = fig5(scale=0.01, replicates=1)
        assert all("normalized" in r.extra for r in results)


class TestCLI:
    def test_requires_a_target(self, capsys):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_runs_baseline(self, capsys):
        rc = cli_main(["figures", "--fig", "baseline", "--scale", "0.01",
                       "--replicates", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SMMP baseline" in out
        assert "ev/s" in out

    def test_unknown_fig_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["figures", "--fig", "42"])

    def test_json_dump(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        rc = cli_main(["figures", "--fig", "baseline", "--scale", "0.01",
                       "--replicates", "1", "--json", str(path)])
        assert rc == 0
        import json

        data = json.loads(path.read_text())
        assert "baseline" in data
        labels = {row["label"] for row in data["baseline"]}
        assert labels == {"SMMP baseline", "RAID baseline"}
        assert all("execution_time_us" in row for row in data["baseline"])

    def test_ablation_entry(self, capsys):
        rc = cli_main(["figures", "--ablation", "control-period",
                       "--scale", "0.02", "--replicates", "1"])
        assert rc == 0
        assert "A3" in capsys.readouterr().out
