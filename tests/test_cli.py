"""Tests for the python -m repro command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv, timeout=None):
    """Run ``python -m repro`` in a subprocess; the traceback-free
    exit contract must hold for real invocations, not just main()."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestCli:
    def test_nodes_lists_library(self, capsys):
        assert main(["nodes"]) == 0
        out = capsys.readouterr().out
        assert "65nm" in out
        assert "350nm" in out

    def test_node_detail(self, capsys):
        assert main(["node", "65nm"]) == 0
        out = capsys.readouterr().out
        assert "feature_size_nm" in out
        assert "65" in out

    def test_node_accepts_bare_number(self, capsys):
        assert main(["node", "90"]) == 0
        assert "90" in capsys.readouterr().out

    def test_unknown_node_fails_cleanly(self, capsys):
        assert main(["node", "7nm"]) == 1
        assert "available" in capsys.readouterr().err

    def test_scorecard(self, capsys):
        assert main(["scorecard"]) == 0
        out = capsys.readouterr().out
        assert "benefit_vs_prev" in out
        assert "sync_region_mm" in out

    def test_leakage_with_options(self, capsys):
        assert main(["leakage", "--gates", "1000",
                     "--frequency", "5e8"]) == 0
        assert "leakage_fraction" in capsys.readouterr().out

    def test_figures_index(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "tab_body_bias" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestChainYieldCommand:
    def test_smoke_table(self, capsys):
        assert main(["chain-yield", "--dies", "8",
                     "--nodes", "350nm,65nm"]) == 0
        out = capsys.readouterr().out
        assert "yield_fraction" in out
        assert "350nm" in out
        assert "65nm" in out

    def test_scalar_path_agrees(self, capsys):
        assert main(["chain-yield", "--dies", "4",
                     "--nodes", "65nm"]) == 0
        fast = capsys.readouterr().out
        assert main(["chain-yield", "--dies", "4",
                     "--nodes", "65nm", "--scalar"]) == 0
        slow = capsys.readouterr().out
        assert fast == slow

    def test_spec_knobs_parsed(self, capsys):
        assert main(["chain-yield", "--dies", "4", "--nodes", "350nm",
                     "--enob-min", "12"]) == 0
        out = capsys.readouterr().out
        # 12 ENOB from an 8-bit chain: everything fails
        assert " 0 " in out or " 0\n" in out or " 0 |" in out \
            or "0 |" in out

    def test_unknown_node_fails_cleanly(self, capsys):
        assert main(["chain-yield", "--nodes", "7nm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_bad_dies_value_is_typed(self, capsys):
        assert main(["chain-yield", "--dies", "0",
                     "--nodes", "65nm"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCliHardening:
    def test_unknown_subcommand_exits_cleanly(self):
        result = run_cli("frobnicate")
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert "invalid choice" in result.stderr

    def test_unknown_node_subprocess_one_liner(self):
        result = run_cli("node", "7nm")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:")
        assert "available" in result.stderr

    def test_strict_flag_accepted_on_clean_run(self, capsys):
        assert main(["--strict", "nodes"]) == 0
        assert "65nm" in capsys.readouterr().out

    def test_out_of_calibration_warns_but_succeeds(self, capsys):
        from repro.robust import ModelDomainWarning
        with pytest.warns(ModelDomainWarning, match="calibrated"):
            assert main(["leakage", "--temperature", "700"]) == 0

    def test_strict_promotes_warning_to_error(self, capsys):
        assert main(["--strict", "leakage",
                     "--temperature", "700"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (strict):")
        assert "calibrated" in err


class TestSocNoiseCommand:
    def test_smoke_table(self, capsys):
        assert main(["soc-noise", "--gates", "400", "--blocks", "2",
                     "--cycles", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for column in ("gates", "events", "activity", "rms_uV",
                       "p2p_uV"):
            assert column in out

    def test_chunked_streaming_accepted(self, capsys):
        assert main(["soc-noise", "--gates", "400", "--blocks", "2",
                     "--cycles", "4", "--chunk-events", "50"]) == 0
        assert "events" in capsys.readouterr().out

    def test_exhausted_budget_is_one_liner(self, capsys):
        assert main(["soc-noise", "--gates", "400", "--blocks", "2",
                     "--cycles", "4", "--event-budget", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "budget" in err


class TestYieldCommand:
    """The sharded executor behind ``python -m repro yield``: clean
    tables on success, honest degradation, traceback-free failures."""

    def test_sharded_run_prints_bounds(self, capsys):
        assert main(["yield", "--dies", "40", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        for column in ("node", "metric", "yield_fraction",
                       "wilson_low", "wilson_high", "exact_low",
                       "exact_high"):
            assert column in out

    def test_shard_count_does_not_change_the_table(self, capsys):
        from repro.perf import clear_caches
        clear_caches()
        assert main(["yield", "--dies", "40", "--shards", "1"]) == 0
        one = capsys.readouterr().out
        clear_caches()
        assert main(["yield", "--dies", "40", "--shards", "5"]) == 0
        five = capsys.readouterr().out
        assert one == five

    def test_partial_result_warns_but_succeeds(self, capsys):
        # Chaos seed 0 at crash rate 0.5 with no retries fails shard
        # 2 of 4 and spares the rest: the degraded path, pinned.
        assert main(["yield", "--dies", "40", "--shards", "4",
                     "--retries", "0", "--chaos-seed", "0",
                     "--chaos-crash", "0.5", "--chaos-hang", "0",
                     "--chaos-poison", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: partial result:")
        assert "30/40" in captured.err
        assert "wilson_low" in captured.out

    def test_strict_partial_exits_nonzero_subprocess(self):
        result = run_cli("--strict", "yield", "--dies", "40",
                         "--shards", "4", "--retries", "0",
                         "--chaos-seed", "0", "--chaos-crash", "0.5",
                         "--chaos-hang", "0", "--chaos-poison", "0")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "partial result: 30/40" in result.stderr
        assert "Traceback" not in result.stderr

    def test_all_shards_failing_is_one_liner_subprocess(self):
        result = run_cli("yield", "--dies", "40", "--shards", "4",
                         "--retries", "0", "--chaos-seed", "1",
                         "--chaos-crash", "1", "--chaos-hang", "0",
                         "--chaos-poison", "0")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "no shard completed" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_metric_is_one_liner_subprocess(self):
        result = run_cli("yield", "--metric", "sigma-vt")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "unknown yield metric" in result.stderr
        assert "Traceback" not in result.stderr

    def test_checkpoint_resume_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "ck.json")
        from repro.perf import clear_caches
        clear_caches()
        assert main(["yield", "--dies", "40", "--shards", "4",
                     "--checkpoint", path]) == 0
        first = capsys.readouterr().out
        clear_caches()
        assert main(["yield", "--dies", "40", "--shards", "4",
                     "--checkpoint", path, "--resume"]) == 0
        assert capsys.readouterr().out == first


class TestProcessBackendCommands:
    """``--backend process`` on commands whose shard payloads once
    outgrew the 64 KiB pipe buffer and hung: they finish, with the
    serial backend's exact output."""

    @pytest.mark.parametrize("argv", [
        ("yield", "--dies", "140000", "--shards", "2"),
        ("soc-noise", "--shards", "2"),
    ])
    def test_large_shards_match_serial_subprocess(self, argv):
        serial = run_cli(*argv, "--backend", "serial", timeout=120)
        process = run_cli(*argv, "--backend", "process", timeout=120)
        assert serial.returncode == 0, serial.stderr
        assert process.returncode == 0, process.stderr
        assert process.stdout == serial.stdout


class TestBackendsCommand:
    def test_lists_engines_and_contracts(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "synthesis.ota" in out
        assert "thermal.electrothermal" in out
        assert "oracle" in out and "vectorized" in out
        assert "bit-for-bit" in out


class TestElectrothermalCommand:
    def test_smoke_table(self, capsys):
        assert main(["electrothermal", "--nodes", "65nm",
                     "--rth-points", "3", "--gates", "100000"]) == 0
        out = capsys.readouterr().out
        assert "junction_K" in out
        assert "65nm" in out

    def test_backends_agree_on_the_table(self, capsys):
        args = ["electrothermal", "--nodes", "65nm,130nm",
                "--rth-points", "3", "--gates", "100000"]
        assert main(args + ["--backend", "oracle"]) == 0
        oracle = capsys.readouterr().out
        assert main(args + ["--backend", "vectorized"]) == 0
        assert capsys.readouterr().out == oracle

    def test_unknown_node_fails_cleanly(self, capsys):
        assert main(["electrothermal", "--nodes", "7nm"]) == 1
        assert "7nm" in capsys.readouterr().err


class TestArgumentValidation:
    """Bad flag values are refused before any command arithmetic:
    one ``error:`` line naming the flag, exit status 2, no traceback."""

    @pytest.mark.parametrize("argv, flag", [
        (("soc-noise", "--frequency", "0"), "--frequency"),
        (("electrothermal", "--rth-min", "0"), "--rth-min"),
        (("electrothermal", "--rth-min", "50", "--rth-max", "10"),
         "--rth-max"),
    ])
    def test_bad_flag_is_one_line_usage_error(self, argv, flag):
        result = run_cli(*argv)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error:")
        assert result.stderr.count("\n") == 1
        assert flag in result.stderr
        assert result.stdout == ""

    def test_sharded_soc_noise_checked_too(self, capsys):
        assert main(["soc-noise", "--frequency=-5e7",
                     "--shards", "2"]) == 2
        assert "--frequency" in capsys.readouterr().err

    def test_empty_rth_grid_refused(self, capsys):
        assert main(["electrothermal", "--rth-points", "0"]) == 2
        assert "--rth-points" in capsys.readouterr().err

    def test_single_point_range_still_runs(self, capsys):
        assert main(["electrothermal", "--nodes", "65nm",
                     "--rth-min", "10", "--rth-max", "10",
                     "--rth-points", "1", "--gates", "100000"]) == 0
        assert "65nm" in capsys.readouterr().out
