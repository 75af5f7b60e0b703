"""CLI-level acceptance tests for --jobs / --cache-dir / cache subcommand.

Mirrors the acceptance criterion of the runtime subsystem: a parallel sweep
produces stdout identical to a serial one, and a second run against the same
cache directory is served entirely from the cache (100% hit rate) without
any simulation work.
"""

import json
import os

import pytest

from repro.cli import main


def run_cli(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


SWEEP_ARGV = [
    "sweep-k", "--scenario", "A", "--profile", "tiny", "--seed", "3",
    "--k", "3", "5",
]


class TestSweepAcceptance:
    def test_parallel_output_identical_to_serial(self, capsys):
        serial_out, _ = run_cli(capsys, SWEEP_ARGV + ["--jobs", "1"])
        parallel_out, _ = run_cli(capsys, SWEEP_ARGV + ["--jobs", "4"])
        assert parallel_out == serial_out
        assert "bucket-size sweep" in serial_out

    def test_second_run_is_all_cache_hits(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first_out, first_err = run_cli(
            capsys, SWEEP_ARGV + ["--jobs", "1", "--cache-dir", cache_dir]
        )
        assert "0 hits, 2 misses" in first_err

        second_out, second_err = run_cli(
            capsys, SWEEP_ARGV + ["--jobs", "4", "--cache-dir", cache_dir]
        )
        assert second_out == first_out
        assert "2 hits, 0 misses" in second_err
        assert "100% hit rate" in second_err

    def test_cache_info_reports_entries(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli(capsys, SWEEP_ARGV + ["--cache-dir", cache_dir])
        info_out, _ = run_cli(capsys, ["cache", "info", "--cache-dir", cache_dir])
        assert "entries:         2" in info_out
        clear_out, _ = run_cli(capsys, ["cache", "clear", "--cache-dir", cache_dir])
        assert "removed 2 cache entries" in clear_out
        info_out, _ = run_cli(capsys, ["cache", "info", "--cache-dir", cache_dir])
        assert "entries:         0" in info_out


class TestWorkerCountValidation:
    @pytest.mark.parametrize("flag", ["--jobs", "--flow-jobs"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_worker_counts_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E", "--profile", "tiny", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be >= 1" in err
        assert "Traceback" not in err

    def test_non_integer_worker_count_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E", "--profile", "tiny", "--jobs", "many"])
        assert excinfo.value.code == 2
        assert "expected an integer" in capsys.readouterr().err


class TestNoDispatchKnobs:
    """Tasks go out in submission order, one per flight: no flag or
    environment variable picks another shape or order."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--batch", "auto"],
            ["--batch", "4"],
            ["--batch", "off"],
            ["--schedule", "cheapest"],
            ["--schedule", "fifo"],
        ],
        ids=lambda argv: "=".join(argv),
    )
    def test_removed_flags_are_unrecognised(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(SWEEP_ARGV + argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["auto", "2"])
    def test_batch_environment_variable_has_no_effect(
        self, capsys, monkeypatch, value
    ):
        monkeypatch.delenv("REPRO_CAMPAIGN_BATCH", raising=False)
        default_out, _ = run_cli(capsys, SWEEP_ARGV + ["--jobs", "2"])
        monkeypatch.setenv("REPRO_CAMPAIGN_BATCH", value)
        set_out, set_err = run_cli(capsys, SWEEP_ARGV + ["--jobs", "2"])
        assert set_out == default_out
        assert "REPRO_CAMPAIGN_BATCH" not in set_err


class TestCachePruneMessages:
    def _populate(self, capsys, cache_dir):
        run_cli(capsys, SWEEP_ARGV + ["--cache-dir", cache_dir])

    def test_prune_requires_max_bytes(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "prune", "--cache-dir", str(tmp_path / "cache")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "required" in err
        assert "--max-bytes" in err

    def test_prune_missing_directory_is_an_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "prune", "--cache-dir", str(tmp_path / "nope"),
                  "--max-bytes", "1000"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_prune_within_cap_says_nothing_evicted(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(capsys, cache_dir)
        out, _ = run_cli(
            capsys,
            ["cache", "prune", "--cache-dir", cache_dir,
             "--max-bytes", "999999999"],
        )
        assert "nothing evicted" in out
        assert "already fits the cap" in out

    def test_prune_reports_evictions(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(capsys, cache_dir)
        out, _ = run_cli(
            capsys, ["cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "0"]
        )
        assert "evicted 2 least-recently-used entries" in out

    def test_cache_info_reports_prune_evictions(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(capsys, cache_dir)
        run_cli(capsys, ["cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "0"])
        info_out, _ = run_cli(capsys, ["cache", "info", "--cache-dir", cache_dir])
        assert "entries:         0" in info_out
        assert "evictions:       2" in info_out
        assert "stores dropped" not in info_out


class TestRunCommandCache:
    def test_run_uses_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["run", "E", "--profile", "tiny", "--bucket-size", "5",
                "--seed", "1", "--cache-dir", cache_dir]
        first_out, first_err = run_cli(capsys, argv)
        assert "0 hits, 1 misses" in first_err
        second_out, second_err = run_cli(capsys, argv)
        assert second_out == first_out
        assert "1 hits, 0 misses" in second_err

    def test_progress_flag_streams_to_stderr(self, capsys):
        argv = ["run", "E", "--profile", "tiny", "--bucket-size", "3",
                "--seed", "1", "--progress"]
        out, err = run_cli(capsys, argv)
        assert "[1/1]" in err
        assert "[1/1]" not in out


class TestFaultInjectionCli:
    def test_faulted_sweep_output_identical_to_clean(self, capsys, tmp_path):
        # Satellite acceptance: injected task errors are healed by the
        # default retry policy, so --faults changes nothing on stdout.
        cache_dir = str(tmp_path / "cache")
        clean_out, _ = run_cli(capsys, SWEEP_ARGV)
        faulted_out, _ = run_cli(
            capsys,
            SWEEP_ARGV + [
                "--cache-dir", cache_dir,
                "--faults", "task-error@1", "--retries", "4",
            ],
        )
        assert faulted_out == clean_out

    def test_faults_env_not_leaked_after_command(self, capsys):
        import os as _os

        from repro.runtime import faults

        run_cli(capsys, SWEEP_ARGV + ["--faults", "task-error@1"])
        assert faults.ENV_VAR not in _os.environ

    def test_invalid_faults_spec_is_an_argument_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(SWEEP_ARGV + ["--faults", "explode@1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid --faults spec" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec",
        ["conn-drop@1", "frame-corrupt@1", "delay@1", "partition@1", "stall@1"],
    )
    def test_retired_fault_kinds_are_argument_errors(self, capsys, spec):
        from repro.runtime import faults

        with pytest.raises(SystemExit) as excinfo:
            main(SWEEP_ARGV + ["--faults", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown fault kind {spec.split('@')[0]!r}" in err
        assert "Traceback" not in err
        assert faults.ENV_VAR not in os.environ

    @pytest.mark.parametrize(
        "spec",
        [
            "task-error@1=0.5",
            # The probability matcher and the seed clause are retired.
            "task-error@p0.5",
            "corrupt-write@p0.1;seed=7",
            "seed=3",
        ],
    )
    def test_malformed_clauses_are_argument_errors(self, capsys, spec):
        from repro.runtime import faults

        with pytest.raises(SystemExit) as excinfo:
            main(SWEEP_ARGV + ["--faults", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid --faults spec" in err
        assert "Traceback" not in err
        assert faults.ENV_VAR not in os.environ

    def test_invalid_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(SWEEP_ARGV + ["--retries", "0"])
        assert excinfo.value.code == 2


class TestCacheVerifyCli:
    def _populate(self, capsys, cache_dir):
        run_cli(capsys, SWEEP_ARGV + ["--cache-dir", cache_dir])

    @staticmethod
    def _corrupt_one_entry(tmp_path):
        entries = sorted(
            path for path in (tmp_path / "cache").glob("*.json")
            if not path.name.startswith("_")
        )
        target = entries[0]
        payload = bytearray(target.read_bytes())
        payload[len(payload) // 2] ^= 0x01
        target.write_bytes(bytes(payload))
        return target

    def test_verify_clean_cache_exits_zero(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(capsys, cache_dir)
        out, _ = run_cli(capsys, ["cache", "verify", "--cache-dir", cache_dir])
        assert "entries checked: 2" in out
        assert "ok:              2" in out
        assert "corrupt:         0" in out

    def test_verify_quarantines_corrupt_entry_and_exits_nonzero(
        self, capsys, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        self._populate(capsys, cache_dir)
        target = self._corrupt_one_entry(tmp_path)
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        out = capsys.readouterr().out
        assert "corrupt:         1" in out
        assert "quarantined:     1" in out
        assert target.name in out
        assert not target.exists()  # moved into quarantine/
        # A re-scan of the repaired cache is clean (one entry remains).
        out, _ = run_cli(capsys, ["cache", "verify", "--cache-dir", cache_dir])
        assert "entries checked: 1" in out
        assert "corrupt:         0" in out

    def test_verify_no_repair_leaves_entry_in_place(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(capsys, cache_dir)
        target = self._corrupt_one_entry(tmp_path)
        assert main(["cache", "verify", "--cache-dir", cache_dir,
                     "--no-repair"]) == 1
        capsys.readouterr()
        assert target.exists()

    def test_verify_missing_directory_is_an_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "verify", "--cache-dir", str(tmp_path / "nope")])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_cache_info_reports_corrupt_entries(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        self._populate(capsys, cache_dir)
        self._corrupt_one_entry(tmp_path)
        main(["cache", "verify", "--cache-dir", cache_dir])
        capsys.readouterr()
        info_out, _ = run_cli(capsys, ["cache", "info", "--cache-dir", cache_dir])
        assert "corrupt entries: 1" in info_out


class TestObservabilityCli:
    RUN_ARGV = ["run", "E", "--profile", "tiny", "--bucket-size", "3",
                "--seed", "1"]

    def test_metrics_out_writes_json_and_keeps_stdout_identical(
        self, capsys, tmp_path
    ):
        from repro import obs

        plain_out, _ = run_cli(capsys, self.RUN_ARGV)
        metrics_path = tmp_path / "metrics.json"
        instrumented_out, err = run_cli(
            capsys, self.RUN_ARGV + ["--metrics-out", str(metrics_path)]
        )
        assert instrumented_out == plain_out  # identity-free, stdout too
        assert "wrote metrics" in err
        assert not obs.enabled()  # the CLI undoes its own enablement
        document = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert document["schema"] == "repro-obs-metrics/1"
        counters = document["metrics"]["counters"]
        assert counters["sim.events"] > 0
        assert counters["kademlia.lookups"] > 0

    def test_obs_summary_prints_key_metrics(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        out, _ = run_cli(
            capsys,
            ["obs", "summary", "E", "--profile", "tiny", "--bucket-size",
             "3", "--seed", "1", "--cache-dir", cache_dir],
        )
        assert "repro obs summary" in out
        assert "worker utilisation" in out
        assert "events/sec" in out
        assert "mean lookup virtual-time latency" in out
        assert "hit rate" in out

    def test_obs_summary_trace_out_writes_jsonl(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        run_cli(
            capsys,
            ["obs", "summary", "E", "--profile", "tiny", "--bucket-size",
             "3", "--seed", "1", "--trace-out", str(trace_path)],
        )
        records = [
            json.loads(line)
            for line in trace_path.read_text(encoding="utf-8").splitlines()
        ]
        names = {record["name"] for record in records}
        assert "experiment.run" in names
        assert "snapshot" in names
        assert "campaign.run" in names

    def test_cache_info_reports_lookup_stats(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = self.RUN_ARGV + ["--cache-dir", cache_dir]
        run_cli(capsys, argv)
        run_cli(capsys, argv)  # second run: 1 hit
        info_out, _ = run_cli(capsys, ["cache", "info", "--cache-dir", cache_dir])
        assert "hits:            1" in info_out
        assert "misses:          1" in info_out
        assert "hit rate:        50%" in info_out
        served = [
            line for line in info_out.splitlines()
            if line.startswith("bytes served:")
        ]
        assert served and int(served[0].split()[-1]) > 0

    def test_verbose_flag_accepted(self, capsys):
        import logging

        out, _ = run_cli(capsys, ["-v"] + self.RUN_ARGV)
        assert "scenario" in out
        assert logging.getLogger("repro").level == logging.INFO
        run_cli(capsys, self.RUN_ARGV)  # default resets to WARNING
        assert logging.getLogger("repro").level == logging.WARNING
