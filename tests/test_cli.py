"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.snapshot import RoutingTableSnapshot


@pytest.fixture
def snapshot_file(tmp_path):
    snapshot = RoutingTableSnapshot.capture(
        12.0, {1: [2, 3], 2: [1, 3], 3: [1, 2]}
    )
    path = tmp_path / "snapshot.json"
    snapshot.save(path)
    return path


#: Argument errors the sampling flags can make, with the message each
#: prints (``run`` has no ``--exact``, so the last applies to
#: ``analyze-snapshot`` only).
_FLAG_ERRORS = {
    "sample-pairs-without-estimate": (
        ["--sample-pairs", "64"],
        "--sample-pairs/--ci-level require --connectivity estimate",
    ),
    "ci-level-without-estimate": (
        ["--ci-level", "0.9"],
        "--sample-pairs/--ci-level require --connectivity estimate",
    ),
    "ci-level-0": (
        ["--connectivity", "estimate", "--ci-level", "0"],
        "--ci-level must be in (0, 1), got 0.0",
    ),
    "ci-level-1.5": (
        ["--connectivity", "estimate", "--ci-level", "1.5"],
        "--ci-level must be in (0, 1), got 1.5",
    ),
    "exact-with-estimate": (
        ["--connectivity", "estimate", "--exact"],
        "--exact and --connectivity estimate are exclusive",
    ),
}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E"])
        assert args.scenario_positional == "E"
        assert args.profile == "bench"
        assert args.seed == 42
        assert args.jobs == 1
        assert args.flow_jobs == 1
        assert args.cache_dir is None

    def test_flow_jobs_parsed(self):
        args = build_parser().parse_args(["run", "E", "--flow-jobs", "4"])
        assert args.flow_jobs == 4
        args = build_parser().parse_args(
            ["analyze-snapshot", "snap.json", "--flow-jobs", "2",
             "--algorithm", "push_relabel"]
        )
        assert args.flow_jobs == 2
        assert args.algorithm == "push_relabel"

    def test_scenario_option_form(self):
        args = build_parser().parse_args(["sweep-k", "--scenario", "A", "--jobs", "4"])
        assert args.scenario_option == "A"
        assert args.scenario_positional is None
        assert args.jobs == 4

    def test_cache_subcommand_parsed(self):
        args = build_parser().parse_args(["cache", "info", "--cache-dir", "/tmp/c"])
        assert args.cache_command == "info"
        assert args.cache_dir == "/tmp/c"

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker", "--connect", "127.0.0.1:9"],
            ["cache", "serve", "--cache-dir", "/tmp/c"],
            ["run", "E", "--backend", "local"],
            ["run", "E", "--cache-dir", "/tmp/c", "--shared-cache", "h:9"],
        ],
        ids=["worker", "cache-serve", "backend", "shared-cache"],
    )
    def test_retired_commands_and_flags_are_argument_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [["sweep-k", "A"], ["table2"]], ids=["sweep-k", "table2"])
    def test_bucket_sizes_default_to_the_papers(self, argv):
        from repro.cli import _bucket_sizes

        args = build_parser().parse_args(argv)
        assert args.k is None  # resolved when the command runs
        assert _bucket_sizes(args) == [5, 10, 20, 30]
        args = build_parser().parse_args(argv + ["--k", "3", "8"])
        assert _bucket_sizes(args) == [3, 8]

    def test_overrides_parsed(self):
        args = build_parser().parse_args(
            ["run", "E", "--bucket-size", "5", "--alpha", "5", "--loss", "high",
             "--staleness", "5", "--profile", "tiny"]
        )
        assert args.bucket_size == 5
        assert args.alpha == 5
        assert args.loss == "high"
        assert args.staleness == 5


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "high" in output
        assert "29.3" in output

    def test_run_tiny_scenario(self, capsys):
        exit_code = main(["run", "E", "--profile", "tiny", "--bucket-size", "5",
                          "--seed", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "churn_mean_min" in output
        assert "Network size" in output

    def test_run_requires_scenario(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--profile", "tiny"])
        assert "scenario is required" in capsys.readouterr().err

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        info_output = capsys.readouterr().out
        assert "entries:         0" in info_output
        assert "evictions:       0" in info_output
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 0 cache entries" in capsys.readouterr().out

    def test_cache_prune(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        entry = cache_dir / ("a" * 64 + ".json")
        entry.write_text("{}", encoding="utf-8")
        assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                     "--max-bytes", "0"]) == 0
        assert "evicted 1 least-recently-used entries" in capsys.readouterr().out
        assert not entry.exists()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "evictions:       1" in capsys.readouterr().out

    def test_analyze_snapshot_flow_jobs(self, snapshot_file, capsys):
        assert main(["analyze-snapshot", str(snapshot_file),
                     "--flow-jobs", "2"]) == 0
        assert "minimum connectivity: 2" in capsys.readouterr().out

    def test_analyze_snapshot(self, snapshot_file, capsys):
        assert main(["analyze-snapshot", str(snapshot_file)]) == 0
        output = capsys.readouterr().out
        assert "minimum connectivity: 2" in output
        assert "resilience r:         1" in output

    def test_analyze_snapshot_exact(self, snapshot_file, capsys):
        assert main(["analyze-snapshot", str(snapshot_file), "--exact"]) == 0
        assert "minimum connectivity: 2" in capsys.readouterr().out

    def test_export_dimacs(self, snapshot_file, tmp_path, capsys):
        output_path = tmp_path / "graph.dimacs"
        assert main(["export-dimacs", str(snapshot_file), str(output_path)]) == 0
        content = output_path.read_text()
        # 3 nodes -> 6 transformed vertices; 6 edges + 3 internal = 9 arcs.
        assert "p max 6 9" in content
        assert "wrote 6 vertices" in capsys.readouterr().out


class TestEstimationOptions:
    @pytest.fixture
    def big_snapshot_file(self, tmp_path):
        from repro.experiments.snapshot import synthetic_snapshot

        snapshot = synthetic_snapshot(80, contacts_per_node=8, seed=5)
        path = tmp_path / "big_snapshot.json"
        snapshot.save(path)
        return path

    def test_connectivity_flags_parsed(self):
        args = build_parser().parse_args(
            ["run", "E", "--connectivity", "estimate",
             "--sample-pairs", "128", "--ci-level", "0.9"]
        )
        assert args.connectivity == "estimate"
        assert args.sample_pairs == 128
        assert args.ci_level == 0.9

    def test_connectivity_defaults_to_exact(self):
        args = build_parser().parse_args(["run", "E"])
        assert args.connectivity == "exact"
        assert args.sample_pairs is None
        assert args.ci_level is None

    def test_sampling_flags_require_estimate_mode(self):
        with pytest.raises(SystemExit):
            main(["run", "A", "--profile", "tiny", "--sample-pairs", "64"])
        with pytest.raises(SystemExit):
            main(["run", "A", "--profile", "tiny", "--ci-level", "0.9"])

    def test_ci_level_range_validated(self):
        with pytest.raises(SystemExit):
            main(["run", "A", "--profile", "tiny",
                  "--connectivity", "estimate", "--ci-level", "1.5"])

    def test_analyze_snapshot_estimate(self, big_snapshot_file, capsys):
        assert main(
            ["analyze-snapshot", str(big_snapshot_file),
             "--connectivity", "estimate", "--sample-pairs", "64"]
        ) == 0
        output = capsys.readouterr().out
        assert "minimum connectivity:" in output
        assert "95% CI of average:" in output
        assert "pairs sampled:        64" in output

    def test_analyze_snapshot_warns_on_a_short_sample(self, big_snapshot_file, tmp_path, capsys):
        from repro.experiments.snapshot import RoutingTableSnapshot

        # Every node lists every other but its ring successor: 30 of 870
        # ordered pairs are non-adjacent, too few to draw 16 by rejection.
        near_complete = tmp_path / "near_complete.json"
        RoutingTableSnapshot.capture(
            0.0, {i: [j for j in range(30) if j not in (i, (i + 1) % 30)] for i in range(30)}
        ).save(near_complete)
        for path, warned in ((near_complete, True), (big_snapshot_file, False)):
            assert main(
                ["analyze-snapshot", str(path),
                 "--connectivity", "estimate", "--sample-pairs", "16"]
            ) == 0
            captured = capsys.readouterr()
            assert ("warning: rejection sampling drew" in captured.err) is warned
            assert "warning" not in captured.out

    def test_analyze_snapshot_estimate_excludes_exact_flag(self, big_snapshot_file):
        with pytest.raises(SystemExit):
            main(["analyze-snapshot", str(big_snapshot_file),
                  "--connectivity", "estimate", "--exact"])

    def test_analyze_snapshot_sampling_flags_require_estimate(self, big_snapshot_file):
        with pytest.raises(SystemExit):
            main(["analyze-snapshot", str(big_snapshot_file),
                  "--sample-pairs", "64"])

    def test_analyze_snapshot_ci_level_range_is_one_line(self, big_snapshot_file, capsys):
        # The same one-line message ``run`` gives, not a ValueError
        # traceback out of the estimator.
        with pytest.raises(SystemExit) as error:
            main(["analyze-snapshot", str(big_snapshot_file),
                  "--connectivity", "estimate", "--ci-level", "1.5"])
        assert error.value.code == 2
        assert capsys.readouterr().err == "error: --ci-level must be in (0, 1), got 1.5\n"

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            pytest.param(command, flags, message, id=f"{command}-{name}")
            for command in ("run", "analyze-snapshot")
            for name, (flags, message) in _FLAG_ERRORS.items()
            if command == "analyze-snapshot" or "--exact" not in flags
        ],
    )
    def test_argument_errors_exit_2_with_an_error_line(
        self, command, flags, message, snapshot_file, capsys
    ):
        # Like every other argument error: ``error: ...`` on stderr, exit
        # code 2, nothing on stdout.
        if command == "run":
            argv = ["run", "A", "--profile", "tiny", *flags]
        else:
            argv = ["analyze-snapshot", str(snapshot_file), *flags]
        with pytest.raises(SystemExit) as error:
            main(argv)
        captured = capsys.readouterr()
        assert error.value.code == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_analyze_snapshot_honours_seed_like_the_facade(
        self, big_snapshot_file, capsys
    ):
        # Exact/sampled mode: --seed drives the average-pass pair sample
        # (it used to be seed 0 whatever the flag said).
        from repro import api

        averages = []
        for seed in (0, 1, 2):
            assert main(
                ["analyze-snapshot", str(big_snapshot_file), "--seed", str(seed)]
            ) == 0
            report = api.analyze_snapshot(
                big_snapshot_file, sample_fraction=0.05, seed=seed
            )
            expected = f"average connectivity: {report.avg_connectivity:.2f}"
            assert expected in capsys.readouterr().out
            averages.append(report.avg_connectivity)
        assert len(set(averages)) > 1, "seeds must draw different pair samples"

    def test_run_estimate_mode_end_to_end(self, capsys):
        assert main(
            ["run", "A", "--profile", "tiny",
             "--connectivity", "estimate", "--sample-pairs", "32"]
        ) == 0
        assert "stabilized_min" in capsys.readouterr().out
