"""The command-line interface: every subcommand runs and prints its report."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mix", "--policy", "heracles"])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["utility", "--app", "doom"])


class TestSubcommands:
    def test_mix(self, capsys):
        code = main(
            [
                "mix", "--mix", "10", "--cap", "100", "--oracle",
                "--duration", "6", "--warmup", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pagerank" in out and "kmeans" in out
        assert "server throughput" in out

    def test_compare(self, capsys):
        code = main(
            [
                "compare", "--cap", "100", "--mixes", "10",
                "--policies", "util-unaware,app+res-aware",
                "--oracle", "--duration", "6", "--warmup", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "util-unaware" in out and "app+res-aware" in out
        assert "relative to util-unaware" in out

    def test_utility(self, capsys):
        code = main(["utility", "--app", "stream"])
        out = capsys.readouterr().out
        assert code == 0
        assert "memory" in out
        assert "demand" in out

    def test_calibrate(self, capsys):
        code = main(["calibrate", "--fractions", "0.05,0.10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "10%" in out
        assert "power RMSE" in out

    def test_dynamic(self, capsys):
        code = main(
            [
                "dynamic", "--rate", "0.05", "--horizon", "60",
                "--work", "20", "--oracle", "--cap", "100",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "admitted" in out
        assert "mean normalized throughput" in out

    @pytest.mark.slow
    def test_cluster_fast(self, capsys):
        code = main(["cluster", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "equal-ours" in out


class TestClusterNetsimFlags:
    def test_chaos_soak_passthrough(self, capsys):
        # The cluster's soak is the hierarchy soak on a depth-1 tree.
        code = main(["cluster", "--chaos", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hierarchy chaos soak" in out
        assert "10 = 10 servers, 800 W" in out
        assert "held the delegation invariant" in out

    def test_malformed_partition_exits_2(self, capsys):
        code = main(["cluster", "--fast", "--partition", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --partition")
        assert len(captured.err.strip().splitlines()) == 1

    def test_malformed_outage_exits_2(self, capsys):
        code = main(["cluster", "--fast", "--outage", "0:5:2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --outage")

    def test_overlapping_outages_exit_2_naming_the_field(self, capsys):
        code = main(
            ["cluster", "--fast", "--outage", "1:0:20", "--outage", "1:10:30"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "outages[1].start_step" in captured.err
        assert "server 1" in captured.err

    @pytest.mark.slow
    def test_netsim_run_traces_control_plane(self, capsys, tmp_path):
        trace_path = tmp_path / "clu.jsonl"
        code = main(
            [
                "cluster", "--fast", "--loss", "0.2",
                "--partition", "3:8:1+2", "--outage", "0:6:10",
                "--trace-out", str(trace_path),
                "--metrics-out", str(tmp_path / "clu-metrics.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "over lossy net" in out
        assert trace_path.exists()
        code = main(["trace", "summarize", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "control plane:" in out
        assert "command=" in out and "ack=" in out


class TestHierarchy:
    def test_tree_replay_prints_level_table(self, capsys):
        code = main(
            ["hierarchy", "--fanouts", "3,4", "--steps", "60",
             "--loss", "0.2", "--outage", "0:10:30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 x 4 = 12 servers" in out
        assert "pdu" in out and "server" in out
        assert "mediation quality" in out
        assert "never above budget" in out

    def test_chaos_soak_passthrough(self, capsys):
        code = main(["hierarchy", "--fanouts", "2,3", "--chaos", "2",
                     "--steps", "80"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hierarchy chaos soak" in out
        assert "held the delegation invariant" in out

    def test_unknown_outage_path_exits_2_naming_it(self, capsys):
        code = main(["hierarchy", "--fanouts", "3,4", "--outage", "9:0:10"])
        captured = capsys.readouterr()
        assert code == 2
        assert "node 9 does not exist" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_malformed_fanouts_exit_2(self, capsys):
        code = main(["hierarchy", "--fanouts", "abc"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --fanouts")

    def test_trace_summarize_groups_hierarchy_events(self, capsys, tmp_path):
        trace_path = tmp_path / "hier.jsonl"
        code = main(
            ["hierarchy", "--fanouts", "2,3", "--steps", "60",
             "--loss", "0.25", "--trace-out", str(trace_path)]
        )
        capsys.readouterr()
        assert code == 0
        code = main(["trace", "summarize", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "hierarchy:" in out
        assert "level=" in out


#: A soak draws its own schedules and writes no files, so these flags
#: would be silently dropped. ``0:5:10`` parses on both subcommands (server
#: 0 of the cluster, subtree 0 of the tree).
SOAK_REJECTED = [
    ["--trace-out", "soak.jsonl"],
    ["--metrics-out", "soak-metrics.json"],
    ["--outage", "0:5:10"],
    ["--partition", "3:8:1"],
    ["--faults", "default"],
    ["--latency", "1"],
    ["--jitter", "1"],
]
SOAKS = {
    "cluster": ["cluster", "--chaos"],
    "hierarchy": ["hierarchy", "--fanouts", "2,3", "--steps", "40", "--chaos"],
}


class TestChaosRejectsUnusedFlags:
    """``--chaos 2`` alone exits 0: the two ``test_chaos_soak_passthrough``
    tests above run it on both subcommands."""

    @pytest.mark.parametrize(
        "subcommand, flag",
        [(sub, flag) for sub in SOAKS for flag in SOAK_REJECTED]
        + [
            ("cluster", ["--netsim-seed", "4"]),
            ("cluster", ["--engine", "vector"]),
            ("cluster", ["--fast"]),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_flag_exits_2_naming_it(self, capsys, tmp_path, subcommand, flag):
        name, *value = flag
        if name in ("--trace-out", "--metrics-out"):
            value = [str(tmp_path / value[0])]
        code = main(SOAKS[subcommand] + ["1", name, *value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {name} cannot be combined")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_engine_given_at_its_default_value_is_rejected(self, capsys):
        # "Given" is told apart from argparse's default, not by the value.
        code = main(SOAKS["cluster"] + ["1", "--engine", "scalar"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: --engine cannot be combined with --chaos"
        )


class TestServe:
    def test_serve_runs_the_open_loop_service(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "serve-metrics.json"
        code = main(
            [
                "serve", "--ticks", "300", "--rate", "0.4", "--clients", "2",
                "--work-scale", "0.02", "--cap-levels", "90,105",
                "--cap-every", "8", "--checkpoint-every", "100",
                "--metrics-out", str(metrics_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "service: 300 ticks" in out
        assert "ingest:" in out
        assert "caps applied 3" in out
        assert "trace sha256" in out
        counters = json.loads(metrics_path.read_text())
        assert counters["service.commands.cap_applied"] == 3
        assert counters["service.ingest.safety_shed"] == 0

    def test_serve_with_chaos_runs_the_soak_harness(self, capsys):
        code = main(
            [
                "serve", "--ticks", "300", "--rate", "0.4", "--clients", "2",
                "--work-scale", "0.02", "--kills", "1", "--churn", "2",
                "--chaos-seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "service soak: 300 ticks" in out
        assert "1 warm restarts" in out
        assert "stitched trace == uninterrupted baseline" in out

    def test_serve_malformed_burst_exits_2(self, capsys):
        code = main(["serve", "--ticks", "10", "--burst", "bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --burst")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_serve_bad_config_exits_2(self, capsys):
        code = main(["serve", "--ticks", "10", "--rate", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestExtensionSubcommands:
    def test_place(self, capsys):
        code = main(["place", "--caps", "120,85", "--jobs", "stream,kmeans"])
        out = capsys.readouterr().out
        assert code == 0
        assert "power-aware" in out
        assert "s0(120W)" in out

    def test_place_unknown_job_fails_loudly(self, capsys):
        code = main(["place", "--jobs", "doom"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: unknown application")
        assert "Traceback" not in captured.err

    def test_zones(self, capsys):
        code = main(["zones", "--mix", "1", "--limits", "14,11", "--duration", "15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stream" in out and "kmeans" in out
        assert "wall power" in out

    def test_zones_wrong_limit_count(self, capsys):
        code = main(["zones", "--mix", "1", "--limits", "14"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --limits needs 2 values")


class TestCommaLists:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--mixes", "1,x"],
            ["compare", "--policies", ","],
            ["calibrate", "--fractions", "0.1,abc"],
            ["serve", "--cap-levels", "90,x"],
            ["place", "--caps", "100,abc"],
            ["zones", "--limits", "15,abc"],
            ["zones", "--limits", "15"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_malformed_list_exits_2_naming_the_flag(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {argv[1]} ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestFaultsFlag:
    def test_mix_with_default_plan_prints_resilience(self, capsys):
        code = main(
            [
                "mix", "--mix", "10", "--cap", "80", "--faults", "default",
                "--duration", "8", "--warmup", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults" in out and "recovered" in out
        assert "breach ticks" in out

    def test_mix_without_faults_prints_no_resilience(self, capsys):
        code = main(
            ["mix", "--mix", "10", "--cap", "100", "--duration", "6", "--warmup", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "breach ticks" not in out

    def test_mix_with_json_plan_file(self, capsys, tmp_path):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(
            specs=(
                FaultSpec(kind="telemetry", mode="drop", start_s=3.0, duration_s=2.0),
            ),
            seed=5,
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        code = main(
            [
                "mix", "--mix", "10", "--cap", "80",
                "--faults", str(path), "--duration", "8", "--warmup", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "degraded telemetry" in out

    def test_missing_plan_file_fails_loudly(self, capsys):
        code = main(
            ["mix", "--mix", "10", "--cap", "80", "--faults", "/no/such/plan.json"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_dynamic_with_default_plan(self, capsys):
        code = main(
            [
                "dynamic", "--cap", "100", "--faults", "default",
                "--horizon", "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "faults" in out


class TestResume:
    """``mix --resume`` restores a supervised run's checkpoint - its document
    plus the timeline records it covers - and finishes the run."""

    ARGS = ["mix", "--mix", "10", "--cap", "80", "--oracle", "--duration", "6", "--warmup", "2"]

    @staticmethod
    def _throughput(out):
        return [line for line in out.splitlines() if line.startswith("server throughput")]

    def _supervised(self, capsys, tmp_path):
        code = main(
            self.ARGS + ["--checkpoint-dir", str(tmp_path), "--checkpoint-every", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        return tmp_path / "checkpoints" / "ckpt-00000040.json", self._throughput(out)

    def _fails_in_one_line(self, capsys, path):
        code = main(self.ARGS + ["--resume", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        return captured.err

    def test_resume_prints_the_uninterrupted_throughput(self, capsys, tmp_path):
        checkpoint, uninterrupted = self._supervised(capsys, tmp_path)
        assert len(uninterrupted) == 1
        code = main(self.ARGS + ["--resume", str(checkpoint)])
        out = capsys.readouterr().out
        assert code == 0
        assert "at tick 40" in out
        assert self._throughput(out) == uninterrupted
        # Resuming reads the covered lines without cutting the log: the
        # final checkpoint's 80 timeline records and 3 events (E1, two E2s).
        log = tmp_path / "checkpoints" / "history.jsonl"
        assert len(log.read_text().splitlines()) == 83

    def test_resume_reports_the_checkpointed_cap_and_policy(self, capsys, tmp_path):
        code = main(
            self.ARGS
            + ["--policy", "app-aware", "--checkpoint-dir", str(tmp_path)]
            + ["--checkpoint-every", "20"]
        )
        supervised = capsys.readouterr().out
        assert code == 0
        assert "@ 80 W under app-aware" in supervised
        checkpoint = tmp_path / "checkpoints" / "ckpt-00000040.json"
        without_cap = [arg for arg in self.ARGS if arg not in ("--cap", "80")]
        code = main(without_cap + ["--resume", str(checkpoint)])
        out = capsys.readouterr().out
        assert code == 0
        assert "@ 80 W under app-aware" in out
        assert self._throughput(out) == self._throughput(supervised)

    @pytest.mark.parametrize("flag", ["--checkpoint-dir", "--faults"])
    def test_flags_a_resumed_run_ignores_exit_2(self, capsys, tmp_path, flag):
        checkpoint, _ = self._supervised(capsys, tmp_path)
        elsewhere = tmp_path / "elsewhere"
        value = {"--checkpoint-dir": str(elsewhere), "--faults": "default"}[flag]
        code = main(self.ARGS + ["--resume", str(checkpoint), flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {flag} cannot be combined with --resume")
        assert len(captured.err.strip().splitlines()) == 1
        assert not elsewhere.exists()

    def test_a_mix_the_checkpoint_does_not_hold_exits_2(self, capsys, tmp_path):
        checkpoint, _ = self._supervised(capsys, tmp_path)
        other_mix = list(self.ARGS)
        other_mix[other_mix.index("--mix") + 1] = "1"
        code = main(other_mix + ["--resume", str(checkpoint)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --mix 1 runs")
        assert len(captured.err.strip().splitlines()) == 1

    def test_version_1_document_exits_2(self, capsys, tmp_path):
        import json

        checkpoint, _ = self._supervised(capsys, tmp_path)
        doc = json.loads(checkpoint.read_text())
        doc["version"] = 1
        checkpoint.write_text(json.dumps(doc))
        assert "checkpoint version 1 is not supported" in self._fails_in_one_line(
            capsys, checkpoint
        )

    def test_version_2_document_exits_2(self, capsys, tmp_path):
        import json

        checkpoint, _ = self._supervised(capsys, tmp_path)
        doc = json.loads(checkpoint.read_text())
        doc["version"] = 2
        checkpoint.write_text(json.dumps(doc))
        assert "checkpoint version 2 is not supported" in self._fails_in_one_line(
            capsys, checkpoint
        )

    def test_missing_timeline_log_exits_2(self, capsys, tmp_path):
        checkpoint, _ = self._supervised(capsys, tmp_path)
        (tmp_path / "checkpoints" / "history.jsonl").unlink()
        assert "cannot read history log" in self._fails_in_one_line(capsys, checkpoint)


def _mix_args(trace_path, metrics_path=None, extra=()):
    args = [
        "mix", "--mix", "10", "--cap", "80", "--oracle",
        "--duration", "4", "--warmup", "2",
        "--trace-out", str(trace_path),
    ]
    if metrics_path is not None:
        args += ["--metrics-out", str(metrics_path)]
    return args + list(extra)


class TestObservabilityFlags:
    def test_mix_writes_trace_and_metrics(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "run-metrics.json"
        code = main(_mix_args(trace_path, metrics_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "sha256" in out
        assert trace_path.exists() and metrics_path.exists()
        doc = json.loads(metrics_path.read_text())
        assert doc["counters"]["mediator.ticks"] == 60
        assert "learn" in doc["profile"]

    def test_mix_trace_is_deterministic_across_invocations(self, capsys, tmp_path):
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(_mix_args(path_a)) == 0
        assert main(_mix_args(path_b)) == 0
        capsys.readouterr()
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_supervised_mix_traces_with_checkpoint_meta(self, capsys, tmp_path):
        trace_path = tmp_path / "sup.jsonl"
        code = main(
            _mix_args(
                trace_path,
                extra=["--checkpoint-dir", str(tmp_path / "ckpt"),
                       "--checkpoint-every", "20"],
            )
        )
        capsys.readouterr()
        assert code == 0
        assert '"checkpoint"' in trace_path.read_text()

    def test_trace_summarize(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        main(_mix_args(trace_path))
        capsys.readouterr()
        code = main(["trace", "summarize", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified ok" in out
        assert "ticks 60" in out
        assert "modes:" in out

    def test_trace_summarize_pairs_metrics_hot_phases(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "run-metrics.json"
        main(_mix_args(trace_path, metrics_path))
        capsys.readouterr()
        code = main(
            ["trace", "summarize", str(trace_path), "--metrics", str(metrics_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "hottest phases" in out
        assert "p95" in out
        assert "calls" in out
        # Top-3, never more: one line per phase under the header.
        phase_lines = [l for l in out.splitlines() if l.startswith("  ")]
        assert 1 <= len(phase_lines) <= 3

    def test_trace_summarize_shows_the_fast_path(self, capsys, tmp_path):
        import json
        import re

        paths = {}
        for engine in ("vector", "scalar"):
            trace_path = tmp_path / f"{engine}.jsonl"
            metrics_path = tmp_path / f"{engine}-metrics.json"
            extra = [] if engine == "vector" else ["--engine", "scalar"]
            assert main(_mix_args(trace_path, metrics_path, extra)) == 0
            paths[engine] = trace_path, metrics_path
        capsys.readouterr()
        trace_path, metrics_path = paths["vector"]  # the default engine
        fast = json.loads(metrics_path.read_text())["profile"]["fast_path"]
        assert main(
            ["trace", "summarize", str(trace_path), "--metrics", str(metrics_path)]
        ) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if "fast path" in l)
        match = re.fullmatch(
            r"fast path: (\d+) of 60 ticks in (\d+) segments; demotions: (.+)", line
        )
        assert match, line
        assert int(match[1]) == fast["fast_ticks"] > 0
        assert int(match[2]) == fast["segments"]
        demotions = dict(pair.split("=") for pair in match[3].split(", "))
        assert {k: int(v) for k, v in demotions.items()} == fast["demotions"]
        assert sum(fast["demotions"].values()) == 60 - fast["fast_ticks"]
        # The scalar reference counts nothing, and prints no such line.
        trace_path, metrics_path = paths["scalar"]
        assert main(
            ["trace", "summarize", str(trace_path), "--metrics", str(metrics_path)]
        ) == 0
        assert "fast path" not in capsys.readouterr().out

    def test_trace_summarize_missing_metrics_file_exits_2(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        main(_mix_args(trace_path))
        capsys.readouterr()
        code = main(
            ["trace", "summarize", str(trace_path), "--metrics", "/nonexistent.json"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_trace_summarize_corrupt_metrics_file_exits_2(self, capsys, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        main(_mix_args(trace_path))
        capsys.readouterr()
        bad = tmp_path / "bad-metrics.json"
        bad.write_text("{not json")
        code = main(["trace", "summarize", str(trace_path), "--metrics", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "not valid JSON" in captured.err

    def test_trace_summarize_missing_file_exits_2(self, capsys):
        code = main(["trace", "summarize", "/nonexistent/run.jsonl"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_trace_summarize_corrupt_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 0\n')
        code = main(["trace", "summarize", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "line 1" in captured.err

    def test_trace_summarize_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "frobnicate", "x.jsonl"])

    def test_chaos_trace_flag_reports_stitching(self, capsys, tmp_path):
        code = main(
            [
                "chaos", "--mix", "10", "--cap", "80", "--oracle",
                "--runs", "1", "--kills", "1",
                "--duration", "4", "--warmup", "2",
                "--checkpoint-every", "15", "--trace",
                "--metrics-out", str(tmp_path / "soak.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace-stitched" in out
        assert (tmp_path / "soak.json").exists()


class TestEmptySoak:
    @pytest.mark.parametrize(
        "argv",
        [["chaos", "--runs", "0"], ["adversary", "--soak", "0"]],
        ids=lambda argv: " ".join(argv),
    )
    def test_a_soak_of_no_runs_exits_2(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: soak needs at least one seed")
        assert captured.out == ""


class TestAdversary:
    def test_adversary_single_kind(self, capsys):
        code = main(["adversary", "--kind", "probe", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "adversary defense:" in out
        assert "probe" in out
        assert "false-positive rate 0%" in out

    def test_adversary_metrics_out(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "adv-metrics.json"
        code = main(
            ["adversary", "--kind", "spike", "--no-undefended",
             "--metrics-out", str(metrics_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "defense delta" in out and "n/a" in out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["defense.transitions.quarantined"] >= 1

    def test_adversary_unknown_mix_exits_2(self, capsys):
        code = main(["adversary", "--kind", "probe", "--mix", "99"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_adversary_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adversary", "--kind", "ddos"])

    def test_trace_summarize_groups_adversary_events(self, capsys, tmp_path):
        from repro.adversary.plan import default_adversary_schedule
        from repro.core.simulation import run_mix_experiment
        from repro.observability.trace import TraceBus, write_trace
        from repro.workloads.mixes import get_mix

        bus = TraceBus()
        run_mix_experiment(
            list(get_mix(1).profiles()),
            "app+res-aware",
            108.0,
            mix_id=1,
            duration_s=6.0,
            warmup_s=2.0,
            use_oracle_estimates=True,
            seed=0,
            trace_bus=bus,
            adversaries=default_adversary_schedule("stream", kind="probe",
                                                   start_s=2.0),
        )
        path = tmp_path / "adv.jsonl"
        write_trace(str(path), bus.events)
        code = main(["trace", "summarize", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "adversary/defense:" in out
        assert "attack-start=1" in out
        assert "quarantine=" in out

    def test_trace_summarize_tolerates_unknown_kinds(self, capsys, tmp_path):
        from repro.observability.trace import TraceBus, TraceEvent, write_trace

        bus = TraceBus()
        bus.begin_tick(0, 0.0)
        bus.emit("tick", {"time_s": 0.0, "cap_w": 100.0, "wall_w": 50.0,
                          "mode": "space", "soc": None})
        events = list(bus.events)
        events.append(
            TraceEvent(seq=1, tick=0, time_s=0.0, kind="from-the-future",
                       payload={})
        )
        path = tmp_path / "future.jsonl"
        write_trace(str(path), events)
        code = main(["trace", "summarize", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "other: 1 events of unrecognized kinds" in out
