"""CLI surface: every command runs and prints sane output."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _test_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "test")
    # Keep CLI tests hermetic: don't touch the user's result cache.
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))


class TestInfo:
    def test_info_prints_tables_2_and_4(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "512 MB, 150 cycles" in out
        assert "156 kB" in out
        assert "4 x 8 B/cycle" in out
        assert "queue 16" in out


class TestRun:
    def test_run_prefetch_default(self, capsys):
        assert main(["run", "mmul", "--spes", "2"]) == 0
        out = capsys.readouterr().out
        assert "with prefetching" in out
        assert "cycles" in out

    def test_run_no_prefetch(self, capsys):
        assert main(["run", "mmul", "--spes", "2", "--no-prefetch"]) == 0
        out = capsys.readouterr().out
        assert "original DTA" in out

    def test_run_compare_reports_speedup(self, capsys):
        assert main(["run", "zoom", "--spes", "2", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "decoupled: 100%" in out

    def test_run_latency_override(self, capsys):
        assert main(
            ["run", "mmul", "--spes", "2", "--latency", "1", "--compare"]
        ) == 0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fibonacci"])

    def test_compare_rejects_checkpoint_every(self, tmp_path):
        # --compare runs the pair through run_pair, which would drop the
        # checkpoint flags without a word.
        ck = tmp_path / "ck"
        with pytest.raises(SystemExit, match="--checkpoint-every"):
            main(["run", "mmul", "--spes", "2", "--compare",
                  "--checkpoint-every", "500", "--checkpoint-dir", str(ck)])
        assert not ck.exists()


class TestRunRestore:
    #: The checkpointed run: unprefetched mmul at 2 SPEs.
    ARGV = ["run", "mmul", "--spes", "2", "--no-prefetch"]

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every RunResult the CLI prints, in order."""
        from repro import cli

        printed = []
        monkeypatch.setattr(cli, "_print_run",
                            lambda label, run: printed.append(run))
        return printed

    @pytest.fixture
    def checkpoint(self, tmp_path, runs):
        """The latest checkpoint the run left, and the run's result."""
        assert main(self.ARGV + ["--checkpoint-every", "2000",
                                 "--checkpoint-dir", str(tmp_path)]) == 0
        (path,) = tmp_path.glob("*.ckpt")
        return str(path), runs.pop()

    def test_matching_restore_finishes_bit_identically(self, checkpoint,
                                                       runs):
        path, clean = checkpoint
        assert main(self.ARGV + ["--restore", path]) == 0
        (restored,) = runs
        assert restored.cycles == clean.cycles
        assert restored.stats == clean.stats

    @pytest.mark.parametrize("flags, message", [
        (["--spes", "4", "--no-prefetch"],
         "differs from the flags in num_spes"),
        (["--spes", "2"], "another variant"),
    ], ids=["spes", "variant"])
    def test_restore_under_other_flags_exits_nonzero(self, checkpoint, runs,
                                                     flags, message):
        path, _clean = checkpoint
        with pytest.raises(SystemExit, match=message):
            main(["run", "mmul", *flags, "--restore", path])
        assert runs == []


class TestSweep:
    def test_sweep_prints_both_tables(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Execution time" in out
        assert "Scalability" in out

    def test_sweep_parallel_jobs_matches_serial(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1", "2", "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["sweep", "mmul", "--spes", "1", "2", "--jobs", "2",
                     "--no-cache"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_sweep_second_run_served_from_cache(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        first = capsys.readouterr()
        assert "(ran)" in first.err
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        second = capsys.readouterr()
        assert "(cached)" in second.err and "(ran)" not in second.err
        assert second.out == first.out

    def test_sweep_prints_cache_summary(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        assert "cache:" in capsys.readouterr().err

    def test_sweep_resilience_flags_accepted(self, capsys):
        # A generous timeout forces the parent-enforced pool path without
        # ever firing; the sweep must behave exactly as a plain run.
        assert main([
            "sweep", "mmul", "--spes", "1", "--no-cache",
            "--task-timeout", "300", "--retries", "1", "--keep-going",
        ]) == 0
        out = capsys.readouterr().out
        assert "Execution time" in out

    def test_resume_rejects_no_cache(self):
        with pytest.raises(SystemExit, match="resume"):
            main(["sweep", "mmul", "--spes", "1", "--resume", "--no-cache"])


class TestTables:
    def test_tables_prints_all_artifacts(self, capsys):
        assert main(["tables", "--spes", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "Figure 5 (no prefetching)" in out
        assert "Figure 5 (with prefetching)" in out
        assert "Figure 9" in out


class TestDisasm:
    def test_disasm_baseline(self, capsys):
        assert main(["disasm", "mmul", "--template", "mmul_worker"]) == 0
        out = capsys.readouterr().out
        assert "READ" in out and ".EX:" in out

    def test_disasm_prefetch_shows_pf_block(self, capsys):
        assert main(
            ["disasm", "mmul", "--template", "mmul_worker", "--prefetch"]
        ) == 0
        out = capsys.readouterr().out
        assert ".PF:" in out and "DMAGET" in out and "LLOAD" in out

    def test_disasm_all_templates(self, capsys):
        assert main(["disasm", "bitcnt"]) == 0
        out = capsys.readouterr().out
        for name in ("bitcnt_root", "k_ntbl", "bitcnt_join"):
            assert name in out


class TestReproduce:
    def test_reproduce_writes_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        csv_path = tmp_path / "results.csv"
        assert main([
            "reproduce", "--spes", "1", "2",
            "-o", str(out), "--csv", str(csv_path),
        ]) == 0
        import json

        data = json.loads(out.read_text())
        assert set(data["experiments"]) == {
            "scaling", "table5", "fig5", "fig9", "latency1"
        }
        text = csv_path.read_text()
        assert "workload,spes,variant" in text
        assert "prefetch" in text

    def test_reproduce_stdout_mode(self, capsys):
        assert main(["reproduce", "--spes", "1"]) == 0
        out = capsys.readouterr().out
        import json

        json.loads(out)

    def test_reproduce_resume_after_completed_run(self, capsys):
        assert main(["reproduce", "--spes", "1"]) == 0
        capsys.readouterr()
        assert main(["reproduce", "--spes", "1", "--resume"]) == 0
        err = capsys.readouterr().err
        # Every task was settled by the first run's journal + cache.
        assert "resume:" in err
        assert "(ran)" not in err


class TestTimeline:
    def test_timeline_renders_gantt(self, capsys):
        assert main(["timeline", "mmul", "--spes", "2", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "legend" in out
        assert "busy" in out

    def test_timeline_no_prefetch_has_no_pf_segments(self, capsys):
        assert main(
            ["timeline", "mmul", "--spes", "2", "--no-prefetch"]
        ) == 0
        out = capsys.readouterr().out
        bars = [
            line.split("|")[1]
            for line in out.splitlines()
            if line.count("|") >= 2
        ]
        assert bars and all("p" not in bar for bar in bars)


class TestProfile:
    def test_profile_writes_all_artifacts(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        trace = tmp_path / "t.trace.json"
        csv_path = tmp_path / "m.csv"
        events = tmp_path / "e.jsonl"
        assert main([
            "profile", "bitcnt", "--spes", "2",
            "--profile", str(profile), "--perfetto", str(trace),
            "--metrics-csv", str(csv_path), "--trace-jsonl", str(events),
        ]) == 0
        out = capsys.readouterr().out
        assert "pipeline usage" in out
        assert "DMA intervals overlapped" in out
        import json

        from repro.obs import validate_trace_events

        data = json.loads(profile.read_text())
        assert data["version"] == 1
        doc = json.loads(trace.read_text())
        assert validate_trace_events(doc) == []
        assert csv_path.read_text().startswith("instrument,")
        assert events.read_text().splitlines()

    def test_profile_no_prefetch(self, capsys):
        assert main(["profile", "bitcnt", "--spes", "1",
                     "--no-prefetch"]) == 0
        assert "original DTA" in capsys.readouterr().out


class TestDiff:
    def test_self_diff_passes_at_zero_threshold(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        assert main(["profile", "bitcnt", "--spes", "1",
                     "--profile", str(profile)]) == 0
        capsys.readouterr()
        assert main(["diff", str(profile), str(profile),
                     "--max-delta", "0"]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        import json

        profile = tmp_path / "p.json"
        assert main(["profile", "bitcnt", "--spes", "1",
                     "--profile", str(profile)]) == 0
        capsys.readouterr()
        data = json.loads(profile.read_text())
        data["cycles"] = int(data["cycles"] * 2)
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(data))
        assert main(["diff", str(profile), str(worse),
                     "--max-delta", "2"]) == 1
        assert "regression" in capsys.readouterr().out

    def test_missing_file_rejected(self):
        with pytest.raises(SystemExit, match="diff:"):
            main(["diff", "/nonexistent/a.json", "/nonexistent/b.json"])


class TestCacheCommand:
    # ``repro sweep`` goes through the caching runner: one SPE point
    # stores two entries (base + prefetch).

    def test_summary_of_a_populated_cache(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "cache root:" in out
        assert "entries:    2" in out
        assert "journal:" in out

    def test_clear_empties_the_cache(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared 2 cached result(s)" in out
        assert main(["cache"]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_trim_to_budget_evicts(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted 2" in out
        assert "entries:    0" in out

    def test_bad_size_spec_raises(self):
        with pytest.raises(ValueError, match="byte size"):
            main(["cache", "--max-bytes", "plenty"])


class TestServeParser:
    def test_serve_and_submit_commands_are_wired(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "3"])
        assert args.func.__name__ == "cmd_serve"
        assert args.workers == 3
        args = parser.parse_args(
            ["submit", "sweep", "bitcnt", "--spes", "1", "2"]
        )
        assert args.func.__name__ == "cmd_submit"
        assert args.spes == [1, 2]

    def test_submit_against_dead_server_fails_cleanly(self, capsys):
        assert main(
            ["submit", "run", "bitcnt", "--port", "1", "--spes", "1"]
        ) == 1
        assert "no server" in capsys.readouterr().err


#: A timing-only fault plan: results stay bit-identical under it.
FAULTS = "seed=3,dma_delay=0.1"

#: Per simulating subcommand, an invocation that keeps its runs small;
#: the flag under test is appended, and the last ``--spes`` wins.
SIM_COMMANDS = {
    "run": ["run", "mmul", "--spes", "1"],
    "sweep": ["sweep", "mmul", "--spes", "1", "--no-cache"],
    "tables": ["tables", "--spes", "1", "--no-cache"],
    "timeline": ["timeline", "mmul", "--spes", "1"],
    "profile": ["profile", "mmul", "--spes", "1"],
}


def _faults_plan():
    from repro.faults.plan import FaultPlan

    return FaultPlan.parse(FAULTS)


def _test_scale_names():
    from repro.bench.scale import builders

    return {build().name for build in builders("test").values()}


#: flag -> (argv, check on what the runs used).  ``--scale test`` runs
#: with REPRO_BENCH_SCALE=default, so only the flag can pick test scale.
FLAG_CHECKS = {
    "--spes": (["--spes", "3"],
               lambda rec: {c.num_spes for c in rec.configs} == {3}),
    "--latency": (["--latency", "7"],
                  lambda rec: {c.main_memory.latency
                               for c in rec.configs} == {7}),
    "--threshold": (["--threshold", "0.99"],
                    lambda rec: set(rec.thresholds) == {0.99}),
    "--faults": (["--faults", FAULTS],
                 lambda rec: all(c.faults == _faults_plan()
                                 for c in rec.configs)),
    "--sanitize": (["--sanitize"],
                   lambda rec: all(c.sanitize for c in rec.configs)),
    "--scale": (["--scale", "test"],
                lambda rec: set(rec.activities) <= _test_scale_names()),
    "--no-prefetch": (["--no-prefetch"], lambda rec: not rec.thresholds),
}

_NO_VARIANT = {"sweep", "tables"}  # always run both variants


@pytest.fixture
def record(monkeypatch):
    """What a command's runs actually use: each machine's config and
    activity, and the worthwhileness threshold of each prefetch pass."""
    from repro.cell.machine import Machine
    from repro.compiler import passes

    rec = SimpleNamespace(configs=[], activities=[], thresholds=[])
    load, transform = Machine.load, passes.transform_program

    def recording_load(self, activity):
        rec.configs.append(self.config)
        rec.activities.append(activity.name)
        return load(self, activity)

    def recording_transform(program, options=None):
        rec.thresholds.append(options.worthwhile_threshold)
        return transform(program, options)

    monkeypatch.setattr(Machine, "load", recording_load)
    monkeypatch.setattr(passes, "transform_program", recording_transform)
    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)  # in-process
    return rec


class TestSimulationFlagsReachRuns:
    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command} {flag}")
        for command in SIM_COMMANDS for flag in FLAG_CHECKS
        if not (command in _NO_VARIANT and flag == "--no-prefetch")
    ])
    def test_flag_reaches_every_run(self, command, flag, record,
                                    monkeypatch, capsys):
        if flag == "--scale":
            monkeypatch.setenv("REPRO_BENCH_SCALE", "default")
        argv, check = FLAG_CHECKS[flag]
        assert main(SIM_COMMANDS[command] + argv) == 0
        assert record.configs, "no run was simulated"
        assert check(record), (
            f"{command} {flag}: runs used configs {record.configs}, "
            f"activities {record.activities}, thresholds "
            f"{record.thresholds}"
        )

    @pytest.mark.parametrize("argv, shown", [
        # Beyond the gateway's MAX_SPES: local runs are not bound by it.
        (["--spes", "40"], ["SPEs", "40"]),
        (["--latency", "7"], ["main", "memory", "512", "MB,", "7",
                              "cycles,", "1", "port(s)"]),
        (["--faults", FAULTS], ["faults", "seed=3,dma_delay=0.1"]),
        (["--sanitize"], ["sanitizer", "on"]),
    ], ids=["--spes", "--latency", "--faults", "--sanitize"])
    def test_info_shows_each_flag(self, argv, shown, capsys):
        assert main(["info"] + argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert shown in [line.split() for line in lines]


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["reproduce", "--latency", "1"],
        ["reproduce", "--threshold", "0.9"],
        ["reproduce", "--sanitize"],
        ["disasm", "mmul", "--spes", "2"],
        ["disasm", "mmul", "--latency", "1"],
        ["disasm", "mmul", "--faults", FAULTS],
        ["disasm", "mmul", "--sanitize"],
        ["info", "--scale", "test"],
        ["info", "--threshold", "0.9"],
    ], ids=" ".join)
    def test_flag_a_command_cannot_honor_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFaultsTypo:
    @pytest.mark.parametrize("argv", [
        ["run", "mmul"], ["sweep", "mmul"], ["tables"], ["timeline", "mmul"],
        ["profile", "mmul"], ["info"], ["reproduce"],
    ], ids=lambda argv: argv[0])
    def test_typo_exits_before_any_workload_is_built(self, argv,
                                                      monkeypatch):
        from repro.workloads import bitcount, matmul, zoom

        def no_build(**params):
            raise AssertionError("a workload was built")

        for module in (bitcount, matmul, zoom):
            monkeypatch.setattr(module, "build", no_build)
        with pytest.raises(SystemExit, match="--faults"):
            main(argv + ["--faults", "seed=1,dma_dorp=0.1"])


class TestOneTaskDescription:
    """The CLI and the gateway build equal run tasks for the same job."""

    def _submitted_keys(self, monkeypatch, argv) -> "list[list[str]]":
        """The task keys of each batch ``argv`` submits (not run)."""
        from repro.bench import parallel

        batches = []

        class Submitted(Exception):
            pass

        def record(tasks, *args, **kwargs):
            batches.append([task.key() for task in tasks])
            raise Submitted

        monkeypatch.setattr(parallel, "run_many_detailed", record)
        with pytest.raises(Submitted):
            main(argv)
        return batches

    def test_served_sweep_keys_equal_cli_sweep_and_reproduce(
        self, monkeypatch
    ):
        from repro.serve.protocol import build_tasks, parse_request

        spec = parse_request({
            "v": 1, "kind": "sweep",
            "params": {"benchmark": "bitcnt", "scale": "test",
                       "spes": [1, 2]},
        }).spec
        served = [task.key() for task in build_tasks(spec)]
        [swept] = self._submitted_keys(
            monkeypatch, ["sweep", "bitcnt", "--spes", "1", "2"]
        )
        [matrix] = self._submitted_keys(
            monkeypatch, ["reproduce", "--spes", "1", "2"]
        )
        assert swept == served
        # The matrix lays out bitcnt's scaling pairs first.
        assert matrix[:len(served)] == served

    def test_default_options_key_like_none(self):
        from repro.bench.cache import result_key
        from repro.compiler.passes import PrefetchOptions
        from repro.sim.config import paper_config
        from repro.workloads import matmul

        wl, cfg = matmul.build(n=4, threads=2), paper_config(2)
        assert result_key(wl, cfg, True, PrefetchOptions()) == \
            result_key(wl, cfg, True, None)
        assert result_key(wl, cfg, False, PrefetchOptions(0.9)) == \
            result_key(wl, cfg, False, None)


class TestReproduceRunsEachTaskOnce:
    def test_csv_comes_from_the_matrix(self, tmp_path, monkeypatch):
        from repro.bench.export import scaling_to_csv, scaling_to_dict
        from repro.bench.parallel import RunTask
        from repro.bench.runner import sweep
        from repro.bench.scale import builders

        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        runs = []
        run = RunTask.run

        def counting_run(task):
            runs.append(task.label)
            return run(task)

        monkeypatch.setattr(RunTask, "run", counting_run)
        csv_path = tmp_path / "matrix.csv"
        assert main([
            "reproduce", "--spes", "1", "2", "--no-cache",
            "-o", str(tmp_path / "matrix.json"), "--csv", str(csv_path),
        ]) == 0
        # 3 workloads x 2 SPE counts x 2 variants + 3 latency-1 pairs.
        assert len(runs) == 18
        # Byte for byte what sweeping each benchmark again would write.
        expected = "".join(
            scaling_to_csv(scaling_to_dict(sweep(build, spes=(1, 2))))
            for build in builders("test").values()
        )
        assert csv_path.read_bytes() == expected.encode()
