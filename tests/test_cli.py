"""CLI smoke tests."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.size == 5 and args.strategy == "auto"

    def test_table1_size_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--size", "7"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["warm", "--table1", "--cache-dir", "c"],
            ["generate", "--cache-dir", "c"],
            ["table1", "--cache-dir", "c"],
        ],
        ids=["warm-table1", "generate-cache-dir", "table1-cache-dir"],
    )
    def test_removed_kernel_store_flags_exit_2(self, argv, capsys):
        """The flags that only served stored kernels are gone."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--trials", "-5"],
            ["campaign", "--journal-dir", "j", "--max-attempts", "0"],
            ["diagnose", "--trials", "-1"],
            ["campaign", "--workers", "0"],
            ["diagnose", "--faults", "0"],
            ["campaign", "--max-faults", "0"],
            ["show", "--size", "0"],
            ["generate", "--size", "-3"],
            ["warm", "--size", "1", "--cache-dir", "c"],
        ],
        ids=[
            "campaign-trials", "max-attempts", "diagnose-trials", "workers",
            "diagnose-faults", "max-faults", "show-size", "generate-size",
            "warm-size",
        ],
    )
    def test_out_of_range_counts_exit_2(self, argv, capsys):
        """Rejected at parse time, before any suite is generated."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "--size", "3", "--full", "--faults", "500"],
            ["campaign", "--size", "3", "--full", "--max-faults", "100",
             "--trials", "2"],
        ],
        ids=["diagnose-faults", "max-faults"],
    )
    def test_fault_counts_above_the_largest_compatible_set_exit_2(
        self, argv, capsys, monkeypatch
    ):
        """A full 3x3's stuck-at universe has 34 compatibility keys, so no
        chip carries more faults; refused before any suite is generated."""
        monkeypatch.setattr(
            "repro.context.ExecutionContext.suite",
            lambda self: pytest.fail("generated a suite"),
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "exceeds 34, the largest compatible fault set" in err

    def test_max_attempts_without_journal_exits_2(self, capsys, monkeypatch):
        """Only the journaled fabric retries shards, so the flag would do
        nothing; refused before any suite is generated."""
        monkeypatch.setattr(
            "repro.context.ExecutionContext.suite",
            lambda self: pytest.fail("generated a suite"),
        )
        argv = ["campaign", "--size", "3", "--full", "--trials", "2",
                "--max-faults", "1", "--max-attempts", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "--max-attempts requires --journal-dir\n"
        )

    def test_resume_without_a_journal_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        """A mistyped --journal-dir is a usage error, refused before any
        suite is generated, and creates no directory."""
        monkeypatch.setattr(
            "repro.context.ExecutionContext.suite",
            lambda self: pytest.fail("generated a suite"),
        )
        missing = tmp_path / "missing"
        argv = ["campaign", "--size", "3", "--full", "--trials", "2",
                "--max-faults", "1", "--journal-dir", str(missing),
                "--resume"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"--resume: no campaign journal at {missing}\n"
        )
        assert not missing.exists()

    def test_journal_of_another_campaign_exits_2(self, tmp_path, capsys):
        """Exit 1 means a chip escaped detection; a journal directory that
        holds another campaign is a usage error instead."""
        argv = ["campaign", "--size", "3", "--full", "--max-faults", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--journal-dir", str(tmp_path / "journal")]
        assert main(argv + ["--trials", "10"]) == 0
        capsys.readouterr()
        assert main(argv + ["--trials", "20"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "holds campaign" in err[0], err


class TestCommands:
    def test_show(self, capsys):
        assert main(["show", "--size", "3", "--full"]) == 0
        out = capsys.readouterr().out
        assert "3x3 cells" in out and "S" in out and "M" in out

    def test_generate_with_json(self, tmp_path, capsys):
        out_file = tmp_path / "suite.json"
        code = main(
            ["generate", "--size", "3", "--full", "--out", str(out_file), "--coverage"]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["dimensions"] == [3, 3]
        assert payload["flow_paths"]
        out = capsys.readouterr().out
        assert "coverage:" in out and "0 missing" in out

    def test_campaign_exit_code(self, capsys):
        code = main(
            ["campaign", "--size", "3", "--full", "--trials", "10", "--max-faults", "2"]
        )
        assert code == 0
        assert "100.00%" in capsys.readouterr().out

    def test_warm_then_cached_diagnose_and_campaign(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = ["--size", "3", "--full", "--cache-dir", cache]
        assert main(["warm", *base]) == 0
        assert "cold" in capsys.readouterr().out
        assert main(["warm", *base]) == 0
        assert "warm" in capsys.readouterr().out
        assert main(["diagnose", *base, "--trials", "2", "--adaptive",
                     "--scenario", "stuck-at"]) == 0
        assert "warm-loaded" in capsys.readouterr().out
        # Cardinality participates in the digest: a card-2 warm is hit
        # only by a card-2 diagnose.
        assert main(["warm", *base, "--cardinality", "2"]) == 0
        capsys.readouterr()
        assert main(["diagnose", *base, "--trials", "1",
                     "--cardinality", "2"]) == 0
        assert "warm-loaded" in capsys.readouterr().out
        assert main(["campaign", *base, "--trials", "10",
                     "--max-faults", "2"]) == 0
        assert "100.00%" in capsys.readouterr().out

    def test_warm_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warm", "--size", "3"])

    def test_cache_dir_holds_suites_and_dictionaries_only(self, tmp_path):
        """Kernels are compiled, never stored: `warm`, `diagnose` and
        `campaign` on one cache leave only its suites and dictionaries."""
        cache = tmp_path / "cache"
        base = ["--size", "3", "--full", "--cache-dir", str(cache)]
        assert main(["warm", *base]) == 0
        assert main(["diagnose", *base, "--trials", "2"]) == 0
        assert main(["campaign", *base, "--trials", "10",
                     "--max-faults", "2"]) == 0
        assert sorted(p.name for p in cache.iterdir()) == [
            "dictionaries", "suites",
        ]
