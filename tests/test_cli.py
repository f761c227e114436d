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
            ["campaign", "--trials", "-5"],
            ["campaign", "--journal-dir", "j", "--max-attempts", "0"],
            ["diagnose", "--trials", "-1"],
        ],
        ids=["campaign-trials", "max-attempts", "diagnose-trials"],
    )
    def test_out_of_range_counts_exit_2(self, argv, capsys):
        """Rejected at parse time, before any suite is generated."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "must be at least" in capsys.readouterr().err


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

    def test_warm_table1_then_cached_generate(self, tmp_path, capsys):
        """`warm --table1` prebuilds generation-layout kernels; `generate
        --cache-dir` then warm-loads instead of compiling."""
        cache = str(tmp_path / "cache")
        assert main(["warm", "--cache-dir", cache, "--table1"]) == 0
        out = capsys.readouterr().out
        assert out.count("(cold") == 5 and "table1-30x30" in out
        assert main(["warm", "--cache-dir", cache, "--table1"]) == 0
        assert capsys.readouterr().out.count("(warm") == 5

        from repro.context import ExecutionContext
        from repro.fpva import table1_layout

        ctx = ExecutionContext(table1_layout(5), cache_dir=cache)
        ctx.kernel
        assert ctx.kernel_loads == 1 and ctx.kernel_compiles == 0
        assert main(["generate", "--size", "5", "--cache-dir", cache]) == 0
        assert "nv=" in capsys.readouterr().out
