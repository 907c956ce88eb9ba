"""Tests for the repro-detect command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.io.edgelist import write_edgelist
from repro.io.jsonio import save_graph_json


@pytest.fixture
def graph_json(paper_graph, tmp_path):
    path = tmp_path / "graph.json"
    save_graph_json(paper_graph, path)
    return str(path)


@pytest.fixture
def graph_edgelist(paper_graph, tmp_path):
    path = tmp_path / "graph.txt"
    write_edgelist(paper_graph, path)
    return str(path)


class TestParser:
    def test_requires_source(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--k", "2"])

    def test_requires_size(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "citation"])

    def test_source_and_dataset_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--graph", "x.json", "--dataset", "citation", "--k", "1"]
            )


class TestMain:
    def test_json_graph_table_output(self, graph_json, capsys):
        code = main(["--graph", graph_json, "--k", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top-2 of 5 nodes" in out
        assert "rank" in out

    def test_edgelist_graph(self, graph_edgelist, capsys):
        code = main(
            ["--graph", graph_edgelist, "--format", "edgelist", "--k", "1"]
        )
        assert code == 0
        assert "top-1" in capsys.readouterr().out

    def test_json_output_parses(self, graph_json, capsys):
        code = main(["--graph", graph_json, "--k", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "BSRBK"
        assert len(payload["nodes"]) == 2

    def test_named_dataset_with_percent(self, capsys):
        code = main(
            [
                "--dataset",
                "citation",
                "--scale",
                "0.02",
                "--k-percent",
                "5",
                "--method",
                "SN",
            ]
        )
        assert code == 0
        assert "SN: top-" in capsys.readouterr().out

    def test_method_n_uses_samples_flag(self, graph_json, capsys):
        code = main(
            ["--graph", graph_json, "--k", "1", "--method", "N",
             "--samples", "123", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples_used"] == 123

    def test_missing_file_reports_error(self, capsys):
        code = main(["--graph", "/nonexistent/graph.json", "--k", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [[], ["stream"]])
    @pytest.mark.parametrize(
        "content",
        ["", "[1, 2]", '{"format": "repro-uncertain-graph"}'],
        ids=["empty", "list", "no-nodes"],
    )
    def test_a_file_that_is_not_a_graph_reports_error(
        self, command, content, tmp_path, capsys
    ):
        path = tmp_path / "graph.json"
        path.write_text(content, encoding="utf-8")
        code = main([*command, "--graph", str(path), "--k", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [[], ["stream"]])
    @pytest.mark.parametrize(
        "content",
        [
            b"\x89PNG\r\n\x1a\n\x00\xff\xfe",
            b"N a notanumber\n",
            b"N a 0.1\nN b 0.2\nE a b high\n",
        ],
        ids=["binary", "risk", "probability"],
    )
    def test_an_edgelist_that_is_not_a_graph_reports_error(
        self, command, content, tmp_path, capsys
    ):
        path = tmp_path / "graph.txt"
        path.write_bytes(content)
        code = main(
            [*command, "--graph", str(path), "--format", "edgelist",
             "--k", "1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "line " in err

    def test_bad_k_reports_error(self, graph_json, capsys):
        code = main(["--graph", graph_json, "--k", "50"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_negative_percent_reports_error(self, graph_json, capsys):
        code = main(["--graph", graph_json, "--k-percent", "-5"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestStreamSubcommand:
    def test_random_patch_replay_verifies(self, graph_json, capsys):
        code = main(
            ["stream", "--graph", graph_json, "--k", "2",
             "--events", "4", "--seed", "1", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "streaming top-2" in out
        assert "4/4 steps bit-identical" in out

    def test_table_rows_split_like_the_header(self, graph_json, capsys):
        """Edge updates print with an arrow, so no event description
        adds a field to the "|"-separated step table."""
        code = main(
            ["stream", "--graph", graph_json, "--k", "2",
             "--events", "8", "--grow", "2", "--seed", "1", "--verify"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rule = next(i for i, line in enumerate(lines) if "-+-" in line)
        header, rows = lines[rule - 1], lines[rule + 1:-1]
        assert lines[-1].startswith("verify:")
        assert any(" -> " in row and "p(" in row for row in rows)
        fields = len(header.split("|"))
        assert fields == 8
        for row in rows:
            assert len(row.split("|")) == fields, row

    def test_json_output_parses(self, graph_json, capsys):
        code = main(
            ["stream", "--graph", graph_json, "--k", "1",
             "--events", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 1
        assert len(payload["steps"]) == 3
        assert {"step", "event", "mode", "sampling"} <= set(
            payload["steps"][0]
        )

    def test_dataset_source(self, capsys):
        code = main(
            ["stream", "--dataset", "guarantee", "--scale", "0.02",
             "--k-percent", "5", "--events", "2"]
        )
        assert code == 0
        assert "streaming top-" in capsys.readouterr().out

    def test_growth_replay_verifies(self, graph_json, capsys):
        code = main(
            ["stream", "--graph", graph_json, "--k", "2",
             "--events", "3", "--grow", "5", "--seed", "2", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "8/8 steps bit-identical to fresh BSR" in out

    @pytest.mark.parametrize("command", ["stream", "serve", "crawl"])
    def test_engine_options_are_retired(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        for flag in ("--engine", "--world-state", "--counter-layout"):
            assert flag not in usage

    def test_requires_source_and_size(self):
        with pytest.raises(SystemExit):
            main(["stream", "--k", "2"])
        with pytest.raises(SystemExit):
            main(["stream", "--dataset", "guarantee"])

    def test_missing_file_reports_error(self, capsys):
        code = main(["stream", "--graph", "/nonexistent.json", "--k", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestServeSubcommand:
    def test_serve_verifies_bit_identity(self, graph_json, capsys):
        code = main(
            ["serve", "--graph", graph_json, "--k", "2",
             "--tenants", "3", "--events", "4", "--mode", "serial",
             "--seed", "1", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving top-2 to 3 tenants" in out
        assert "3/3 tenants bit-identical" in out
        assert "updates/s" in out

    def test_serve_json_output_parses(self, graph_json, capsys):
        code = main(
            ["serve", "--graph", graph_json, "--k", "1",
             "--tenants", "2", "--events", "3", "--mode", "serial",
             "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tenants"] == 2
        assert payload["events"] == 6
        assert len(payload["tenants_detail"]) == 2
        assert payload["queue"]["submitted"] == 6
        assert payload["graph_bytes_shared"] > 0

    def test_serve_dataset_source(self, capsys):
        code = main(
            ["serve", "--dataset", "guarantee", "--scale", "0.02",
             "--k-percent", "1", "--tenants", "2", "--events", "2",
             "--mode", "serial"]
        )
        assert code == 0
        assert "serving top-" in capsys.readouterr().out

    def test_serve_rejects_bad_counts(self, graph_json, capsys):
        assert main(
            ["serve", "--graph", graph_json, "--k", "1",
             "--tenants", "0", "--mode", "serial"]
        ) == 1
        assert "tenants" in capsys.readouterr().err
        assert main(
            ["serve", "--graph", graph_json, "--k", "1",
             "--events", "0", "--mode", "serial"]
        ) == 1

    def test_serve_missing_file_reports_error(self, capsys):
        code = main(["serve", "--graph", "/nonexistent.json", "--k", "1",
                     "--mode", "serial"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestReplicateSubcommand:
    def test_drill_verifies_and_closes_every_replica(self, capsys):
        from repro.serving import pool

        before = set(pool._POOL_STATE)
        code = main([
            "replicate", "--dataset", "guarantee", "--scale", "0.02",
            "--k", "5", "--replicas", "2", "--verify", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deposed_primary_fenced"] is True
        assert report["replicas_bit_identical"] is True
        assert all(row["match"] for row in report["tenants_detail"])
        # Primary, promoted service and the other replica all shut
        # their pools down.
        assert set(pool._POOL_STATE) == before


class TestCrawlSubcommand:
    def test_crawl_verifies_every_step(self, capsys):
        code = main(
            ["crawl", "--dataset", "citation", "--scale", "0.05",
             "--budget", "10", "--seeds", "3", "--k", "3", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify: 11/11 steps bit-identical" in out
