"""Tests for the command-line interface (``python -m repro``)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import DirectedGraph
from repro.graph.io import read_edge_list, write_edge_list


@pytest.fixture
def graph_file(tmp_path, cora_small):
    path = tmp_path / "graph.txt"
    write_edge_list(cora_small.graph, path)
    return path


@pytest.fixture
def truth_file(tmp_path, cora_small):
    membership = cora_small.ground_truth.membership.tocsr()
    labels = np.full(cora_small.n_nodes, -1, dtype=np.int64)
    for v in range(cora_small.n_nodes):
        start, end = membership.indptr[v], membership.indptr[v + 1]
        if end > start:
            labels[v] = membership.indices[start]
    path = tmp_path / "truth.txt"
    path.write_text("\n".join(str(v) for v in labels) + "\n")
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            ["stats", "g.txt"],
            ["symmetrize", "g.txt", "u.txt"],
            ["cluster", "u.txt", "l.txt"],
            ["pipeline", "g.txt", "l.txt"],
            ["generate", "cora", "g.txt"],
            ["evaluate", "l.txt", "t.txt"],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestStats:
    def test_prints_statistics(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "% symmetric links" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "missing.txt")]) == 1
        assert "error" in capsys.readouterr().err


class TestSymmetrize:
    def test_writes_undirected_graph(self, graph_file, tmp_path, capsys):
        out = tmp_path / "u.txt"
        code = main(
            ["symmetrize", str(graph_file), str(out), "-m", "naive"]
        )
        assert code == 0
        g = read_edge_list(out, directed=False)
        assert g.n_edges > 0

    def test_target_degree_option(self, graph_file, tmp_path, capsys):
        out = tmp_path / "u.txt"
        code = main(
            [
                "symmetrize",
                str(graph_file),
                str(out),
                "-m",
                "dd",
                "--target-degree",
                "10",
            ]
        )
        assert code == 0
        assert "chosen threshold" in capsys.readouterr().out
        g = read_edge_list(out, directed=False)
        avg_degree = 2 * g.n_edges / g.n_nodes
        assert avg_degree < 30

    def test_unknown_method(self, graph_file, tmp_path, capsys):
        code = main(
            [
                "symmetrize",
                str(graph_file),
                str(tmp_path / "u.txt"),
                "-m",
                "bogus",
            ]
        )
        assert code == 1
        assert "unknown" in capsys.readouterr().err


class TestClusterAndEvaluate:
    def test_cluster_writes_labels(self, graph_file, tmp_path, capsys):
        undirected = tmp_path / "u.txt"
        main(["symmetrize", str(graph_file), str(undirected), "-m",
              "dd", "-t", "0.05"])
        labels = tmp_path / "labels.txt"
        code = main(
            [
                "cluster",
                str(undirected),
                str(labels),
                "-c",
                "metis",
                "-k",
                "8",
            ]
        )
        assert code == 0
        values = [int(v) for v in labels.read_text().split()]
        assert len(set(values)) == 8

    def test_evaluate(self, tmp_path, capsys):
        labels = tmp_path / "l.txt"
        truth = tmp_path / "t.txt"
        labels.write_text("0\n0\n1\n1\n")
        truth.write_text("0\n0\n1\n1\n")
        assert main(["evaluate", str(labels), str(truth)]) == 0
        assert "Avg-F: 100.00" in capsys.readouterr().out

    def test_evaluate_malformed_labels(self, tmp_path, capsys):
        labels = tmp_path / "l.txt"
        truth = tmp_path / "t.txt"
        labels.write_text("0\n0\nx\n1\n")
        truth.write_text("0\n0\n1\n1\n")
        assert main(["evaluate", str(labels), str(truth)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{labels}:3" in err


class TestPipeline:
    def test_end_to_end_with_truth(
        self, graph_file, truth_file, tmp_path, capsys
    ):
        labels = tmp_path / "labels.txt"
        code = main(
            [
                "pipeline",
                str(graph_file),
                str(labels),
                "-m",
                "dd",
                "-c",
                "metis",
                "-k",
                "12",
                "-t",
                "0.05",
                "--truth",
                str(truth_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Avg-F vs ground truth" in out
        assert labels.exists()


class TestExperiment:
    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig5a" in out

    def test_run_table1_tiny(self, capsys):
        code = main(["experiment", "table1", "--scale", "0.15"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "tableXX"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestGenerate:
    def test_generate_cora_with_labels(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        labels = tmp_path / "t.txt"
        code = main(
            [
                "generate",
                "cora",
                str(graph),
                "--labels",
                str(labels),
                "-n",
                "300",
            ]
        )
        assert code == 0
        g = read_edge_list(graph)
        assert isinstance(g, DirectedGraph)
        assert labels.exists()

    def test_generate_flickr_no_truth(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        labels = tmp_path / "t.txt"
        code = main(
            [
                "generate",
                "flickr",
                str(graph),
                "--labels",
                str(labels),
                "-n",
                "400",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "no ground truth" in err
        assert not labels.exists()
