"""End-to-end CLI coverage: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bloom2d
from bloom2d.bench import CSV_COLUMNS
from bloom2d.cli import main
from bloom2d.workload import read_corpus, read_query_set


def test_bench_json_to_file(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "bench", "--filter", "robustbf", "--n", "2000",
        "--workload", "disjoint", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["config"]["filter"] == "robustbf"
    assert [row["workload"] for row in report["rows"]] == ["insert", "disjoint"]


def test_bench_csv_to_stdout(capsys):
    code = main(["bench", "--filter", "sbf", "--n", "2000", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6  # header + insert + four workloads


def test_bench_variant_flag(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "bench", "--n", "2000", "--variant", "H7",
        "--workload", "same", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert all(row["variant"] == "H7" for row in report["rows"])


def test_hash_select_emits_ranking(tmp_path):
    out = tmp_path / "ranking.json"
    code = main([
        "hash-select", "--n", "2000", "--seed", "2",
        "--query-size", "1000", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "hash-select"
    assert len(report["rows"]) == 9
    assert report["recommended"] in {row["variant"] for row in report["rows"]}


def test_generate_corpus_and_query_sets(tmp_path):
    out = tmp_path / "corpus.keys"
    code = main([
        "generate", "--n", "300", "--seed", "5", "--out", str(out),
        "--workload", "all", "--query-size", "200",
    ])
    assert code == 0
    corpus = read_corpus(out)
    assert len(corpus) == 300
    for kind, expected in (("same", 300), ("mixed", 200),
                           ("disjoint", 200), ("random", 200)):
        queries = read_query_set(f"{out}.{kind}", kind)
        assert len(queries) == expected
        assert queries.truth is not None


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.keys"
    b = tmp_path / "b.keys"
    assert main(["generate", "--n", "200", "--seed", "8", "--out", str(a)]) == 0
    assert main(["generate", "--n", "200", "--seed", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


class TestErrorExits:
    def test_capacity_underflow(self, capsys):
        assert main(["bench", "--n", "50"]) == 1
        assert "smallest supported" in capsys.readouterr().err

    def test_bad_epsilon(self, capsys):
        assert main(["bench", "--n", "2000", "--epsilon", "1.5"]) == 1
        assert "epsilon" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
        assert main(["bench", "--n", "2000", "--out", str(missing_dir)]) == 1

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--no-such-flag"])
        assert exit_info.value.code != 0


def test_module_entry_point():
    # the child imports the same package as this process, whether that came
    # from an install, PYTHONPATH or pytest's own ``pythonpath`` setting
    package_root = str(Path(bloom2d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "bloom2d", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert "bench" in result.stdout
    assert "hash-select" in result.stdout
    assert "generate" in result.stdout
