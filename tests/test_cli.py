"""End-to-end CLI coverage: subcommands, formats, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bloom2d
from bloom2d.bench import ALL_WORKLOADS, CSV_COLUMNS, BenchConfig, run_insert_bench, run_lookup_bench
from bloom2d.cli import build_parser, main
from bloom2d.workload import (
    decode_keys,
    generate_corpus,
    membership_oracle,
    read_corpus,
    read_query_set,
)


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


@pytest.mark.parametrize("kind", ALL_WORKLOADS)
def test_generate_writes_the_sets_bench_times(tmp_path, kind):
    """The corpus and query files ``generate`` writes hold the keys and
    truth labels ``run_lookup_bench`` builds and times at the same seed,
    sizes and mix ratio."""
    out = tmp_path / "corpus.keys"
    assert main([
        "generate", "--n", "300", "--seed", "5", "--out", str(out),
        "--workload", kind, "--query-size", "200", "--mix-ratio", "0.3",
    ]) == 0
    config = BenchConfig(filter_kind="sbf", n=300, query_size=200, seed=5, mix_ratio=0.3)
    filt, _ = run_insert_bench(config)
    timed = []
    answer = filt.contains_batch
    filt.contains_batch = lambda keys: timed.append(keys) or answer(keys)
    corpus = read_corpus(out)
    assert np.array_equal(corpus.matrix, generate_corpus(300, 5).matrix)
    row = run_lookup_bench(config, filt, corpus, kind)
    written = read_query_set(f"{out}.{kind}", kind)
    (matrix,) = timed
    assert np.array_equal(written.matrix, matrix)
    assert np.array_equal(written.truth, membership_oracle(corpus, decode_keys(matrix)))
    assert row["neg_queries"] == int(np.count_nonzero(~written.truth))


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.keys"
    b = tmp_path / "b.keys"
    assert main(["generate", "--n", "200", "--seed", "8", "--out", str(a)]) == 0
    assert main(["generate", "--n", "200", "--seed", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()



@pytest.mark.parametrize("size", ["0", "-3"])
def test_generate_rejects_query_size_below_one(tmp_path, capsys, size):
    """``--query-size 0`` is refused like any size below 1, not taken as
    unset (it used to write ``--n`` queries and exit 0), and before any
    file is written: neither the corpus nor a query set is left behind."""
    out = tmp_path / "corpus.keys"
    code = main([
        "generate", "--n", "300", "--seed", "5", "--out", str(out),
        "--workload", "disjoint", "--query-size", size,
    ])
    assert code == 1
    assert "query size must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_rejects_bad_mix_ratio_before_writing(tmp_path, capsys):
    """With ``--workload all`` the mixed set's ratio is checked before the
    corpus and the query sets built ahead of it are written."""
    code = main([
        "generate", "--n", "300", "--seed", "5", "--out", str(tmp_path / "c.keys"),
        "--workload", "all", "--query-size", "200", "--mix-ratio", "1.5",
    ])
    assert code == 1
    assert "mix_ratio" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def _run_child(*args):
    # the child imports the same package as this process, whether that came
    # from an install, PYTHONPATH or pytest's own ``pythonpath`` setting
    package_root = str(Path(bloom2d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    result = _run_child("-m", "bloom2d", "--help")
    assert result.returncode == 0
    assert "bench" in result.stdout
    assert "hash-select" in result.stdout
    assert "generate" in result.stdout


LEAN_IMPORT_CHILD = """
import json, sys
import bloom2d
report = {"loaded": sorted(m for m in ("bench", "workload", "snapshot", "cli")
                           if "bloom2d." + m in sys.modules)}
namespace = {}
exec("from bloom2d import *", namespace)
report["star_missing"] = sorted(set(bloom2d.__all__) - set(namespace))
report["misplaced"] = []
for name in bloom2d.__all__:
    value = getattr(bloom2d, name)
    home = value.__module__
    if not home.startswith("bloom2d.") or getattr(sys.modules[home], name) is not value:
        report["misplaced"].append(name)
try:
    bloom2d.no_such_name
except AttributeError as err:
    report["unknown"] = str(err)
report["submodules"] = [bloom2d.snapshot.__name__, bloom2d.workload.__name__, bloom2d.bench.__name__]
print(json.dumps(report))
"""


def test_package_import_defers_bench_workload_snapshot():
    result = _run_child("-c", LEAN_IMPORT_CHILD)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["loaded"] == []
    assert report["misplaced"] == []
    assert report["star_missing"] == []
    assert report["unknown"] == "module 'bloom2d' has no attribute 'no_such_name'"
    assert report["submodules"] == ["bloom2d.snapshot", "bloom2d.workload", "bloom2d.bench"]


def test_readme_commands_parse():
    """Every ``bloom2d`` line in README's bash blocks parses, and every
    ``python``/``python3`` line that runs a script names an existing file."""
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```bash\n(.*?)^```", (root / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in re.sub(r"\\\n", " ", block).splitlines()
    ]
    cli = [argv[1:] for argv in commands if argv[:1] == ["bloom2d"]]
    scripts = [argv[1] for argv in commands
               if len(argv) > 1 and argv[0] in ("python", "python3") and argv[1].endswith(".py")]
    assert len(cli) >= 3 and scripts
    for argv in cli:
        build_parser().parse_args(argv)
    for script in scripts:
        assert (root / script).is_file(), script
