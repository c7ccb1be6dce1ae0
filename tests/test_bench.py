"""Benchmark harness: rows, accounting, determinism, report formats."""

import json

import pytest

from bloom2d import bench
from bloom2d.bench import (
    ALL_WORKLOADS,
    CSV_COLUMNS,
    BenchConfig,
    recommend_variant,
    render_report,
    run_bench,
    run_hash_selection,
    run_insert_bench,
    run_lookup_bench,
    workload_seed,
)
from bloom2d.hashing import HashVariant
from bloom2d.workload import QuerySet, generate_corpus, make_query_set


def _strip_timing(obj):
    """Drop every timing-derived field, recursively."""
    if isinstance(obj, dict):
        return {
            key: _strip_timing(value)
            for key, value in obj.items()
            if not (key == "seconds" or key == "mops"
                    or key.endswith("_seconds") or key.endswith("_mops"))
        }
    if isinstance(obj, list):
        return [_strip_timing(item) for item in obj]
    return obj


class TestBenchConfig:
    def test_defaults(self):
        config = BenchConfig()
        assert config.workloads == ALL_WORKLOADS
        assert config.effective_query_size() == config.n

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"filter_kind": "xor"},
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"reps": 0},
            {"n": 0},
            {"workloads": ("same", "zipfian")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BenchConfig(**kwargs)


def test_workload_seeds_are_distinct_and_stable():
    seeds = {kind: workload_seed(1, kind) for kind in ALL_WORKLOADS}
    assert len(set(seeds.values())) == len(ALL_WORKLOADS)
    assert seeds == {kind: workload_seed(1, kind) for kind in ALL_WORKLOADS}
    assert workload_seed(1, "mixed") != workload_seed(2, "mixed")


class TestInsertBench:
    def test_smoke_run_bookkeeping(self):
        config = BenchConfig(filter_kind="robustbf", n=1000)
        filt, row = run_insert_bench(config)
        assert row["ops"] == 1000
        assert row["workload"] == "insert"
        assert row["seconds"] > 0
        assert row["mops"] == row["ops"] / (1e6 * row["seconds"])
        assert row["fp_count"] is None
        assert filt.inserted_count == 1000

    def test_geometry_echo(self):
        config = BenchConfig(filter_kind="robustbf", n=1000)
        _filt, row = run_insert_bench(config)
        assert row["X"] is not None and row["Y"] is not None
        assert row["beta"] == 61
        config = BenchConfig(filter_kind="sbf", n=1000)
        _filt, row = run_insert_bench(config)
        assert row["X"] is None and row["Y"] is None and row["beta"] is None
        assert row["k"] == 10

    def test_hash_call_accounting_half_of_flat_probes(self):
        """At the default target the 2D filter spends five digests per
        insert against the flat filter's ten probe positions."""
        corpus = generate_corpus(1000, 1)
        config = BenchConfig(filter_kind="robustbf", n=1000)
        twod, _ = run_insert_bench(config, corpus)
        config = BenchConfig(filter_kind="sbf", n=1000)
        flat, _ = run_insert_bench(config, corpus)
        assert twod.geometry.hash_count == 5
        assert flat.hash_count == 10
        assert twod.hash_calls / flat.probe_calls == 0.5

    def test_reps_average(self):
        config = BenchConfig(filter_kind="robustbf", n=1000, reps=3)
        filt, row = run_insert_bench(config)
        assert row["ops"] == 1000
        assert filt.inserted_count == 1000  # last repetition's filter


@pytest.fixture(scope="module")
def populated():
    config = BenchConfig(filter_kind="robustbf", n=5000)
    corpus = generate_corpus(config.n, config.seed)
    filt, _ = run_insert_bench(config, corpus)
    return config, filt, corpus


class TestLookupBench:
    def test_same_set_is_perfect(self, populated):
        config, filt, corpus = populated
        row = run_lookup_bench(config, filt, corpus, "same")
        assert row["fp_count"] == 0
        assert row["neg_queries"] == 0
        assert row["fpp"] == 0.0
        assert row["accuracy_pct"] == 100.0

    @pytest.mark.parametrize("kind", ["mixed", "disjoint", "random"])
    def test_accuracy_complements_fpp(self, populated, kind):
        config, filt, corpus = populated
        row = run_lookup_bench(config, filt, corpus, kind)
        assert row["accuracy_pct"] == pytest.approx(
            100.0 * (1.0 - row["fpp"]), rel=1e-12
        )
        assert row["ops"] == config.n

    def test_fpp_counts_negatives_only(self, populated):
        config, filt, corpus = populated
        row = run_lookup_bench(config, filt, corpus, "mixed")
        assert row["neg_queries"] == config.n // 2
        assert row["fpp"] == row["fp_count"] / row["neg_queries"]

    def test_missing_truth_rejected(self, populated):
        config, filt, corpus = populated
        queries = make_query_set("disjoint", corpus, 100, 3)
        unlabelled = QuerySet(queries.kind, queries.matrix, None)
        with pytest.raises(ValueError):
            run_lookup_bench(config, filt, corpus, "disjoint", queries=unlabelled)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
    def test_non_timing_fields_are_reproducible(self, kind):
        config = dict(filter_kind=kind, n=5000, seed=9)
        first = run_bench(BenchConfig(**config))
        second = run_bench(BenchConfig(**config))
        assert _strip_timing(first) == _strip_timing(second)


class TestRecommendVariant:
    @staticmethod
    def _row(variant, block_bytes, max_fpp, lookup_mops):
        return {
            "variant": variant,
            "block_bytes": block_bytes,
            "max_fpp": max_fpp,
            "lookup_mops": lookup_mops,
        }

    def test_best_mops_among_qualifiers(self):
        rows = [
            self._row("H1", 3, 0.0005, 2.0),
            self._row("H2", 4, 0.0004, 5.0),
            self._row("H3", 5, 0.5, 9.0),  # disqualified on FPP
        ]
        recommended, excluded, fallback = recommend_variant(rows, 0.001)
        assert recommended == "H2"
        assert excluded == ["H3"]
        assert not fallback

    def test_tie_breaks_toward_smaller_stride(self):
        rows = [
            self._row("H5", 7, 0.0005, 5.0),
            self._row("H2", 4, 0.0005, 5.0),
        ]
        recommended, _excluded, _fallback = recommend_variant(rows, 0.001)
        assert recommended == "H2"

    def test_fallback_when_nothing_qualifies(self):
        rows = [
            self._row("H1", 3, 0.02, 2.0),
            self._row("H2", 4, 0.01, 1.0),
        ]
        recommended, excluded, fallback = recommend_variant(rows, 0.001)
        assert fallback
        assert recommended == "H2"  # smallest worst-case FPP
        assert excluded == ["H1", "H2"]


@pytest.fixture(scope="module")
def report():
    return run_bench(BenchConfig(filter_kind="sbf", n=2000, seed=5))


class TestReports:
    def test_json_round_trips(self, report):
        parsed = json.loads(render_report(report, "json"))
        assert parsed["schema_version"] == 1
        assert parsed["config"]["filter"] == "sbf"
        assert len(parsed["rows"]) == 1 + len(ALL_WORKLOADS)

    def test_csv_header_and_rows(self, report):
        lines = render_report(report, "csv").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(report["rows"])
        # blank geometry cells for the flat filter
        assert lines[1].split(",")[6] == ""

    def test_empty_report_is_header_only(self):
        empty = {"schema_version": 1, "kind": "bench", "config": {}, "rows": []}
        assert render_report(empty, "csv") == ",".join(CSV_COLUMNS) + "\n"

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render_report(report, "yaml")

    def test_variant_column_present(self, report):
        assert all(row["variant"] == "H4" for row in report["rows"])


def test_variant_override_changes_results():
    base = dict(filter_kind="robustbf", n=5000, seed=9, workloads=("disjoint",))
    h4 = run_bench(BenchConfig(**base, variant=HashVariant.H4))
    h7 = run_bench(BenchConfig(**base, variant=HashVariant.H7))
    assert h4["rows"][1]["variant"] == "H4"
    assert h7["rows"][1]["variant"] == "H7"
    assert h4["rows"][1]["fp_count"] != h7["rows"][1]["fp_count"]


def test_hash_selection_builds_each_query_set_once(monkeypatch):
    """The query sets depend on the seed, not on the variant, so the nine
    variants share one set per workload."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return make_query_set(*args, **kwargs)

    monkeypatch.setattr(bench, "make_query_set", spy)
    report = run_hash_selection(BenchConfig(n=2000, seed=3))
    assert len(report["rows"]) == len(HashVariant)
    assert sorted(calls) == sorted(ALL_WORKLOADS)
