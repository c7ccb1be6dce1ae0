#!/usr/bin/env python3
"""Schema smoke check of the benchmark at tiny sizes; asserts no timing.

    python3 perfbench/smoke.py

For every workload, traced and untraced, it checks that the summary has
exactly the keys ``correct``/``attempted``/``failed``/``metrics``, that the
metric names and units are exactly those BENCHMARK.json declares, that
every value is a finite number, and that the run reports no failed op and
a correct result.  Each workload also runs twice with one seed, and the
non-timing outputs of the two runs must be identical.
"""

from __future__ import annotations

import json
import math
import sys

import run

TINY = {
    "bulk": {"keys": 3_000},
    "stream": {"universe": 5_000, "length": 8_000, "batch": 256, "zipf_s": 1.0},
    "online": {"preload": 2_000, "inserts": 100, "hits": 100, "misses": 100},
}
SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke check failed: {message}")


def check_summary(summary: dict, declared: dict, label: str) -> None:
    check(set(summary) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: summary keys {sorted(summary)}")
    check(summary["correct"] is True, f"{label}: correct is {summary['correct']}")
    check(isinstance(summary["attempted"], int) and summary["attempted"] >= 1,
          f"{label}: attempted {summary['attempted']}")
    check(summary["failed"] == 0, f"{label}: failed {summary['failed']}")
    metrics = summary["metrics"]
    check(set(metrics) == set(declared),
          f"{label}: missing {sorted(set(declared) - set(metrics))}, "
          f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        check(set(entry) == {"value", "unit"}, f"{label}: {name} keys {sorted(entry)}")
        check(entry["unit"] == declared[name], f"{label}: {name} unit {entry['unit']}")
        value = entry["value"]
        check(isinstance(value, float) and math.isfinite(value), f"{label}: {name} = {value!r}")
    json.dumps(summary)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload list")
    run.use_source_tree()
    for workload in run.WORKLOADS:
        outputs = []
        for trace in (0, 1, 0):
            label = f"{workload}/trace={trace}"
            report, summary = run.run(workload, SEED, 0.05, bool(trace), TINY)
            check_summary(summary, declared[trace], label)
            check(all(report["checks"].values()), f"{label}: checks {report['checks']}")
            check(report["env"]["seed"] == SEED, f"{label}: env block")
            outputs.append(report["outputs"])
        check(outputs[0] == outputs[1] == outputs[2],
              f"{workload}: non-timing outputs differ between runs with one seed")
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
