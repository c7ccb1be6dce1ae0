#!/usr/bin/env python3
"""Benchmark of the bloom2d filters: end-to-end metrics and a traced per-layer run.

Run from the repository root, which must hold the package under ``src/``:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Workloads (all single-threaded, one process; see BENCHMARK.json):

* ``bulk``   - ~10^6 distinct 20-byte keys inserted as one batch, then the
               ``same`` and ``disjoint`` query sets looked up as whole
               batches.  The 2D filter and the SBF fit a 4 MiB L2, the CBF
               does not.
* ``stream`` - 250k Zipf(1.0) draws over 10^6 ranks as integer keys, in
               batches of 4096, each batch looked up and its absent keys
               inserted (dedup/admission).  Natural in-batch duplicates are
               kept.  Then every distinct key and as many non-members are
               looked up in batches of the same size.
* ``online`` - scalar ``insert``/``contains``, one key per call, closed loop,
               one client, on filters pre-loaded (untimed) with 10^5 keys.

Each repetition builds fresh filters and replays the same inputs, running
every step on the three filters in turn so that all of them are timed under
the same machine state.  Repetitions run until ``--seconds`` have passed;
a throughput is the first quartile of the repetitions' rates (see
``first_quartile``) and ``setup_s`` the median of its samples.
Throughputs divide keys by the calling thread's CPU time inside the calls
(``time.thread_time_ns``): the process is single-threaded and CPU-bound,
and on a shared machine CPU time leaves out the periods the thread was not
running.  Wall-clock rates are kept in the report line, and per-call
latencies are wall time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions; in the traced ones every call into the
hashing layer made by ``bloom2d.core``/``bloom2d.baselines`` is recorded
as a span.  It reports the per-layer metrics and the tracing overhead.

Standard output is one report line (env block, checks, non-timing outputs,
per-repetition values) and then, as the last line, the summary object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns, thread_time_ns
from types import SimpleNamespace

import numpy as np

from tracing import Tracer, hashing_targets, patched

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("bulk", "stream", "online")
FILTERS = ("robustbf", "sbf", "cbf")
LAYER = {"robustbf": "core", "sbf": "baselines", "cbf": "baselines"}
EPSILON = 0.001
SETUP_SAMPLES = 15
CPU_CONTROL = "none: no CPU pinning or frequency control was possible"

SIZES = {
    "bulk": {"keys": 1_000_000},
    # Zipf(1.0) over 10^6 ranks: ~68% of stream lookups hit and ~78k keys
    # are distinct, so each CBF insert call clamps ~1.1 MB of counters.  The
    # stream is short enough for ~15 repetitions in a run.
    "stream": {"universe": 1_000_000, "length": 250_000, "batch": 4096, "zipf_s": 1.0},
    "online": {"preload": 100_000, "inserts": 2_000, "hits": 2_000, "misses": 2_000},
}

TIMED_KINDS = ("insert", "hit", "miss", "lookup")


# --------------------------------------------------------------------------
# package loading and set-up


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "bloom2d" or m.startswith("bloom2d.")]:
        del sys.modules[name]


def filter_factories(b, capacity: int) -> dict:
    return {
        "robustbf": lambda: b.TwoDBloomFilter.for_capacity(capacity, EPSILON),
        "sbf": lambda: b.StandardBloomFilter(capacity, EPSILON),
        "cbf": lambda: b.CountingBloomFilter(capacity, EPSILON),
    }


def measure_setup(capacity: int, tracer: Tracer | None):
    """Cold set-up samples: import the package afresh and build the three
    empty filters.  Returns the last import and the CPU and wall seconds
    of each sample."""
    cpu, wall = [], []
    b = None
    for index in range(SETUP_SAMPLES):
        _purge_package()
        gc.collect()
        start_wall = perf_counter()
        start_cpu = thread_time_ns()
        b = importlib.import_module("bloom2d")
        if tracer is None:
            ctx = nullcontext()
        else:
            tracer.tag = ("setup", index)
            ctx = patched(tracer, [
                (b.core, "derive_geometry", "geometry.derive_geometry"),
                (b.geometry, "default_table", "primes.default_table"),
            ])
        with ctx:
            for make in filter_factories(b, capacity).values():
                make()
        cpu.append((thread_time_ns() - start_cpu) / 1e9)
        wall.append(perf_counter() - start_wall)
    return b, cpu, wall


def prime_table_bytes() -> int:
    """Bytes the cold prime table holds, seen by tracemalloc."""
    _purge_package()
    b = importlib.import_module("bloom2d")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        b.primes.default_table()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


# --------------------------------------------------------------------------
# inputs (all derived from --seed)


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def bulk_inputs(b, seed: int, size: dict):
    corpus_seed, miss_seed = _sub_seeds(seed, 2)
    start = perf_counter()
    corpus = b.workload.generate_corpus(size["keys"], corpus_seed)
    same = b.workload.make_query_set("same", corpus, len(corpus), miss_seed)
    disjoint = b.workload.make_query_set("disjoint", corpus, len(corpus), miss_seed)
    corpus_s = perf_counter() - start
    start = perf_counter()
    b.workload.encode_values(corpus.values)
    encode_s = perf_counter() - start
    inp = SimpleNamespace(
        capacity=len(corpus), members=same.matrix, misses=disjoint.matrix
    )
    return inp, corpus_s, encode_s


def stream_inputs(b, seed: int, size: dict):
    stream_seed, miss_seed = _sub_seeds(seed, 2)
    rng = np.random.default_rng(stream_seed)
    start = perf_counter()
    weights = np.arange(1, size["universe"] + 1, dtype=np.float64) ** -size["zipf_s"]
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size["length"]), side="right").astype(np.uint64)
    # an odd multiplier makes rank -> value a bijection on [0, 2^63), so
    # distinct ranks stay distinct member-half keys
    mult = rng.integers(0, 1 << 62, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    offset = rng.integers(0, 1 << 63, dtype=np.uint64)
    values = (ranks * mult + offset) & np.uint64((1 << 63) - 1)
    encode_start = perf_counter()
    keys = b.workload.encode_values(values)
    encode_s = perf_counter() - encode_start
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    batch = size["batch"]
    # a lookup is a member query when its key arrived in an earlier batch
    seen_before = first[inverse] // batch < np.arange(values.size) // batch
    members = keys[first]
    corpus = b.workload.KeyCorpus(values=distinct, matrix=members, generator_seed=stream_seed)
    misses = b.workload.make_query_set("disjoint", corpus, len(corpus), miss_seed).matrix
    corpus_s = perf_counter() - start
    inp = SimpleNamespace(
        capacity=len(corpus), keys=keys, seen_before=seen_before, batch=batch,
        members=members, misses=misses,
    )
    return inp, corpus_s, encode_s


def online_inputs(b, seed: int, size: dict):
    corpus_seed, miss_seed, op_seed = _sub_seeds(seed, 3)
    preload_n, inserts_n = size["preload"], size["inserts"]
    start = perf_counter()
    corpus = b.workload.generate_corpus(preload_n + inserts_n, corpus_seed)
    misses = b.workload.make_query_set("disjoint", corpus, size["misses"], miss_seed).matrix
    corpus_s = perf_counter() - start
    start = perf_counter()
    b.workload.encode_values(corpus.values)
    encode_s = perf_counter() - start
    rng = np.random.default_rng(op_seed)
    order = rng.permutation(len(corpus))
    preload = corpus.matrix[order[:preload_n]]
    pools = (
        iter([row.tobytes() for row in corpus.matrix[order[preload_n:]]]),
        iter([preload[i].tobytes() for i in rng.integers(0, preload_n, size["hits"])]),
        iter([row.tobytes() for row in misses]),
    )
    codes = rng.permutation(np.repeat(np.arange(3), [inserts_n, size["hits"], size["misses"]]))
    inp = SimpleNamespace(
        capacity=len(corpus), members=corpus.matrix, preload=preload, misses=misses,
        ops=[(int(code), next(pools[code])) for code in codes],
    )
    return inp, corpus_s, encode_s


INPUTS = {"bulk": bulk_inputs, "stream": stream_inputs, "online": online_inputs}


# --------------------------------------------------------------------------
# timed calls, answers and checks


def _probe_counter(filt) -> int:
    """Probes made so far: ``probe_calls`` on the flat filters, ``hash_calls``
    (one digest per probe) on the 2D filter."""
    return filt.probe_calls if hasattr(filt, "probe_calls") else filt.hash_calls


class Acc:
    """Per (filter, kind) totals of one repetition: keys, CPU and wall time
    inside the calls, probes made, and each call's wall time."""

    __slots__ = ("keys", "ns", "wall_ns", "probes", "samples")

    def __init__(self) -> None:
        self.keys = self.ns = self.wall_ns = self.probes = 0
        self.samples: list[int] = []


class Recorder:
    """Times every filter call, counts attempted/failed operations and
    collects the non-timing outputs of each repetition."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reps: list[dict] = []
        self.rep_traced: list[bool] = []
        self.outputs: list[dict] = []
        self.agreement: list[bool] = []
        self.filters: dict = {}

    def begin_rep(self) -> None:
        self.acc = defaultdict(Acc)
        self.out = {f: defaultdict(int) for f in FILTERS}
        self.answers = {f: [] for f in FILTERS}
        self.reps.append(self.acc)
        self.outputs.append(self.out)
        self.rep_traced.append(self.tracer is not None)

    def end_rep(self) -> None:
        # the SBF and CBF share seeds and probe positions, so every answer
        # must agree while no counter wraps
        sbf, cbf = (_flat(self.answers[f]) for f in ("sbf", "cbf"))
        self.agreement.append(bool(np.array_equal(sbf, cbf)))
        self.answers = None

    def call(self, fname: str, kind: str, fn, arg, count: int):
        """Call ``fn(arg)`` on ``count`` keys; ``None`` when it raised."""
        acc = self.acc[fname, kind]
        probes = _probe_counter(fn.__self__)
        self.attempted += count
        tracer = self.tracer
        if tracer is None:
            invoke, args = fn, (arg,)
        else:
            tracer.tag = (len(self.reps) - 1, fname, kind)
            invoke, args = tracer.call, (f"{LAYER[fname]}.{fn.__name__}", fn, arg)
        try:
            wall = perf_counter_ns()
            cpu = thread_time_ns()
            result = invoke(*args)
            cpu = thread_time_ns() - cpu
            wall = perf_counter_ns() - wall
        except Exception as exc:  # a raising call is a failed op, not a crash
            self.failed += count
            if len(self.errors) < 10:
                self.errors.append(f"{fname}.{kind}: {exc!r}")
            return None
        finally:
            if tracer is not None:
                # spans opened between calls (filter construction) stay untagged
                tracer.tag = None
        acc.keys += count
        acc.ns += cpu
        acc.wall_ns += wall
        acc.probes += _probe_counter(fn.__self__) - probes
        acc.samples.append(wall)
        return result

    def lookup(self, fname: str, kind: str, fn, keys, truth):
        """Timed lookup; a member answered ``False`` is a failed op."""
        scalar = isinstance(keys, bytes)
        count = 1 if scalar else keys.shape[0]
        answer = self.call(fname, kind, fn, keys, count)
        out = self.out[fname]
        out[f"queries.{kind}"] += count
        if answer is None:  # raised: already counted as failed
            answer = False if scalar else np.zeros(count, dtype=bool)
        else:
            if scalar:
                answer = bool(answer)
                missed = int(truth and not answer)
                false_pos = int(answer and not truth)
            else:
                answer = np.asarray(answer, dtype=bool)
                truth = np.asarray(truth, dtype=bool)
                missed = int(np.count_nonzero(truth & ~answer))
                false_pos = int(np.count_nonzero(~truth & answer))
            out["false_negatives"] += missed
            out[f"false_positives.{kind}"] += false_pos
            self.failed += missed
        self.answers[fname].append(answer)
        return answer

    def finish(self, fname: str, filt) -> None:
        """Record the filter's end state and keep it for the snapshot step."""
        out = self.out[fname]
        out.update(filter_state(fname, filt))
        out["hash_calls"] = filt.hash_calls
        out["probes"] = _probe_counter(filt)
        out["inserted_count"] = filt.inserted_count
        self.filters[fname] = filt


def _flat(answers: list) -> np.ndarray:
    if answers and isinstance(answers[0], np.ndarray):
        return np.concatenate(answers)
    return np.array(answers, dtype=bool)


def filter_state(fname: str, filt) -> dict:
    """Set bits (non-zero counters for the CBF), usable bits and k."""
    if fname == "robustbf":
        g = filt.geometry
        return {"set_bits": filt.count_set_bits(),
                "usable_bits": g.rows * g.cols * g.cell_bits, "k": g.hash_count}
    if fname == "sbf":
        return {"set_bits": filt.count_set_bits(), "usable_bits": filt.bits,
                "k": filt.hash_count}
    return {"set_bits": int(np.count_nonzero(filt.counters)), "usable_bits": filt.bits,
            "k": filt.hash_count}


# --------------------------------------------------------------------------
# workload repetitions


def bulk_rep(rec: Recorder, factories: dict, inp) -> None:
    # each step runs on the three filters in turn, so that all of them are
    # timed under the same machine state
    n = inp.members.shape[0]
    filters = {fname: make() for fname, make in factories.items()}
    for fname, filt in filters.items():
        rec.call(fname, "insert", filt.insert_batch, inp.members, n)
    for fname, filt in filters.items():
        rec.lookup(fname, "hit", filt.contains_batch, inp.members, True)
    for fname, filt in filters.items():
        rec.lookup(fname, "miss", filt.contains_batch, inp.misses, False)
    for fname, filt in filters.items():
        rec.finish(fname, filt)


def stream_rep(rec: Recorder, factories: dict, inp) -> None:
    # batch by batch, each batch runs on the three filters in turn
    step = inp.batch
    filters = {fname: make() for fname, make in factories.items()}
    for start in range(0, inp.keys.shape[0], step):
        batch = inp.keys[start : start + step]
        truth = inp.seen_before[start : start + step]
        for fname, filt in filters.items():
            present = rec.lookup(fname, "lookup", filt.contains_batch, batch, truth)
            fresh = batch[~present]
            rec.call(fname, "insert", filt.insert_batch, fresh, fresh.shape[0])
    for kind, keys, truth in (("hit", inp.members, True), ("miss", inp.misses, False)):
        for start in range(0, keys.shape[0], step):
            for fname, filt in filters.items():
                rec.lookup(fname, kind, filt.contains_batch, keys[start : start + step], truth)
    for fname, filt in filters.items():
        rec.finish(fname, filt)


def online_rep(rec: Recorder, factories: dict, inp) -> None:
    # op by op, each operation runs on the three filters in turn
    filters = {fname: make() for fname, make in factories.items()}
    for fname, filt in filters.items():
        rec.call(fname, "preload", filt.insert_batch, inp.preload, inp.preload.shape[0])
    for code, key in inp.ops:
        for fname, filt in filters.items():
            if code == 0:
                rec.call(fname, "insert", filt.insert, key, 1)
            elif code == 1:
                rec.lookup(fname, "hit", filt.contains, key, True)
            else:
                rec.lookup(fname, "miss", filt.contains, key, False)
    for fname, filt in filters.items():
        rec.finish(fname, filt)


REPS = {"bulk": bulk_rep, "stream": stream_rep, "online": online_rep}


def run_reps(rec: Recorder, rep_fn, factories: dict, inp, budget_s: float,
             tracer: Tracer | None = None, targets=()) -> None:
    """Repeat the workload until ``budget_s`` has passed (at least once).

    With a tracer, repetitions alternate untraced and traced, starting
    untraced and running at least one of each, so that drift in machine
    speed does not read as tracing overhead.
    """
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rec.reps) % 2 == 1
        rec.tracer = tracer if traced else None
        with patched(tracer, targets) if traced else nullcontext():
            rec.begin_rep()
            rep_fn(rec, factories, inp)
            rec.end_rep()
        rec.tracer = None
        if perf_counter() - start >= budget_s and (tracer is None or len(rec.reps) >= 2):
            return


# --------------------------------------------------------------------------
# memory, snapshots, hashing kernel


def measure_memory(factories: dict, keys: np.ndarray) -> dict:
    """tracemalloc view of each filter after inserting ``keys`` as one batch:
    bytes held, and the transient peak above the empty filter during insert."""
    memory = {}
    for fname, make in factories.items():
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            filt = make()
            built = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            filt.insert_batch(keys)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        memory[fname] = {"held_bytes": held - base, "insert_peak_bytes": peak - built}
        del filt
    return memory


def snapshot_roundtrip(b, rec: Recorder, tracer: Tracer | None, sample: np.ndarray) -> dict:
    """Save and reload each filter of the last repetition; the reloaded
    filter must answer ``sample`` exactly like the original."""
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for fname, filt in rec.filters.items():
        path = OUT_DIR / f"snapshot-{fname}.bin"
        calls = []
        for name, fn, args in (("snapshot.save_filter", b.snapshot.save_filter, (filt, path)),
                               ("snapshot.load_filter", b.snapshot.load_filter, (path,))):
            start = perf_counter_ns()
            if tracer is None:
                result = fn(*args)
            else:
                tracer.tag = ("snapshot", fname)
                result = tracer.call(name, fn, *args)
            calls.append((perf_counter_ns() - start, result))
        size = path.stat().st_size
        path.unlink()
        loaded = calls[1][1]
        results[fname] = {
            "save_s": calls[0][0] / 1e9,
            "load_s": calls[1][0] / 1e9,
            "bytes": size,
            "same_answers": bool(np.array_equal(filt.contains_batch(sample),
                                                loaded.contains_batch(sample))),
        }
    return results


def hash_kernel(b, keys: np.ndarray) -> dict:
    """Standalone ``hash_batch`` (one seed, H4) and scalar ``hash_key``."""
    h = b.hashing
    seed = h.derive_seeds(1)[0]
    times = []
    for _ in range(3):
        start = perf_counter_ns()
        h.hash_batch(keys, seed, h.HashVariant.H4)
        times.append(perf_counter_ns() - start)
    sample = [row.tobytes() for row in keys[:1000]]
    per_call_us = []
    for _ in range(10):
        start = perf_counter_ns()
        for key in sample:
            h.hash_key(key, seed, h.HashVariant.H4)
        per_call_us.append((perf_counter_ns() - start) / len(sample) / 1e3)
    return {
        "kernel_mkeys": keys.shape[0] * 1e3 / statistics.median(times),
        "scalar_us": statistics.median(per_call_us),
    }


# --------------------------------------------------------------------------
# metrics


def _rate(acc: dict, fname: str, kinds, clock: str) -> float:
    """Keys or queries per microsecond, i.e. millions per second."""
    keys = sum(acc[fname, k].keys for k in kinds if (fname, k) in acc)
    ns = sum(getattr(acc[fname, k], clock) for k in kinds if (fname, k) in acc)
    return keys * 1e3 / ns


def rep_rates(acc: dict, clock: str = "ns") -> dict:
    """End-to-end throughputs of one repetition, by default per CPU second
    of the calling thread (``clock="wall_ns"`` for wall-clock rates)."""
    values = {}
    for f in FILTERS:
        values[f"insert_mops.{f}"] = _rate(acc, f, ["insert"], clock)
        values[f"lookup_hit_mops.{f}"] = _rate(acc, f, ["hit"], clock)
        values[f"lookup_miss_mops.{f}"] = _rate(acc, f, ["miss"], clock)
        main = ["lookup"] if (f, "lookup") in acc else ["hit", "miss"]
        values[f"lookup_mops.{f}"] = _rate(acc, f, main, clock)
    return values


def first_quartile(values: list) -> float:
    """The rate that three repetitions in four meet or beat.

    On a shared host the machine's speed switches, for seconds to minutes,
    between a common slower state and bursts up to ~1.5x faster when the
    neighbours idle.  The median of a run lands in either state, depending
    on how much of the run the bursts cover; the first quartile stays in
    the slower state unless bursts cover most of the run, and so spreads
    about half as much between runs.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(rec: Recorder, setup: list, memory: dict, distinct: int) -> dict:
    untraced = [rep_rates(acc) for acc, t in zip(rec.reps, rec.rep_traced) if not t]
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name in untraced[0]:
        unit = "Mkeys/s" if name.startswith("insert") else "Mqueries/s"
        metrics[name] = (first_quartile([r[name] for r in untraced]), unit)
    for f in FILTERS:
        metrics[f"bits_per_key.{f}"] = (memory[f]["held_bytes"] * 8 / distinct, "bits")
    return metrics


def per_layer(rec, tracer, memory, distinct, snapshots, kernel, table_bytes, corpus_s, encode_s):
    """Per-layer metrics: span self times and counts from the traced
    repetitions, latencies and probe counters from the untraced ones."""
    cols = tracer.columns()
    ids = {name: i for i, name in enumerate(tracer.names)}
    name_id = cols["name_id"]
    metrics = {}

    # set-up spans: derive_geometry self time and the cold prime table
    derive = cols["self_ns"][name_id == ids["geometry.derive_geometry"]] / 1e9
    table = cols["duration_ns"][name_id == ids["primes.default_table"]] / 1e9
    metrics["primes.table_s"] = (float(np.median(table)), "s")
    metrics["primes.table_bytes"] = (table_bytes, "bytes")
    metrics["geometry.derive_s"] = (float(np.median(derive)), "s")
    metrics["workload.corpus_s"] = (corpus_s, "s")
    metrics["workload.encode_s"] = (encode_s, "s")

    # sums per (repetition, filter, kind) over the traced filter calls
    ops, keys = [], []
    for op, tag in tracer.tags.items():
        if isinstance(tag, tuple) and isinstance(tag[0], int) and tag[2] in TIMED_KINDS:
            ops.append(op)
            keys.append((tag[0] * len(FILTERS) + FILTERS.index(tag[1])) * len(TIMED_KINDS)
                        + TIMED_KINDS.index(tag[2]))
    key_of_op = np.full(name_id.size, -1, dtype=np.int64)
    key_of_op[ops] = keys
    key = key_of_op[cols["op"]]
    is_hashing = np.isin(name_id, [i for n, i in ids.items() if n.startswith("hashing.")])
    top = cols["parent"] < 0
    shape = (len(rec.reps), len(FILTERS), len(TIMED_KINDS))

    def total(values, mask):
        mask = mask & (key >= 0)
        sums = np.bincount(key[mask], weights=values[mask], minlength=int(np.prod(shape)))
        return sums.reshape(shape)

    hashing_ns = total(cols["self_ns"], is_hashing)
    digests = total(cols["digests"], is_hashing)
    layer_ns = total(cols["self_ns"], top)
    call_ns = total(cols["duration_ns"], top)
    classes = {"insert": [0], "lookup": [1, 2, 3]}

    traced = [r for r, t in enumerate(rec.rep_traced) if t]
    untraced = [r for r, t in enumerate(rec.rep_traced) if not t]
    for fi, f in enumerate(FILTERS):
        layer = LAYER[f]
        for cls, kinds in classes.items():
            hashing = hashing_ns[traced][:, fi, kinds].sum(axis=1)
            calls = call_ns[traced][:, fi, kinds].sum(axis=1)
            layer_self = layer_ns[traced][:, fi, kinds].sum(axis=1)
            metrics[f"hashing.self_s.{f}.{cls}"] = (float(np.median(hashing)) / 1e9, "s")
            metrics[f"hashing.share.{f}.{cls}"] = (float(np.median(hashing / calls)), "fraction")
            metrics[f"{layer}.self_s.{f}.{cls}"] = (float(np.median(layer_self)) / 1e9, "s")
        for kind in ("insert", "hit", "miss"):
            hashed = sum(rec.reps[r][f, kind].keys for r in traced)
            produced = digests[traced, fi, TIMED_KINDS.index(kind)].sum()
            metrics[f"hashing.digests_per_key.{f}.{kind}"] = (float(produced) / hashed, "count")
        first = rec.reps[untraced[0]]
        for kind in ("hit", "miss"):
            metrics[f"{layer}.probes_per_lookup.{f}.{kind}"] = (
                first[f, kind].probes / first[f, kind].keys, "count")
        for cls, kinds in (("insert", ["insert"]), ("lookup", ["hit", "miss", "lookup"])):
            samples = [s for r in untraced for k in kinds if (f, k) in rec.reps[r]
                       for s in rec.reps[r][f, k].samples]
            p50, p99 = np.percentile(np.array(samples) / 1e3, [50, 99])
            metrics[f"{layer}.call_p50_us.{f}.{cls}"] = (float(p50), "us")
            metrics[f"{layer}.call_p99_us.{f}.{cls}"] = (float(p99), "us")
            metrics[f"{layer}.call_samples.{f}.{cls}"] = (len(samples), "count")
        metrics[f"{layer}.insert_peak_bytes_per_key.{f}"] = (
            memory[f]["insert_peak_bytes"] / distinct, "B/key")
        quality = fpp_report(rec.outputs[0][f])
        metrics[f"{layer}.fill.{f}"] = (quality["fill"], "fraction")
        metrics[f"{layer}.fpp.{f}"] = (quality["fpp"], "fraction")
        metrics[f"{layer}.predicted_fpp.{f}"] = (quality["predicted_fpp"], "fraction")
        snap = snapshots[f]
        metrics[f"snapshot.save_s.{f}"] = (snap["save_s"], "s")
        metrics[f"snapshot.load_s.{f}"] = (snap["load_s"], "s")
        metrics[f"snapshot.bytes_per_key.{f}"] = (snap["bytes"] / distinct, "B/key")
    metrics["hashing.kernel_mkeys"] = (kernel["kernel_mkeys"], "Mkeys/s")
    metrics["hashing.scalar_us"] = (kernel["scalar_us"], "us")

    def timed_ns(r):
        return sum(acc.wall_ns for (f, k), acc in rec.reps[r].items() if k in TIMED_KINDS)

    base = statistics.median(timed_ns(r) for r in untraced)
    with_spans = statistics.median(timed_ns(r) for r in traced)
    metrics["trace.overhead_pct"] = (100.0 * (with_spans - base) / base, "%")
    return metrics


def fpp_report(out: dict) -> dict:
    """Measured FPP on the miss queries beside the predicted fill^k."""
    fill = out["set_bits"] / out["usable_bits"]
    return {
        "fill": fill,
        "fpp": out["false_positives.miss"] / out["queries.miss"],
        "predicted_fpp": fill ** out["k"],
    }


# --------------------------------------------------------------------------
# environment and entry point


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_revision": git_revision(),
        "workload": workload,
        "seed": seed,
        "cpu_control": CPU_CONTROL,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict = SIZES):
    """Run one workload; returns (report, summary)."""
    size = sizes[workload]
    b = importlib.import_module("bloom2d")
    inp, corpus_s, encode_s = INPUTS[workload](b, seed, size)
    distinct = inp.members.shape[0]

    tracer = Tracer() if trace else None
    table_bytes = prime_table_bytes() if trace else None
    b, setup, setup_wall = measure_setup(inp.capacity, tracer)
    factories = filter_factories(b, inp.capacity)
    memory = measure_memory(factories, inp.members)

    rec = Recorder()
    run_reps(rec, REPS[workload], factories, inp, seconds, tracer,
             hashing_targets([b.core, b.baselines]))

    sample = np.concatenate([inp.members[:4096], inp.misses[:4096]])
    snapshots = snapshot_roundtrip(b, rec, tracer, sample)
    checks = {
        "no_false_negatives": all(o[f]["false_negatives"] == 0 for o in rec.outputs for f in FILTERS),
        "no_raised_calls": not rec.errors,
        "cbf_answers_equal_sbf": all(rec.agreement),
        "repetitions_identical": all(o == rec.outputs[0] for o in rec.outputs),
        "snapshot_roundtrip": all(s["same_answers"] for s in snapshots.values()),
    }
    if trace:
        kernel = hash_kernel(b, inp.members)
        metrics = per_layer(rec, tracer, memory, distinct, snapshots, kernel,
                            table_bytes, corpus_s, encode_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.npz",
                     json.dumps({"workload": workload, "seed": seed}))
    else:
        metrics = end_to_end(rec, setup, memory, distinct)

    outputs = {f: dict(sorted(rec.outputs[0][f].items())) for f in FILTERS}
    report = {
        "env": environment(workload, seed),
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": size,
        "distinct_keys": distinct,
        "checks": checks,
        "errors": rec.errors,
        "failed_share": rec.failed / rec.attempted,
        "outputs": outputs,
        "fpp": {f: fpp_report(outputs[f]) for f in FILTERS},
        "memory": memory,
        "snapshot_bytes": {f: snapshots[f]["bytes"] for f in FILTERS},
        "setup_samples_s": {"cpu": setup, "wall": setup_wall},
        "repetitions": [
            {"traced": t, "cpu": rep_rates(acc), "wall": rep_rates(acc, "wall_ns")}
            for acc, t in zip(rec.reps, rec.rep_traced)
        ],
    }
    summary = {
        "correct": all(checks.values()) and rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return report, summary


def use_source_tree() -> None:
    """Import bloom2d from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bloom2d" / "__init__.py").is_file():
        print(f"error: no bloom2d package under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    use_source_tree()
    report, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
