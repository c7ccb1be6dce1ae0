"""Binary snapshot round trips for all three filter types."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloom2d.baselines import CountingBloomFilter, StandardBloomFilter
from bloom2d.core import TwoDBloomFilter
from bloom2d.geometry import FilterGeometry
from bloom2d.snapshot import MAGIC, load_filter, save_filter
from bloom2d.workload import generate_corpus

# header: magic 8s, version H, tag B, variant B, hash_count I at 12,
# inserted Q; then the 2D shape (rows I at 24, cols I, cell_width B,
# cell_bits B at 33, seeds from 34) or the flat shape (bits Q at 24,
# seeds 2Q, payload from 48)
HASH_COUNT_AT = 12
CELL_WIDTH_AT = 32
CELL_BITS_AT = 33
BITS_AT = 24
SEEDS_2D_AT = 34
FLAT_PAYLOAD_AT = 48
DATA_DIR = Path(__file__).parent / "data"
KEYS = [b"", b"a", b"needle", b"haystack-key-0001", bytes(range(40))]


@pytest.fixture()
def corpus():
    return generate_corpus(500, 101)


def test_two_d_round_trip_is_bit_exact(tmp_path, corpus):
    f = TwoDBloomFilter.for_capacity(500, 0.01)
    f.insert_batch(corpus.matrix)
    f.remove(corpus.key(0))
    path = tmp_path / "twod.snap"
    f.save(path)
    g = TwoDBloomFilter.load(path)
    assert np.array_equal(g.cells, f.cells)
    assert g.seeds == f.seeds
    assert g.variant == f.variant
    assert g.inserted_count == f.inserted_count
    assert (g.geometry.rows, g.geometry.cols) == (f.geometry.rows, f.geometry.cols)
    assert g.geometry.cell_bits == f.geometry.cell_bits
    # behaves identically after reload
    assert g.contains(corpus.key(1)) == f.contains(corpus.key(1))
    assert not g.contains(corpus.key(0))


@pytest.mark.parametrize("shape", [(2, 3, 5), (7, 3, 5), (13, 11, 61), (5, 61, 59)],
                         ids=lambda s: "x".join(map(str, s)))
def test_two_d_round_trip_keeps_words_and_cells(tmp_path, corpus, shape):
    """Save permutes the flat words into cells and load permutes them
    back by the Chinese remainder theorem: the words, the cells and the
    bytes survive for shapes with small and large cell_bits, filled
    sparsely and nearly full."""
    rows, cols, cell_bits = shape
    f = TwoDBloomFilter(FilterGeometry(rows=rows, cols=cols, cell_bits=cell_bits, hash_count=3))
    for count in (3, len(corpus)):
        f.insert_batch(corpus.matrix[:count])
        g = load_bytes(tmp_path, snapshot_bytes(tmp_path, f))
        assert np.array_equal(g.words, f.words)
        assert np.array_equal(g.cells, f.cells)
        assert snapshot_bytes(tmp_path, g) == snapshot_bytes(tmp_path, f)


def test_sbf_round_trip_is_bit_exact(tmp_path, corpus):
    f = StandardBloomFilter(500, 0.01)
    f.insert_batch(corpus.matrix)
    path = tmp_path / "sbf.snap"
    f.save(path)
    g = StandardBloomFilter.load(path)
    assert np.array_equal(g.words, f.words)
    assert g.seeds == f.seeds
    assert g.bits == f.bits
    assert g.hash_count == f.hash_count
    assert g.inserted_count == f.inserted_count
    assert g.contains(corpus.key(7))


def test_cbf_round_trip_is_bit_exact(tmp_path, corpus):
    f = CountingBloomFilter(500, 0.01)
    f.insert_batch(corpus.matrix)
    f.remove(corpus.key(3))
    path = tmp_path / "cbf.snap"
    f.save(path)
    g = CountingBloomFilter.load(path)
    assert np.array_equal(g.counters, f.counters)
    assert g.seeds == f.seeds
    assert g.inserted_count == f.inserted_count
    assert g.contains(corpus.key(5))


def test_save_and_reload_twice_is_stable(tmp_path, corpus):
    f = TwoDBloomFilter.for_capacity(500, 0.01)
    f.insert_batch(corpus.matrix)
    first = tmp_path / "a.snap"
    second = tmp_path / "b.snap"
    f.save(first)
    TwoDBloomFilter.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_type_tags_are_distinct(tmp_path, corpus):
    paths = {}
    for name, f in {
        "twod": TwoDBloomFilter.for_capacity(500, 0.01),
        "sbf": StandardBloomFilter(500, 0.01),
        "cbf": CountingBloomFilter(500, 0.01),
    }.items():
        path = tmp_path / f"{name}.snap"
        save_filter(f, path)
        paths[name] = path
    assert isinstance(load_filter(paths["twod"]), TwoDBloomFilter)
    assert isinstance(load_filter(paths["sbf"]), StandardBloomFilter)
    assert isinstance(load_filter(paths["cbf"]), CountingBloomFilter)
    with pytest.raises(ValueError):
        TwoDBloomFilter.load(paths["sbf"])
    with pytest.raises(ValueError):
        StandardBloomFilter.load(paths["cbf"])


def test_bad_files_are_rejected(tmp_path):
    short = tmp_path / "short.snap"
    short.write_bytes(b"xx")
    with pytest.raises(ValueError):
        load_filter(short)
    bad_magic = tmp_path / "magic.snap"
    bad_magic.write_bytes(b"NOTMAGIC" + bytes(40))
    with pytest.raises(ValueError):
        load_filter(bad_magic)
    bad_version = tmp_path / "version.snap"
    bad_version.write_bytes(MAGIC + (99).to_bytes(2, "little") + bytes(40))
    with pytest.raises(ValueError):
        load_filter(bad_version)


def small_filter(kind, seeds=None):
    """An empty small filter of ``kind``, each with two seeds."""
    return {
        "robustbf": lambda: TwoDBloomFilter(
            FilterGeometry(rows=5, cols=3, cell_bits=61, hash_count=2), seeds=seeds
        ),
        "sbf": lambda: StandardBloomFilter(20, 0.1, seeds=seeds),
        "cbf": lambda: CountingBloomFilter(20, 0.1, seeds=seeds),
    }[kind]()


def small_filters():
    """One small filter of each type, with a few keys inserted."""
    filters = {kind: small_filter(kind) for kind in ("robustbf", "sbf", "cbf")}
    for f in filters.values():
        for key in KEYS[:3]:
            f.insert(key)
    return filters


def snapshot_bytes(tmp_path, f) -> bytes:
    path = tmp_path / "source.snap"
    save_filter(f, path)
    return path.read_bytes()


def load_bytes(tmp_path, raw: bytes):
    path = tmp_path / "candidate.snap"
    path.write_bytes(raw)
    return load_filter(path)


def patched(raw: bytes, offset: int, fmt: str, value: int) -> bytes:
    out = bytearray(raw)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


@pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected(kind, seed):
    # the snapshot stores each seed as <Q, so such a filter could not be saved
    with pytest.raises(ValueError):
        small_filter(kind, [0, seed])


@pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
def test_edge_seeds_round_trip(tmp_path, kind):
    f = small_filter(kind, [0, 2**64 - 1])
    for key in KEYS:
        f.insert(key)
    raw = snapshot_bytes(tmp_path, f)
    g = load_bytes(tmp_path, raw)
    assert g.seeds == (0, 2**64 - 1)
    assert all(g.contains(key) for key in KEYS)
    assert snapshot_bytes(tmp_path, g) == raw


@pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
def test_repeated_seeds_are_rejected(tmp_path, kind):
    """Equal seeds give equal probes, so seeds ``[7, 7]`` would make a
    filter that behaves as one probe fewer.  Building one raises, and so
    does loading a snapshot whose second seed is patched to the first."""
    with pytest.raises(ValueError):
        small_filter(kind, [7, 7])
    raw = snapshot_bytes(tmp_path, small_filter(kind, [7, 8]))
    second = (SEEDS_2D_AT if kind == "robustbf" else BITS_AT + 8) + 8
    assert struct.unpack_from("<Q", raw, second) == (8,)
    with pytest.raises(ValueError):
        load_bytes(tmp_path, patched(raw, second, "<Q", 7))


@pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
def test_seeds_must_be_integers(tmp_path, kind):
    """A float seed raises ``TypeError`` rather than being truncated (1.9
    and 1 would name one filter); numpy integer seeds are read as the
    Python ints they hold, so the filter's snapshot is the same."""
    with pytest.raises(TypeError):
        small_filter(kind, [1.9, 2.2])
    f = small_filter(kind, [np.uint64(3), np.uint64(2**64 - 1)])
    assert f.seeds == (3, 2**64 - 1) and all(type(s) is int for s in f.seeds)
    keys = generate_corpus(20, 5).matrix
    f.insert_batch(keys)
    plain = small_filter(kind, [3, 2**64 - 1])
    for row in keys:
        plain.insert(row.tobytes())
    assert snapshot_bytes(tmp_path, f) == snapshot_bytes(tmp_path, plain)


@pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
def test_trailing_byte_is_rejected(tmp_path, kind):
    raw = snapshot_bytes(tmp_path, small_filters()[kind])
    load_bytes(tmp_path, raw)  # the exact bytes load
    with pytest.raises(ValueError):
        load_bytes(tmp_path, raw + b"\0")


@pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
def test_every_truncation_is_rejected(tmp_path, kind):
    raw = snapshot_bytes(tmp_path, small_filters()[kind])
    assert len(raw) < 200
    for length in range(len(raw)):
        with pytest.raises(ValueError):
            load_bytes(tmp_path, raw[:length])


def test_two_d_zero_hash_count_is_rejected(tmp_path):
    # drop both seeds so the length still matches a zero-seed header
    raw = snapshot_bytes(tmp_path, small_filters()["robustbf"])
    raw = patched(raw, HASH_COUNT_AT, "<I", 0)
    raw = raw[:SEEDS_2D_AT] + raw[SEEDS_2D_AT + 16 :]
    with pytest.raises(ValueError):
        load_bytes(tmp_path, raw)


def test_two_d_cell_bits_wider_than_cell_is_rejected(tmp_path):
    raw = snapshot_bytes(tmp_path, small_filters()["robustbf"])
    with pytest.raises(ValueError):
        load_bytes(tmp_path, patched(raw, CELL_BITS_AT, "<B", 200))


@pytest.mark.parametrize("cell_bits", [5, 3], ids=["rows", "cols"])
def test_two_d_dimension_equal_to_cell_bits_is_rejected(tmp_path, cell_bits):
    # the filter is 5x3 and empty, so no cell bit lies at or above the
    # patched cell_bits and only the shape check can reject it
    raw = snapshot_bytes(tmp_path, small_filter("robustbf"))
    with pytest.raises(ValueError, match="distinct"):
        load_bytes(tmp_path, patched(raw, CELL_BITS_AT, "<B", cell_bits))


@pytest.mark.parametrize("width", [0, 8, 16, 32, 48, 255])
def test_two_d_cell_width_other_than_64_is_rejected(tmp_path, width):
    raw = snapshot_bytes(tmp_path, small_filters()["robustbf"])
    assert raw[CELL_WIDTH_AT] == 64
    with pytest.raises(ValueError):
        load_bytes(tmp_path, patched(raw, CELL_WIDTH_AT, "<B", width))


def test_hash_count_beyond_the_bytes_present_is_rejected(tmp_path):
    for f in small_filters().values():
        raw = snapshot_bytes(tmp_path, f)
        with pytest.raises(ValueError):
            load_bytes(tmp_path, patched(raw, HASH_COUNT_AT, "<I", 2**32 - 1))


@pytest.mark.parametrize("kind", ["sbf", "cbf"])
def test_flat_zero_hash_count_is_rejected(tmp_path, kind):
    raw = snapshot_bytes(tmp_path, small_filters()[kind])
    with pytest.raises(ValueError):
        load_bytes(tmp_path, patched(raw, HASH_COUNT_AT, "<I", 0))


@pytest.mark.parametrize("kind", ["sbf", "cbf"])
def test_flat_zero_bits_is_rejected(tmp_path, kind):
    # zero bits and no payload: the length matches what the header says
    raw = snapshot_bytes(tmp_path, small_filters()[kind])
    raw = patched(raw, BITS_AT, "<Q", 0)[:FLAT_PAYLOAD_AT]
    with pytest.raises(ValueError):
        load_bytes(tmp_path, raw)


def with_bit(raw: bytes, at: int, bit: int) -> bytes:
    """``raw`` with bit ``bit`` set in the little-endian payload that
    starts at byte ``at``."""
    out = bytearray(raw)
    out[at + bit // 8] |= 1 << bit % 8
    return bytes(out)


def test_two_d_cell_bit_at_or_above_cell_bits_is_rejected(tmp_path):
    f = small_filters()["robustbf"]
    raw = snapshot_bytes(tmp_path, f)
    cells_at = SEEDS_2D_AT + 8 * len(f.seeds)
    top = f.geometry.cell_bits - 1  # the highest bit a probe sets: loads
    assert load_bytes(tmp_path, with_bit(raw, cells_at, top)).cells[0, 0] >> top & 1
    for bit in (top + 1, 63):
        with pytest.raises(ValueError):
            load_bytes(tmp_path, with_bit(raw, cells_at, bit))


def test_sbf_bit_past_bits_is_rejected(tmp_path):
    f = small_filters()["sbf"]
    assert f.bits % 64  # the last word has padding bits
    raw = snapshot_bytes(tmp_path, f)
    assert load_bytes(tmp_path, with_bit(raw, FLAT_PAYLOAD_AT, f.bits - 1)).contains(KEYS[0])
    for bit in (f.bits, 64 * f.words.size - 1):
        with pytest.raises(ValueError):
            load_bytes(tmp_path, with_bit(raw, FLAT_PAYLOAD_AT, bit))


def test_cbf_counter_above_cap_is_rejected(tmp_path):
    f = small_filters()["cbf"]
    raw = snapshot_bytes(tmp_path, f)
    cap = f.COUNTER_MAX
    assert load_bytes(tmp_path, patched(raw, FLAT_PAYLOAD_AT, "<B", cap)).counters[0] == cap
    for value in (cap + 1, 200, 255):
        with pytest.raises(ValueError):
            load_bytes(tmp_path, patched(raw, FLAT_PAYLOAD_AT, "<B", value))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["robustbf", "sbf", "cbf"]),
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), min_size=1, max_size=4),
)
def test_mutated_snapshot_loads_whole_or_raises_value_error(tmp_path_factory, kind, edits):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    out = bytearray(snapshot_bytes(tmp_path, small_filters()[kind]))
    for offset, value in edits:
        out[offset % len(out)] = value
    try:
        f = load_bytes(tmp_path, bytes(out))
    except ValueError:
        return
    for key in KEYS:  # a snapshot that loads is usable
        f.insert(key)
        assert f.contains(key)


@pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
def test_reloaded_filter_scalar_ops_match_original(tmp_path, kind):
    original = small_filters()[kind]
    reloaded = load_bytes(tmp_path, snapshot_bytes(tmp_path, original))
    removes = hasattr(original, "remove")
    for key in KEYS:
        assert reloaded.contains(key) == original.contains(key)
        original.insert(key + b"+")
        reloaded.insert(key + b"+")
        if removes:
            original.remove(key)
            reloaded.remove(key)
        assert reloaded.contains(key) == original.contains(key)
        assert reloaded.contains(key + b"+") and original.contains(key + b"+")
    assert snapshot_bytes(tmp_path, reloaded) == snapshot_bytes(tmp_path, original)


@pytest.mark.parametrize("kind,field", [
    ("robustbf", "words"), ("sbf", "words"), ("cbf", "nibbles"),
])
def test_scalar_ops_write_a_reassigned_array(kind, field):
    f = small_filters()[kind]
    old = getattr(f, field)
    before = old.copy()
    setattr(f, field, np.zeros_like(old))
    assert not f.contains(KEYS[1])
    f.insert(KEYS[4])
    assert getattr(f, field).any()
    assert f.contains(KEYS[4])
    if hasattr(f, "remove"):
        f.remove(KEYS[4])
        assert not getattr(f, field).any()
    assert np.array_equal(old, before)  # the replaced array is never touched


def golden_filter(kind):
    """The filter each committed snapshot under ``tests/data/`` holds.

    Recipe: n = 500, epsilon = 0.001, H4, default seeds, corpus seed 1.
    The first 400 keys go in as one ``insert_batch``, the last 100 one
    ``insert`` each; then keys 0-4 are removed from the 2D filter and the
    CBF.  The files were written before the filters shared a base class,
    so they pin the snapshot bytes across that and later refactors.
    """
    corpus = generate_corpus(500, 1)
    f = {
        "robustbf": lambda: TwoDBloomFilter.for_capacity(500, 0.001),
        "sbf": lambda: StandardBloomFilter(500, 0.001),
        "cbf": lambda: CountingBloomFilter(500, 0.001),
    }[kind]()
    f.insert_batch(corpus.matrix[:400])
    for index in range(400, 500):
        f.insert(corpus.key(index))
    if hasattr(f, "remove"):
        for index in range(5):
            f.remove(corpus.key(index))
    return f


@pytest.mark.parametrize("kind", ["robustbf", "sbf", "cbf"])
def test_golden_snapshot_bytes(tmp_path, kind):
    golden = (DATA_DIR / f"golden-{kind}.snap").read_bytes()
    assert snapshot_bytes(tmp_path, golden_filter(kind)) == golden
    assert snapshot_bytes(tmp_path, load_bytes(tmp_path, golden)) == golden
