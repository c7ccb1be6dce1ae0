"""Deterministic key corpora and the four lookup workloads.

Keys are 20-digit zero-padded decimal strings of 64-bit integers, so
every key is exactly 20 bytes and a key set packs into a ``(count, 20)``
uint8 matrix.  The integer universe is split in half: corpus keys come
from the low half ([0, 2^63)), guaranteed non-members from the high
half, which makes disjointness exact rather than probabilistic.

Workload kinds:

* ``same``      - the corpus itself, every query a member.
* ``mixed``     - a shuffled blend of corpus members and high-half keys.
* ``disjoint``  - high-half keys only; no query is a member.
* ``random``    - uniform draws over the full 64-bit universe, labelled
                  by exact lookup against the corpus.

Truth labels are always computed from the corpus value set, never from
a filter.

On disk a key set is a newline-delimited UTF-8 text file; query sets
carry a sidecar ``<path>.truth`` file holding the labels as packed bits
(``numpy.packbits`` order): exactly ``(n + 7) // 8`` bytes for n keys,
padding bits zero, or reading it raises ``ValueError``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KEY_WIDTH = 20
_UNIVERSE = 1 << 64
_HALF = 1 << 63


class QueryKind(str, enum.Enum):
    SAME = "same"
    MIXED = "mixed"
    DISJOINT = "disjoint"
    RANDOM = "random"


@dataclass(frozen=True)
class KeyCorpus:
    """Distinct member keys, ascending by integer value."""

    values: np.ndarray
    matrix: np.ndarray
    generator_seed: int | None
    universe_tag: str = "member-half"

    def __len__(self) -> int:
        return int(self.values.size)

    def key(self, index: int) -> bytes:
        return self.matrix[index].tobytes()

    def __iter__(self):
        for row in self.matrix:
            yield row.tobytes()


@dataclass(frozen=True)
class QuerySet:
    """Labelled queries for one workload kind.

    ``truth`` may be None for sets loaded from a keys file without its
    sidecar; benchmark runs reject such sets.
    """

    kind: QueryKind
    matrix: np.ndarray
    truth: np.ndarray | None
    generator_seed: int | None = None

    def __len__(self) -> int:
        return int(self.matrix.shape[0])


def encode_values(values: np.ndarray) -> np.ndarray:
    """Vectorised 20-digit zero-padded decimal encoding."""
    values = np.asarray(values, dtype=np.uint64)
    out = np.empty((values.size, KEY_WIDTH), dtype=np.uint8)
    remainder = values.copy()
    ten = np.uint64(10)
    for col in range(KEY_WIDTH - 1, -1, -1):
        out[:, col] = (remainder % ten).astype(np.uint8) + ord("0")
        remainder //= ten
    return out


def decode_keys(matrix: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_values`; a non-digit byte or a value of
    2**64 or more raises ``ValueError`` instead of wrapping."""
    matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
    if np.any((matrix < ord("0")) | (matrix > ord("9"))):
        raise ValueError(f"keys must be {KEY_WIDTH} decimal digits")
    # equal-width digit strings order as their values do
    if np.any(matrix.view(f"S{KEY_WIDTH}") > str(_UNIVERSE - 1).encode()):
        raise ValueError("keys must be below 2**64")
    values = np.zeros(matrix.shape[0], dtype=np.uint64)
    ten = np.uint64(10)
    for digits in (matrix - np.uint8(ord("0"))).T:
        values = values * ten + digits
    return values


def _draw_distinct(rng: np.random.Generator, count: int, low: int, high: int) -> np.ndarray:
    """``count`` distinct uint64 values uniform over [low, high), ascending."""
    if high - low < count:
        raise ValueError(f"cannot draw {count} distinct values from [{low}, {high})")
    values = np.unique(rng.integers(low, high, size=count, dtype=np.uint64))
    while values.size < count:
        extra = rng.integers(low, high, size=2 * (count - values.size), dtype=np.uint64)
        values = np.unique(np.concatenate([values, extra]))
    return values[:count]


def generate_corpus(count: int, seed: int) -> KeyCorpus:
    """``count`` distinct member keys; bit-identical for equal seeds."""
    if count < 1:
        raise ValueError(f"corpus size must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    values = _draw_distinct(rng, count, 0, _HALF)
    return KeyCorpus(values=values, matrix=encode_values(values), generator_seed=seed)


def membership_oracle(corpus: KeyCorpus, values: np.ndarray) -> np.ndarray:
    """Exact membership of each value in the corpus (binary search)."""
    values = np.asarray(values, dtype=np.uint64)
    idx = np.searchsorted(corpus.values, values)
    hit = np.zeros(values.size, dtype=bool)
    in_range = idx < corpus.values.size
    hit[in_range] = corpus.values[idx[in_range]] == values[in_range]
    return hit


def make_query_set(
    kind: QueryKind | str,
    corpus: KeyCorpus,
    size: int,
    seed: int,
    mix_ratio: float = 0.5,
) -> QuerySet:
    """Build one workload with exact truth labels.

    ``mix_ratio`` applies to the mixed kind only and is the member share
    of the queries.  A same-kind set must cover the corpus exactly, so
    ``size`` has to equal the corpus size there.
    """
    kind = QueryKind(kind)
    if size < 1:
        raise ValueError(f"query size must be >= 1, got {size}")
    if kind is QueryKind.SAME:
        if size != len(corpus):
            raise ValueError(
                f"same-set queries must cover the corpus exactly "
                f"(corpus {len(corpus)}, requested {size})"
            )
        return QuerySet(kind, corpus.matrix, np.ones(size, dtype=bool), seed)
    rng = np.random.default_rng(seed)
    if kind is QueryKind.MIXED:
        if not 0.0 < mix_ratio < 1.0:
            raise ValueError(f"mix_ratio must lie in (0, 1), got {mix_ratio}")
        member_count = round(size * mix_ratio)
        if member_count > len(corpus):
            raise ValueError(
                f"mixed set needs {member_count} distinct members but the "
                f"corpus holds {len(corpus)}"
            )
        members = rng.choice(corpus.values, size=member_count, replace=False)
        outside = _draw_distinct(rng, size - member_count, _HALF, _UNIVERSE)
        values = np.concatenate([members, outside])
        truth = np.zeros(size, dtype=bool)
        truth[:member_count] = True
        order = rng.permutation(size)
        return QuerySet(kind, encode_values(values[order]), truth[order], seed)
    if kind is QueryKind.DISJOINT:
        values = _draw_distinct(rng, size, _HALF, _UNIVERSE)
        return QuerySet(kind, encode_values(values), np.zeros(size, dtype=bool), seed)
    # random: uniform over the whole universe, duplicates possible; the
    # vanishing chance of hitting a member is absorbed by the oracle
    values = rng.integers(0, _UNIVERSE, size=size, dtype=np.uint64)
    return QuerySet(kind, encode_values(values), membership_oracle(corpus, values), seed)


def _write_keys(matrix: np.ndarray, path: Path) -> None:
    newline = np.full((matrix.shape[0], 1), ord("\n"), dtype=np.uint8)
    path.write_bytes(np.hstack([matrix, newline]).tobytes())


def _read_keys(path: Path) -> np.ndarray:
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size % (KEY_WIDTH + 1) != 0:
        raise ValueError(f"{path} is not a fixed-width key file")
    matrix = raw.reshape(-1, KEY_WIDTH + 1)
    if not np.all(matrix[:, KEY_WIDTH] == ord("\n")):
        raise ValueError(f"{path} is not newline-delimited {KEY_WIDTH}-byte keys")
    return np.ascontiguousarray(matrix[:, :KEY_WIDTH])


def truth_sidecar_path(path) -> Path:
    return Path(str(path) + ".truth")


def write_corpus(corpus: KeyCorpus, path) -> None:
    _write_keys(corpus.matrix, Path(path))


def read_corpus(path) -> KeyCorpus:
    matrix = _read_keys(Path(path))
    values = decode_keys(matrix)
    if np.any(values >= np.uint64(_HALF)):
        raise ValueError(f"{path} holds keys of 2**63 or more; corpus keys are below it")
    if np.unique(values).size != values.size:
        raise ValueError(f"{path} holds duplicate keys; a corpus must be distinct")
    order = np.argsort(values, kind="stable")
    return KeyCorpus(
        values=values[order],
        matrix=matrix[order],
        generator_seed=None,
        universe_tag="file",
    )


def write_query_set(query_set: QuerySet, path) -> None:
    """Write the keys file and, when labels exist, the truth sidecar."""
    path = Path(path)
    _write_keys(query_set.matrix, path)
    if query_set.truth is not None:
        truth_sidecar_path(path).write_bytes(np.packbits(query_set.truth).tobytes())


def read_query_set(path, kind: QueryKind | str = QueryKind.RANDOM) -> QuerySet:
    path = Path(path)
    matrix = _read_keys(path)
    truth = None
    sidecar = truth_sidecar_path(path)
    if sidecar.exists():
        count = matrix.shape[0]
        raw = sidecar.read_bytes()
        if len(raw) != (count + 7) // 8:
            raise ValueError(
                f"{sidecar} holds {len(raw)} bytes; {path} holds {count} keys, "
                f"which take {(count + 7) // 8}"
            )
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        if bits[count:].any():
            raise ValueError(f"{sidecar} sets a padding bit past its {count} labels")
        truth = bits[:count].astype(bool)
    return QuerySet(QueryKind(kind), matrix, truth, None)
