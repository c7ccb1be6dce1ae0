"""Versioned binary snapshots of filter state.

Layout, all little-endian:

    magic        8s   b"2DBLOOMF"
    version      H    1
    type tag     B    1 = TwoDBloomFilter, 2 = StandardBloomFilter,
                      3 = CountingBloomFilter
    variant      B    hash stride in bytes
    hash count   I
    inserted     Q

followed by a type-specific block:

    tag 1: rows I, cols I, cell_width B, cell_bits B, seeds k*Q,
           cells as raw <u8 words, row-major; cell_width is always 64
           (the filter holds the flat bits the cells equal under the
           Chinese remainder theorem; save permutes its words into this
           layout and load checks every cell bit is below cell_bits,
           then permutes back)
    tag 2: bits Q, seeds 2*Q, words as raw <u8
    tag 3: counters Q, seeds 2*Q, counters as raw u1, one byte each
           (the filter holds them two per byte; save unpacks them and
           load checks every byte is at most 15, then packs them)

Round-trips are bit-exact.  Loading checks the length against the
header, the shape's invariants and that the payload is a state some
sequence of operations reaches, and rejects a malformed snapshot with
``ValueError``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .baselines import CountingBloomFilter, StandardBloomFilter
from .core import TwoDBloomFilter
from .geometry import CELL_WIDTH, FilterGeometry
from .hashing import HashVariant

MAGIC = b"2DBLOOMF"
VERSION = 1

_TAG_2D = 1
_TAG_SBF = 2
_TAG_CBF = 3

_HEADER = struct.Struct("<8sHBBIQ")
_SHAPE_2D = struct.Struct("<IIBB")  # rows, cols, cell_width, cell_bits
_SHAPE_FLAT = struct.Struct("<3Q")  # bits, then the two seeds


def save_filter(
    f: TwoDBloomFilter | StandardBloomFilter | CountingBloomFilter, path
) -> None:
    if isinstance(f, TwoDBloomFilter):
        tag = _TAG_2D
    elif isinstance(f, StandardBloomFilter):
        tag = _TAG_SBF
    elif isinstance(f, CountingBloomFilter):
        tag = _TAG_CBF
    else:
        raise TypeError(f"cannot snapshot {type(f).__name__}")
    hash_count = f.geometry.hash_count if tag == _TAG_2D else f.hash_count
    chunks = [
        _HEADER.pack(
            MAGIC,
            VERSION,
            tag,
            int(f.variant),
            hash_count,
            f.inserted_count,
        )
    ]
    if tag == _TAG_2D:
        g = f.geometry
        chunks.append(_SHAPE_2D.pack(g.rows, g.cols, CELL_WIDTH, g.cell_bits))
        chunks.append(struct.pack(f"<{len(f.seeds)}Q", *f.seeds))
        chunks.append(np.ascontiguousarray(f.cells, dtype="<u8").tobytes())
    else:
        chunks.append(_SHAPE_FLAT.pack(f.bits, *f.seeds))
        if tag == _TAG_SBF:
            chunks.append(np.ascontiguousarray(f.words, dtype="<u8").tobytes())
        else:
            chunks.append(f.counters.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def _check_length(raw: bytes, expected: int, path) -> None:
    if len(raw) != expected:
        raise ValueError(
            f"{path} holds {len(raw)} bytes, but its header describes {expected}"
        )


def load_filter(path) -> TwoDBloomFilter | StandardBloomFilter | CountingBloomFilter:
    """Rebuild a filter from a snapshot.

    Snapshots hold operational state only; the instrumentation counters
    ``hash_calls`` and ``probe_calls`` start again at zero.

    A snapshot is untrusted input.  Its length must equal exactly what
    its header describes before any filter is built, the shape it names
    must be valid (a 2D shape must name 64-bit cells), and the payload
    may hold no bit a filter never sets: no cell bit at or above
    ``cell_bits``, no SBF word bit past ``bits`` and no CBF counter above
    ``COUNTER_MAX``.  Anything else raises :class:`ValueError`.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path} is too short to be a filter snapshot")
    magic, version, tag, variant_bytes, hash_count, inserted = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path} is not a filter snapshot (bad magic)")
    if version != VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    variant = HashVariant(variant_bytes)
    offset = _HEADER.size
    if tag == _TAG_2D:
        if len(raw) < offset + _SHAPE_2D.size:
            raise ValueError(f"{path} is too short for a 2D filter shape")
        rows, cols, cell_width, cell_bits = _SHAPE_2D.unpack_from(raw, offset)
        offset += _SHAPE_2D.size
        if cell_width != CELL_WIDTH:
            raise ValueError(f"{path} names a {cell_width}-bit cell; cells are {CELL_WIDTH}-bit")
        _check_length(raw, offset + 8 * hash_count + 8 * rows * cols, path)
        geometry = FilterGeometry(
            rows=rows, cols=cols, cell_bits=cell_bits, hash_count=hash_count
        )
        seeds = struct.unpack_from(f"<{hash_count}Q", raw, offset)
        offset += 8 * hash_count
        cells = np.frombuffer(raw, dtype="<u8", count=rows * cols, offset=offset)
        if int(cells.max()) >> cell_bits:
            raise ValueError(f"{path} sets a cell bit at or above cell_bits {cell_bits}")
        f = TwoDBloomFilter(geometry, variant, seeds)
        f._load_cells(cells)
    elif tag in (_TAG_SBF, _TAG_CBF):
        if len(raw) < offset + _SHAPE_FLAT.size:
            raise ValueError(f"{path} is too short for a flat filter shape")
        bits, *seeds = _SHAPE_FLAT.unpack_from(raw, offset)
        offset += _SHAPE_FLAT.size
        if tag == _TAG_SBF:
            _check_length(raw, offset + 8 * ((bits + 63) // 64), path)
            f = StandardBloomFilter.from_shape(bits, hash_count, variant, seeds)
            f.words[:] = np.frombuffer(raw, dtype="<u8", count=f.words.size, offset=offset)
            if bits % 64 and int(f.words[-1]) >> bits % 64:
                raise ValueError(f"{path} sets a bit past bits {bits}")
        else:
            _check_length(raw, offset + bits, path)
            f = CountingBloomFilter.from_shape(bits, hash_count, variant, seeds)
            counters = np.frombuffer(raw, dtype=np.uint8, count=bits, offset=offset)
            if counters.max() > f.COUNTER_MAX:
                raise ValueError(f"{path} holds a counter above {f.COUNTER_MAX}")
            f._load_counters(counters)
    else:
        raise ValueError(f"unknown snapshot type tag {tag}")
    f.inserted_count = inserted
    return f
