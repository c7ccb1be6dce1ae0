#!/usr/bin/env python3
"""Print golden hash vectors in fixture format.

The committed fixture at tests/data/hash_golden_vectors.txt was produced
by this script at the first build and is FROZEN: the test suite checks
digests against it bit-for-bit, so regenerating it only makes sense
together with a deliberate, versioned change to the hash family.

Record format, one per line: hex(key),seed,variant,hex(digest)

Each digest comes from the scalar kernel and is checked against the
batch kernel, which folds both seeds at once; the script exits non-zero
at the first record where they differ.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from bloom2d.hashing import HashVariant, derive_seeds, fold_batch, hash_key, mix_batch

GOLDEN_KEYS = [
    b"",
    b"a",
    b"abc",
    b"\x00" * 8,
    bytes(range(1, 24)),
    b"00000000000000000042",
]


def main() -> int:
    seeds = derive_seeds(2)
    for variant in HashVariant:
        batch = {}
        for key in GOLDEN_KEYS:
            matrix = np.frombuffer(key, dtype=np.uint8).reshape(1, len(key))
            batch[key] = fold_batch(mix_batch(matrix, variant), seeds)[:, 0].tolist()
        for i, seed in enumerate(seeds):
            for key in GOLDEN_KEYS:
                digest = hash_key(key, seed, variant)
                if batch[key][i] != digest:
                    sys.exit(f"batch kernel differs: {key.hex()},{seed},{variant.name}")
                print(f"{key.hex()},{seed},{variant.name},{digest:016x}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
