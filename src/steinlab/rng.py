"""Seeded randomness.

Every random draw in the package flows through numpy's Philox bit generator,
a counter-based 64-bit generator whose streams are reproducible across
platforms and independent of thread scheduling.  Experiment harnesses derive
per-cell seeds with ``derive_seed`` so grid cells can run in any order, or in
parallel, without sharing a stream.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def make_generator(seed) -> np.random.Generator:
    """Philox-backed generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def derive_seed(seed, *parts) -> int:
    """Stable 64-bit seed for a named sub-stream.

    The label built from ``parts`` is hashed with BLAKE2b rather than
    Python's salted ``hash`` so derived seeds agree across processes.
    """
    label = "|".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(label, digest_size=8).digest()
    return (int(seed) ^ int.from_bytes(digest, "little")) & _MASK64


def _check_subset_size(pool_size, subset_size):
    if not 1 <= subset_size <= pool_size:
        raise ValueError(
            f"subset size {subset_size} not in [1, {pool_size}]"
        )


def uniform_subsets(gen, count, pool_size, subset_size) -> np.ndarray:
    """Draw ``count`` independent uniform subsets of ``range(pool_size)``.

    Each subset holds ``subset_size`` distinct members chosen by a partial
    Fisher-Yates shuffle.  Exactly ``count * subset_size`` uniforms are
    consumed from ``gen`` in row-major order (all draws for subset i precede
    those for subset i+1), so the assignment is a pure function of the
    stream state no matter how later work is scheduled.  Rows of the
    returned ``(count, subset_size)`` int64 array are sorted ascending.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    _check_subset_size(pool_size, subset_size)
    u = gen.random((count, subset_size))
    pool = np.tile(np.arange(pool_size, dtype=np.int64), (count, 1))
    if subset_size == pool_size:
        # Every subset is the whole pool; the draws above still advance the
        # stream as the swaps would.
        return pool
    rows = np.arange(count)
    for j in range(subset_size):
        r = j + (u[:, j] * (pool_size - j)).astype(np.int64)
        pool[rows, j], pool[rows, r] = pool[rows, r], pool[rows, j]
    return np.sort(pool[:, :subset_size], axis=1)


def uniform_subset(gen, pool_size, subset_size) -> np.ndarray:
    """One uniform subset: the same draws from ``gen`` and the same sorted
    int64 result as ``uniform_subsets(gen, 1, pool_size, subset_size)[0]``.

    For draws made one at a time in a loop, such as SGLD minibatches.  The
    swaps run on Python ints (positions moved so far are kept in a dict)
    instead of as about five numpy calls per member, each of which
    releases the GIL and so hands it to any other busy thread.
    """
    _check_subset_size(pool_size, subset_size)
    u = gen.random(subset_size).tolist()
    moved = {}
    picks = []
    for j, uj in enumerate(u):
        r = j + int(uj * (pool_size - j))
        picks.append(moved.get(r, r))
        moved[r] = moved.get(j, j)
    picks.sort()
    return np.array(picks, dtype=np.int64)
