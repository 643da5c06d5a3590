"""Seeded randomness.

Every random draw in the package flows through numpy's Philox bit generator,
a counter-based 64-bit generator whose streams are reproducible across
platforms and independent of thread scheduling.  Experiment harnesses derive
per-cell seeds with ``derive_seed`` so grid cells can run in any order, or in
parallel, without sharing a stream.
"""

import hashlib

import numpy as np

from .errors import check_int

_MASK64 = (1 << 64) - 1

# A subset draw shuffles its int64 pool in row chunks of at most this many
# entries (256 KiB), or one row when a row is longer, and an SSVGD run draws
# as many rounds at once as fit.  One pool for all rows would hold
# O(count * pool_size) memory for a result of O(count * subset_size).
SUBSET_POOL_ENTRIES = 2 ** 15


def make_generator(seed) -> np.random.Generator:
    """Philox-backed generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=check_int("seed", seed) & _MASK64))


def derive_seed(seed, *parts) -> int:
    """Stable 64-bit seed for a named sub-stream.

    The label built from ``parts`` is hashed with BLAKE2b rather than
    Python's salted ``hash`` so derived seeds agree across processes.
    """
    label = "|".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(label, digest_size=8).digest()
    return (check_int("seed", seed) ^ int.from_bytes(digest, "little")) & _MASK64


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
    stream state no matter how later work is scheduled, and one call for
    ``k * count`` subsets returns, row for row, what k calls for ``count``
    would.  Rows of the returned ``(count, subset_size)`` int64 array are
    sorted ascending.  The swaps are :func:`subsets_from_uniforms` of the
    drawn ``(count, subset_size)`` uniforms.  The result equals the
    fancy-indexed swaps of one tiled pool
    (``tests/helpers.uniform_subsets_oracle``) and leaves ``gen`` in the
    same state.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    _check_subset_size(pool_size, subset_size)
    return subsets_from_uniforms(gen.random((count, subset_size)), pool_size)


def subsets_from_uniforms(u, pool_size) -> np.ndarray:
    """The subsets of ``range(pool_size)`` that a partial Fisher-Yates
    shuffle makes of a ``(count, subset_size)`` matrix of uniforms in
    [0, 1), one sorted int64 row per row of ``u``.

    At step j a row swaps its pool position j with position
    ``j + floor(u[j] * (pool_size - j))``, and its subset is the first
    ``subset_size`` positions, so each row's subset reads only its own
    uniforms.  The rows are shuffled in chunks whose tiled pool holds at
    most ``SUBSET_POOL_ENTRIES`` entries (one row at least).  One pool
    buffer serves every chunk, refilled with ``0, 1, ...`` rows before
    each, and the rows are sorted once at the end.  Each shuffle step is
    one gather and one scatter on the chunk's flat pool, indexed by the
    step's swap targets.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"expected a (count, subset_size) matrix, got shape {u.shape}")
    count, subset_size = u.shape
    _check_subset_size(pool_size, subset_size)
    if subset_size == pool_size:
        # Every subset is the whole pool, whatever the uniforms.
        return np.tile(np.arange(pool_size, dtype=np.int64), (count, 1))
    chunk = max(1, SUBSET_POOL_ENTRIES // pool_size)
    # Swap target j + floor(u * (pool_size - j)) of every subset at step j,
    # as an index into its chunk's flat pool; row j of ``targets`` holds
    # step j's, contiguous.
    steps = np.arange(subset_size)[:, None]
    targets = (u.T * (pool_size - steps)).astype(np.int64, order="C")
    targets += steps
    targets += np.arange(count) % chunk * pool_size
    out = np.empty((count, subset_size), dtype=np.int64)
    members = np.arange(pool_size, dtype=np.int64)
    pool = np.empty((min(chunk, count), pool_size), dtype=np.int64)
    flat = pool.reshape(-1)
    for c0 in range(0, count, chunk):
        rows = min(chunk, count - c0)
        pool[:rows] = members
        for j, step_targets in enumerate(targets[:, c0:c0 + chunk]):
            held = pool[:rows, j].copy()
            pool[:rows, j] = flat[step_targets]
            flat[step_targets] = held
        out[c0:c0 + rows] = pool[:rows, :subset_size]
    out.sort(axis=1)
    return out
