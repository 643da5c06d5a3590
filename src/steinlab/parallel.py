"""Deterministic parallel helpers.

Work is always split into the same fixed row blocks and partial results are
combined in a fixed order (ordered concatenation or a pairwise reduction
tree), so numeric outputs are bit-identical for any worker count.  The
worker count is a plain positive integer argument, checked where
:func:`ordered_map` spends it, or by :func:`check_workers` where a caller
that could spend it has only one item and skips the map.
"""

import numbers
from concurrent.futures import ThreadPoolExecutor

BLOCK_ROWS = 256


def row_blocks(n):
    """Half-open ranges [(0, b), (b, 2b), ...] of b = ``BLOCK_ROWS`` rows over ``range(n)``."""
    return [(s, min(s + BLOCK_ROWS, n)) for s in range(0, n, BLOCK_ROWS)]


def check_workers(workers):
    """Raise ``ValueError`` unless ``workers`` is a positive integer (a
    ``bool`` is not)."""
    if not isinstance(workers, numbers.Integral) or isinstance(workers, bool):
        raise ValueError(f"thread count must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"thread count must be positive, got {workers!r}")


def ordered_map(fn, items, workers):
    """Apply ``fn`` to every item on ``workers`` threads, preserving item
    order in the result.  ``workers`` must be a positive integer."""
    check_workers(workers)
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def tree_reduce_sum(parts):
    """Sum a list of arrays through a pairwise reduction tree.

    The tree shape depends only on ``len(parts)``, never on which worker
    produced which part, so the floating-point result is reproducible.
    """
    vecs = list(parts)
    if not vecs:
        raise ValueError("nothing to reduce")
    while len(vecs) > 1:
        merged = [vecs[i] + vecs[i + 1] for i in range(0, len(vecs) - 1, 2)]
        if len(vecs) % 2:
            merged.append(vecs[-1])
        vecs = merged
    return vecs[0]
