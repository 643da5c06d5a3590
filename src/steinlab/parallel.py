"""Deterministic parallel helpers.

Work is always split into the same fixed row blocks and partial results are
combined in a fixed order (ordered concatenation or a pairwise reduction
tree), so numeric outputs are bit-identical for any worker count.  The
worker count itself comes from an explicit argument, then the
``STEINLAB_THREADS`` environment variable, then 1.
"""

import os
from concurrent.futures import ThreadPoolExecutor

ENV_THREADS = "STEINLAB_THREADS"
BLOCK_ROWS = 256


def resolve_threads(threads=None) -> int:
    if threads is None:
        raw = os.environ.get(ENV_THREADS, "").strip()
        if not raw:
            return 1
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} = {raw!r} is not an integer") from None
        if threads < 1:
            raise ValueError(f"{ENV_THREADS} = {raw!r} is less than 1")
    threads = int(threads)
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    return threads


def row_blocks(n, block_rows=BLOCK_ROWS):
    """Half-open row ranges [(0, b), (b, 2b), ...] covering ``range(n)``."""
    return [(s, min(s + block_rows, n)) for s in range(0, n, block_rows)]


def ordered_map(fn, items, workers):
    """Apply ``fn`` to every item, preserving item order in the result."""
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
