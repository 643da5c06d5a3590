"""Deterministic parallel helpers.

Work is always split into the same fixed row blocks and partial results are
combined in a fixed order (ordered concatenation or a pairwise reduction
tree), so numeric outputs are bit-identical for any worker count.  The
workers are plain threads that share an item counter.  Their count is a
plain positive integer argument, checked by ``errors.check_int`` in
:func:`ordered_map`, or by a caller that skips the map for one item.
"""

import threading

from .errors import check_int

BLOCK_ROWS = 256


def row_blocks(n):
    """Half-open ranges [(0, b), (b, 2b), ...] of b = ``BLOCK_ROWS`` rows over ``range(n)``."""
    return [(s, min(s + BLOCK_ROWS, n)) for s in range(0, n, BLOCK_ROWS)]


def ordered_map(fn, items, workers):
    """Apply ``fn`` to every item on ``workers`` threads, preserving item
    order in the result.  ``workers`` must be a positive integer.

    Each thread takes the next item index under a lock and stores its
    result by index.  Once every started item has finished, the exception
    of the first failing item, in item order, is raised; items not yet
    started when one fails are skipped.
    """
    check_int("thread count", workers, 1)
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    next_index = 0

    def work():
        nonlocal next_index
        while True:
            with lock:
                if errors or next_index == len(items):
                    return
                index = next_index
                next_index += 1
            try:
                results[index] = fn(items[index])
            except BaseException as err:
                with lock:
                    errors[index] = err

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(items)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


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
