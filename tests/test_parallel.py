import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from steinlab import SampleBatch, iid_gaussian, ksd, make_gaussian
from steinlab.discrepancy import coord_stein_sums
from steinlab.kernels import KernelSpec, squared_distances
from steinlab.parallel import ordered_map, row_blocks, tree_reduce_sum
from steinlab.svgd import SvgdConfig, run_ssvgd, ssvgd_direction

IMQ = KernelSpec("imq", beta=-0.5)


class TestResolveThreads:
    """``ordered_map`` takes its worker count as given and checks it."""

    def test_rejects_nonpositive(self):
        for value in (0, -3):
            with pytest.raises(ValueError) as err:
                ordered_map(abs, [1, 2], value)
            assert str(err.value) == f"thread count = {value} is less than 1"

    @pytest.mark.parametrize("value, shown", [
        (2.5, "2.5"), (0.5, "0.5"), (True, "True"), ("3", "'3'"), (None, "None"),
        (math.nan, "nan"), (-math.inf, "-inf"),
    ])
    def test_rejects_non_integers_as_given(self, value, shown):
        # Also for one item or none, which need no pool.
        for items in ([], [1], [1, 2]):
            with pytest.raises(ValueError) as err:
                ordered_map(abs, items, value)
            assert str(err.value) == f"thread count = {shown} is not an integer"

    def test_accepts_numpy_integers(self):
        assert ordered_map(abs, [-1, 2, -3], np.int64(2)) == [1, 2, 3]

    def test_library_calls_check_the_count_where_they_spend_it(self):
        batch = SampleBatch(np.zeros((3, 1)))
        target = make_gaussian(0.0, 1.0, L=2)
        with pytest.raises(ValueError, match="thread count = 0 is less than 1"):
            ksd(batch, target, IMQ, threads=0)
        with pytest.raises(ValueError, match="does not match batch"):
            coord_stein_sums(batch, np.zeros((1, 2, 1)), IMQ, threads=0)
        # The direction checks it whether it has one block or several.
        for n in (3, 257):
            points = iid_gaussian(n, 1, 0.0, 1.0, seed=n)
            sq = squared_distances(points.points, points.points)
            for threads, message in ((0, "0 is less than 1"), (1.0, "1.0 is not an integer")):
                with pytest.raises(ValueError, match=f"thread count = {message}"):
                    ssvgd_direction(points, target, IMQ, sq, threads=threads)
        # No round, no direction: nothing spends the count.
        config = SvgdConfig(rounds=0, batch=2, kernel=IMQ)
        final = run_ssvgd(batch, target, config, threads=0).final
        assert np.array_equal(final.points, batch.points)


class TestBlocksAndReduction:
    def test_row_blocks_cover_range(self):
        assert row_blocks(5) == [(0, 5)]
        blocks = row_blocks(600)
        assert blocks == [(0, 256), (256, 512), (512, 600)]

    def test_ordered_map_preserves_order(self):
        items = list(range(37))
        assert ordered_map(lambda v: v * v, items, workers=4) == [
            v * v for v in items
        ]

    def test_ordered_map_keeps_item_order_when_later_items_finish_first(self):
        last_done = threading.Event()

        def fn(item):
            if item == 0:
                assert last_done.wait(timeout=10)
            if item == 5:
                last_done.set()
            return -item

        assert ordered_map(fn, range(6), workers=2) == [0, -1, -2, -3, -4, -5]

    def test_ordered_map_raises_the_first_failing_item_in_item_order(self):
        # Item 2 fails first, while item 1 still runs; item 1's exception is
        # raised, as a loop over the items would raise it.
        two_failed = threading.Event()

        def fn(item):
            if item == 1:
                assert two_failed.wait(timeout=10)
                raise KeyError(1)
            if item == 2:
                two_failed.set()
                raise KeyError(2)
            return item

        with pytest.raises(KeyError) as err:
            ordered_map(fn, range(6), workers=2)
        assert err.value.args == (1,)

    def test_ordered_map_runs_every_item_once_under_contention(self):
        # More workers than cores and a short switch interval: a lost update
        # of the shared item counter would run an item twice or skip one.
        calls = []

        def fn(item):
            calls.append(item)
            return 3 * item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = ordered_map(fn, range(3000), workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert results == [3 * item for item in range(3000)]
        assert Counter(calls) == Counter(range(3000))

    def test_tree_reduction_is_shape_deterministic(self):
        rng = np.random.default_rng(0)
        parts = [rng.standard_normal(3) * 10.0 ** rng.integers(-6, 6)
                 for _ in range(11)]
        first = tree_reduce_sum(parts)
        again = tree_reduce_sum(list(parts))
        assert np.array_equal(first, again)
        with pytest.raises(ValueError):
            tree_reduce_sum([])
