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
            assert str(err.value) == f"thread count must be positive, got {value}"

    @pytest.mark.parametrize("value, shown", [
        (2.5, "2.5"), (0.5, "0.5"), (True, "True"), ("3", "'3'"), (None, "None"),
    ])
    def test_rejects_non_integers_as_given(self, value, shown):
        # Also for one item or none, which need no pool.
        for items in ([], [1], [1, 2]):
            with pytest.raises(ValueError) as err:
                ordered_map(abs, items, value)
            assert str(err.value) == f"thread count must be an integer, got {shown}"

    def test_accepts_numpy_integers(self):
        assert ordered_map(abs, [-1, 2, -3], np.int64(2)) == [1, 2, 3]

    def test_library_calls_check_the_count_where_they_spend_it(self):
        batch = SampleBatch(np.zeros((3, 1)))
        target = make_gaussian(0.0, 1.0, L=2)
        with pytest.raises(ValueError, match="thread count must be positive, got 0"):
            ksd(batch, target, IMQ, threads=0)
        with pytest.raises(ValueError, match="does not match batch"):
            coord_stein_sums(batch, np.zeros((1, 2, 1)), IMQ, threads=0)
        # The direction checks it whether it has one block or several.
        for n in (3, 257):
            points = iid_gaussian(n, 1, 0.0, 1.0, seed=n)
            sq = squared_distances(points.points, points.points)
            for threads, message in ((0, "positive, got 0"), (1.0, "an integer, got 1.0")):
                with pytest.raises(ValueError, match=f"thread count must be {message}"):
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

    def test_tree_reduction_is_shape_deterministic(self):
        rng = np.random.default_rng(0)
        parts = [rng.standard_normal(3) * 10.0 ** rng.integers(-6, 6)
                 for _ in range(11)]
        first = tree_reduce_sum(parts)
        again = tree_reduce_sum(list(parts))
        assert np.array_equal(first, again)
        with pytest.raises(ValueError):
            tree_reduce_sum([])
