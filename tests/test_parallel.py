import numpy as np
import pytest

from steinlab import cli
from steinlab.parallel import (
    ENV_THREADS,
    ordered_map,
    resolve_threads,
    row_blocks,
    tree_reduce_sum,
)


class TestResolveThreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "4")
        assert resolve_threads(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "6")
        assert resolve_threads(None) == 6

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        assert resolve_threads(None) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_threads(0)

    @pytest.mark.parametrize("value, shown", [
        (2.5, "2.5"), (0.5, "0.5"), (True, "True"), ("3", "'3'"),
    ])
    def test_rejects_non_integers_as_given(self, value, shown):
        with pytest.raises(ValueError) as err:
            resolve_threads(value)
        assert str(err.value) == f"thread count must be an integer, got {shown}"

    def test_accepts_numpy_integers(self):
        count = resolve_threads(np.int64(2))
        assert count == 2 and type(count) is int

    @pytest.mark.parametrize("raw, message", [
        ("abc", "STEINLAB_THREADS = 'abc' is not an integer"),
        ("2.5", "STEINLAB_THREADS = '2.5' is not an integer"),
        ("0", "STEINLAB_THREADS = '0' is less than 1"),
        ("-3", "STEINLAB_THREADS = '-3' is less than 1"),
    ])
    def test_bad_env_value_names_the_variable(self, monkeypatch, raw, message):
        monkeypatch.setenv(ENV_THREADS, raw)
        with pytest.raises(ValueError) as err:
            resolve_threads(None)
        assert str(err.value) == message

    def test_bad_env_value_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "score.ini"
        config.write_text("[target]\nkind = gaussian\ndim = 1\nmu = 0\n"
                          "sigma_sq = 1\nL = 2\n[kernel]\nfamily = imq\n"
                          "[score]\nsamples = samples.csv\n")
        monkeypatch.setenv(ENV_THREADS, "abc")
        assert cli.main(["score", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "steinlab: STEINLAB_THREADS = 'abc' is not an integer\n"
        )


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
