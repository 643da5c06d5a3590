import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    assert_rel_close,
    fd_kernel_cross,
    fd_kernel_grad_x,
    kernel_cross_deriv_diag,
    kernel_eval,
    kernel_gram,
    kernel_grad_x,
    kernel_grad_y,
    median_heuristic_oracle,
    random_kernel_spec,
)
from steinlab import DegenerateBandwidthWarning, KernelSpec
from steinlab import cli, kernels

ALL_SPECS = [
    KernelSpec("imq", beta=-0.5),
    KernelSpec("imq", beta=-0.25, bandwidth=2.0),
    KernelSpec("log_inverse", beta=-0.5, alpha=1.0),
    KernelSpec("log_inverse", beta=-1.2, alpha=0.7, bandwidth=1.5),
    KernelSpec("rbf", bandwidth=2.0),
]


class TestEval:
    def test_zero_distance_values(self):
        x = np.array([0.4, -1.3, 2.2])
        assert kernel_eval(KernelSpec("imq", beta=-0.5), x, x) == 1.0
        assert kernel_eval(KernelSpec("rbf", bandwidth=2.0), x, x) == 1.0
        spec = KernelSpec("log_inverse", beta=-0.5, alpha=1.7)
        assert kernel_eval(spec, x, x) == pytest.approx(1.7 ** -0.5, rel=1e-15)

    def test_imq_unit_distance(self):
        spec = KernelSpec("imq", beta=-0.5)
        assert kernel_eval(spec, [0.0], [1.0]) == pytest.approx(
            0.7071067811865476, rel=1e-14
        )
        assert kernel_eval(spec, [0.0], [1.0]) == 2.0 ** -0.5

    def test_rbf_zero_distance_with_bandwidth(self):
        assert kernel_eval(KernelSpec("rbf", bandwidth=2.0), [0.0], [0.0]) == 1.0

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_symmetry(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_eval(KernelSpec("imq"), [0.0, 1.0], [0.0])


class TestDerivatives:
    def test_imq_grad_example(self):
        spec = KernelSpec("imq", beta=-0.5)
        g = kernel_grad_x(spec, [0.0], [1.0])
        assert g[0] == pytest.approx(2.0 ** -1.5, rel=1e-14)
        assert_rel_close(g, fd_kernel_grad_x(spec, [0.0], [1.0]))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_grad_zero_at_coincident_points(self, spec):
        x = np.array([1.0, -2.0])
        assert np.array_equal(kernel_grad_x(spec, x, x), np.zeros(2))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_grad_y_negates_grad_x(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            assert np.array_equal(
                kernel_grad_y(spec, x, y), -kernel_grad_x(spec, x, y)
            )

    def test_cross_at_coincident_points(self):
        x = np.array([0.3, 0.9, -4.0])
        imq = kernel_cross_deriv_diag(KernelSpec("imq", beta=-0.5), x, x)
        assert np.array_equal(imq, np.full(3, 1.0))
        rbf = kernel_cross_deriv_diag(KernelSpec("rbf", bandwidth=2.0), x, x)
        assert_rel_close(rbf, np.full(3, 2.0 / 2.0), rtol=1e-14)
        assert_rel_close(rbf, fd_kernel_cross(KernelSpec("rbf", bandwidth=2.0), x, x))

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_cross_symmetric_in_arguments(self, spec):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert np.array_equal(
                kernel_cross_deriv_diag(spec, x, y),
                kernel_cross_deriv_diag(spec, y, x),
            )

    def test_finite_difference_agreement(self):
        # 200 random (x, y, spec) draws across all families.
        rng = np.random.default_rng(23)
        for _ in range(200):
            spec = random_kernel_spec(rng)
            d = int(rng.integers(1, 6))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            assert_rel_close(kernel_grad_x(spec, x, y), fd_kernel_grad_x(spec, x, y))
            assert_rel_close(
                kernel_cross_deriv_diag(spec, x, y), fd_kernel_cross(spec, x, y)
            )

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_purity(self, spec):
        x = np.array([0.11, -0.7])
        y = np.array([1.3, 0.2])
        assert kernel_eval(spec, x, y) == kernel_eval(spec, x, y)
        assert np.array_equal(kernel_grad_x(spec, x, y), kernel_grad_x(spec, x, y))
        assert np.array_equal(
            kernel_cross_deriv_diag(spec, x, y), kernel_cross_deriv_diag(spec, x, y)
        )


class TestRadialProfile:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_without_p2_gives_same_k_and_p1(self, spec):
        # The SVGD direction passes None for p2; k and p1 keep their bits.
        rng = np.random.default_rng(5)
        q = kernels.squared_distances(rng.standard_normal((40, 2)),
                                      rng.standard_normal((30, 2)))
        k, p1, p2 = kernels.radial_profile(spec, q)
        for scratch in (None, (np.empty_like(q), np.empty_like(q))):
            out = (np.empty_like(q), np.empty_like(q), None)
            got = kernels.radial_profile(spec, q, out=out, scratch=scratch)
            assert got[0] is out[0] and got[1] is out[1] and got[2] is None
            assert np.array_equal(got[0], k) and np.array_equal(got[1], p1)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    @pytest.mark.parametrize("with_p2", [True, False])
    def test_in_place_over_the_input_gives_the_same_bits(self, spec, with_p2):
        # The Stein engine writes k over its squared distances.
        rng = np.random.default_rng(6)
        q = kernels.squared_distances(rng.standard_normal((40, 3)),
                                      rng.standard_normal((30, 3)))
        q[0, :3] = 0.0
        expected = kernels.radial_profile(spec, q)
        sq = q.copy()
        out = (sq, np.empty_like(q), np.empty_like(q) if with_p2 else None)
        got = kernels.radial_profile(spec, sq, out=out,
                                     scratch=(np.empty_like(q), np.empty_like(q)))
        assert got[0] is sq and got[1] is out[1] and got[2] is out[2]
        for mine, theirs in zip(got, expected):
            assert mine is None or np.array_equal(mine, theirs)


class TestGram:
    def test_psd_up_to_float_noise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = random_kernel_spec(rng)
            n = int(rng.integers(2, 31))
            d = int(rng.integers(1, 6))
            X = rng.standard_normal((n, d))
            G = kernel_gram(spec, X)
            eigmin = float(np.linalg.eigvalsh(G).min())
            assert eigmin >= -1e-8 * np.trace(G)

    def test_gram_matches_pointwise_eval(self):
        # Scalar and vectorized power kernels may differ in the last ulp.
        rng = np.random.default_rng(9)
        spec = KernelSpec("log_inverse", beta=-0.8, alpha=1.3, bandwidth=2.0)
        X = rng.standard_normal((6, 3))
        Y = rng.standard_normal((4, 3))
        G = kernel_gram(spec, X, Y)
        pointwise = [[kernel_eval(spec, X[i], Y[j]) for j in range(4)]
                     for i in range(6)]
        np.testing.assert_allclose(G, pointwise, rtol=5e-16)


def _workspace_matrix(shape):
    """A NaN-filled view of a larger flat array, as the Stein engine's
    workspace hands out its matrices."""
    size = shape[0] * shape[1]
    return np.full(size + 256, np.nan)[:size].reshape(shape)


def _squared_distances(X, Y):
    """``kernels.squared_distances(X, Y)``, after checking that a call
    given workspace matrices for ``out`` and ``scratch`` returns ``out``
    with the same bits and leaves ``X`` and ``Y`` as they were."""
    X, Y = np.asarray(X), np.asarray(Y)
    kept = X.copy(), Y.copy()
    sq = kernels.squared_distances(X, Y)
    out = _workspace_matrix(sq.shape)
    assert kernels.squared_distances(X, Y, out=out,
                                     scratch=_workspace_matrix(sq.shape)) is out
    assert np.array_equal(out, sq)
    assert np.array_equal(X, kept[0]) and np.array_equal(Y, kept[1])
    return sq


class TestSquaredDistances:
    @pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 20])
    def test_matches_all_coordinates_reduction(self, d):
        # Summed in coordinate order: the same bits as numpy's last-axis
        # reduction below eight coordinates, where numpy sums sequentially;
        # from eight on numpy sums pairwise, a difference of a few ulp.
        rng = np.random.default_rng(d)
        X = rng.standard_normal((40, d))
        Y = rng.standard_normal((30, d))
        diff = X[:, None, :] - Y[None, :, :]
        reference = np.add.reduce(diff * diff, axis=2)
        sq = _squared_distances(X, Y)
        if d < 8:
            assert np.array_equal(sq, reference)
        else:
            np.testing.assert_allclose(sq, reference, rtol=4 * np.finfo(float).eps)

    def test_symmetric_and_zero_diagonal(self):
        X = np.random.default_rng(4).standard_normal((25, 9))
        sq = _squared_distances(X, X)
        assert np.array_equal(sq, sq.T)
        assert np.array_equal(np.diag(sq), np.zeros(25))

    def test_dimension_mismatch(self):
        for buffers in ({}, {"out": np.empty((2, 2)), "scratch": np.empty((2, 2))}):
            with pytest.raises(ValueError, match="dimension"):
                kernels.squared_distances(np.zeros((2, 3)), np.zeros((2, 2)), **buffers)
            # Nothing to sum would leave the buffers as they were.
            with pytest.raises(ValueError, match="no coordinates"):
                kernels.squared_distances(np.zeros((2, 0)), np.zeros((2, 0)), **buffers)

    @pytest.mark.parametrize("n", [257, 600])
    @pytest.mark.parametrize("d", [1, 3])
    def test_column_blocks_are_slices_of_the_square_matrix(self, n, d):
        # Each element is summed on its own, in coordinate order, so the
        # 256-column blocks an SSVGD direction reads as slices of the
        # round's n x n matrix are the bits of building each block alone.
        X = np.random.default_rng(n + d).standard_normal((n, d))
        sq = kernels.squared_distances(X, X)
        for i0 in range(0, n, 256):
            i1 = min(i0 + 256, n)
            assert np.array_equal(_squared_distances(X, X[i0:i1]), sq[:, i0:i1])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_edge_block_pair_in_workspace_matrices(self, d):
        # A Stein engine edge block pair: rows of one point matrix far from
        # the origin, a 256 x 232 result, given and allocated.
        X = 50.0 + np.random.default_rng(d).standard_normal((488, d))
        sq = _squared_distances(X[:256], X[256:])
        assert sq.shape == (256, 232)
        diff = X[:256, None, :] - X[None, 256:, :]
        assert np.array_equal(sq, np.add.reduce(diff * diff, axis=2))


def _median(points):
    """The median heuristic of a point matrix, from its squared distances."""
    pts = np.asarray(points, dtype=np.float64)
    return kernels.median_heuristic_bandwidth(kernels.squared_distances(pts, pts))


class TestMedianHeuristic:
    def test_three_point_example(self):
        # pairwise distances {1, 1, 2}, median 1
        bw = _median([[0.0], [1.0], [2.0]])
        assert bw == pytest.approx(1.0 / math.log(3), rel=1e-14)

    def test_degenerate_points_floor(self):
        with pytest.warns(DegenerateBandwidthWarning):
            bw = _median(np.zeros((2, 3)))
        assert bw == kernels.BANDWIDTH_FLOOR

    def test_scaling_is_quadratic(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((12, 3))
        base = _median(pts)
        assert _median(2.0 * pts) == pytest.approx(4.0 * base, rel=1e-12)
        assert _median(3.0 * pts) == pytest.approx(9.0 * base, rel=1e-12)

    def test_needs_two_points(self):
        for sq in (np.zeros((1, 1)), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="at least two points"):
                kernels.median_heuristic_bandwidth(sq)

    # Pair counts n(n-1)/2: odd for n = 2, 3, 6, 7, 50, even for 4, 5, 8, 9.
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 50])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_np_median_oracle(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        for pts in (
            rng.standard_normal((n, d)),
            rng.integers(0, 3, size=(n, d)).astype(float),  # tied distances
            1e3 + rng.standard_normal((n, d)),
        ):
            assert _median(pts) == median_heuristic_oracle(pts)

    @pytest.mark.parametrize("n", [2, 3, 50, 257, 600])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_given_squared_distances_give_same_bits(self, n, d):
        # The matrix an SSVGD round shares with its direction gives the
        # oracle's bits, above one 256-row block too, and is only read.
        pts = np.random.default_rng(7 * n + d).standard_normal((n, d))
        sq = kernels.squared_distances(pts, pts)
        kept = sq.copy()
        assert kernels.median_heuristic_bandwidth(sq) == median_heuristic_oracle(pts)
        assert np.array_equal(sq, kept)

    def test_squared_distances_of_wrong_shape_raise(self):
        for shape in ((4, 3), (3, 4), (16,), (4, 4, 1)):
            with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
                kernels.median_heuristic_bandwidth(np.ones(shape))
        with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
            kernels.median_heuristic_bandwidth([[0.0, 1.0]])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
    def test_degenerate_floor_equals_oracle(self, n):
        # Over half of the pairs coincide: all points at 0, or (from n = 5
        # on) all but one.
        pts = np.zeros((n, 2))
        if n >= 5:
            pts[0] = 1.0
        with pytest.warns(DegenerateBandwidthWarning):
            bw = _median(pts)
        with pytest.warns(DegenerateBandwidthWarning):
            assert bw == median_heuristic_oracle(pts) == kernels.BANDWIDTH_FLOOR

    def test_nan_point_gives_nan_as_oracle(self):
        pts = np.array([[0.0], [1.0], [np.nan], [3.0]])
        assert math.isnan(_median(pts))
        assert math.isnan(median_heuristic_oracle(pts))


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "imq", "beta": 0.0},
            {"family": "imq", "beta": -1.0},
            {"family": "imq", "beta": 0.5},
            {"family": "log_inverse", "beta": 0.2},
            {"family": "log_inverse", "beta": -0.5, "alpha": 0.0},
            {"family": "rbf", "bandwidth": 0.0},
            {"family": "rbf", "bandwidth": -1.0},
            {"family": "triangle"},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            KernelSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # An infinite bandwidth is a constant kernel, and an infinite
            # beta or alpha makes the log_inverse discrepancy NaN.
            {"family": "log_inverse", "beta": -math.inf},
            {"family": "log_inverse", "alpha": math.inf},
            {"family": "rbf", "bandwidth": math.inf},
        ],
    )
    def test_non_finite_parameters_name_the_field(self, kwargs):
        field = next(key for key in kwargs if key != "family")
        with pytest.raises(ValueError, match=rf"^{field} = -?inf is not finite$"):
            KernelSpec(**kwargs)

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_config_round_trip(self, spec, tmp_path):
        # The CLI's [kernel] echo of a spec, read back as a [kernel] section,
        # builds the same spec and echoes the same text.
        echo = {"kernel.family": spec.family, **{
            f"kernel.{key}": repr(float(getattr(spec, key)))
            for key in ("beta", "alpha", "bandwidth")
        }}
        config = tmp_path / "kernel.ini"
        config.write_text("[target]\nkind = gaussian\n[kernel]\n" + "".join(
            f"{key.split('.')[1]} = {value}\n" for key, value in echo.items()))
        args = SimpleNamespace(config=config, seed=None, command="score", threads=1)
        cfg = cli._Config(args, "score")
        assert cfg.kernel == spec
        assert {k: v for k, v in cfg.echo.items() if k.startswith("kernel.")} == echo
