"""Every numeric parameter the library checks, fed values it must reject.

Each row names a call, the parameter it replaces and the kind of check:
an integer of at least a minimum, a finite (positive) real, or an array
whose entries must be finite (and positive).  Every bad value must raise a
``ValueError`` that starts ``<name> = `` (``<name>[i] = `` for an array
entry) and ends in one of the checks' wordings.  ``SgldConfig``'s counts,
``SvgdConfig.fudge`` and ``ordered_map``'s thread count are fed theirs by
the older tests of those fields.
"""

import json
import math
import re

import numpy as np
import pytest

from steinlab import (DecomposableTarget, KernelSpec, SampleBatch, SgldConfig, SvgdConfig,
                      gen_gmm_data, gen_logreg_data, iid_gaussian, make_gaussian,
                      make_gmm_posterior, make_logreg, run_ssvgd, sgld_chain, sksd)
from steinlab.rng import derive_seed, make_generator

IMQ = KernelSpec("imq")
GAUSS = make_gaussian(0.0, 1.0, 4, dim=2)
POINTS = SampleBatch(np.zeros((3, 2)))

WORDINGS = r"is (not an integer|less than -?\d+|not a number|not finite|not positive)"


def _ints(minimum):
    """Non-integers, and one value below ``minimum``."""
    below = [] if minimum is None else [minimum - 1]
    return [True, 2.5, math.nan, math.inf, -math.inf, "2", np.float64(2.0)] + below


def _reals(positive):
    """Non-numbers and non-finite values, and with ``positive`` 0 and -1."""
    return [True, "1", None, math.nan, math.inf, -math.inf] + [0.0, -1] * positive


def _entries(positive):
    """Arrays with one non-finite entry, or with ``positive`` one <= 0."""
    bad = [[math.nan], [0.0, math.inf], [-math.inf, 1.0]]
    return bad + [[0.0], [1.0, -2.0]] * positive


def _with(fn, **defaults):
    """``fn`` called with ``defaults``, some replaced by keyword."""
    return lambda **kw: fn(**{**defaults, **kw})


_kernel = _with(KernelSpec, family="log_inverse")
_svgd = _with(SvgdConfig, rounds=2, batch=1, kernel=IMQ)
_sgld = _with(SgldConfig, step=0.1, batch=1, steps=2, init=0.0, seed=0)
_target = _with(DecomposableTarget, dim=1, L=2, grad_log_prior=None, terms_sum=None)
_iid = _with(iid_gaussian, n=2, d=1, mu=0.0, sigma=1.0, seed=0)
_gaussian = _with(make_gaussian, mu=0.0, sigma_sq=1.0, L=2)
_gmm = _with(make_gmm_posterior, observations=[0.5, 1.0])
_gmm_data = _with(gen_gmm_data, theta1=0.0, theta2=1.0, sigma_x_sq=2.0, L=3, seed=0)
_logreg_data = _with(gen_logreg_data, n=3, d=2, w_true=1.0, seed=0)

# (call, the parameter it takes by keyword, bad values)
ROWS = [
    (_kernel, "beta", _reals(False)),
    (_kernel, "alpha", _reals(False)),
    (_with(KernelSpec, family="imq"), "bandwidth", _reals(True)),
    (_svgd, "rounds", _ints(0)),
    (_svgd, "batch", _ints(1)),
    (_svgd, "checkpoint_every", _ints(0) + [1.5]),
    (_svgd, "seed", _ints(None) + [7.9]),
    (_svgd, "step", _reals(True)),
    (_sgld, "step", _reals(True)),
    (_sgld, "seed", _ints(None) + [3.5]),
    (_target, "dim", _ints(1)),
    (_target, "L", _ints(1)),
    (_iid, "n", _ints(1)),
    (_iid, "d", _ints(1)),
    (_iid, "sigma", _reals(True)),
    (_iid, "seed", _ints(None) + [1.5]),
    (_gaussian, "mu", _entries(False)),
    (_gaussian, "sigma_sq", _entries(True)),
    (_gaussian, "L", _ints(1) + [2.9]),
    (_gaussian, "dim", _ints(1)),
    (_gmm, "observations", _entries(False)),
    (_gmm, "sigma1_sq", _reals(True)),
    (_gmm, "sigma2_sq", _reals(True)),
    (_gmm, "sigma_x_sq", _reals(True)),
    (lambda X: make_logreg(X, [0.0, 1.0]), "X",
     [[[0.0, math.nan], [1.0, 2.0]], [[0.0], [math.inf]]]),
    (_gmm_data, "L", _ints(1)),
    (_gmm_data, "sigma_x_sq", _reals(True)),
    (_gmm_data, "seed", _ints(None)),
    (_logreg_data, "n", _ints(1)),
    (_logreg_data, "d", _ints(1)),
    (_logreg_data, "seed", _ints(None)),
    (make_generator, "seed", _ints(None)),
    (lambda seed: derive_seed(seed, "cell", 1), "seed", _ints(None)),
    (lambda seed: sksd(POINTS, GAUSS, IMQ, 2, seed), "seed", _ints(None) + [5.5]),
    (lambda seed: sksd(POINTS, GAUSS, IMQ, [2, 3], [1, seed]), "seed", [True, 5.5]),
    (lambda m: sksd(POINTS, GAUSS, IMQ, m, 0), "m", [True, 2.5, math.nan, np.float64(2.0)]),
    (lambda m: sksd(POINTS, GAUSS, IMQ, [2, m], [0, 1]), "m", [True, 2.5]),
    # Location parameters, checked before they are used: a non-finite one
    # was blamed on the sample points, returned NaN data or all-zero labels.
    (_with(_iid, d=2), "mu", _entries(False) + [math.inf]),
    (_gmm_data, "theta1", _reals(False)),
    (_gmm_data, "theta2", _reals(False)),
    (_logreg_data, "w_true", _entries(False)),
]

CASES = [pytest.param(call, name, value, id=f"{i}-{name}-{value!r}")
         for i, (call, name, values) in enumerate(ROWS) for value in values]


@pytest.mark.parametrize("call, name, value", CASES)
def test_bad_values_raise_naming_the_parameter(call, name, value):
    with pytest.raises(ValueError) as err:
        call(**{name: value})
    assert re.fullmatch(rf"{re.escape(name)}(\[[\d, ]+\])? = .* {WORDINGS}", str(err.value))


def test_numpy_integer_seeds_give_the_runs_of_python_ints():
    target = make_gmm_posterior(gen_gmm_data(0.0, 1.0, 2.0, 6, seed=2))
    points = iid_gaussian(20, 2, 0.0, 1.0, seed=1)
    for seed in (np.int64(5), np.uint64(5), np.int32(5)):
        assert np.array_equal(iid_gaussian(3, 2, 0.0, 1.0, seed).points,
                              iid_gaussian(3, 2, 0.0, 1.0, 5).points)
        assert derive_seed(seed, "cell") == derive_seed(5, "cell")
        result = sksd(points, target, IMQ, np.int64(3), seed)
        # The result records a Python int, so its JSON is that of seed 5.
        assert type(result.seed) is int
        expected = sksd(points, target, IMQ, 3, 5).to_dict()
        assert json.dumps(result.to_dict()) == json.dumps(expected)
        chains = [sgld_chain(target, _sgld(batch=2, steps=5, seed=s)) for s in (seed, 5)]
        assert np.array_equal(chains[0].points, chains[1].points)
        runs = [run_ssvgd(points, target, _svgd(batch=2, seed=s)) for s in (seed, 5)]
        assert np.array_equal(runs[0].final.points, runs[1].final.points)
